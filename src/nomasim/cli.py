"""Command-line front end: config parsing, sweep dispatch, CSV emission."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .channel import SystemConfig, draw_cluster
from .experiments import (
    ORACLE_BENCHMARK_RADIUS_KM,
    make_sweep,
    run_sweep,
    write_csv,
    write_metadata,
)
from .rates import two_user_gap, two_user_gap_maximizer
from .verify import run_verification


class ConfigError(ValueError):
    """Config file or override rejected; message carries the source line."""


_INT_KEYS = ("tx_antennas", "rx_antennas", "users_per_cluster", "rng_seed")
_FLOAT_KEYS = (
    "bandwidth_hz",
    "noise_density_dbm_hz",
    "pathloss_fixed_db",
    "pathloss_slope",
    "tx_power_dbm",
)
_PAIR_KEYS = ("cell_radius_range_km",)

_SWEEP_INT_KEYS = ("trials", "requesting_users", "enumeration_cap")
_SWEEP_FLOAT_KEYS = ("extension_fraction",)
_SWEEP_TUPLE_KEYS = (
    "power_dbm_values",
    "target_sinr_db_values",
    "threshold_choices_db",
    "base_split",
    "grid",
)

_KNOWN_KEYS = _INT_KEYS + _FLOAT_KEYS + _PAIR_KEYS + _SWEEP_INT_KEYS + _SWEEP_FLOAT_KEYS + _SWEEP_TUPLE_KEYS


def _parse_value(key: str, raw: str, where: str):
    try:
        if key in _INT_KEYS or key in _SWEEP_INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS or key in _SWEEP_FLOAT_KEYS:
            return float(raw)
        values = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key '{key}'") from None
    if key in _PAIR_KEYS or key == "base_split":
        if len(values) != 2:
            raise ConfigError(f"{where}: key '{key}' needs exactly two comma-separated numbers")
    return values


def _parse_pair(text: str, where: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, raw = text.split("=", 1)
    key, raw = key.strip(), raw.strip()
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"{where}: unknown key '{key}'")
    if not raw:
        raise ConfigError(f"{where}: key '{key}' has no value")
    return key, _parse_value(key, raw, where)


def parse_config(path, overrides=(), base: SystemConfig | None = None) -> tuple[SystemConfig, dict]:
    """Read flat ``key = value`` settings and apply ``overrides`` last.

    Lines starting with '#' (or the part after an inline '#') are comments.
    Returns the cell configuration plus the sweep-level settings found, which
    feed :func:`nomasim.experiments.make_sweep`. Unknown keys and malformed
    lines are rejected with the offending line number.
    """
    pairs: list[tuple[str, object]] = []
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from None
        for i, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            pairs.append(_parse_pair(text, f"{path}:{i}"))
    for text in overrides:
        pairs.append(_parse_pair(text, f"override {text!r}"))

    system_kwargs: dict = {}
    sweep_kwargs: dict = {}
    for key, value in pairs:
        if key in _SWEEP_INT_KEYS + _SWEEP_FLOAT_KEYS + _SWEEP_TUPLE_KEYS:
            sweep_kwargs[key] = value
        else:
            system_kwargs[key] = value
    try:
        config = replace(base, **system_kwargs) if base is not None else SystemConfig(**system_kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return config, sweep_kwargs


@dataclass(frozen=True)
class CliInvocation:
    """One resolved command: what to run and where to write it."""

    subcommand: str
    config_path: str | None = None
    overrides: tuple[str, ...] = ()
    out_path: str | None = None
    seed: int | None = None
    trials: int | None = None
    workers: int = 1
    surface: bool = False
    mixed: bool = False
    by_requesting: bool = False
    trial_index: int = 0
    grid_points: int = 10001


_KIND_BY_COMMAND = {
    "sweep-split": ("split_sweep_2user", "split_sweep_3user"),
    "sweep-power": ("power_sweep", "power_sweep"),
    "ergodic": ("ergodic_power_sweep", "ergodic_power_sweep"),
    "fairness": ("fairness_2user", "fairness_3user"),
    "admission": ("admission_vs_sinr", "admission_vs_requesting"),
    "oracle-compare": ("oracle_compare_equal", "oracle_compare_mixed"),
}


def _metadata_path(csv_path: str) -> str:
    root, ext = os.path.splitext(csv_path)
    return (root if ext == ".csv" else csv_path) + ".meta.json"


def _resolve_config(inv: CliInvocation, reads: tuple[str, ...] = ()) -> tuple[SystemConfig, dict]:
    """Cell config and sweep settings of an invocation; ``reads`` lists the
    sweep keys a non-sweep subcommand accepts."""
    base = SystemConfig()
    if inv.subcommand == "oracle-compare":
        # dense deployment so the comparison with the optimum is not ceiling-bound
        base = base.with_(cell_radius_range_km=ORACLE_BENCHMARK_RADIUS_KM)
    elif inv.subcommand == "verify":
        base = base.with_(rng_seed=0)  # the verification checks' own default seed
    config, sweep_kwargs = parse_config(inv.config_path, inv.overrides, base=base)
    if inv.seed is not None:
        config = config.with_(rng_seed=inv.seed)
    if inv.subcommand not in _KIND_BY_COMMAND:
        unread = [key for key in sweep_kwargs if key not in reads]
        if unread:
            raise ConfigError(f"{inv.subcommand} does not read the sweep key '{unread[0]}'")
    return config, sweep_kwargs


def _run_sweep_command(inv: CliInvocation) -> int:
    variant = inv.surface or inv.mixed or inv.by_requesting
    kind = _KIND_BY_COMMAND[inv.subcommand][1 if variant else 0]
    config, sweep_kwargs = _resolve_config(inv)
    trials = inv.trials if inv.trials is not None else sweep_kwargs.pop("trials", None)
    sweep_kwargs.pop("trials", None)
    try:
        spec = make_sweep(kind, config, trials=trials, **sweep_kwargs)
    except ValueError as e:
        raise ConfigError(f"{inv.subcommand}: {e}") from None
    result = run_sweep(spec, workers=inv.workers)
    out = inv.out_path or os.path.join(os.environ.get("NOMASIM_OUT_DIR", "."), f"{kind}.csv")
    write_csv(result, out)
    meta = _metadata_path(out)
    write_metadata(result, meta)
    print(f"{kind}: {len(result.rows)} rows ({spec.trials} trials) -> {out}")
    print(f"metadata -> {meta}")
    if "max_gap" in result.metadata:
        gap = result.metadata["max_gap"]
        print(f"largest mean rate gap {gap['gap_bps_hz']:.4f} b/s/Hz at split point {tuple(gap['sweep_point'])}")
    return 0


def _run_gap_command(inv: CliInvocation) -> int:
    config, _ = _resolve_config(inv)
    if config.users_per_cluster < 2:
        raise ConfigError("gap needs at least two users per cluster")
    realization = draw_cluster(config, 0, inv.trial_index)
    pair = realization.snr_gains[:2]
    star = two_user_gap_maximizer(pair[0])
    grid = np.linspace(0.0, 1.0, inv.grid_points)
    gaps = two_user_gap(pair, grid)
    at_grid = float(grid[int(np.argmax(gaps))])
    step = float(grid[1] - grid[0])
    print(f"scaled gain of the strong user: {float(pair[0])!r}")
    print(f"closed-form maximizer: {star!r}")
    print(f"grid argmax ({inv.grid_points} points): {at_grid!r}")
    print(f"gap at the closed-form point: {float(two_user_gap(pair, star))!r} b/s/Hz")
    if abs(at_grid - star) > step:
        print("grid argmax disagrees with the closed form beyond one step", file=sys.stderr)
        return 1
    return 0


def _run_verify_command(inv: CliInvocation) -> int:
    config, sweep_kwargs = _resolve_config(inv, reads=("trials",))
    trials = inv.trials if inv.trials is not None else sweep_kwargs.get("trials", 1000)
    results = run_verification(trials=trials, seed=config.rng_seed, config=config)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{status}  {r.name:30s} trials={r.trials:6d} violations={r.violations:4d} worst={r.worst:.3e}  ({r.note})")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def run(invocation: CliInvocation) -> int:
    """Dispatch one invocation; returns the process exit status."""
    if invocation.subcommand == "verify":
        return _run_verify_command(invocation)
    if invocation.subcommand == "gap":
        return _run_gap_command(invocation)
    if invocation.subcommand in _KIND_BY_COMMAND:
        return _run_sweep_command(invocation)
    raise ConfigError(f"unknown subcommand '{invocation.subcommand}'")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key = value settings file")
    common.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one setting (repeatable, applied after --config)",
    )
    common.add_argument("--seed", type=int, help="override the base RNG seed")
    # Each subcommand accepts only the flags it reads.
    trials = argparse.ArgumentParser(add_help=False, parents=[common])
    trials.add_argument("--trials", type=int, help="number of Monte-Carlo trials")
    sweep = argparse.ArgumentParser(add_help=False, parents=[trials])
    sweep.add_argument("--out", metavar="PATH", help="output CSV path (default <kind>.csv in $NOMASIM_OUT_DIR or .)")
    sweep.add_argument("--workers", type=int, default=1, help="parallel trial workers (does not affect output)")

    parser = argparse.ArgumentParser(
        prog="nomasim",
        description="Superposed vs orthogonal downlink rate sweeps and SINR-target user admission.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sweep-split", parents=[sweep], help="sum rate against the power-split grid")
    p.add_argument("--surface", action="store_true", help="three-user split surface instead of the two-user curve")
    sub.add_parser("sweep-power", parents=[sweep], help="sum rate against transmit power, one draw")
    sub.add_parser("ergodic", parents=[sweep], help="mean sum rate against transmit power")
    p = sub.add_parser("fairness", parents=[sweep], help="Jain index against the power-split grid")
    p.add_argument("--surface", action="store_true", help="three-user split surface instead of the two-user curve")
    p = sub.add_parser("gap", parents=[common], help="two-user rate-gap maximizer for one channel draw")
    p.add_argument("--trial", type=int, default=0, dest="trial_index", help="channel draw index")
    p.add_argument("--grid-points", type=int, default=10001, help="dense grid size for the argmax cross-check")
    p = sub.add_parser("admission", parents=[sweep], help="admitted users against target SINR")
    p.add_argument("--by-requesting", action="store_true", help="sweep the requesting-pool size instead")
    p = sub.add_parser("oracle-compare", parents=[sweep], help="sequential admission against the exact optimum")
    p.add_argument("--mixed", action="store_true", help="per-user random 5/10/15 dB targets instead of equal ones")
    sub.add_parser("verify", parents=[trials], help="run the randomized invariant checks")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    invocation = CliInvocation(
        subcommand=args.subcommand,
        config_path=args.config,
        overrides=tuple(args.overrides),
        out_path=getattr(args, "out", None),
        seed=args.seed,
        trials=getattr(args, "trials", None),
        workers=getattr(args, "workers", 1),
        surface=getattr(args, "surface", False),
        mixed=getattr(args, "mixed", False),
        by_requesting=getattr(args, "by_requesting", False),
        trial_index=getattr(args, "trial_index", 0),
        grid_points=getattr(args, "grid_points", 10001),
    )
    try:
        return run(invocation)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
