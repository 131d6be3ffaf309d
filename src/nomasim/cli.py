"""Command-line front end: config parsing, sweep dispatch, CSV emission."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, replace
from typing import get_args, get_type_hints

import numpy as np

from .channel import SystemConfig, draw_cluster
from .experiments import (
    _KINDS,
    ORACLE_BENCHMARK_RADIUS_KM,
    SweepSpec,
    make_sweep,
    run_sweep,
    write_csv,
    write_metadata,
)
from .rates import two_user_gap, two_user_gap_maximizer
from .verify import gap_maximizer_excess, run_verification


class ConfigError(ValueError):
    """Config file or override rejected; message carries the source line."""


# Each key is a field of the dataclass that declares it and parses by its
# type hint: a number as itself, a tuple as comma-separated numbers.
_CELL_KEYS = get_type_hints(SystemConfig)
_SWEEP_KEYS = {key: hint for key, hint in get_type_hints(SweepSpec).items() if key not in ("kind", "config")}


def _parse_pair(text: str, where: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, raw = text.split("=", 1)
    key, raw = key.strip(), raw.strip()
    hint = _SWEEP_KEYS.get(key, _CELL_KEYS.get(key))
    if hint is None:
        raise ConfigError(f"{where}: unknown key '{key}'")
    if not raw:
        raise ConfigError(f"{where}: key '{key}' has no value")
    try:
        value = hint(raw) if hint in (int, float) else tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key '{key}'") from None
    if get_args(hint) == (float, float) and len(value) != 2:
        raise ConfigError(f"{where}: key '{key}' needs exactly two comma-separated numbers")
    return key, value


def parse_config(path, overrides=(), base: SystemConfig = SystemConfig()) -> tuple[SystemConfig, dict, tuple[str, ...]]:
    """Read flat ``key = value`` settings and apply ``overrides`` last.

    Lines starting with '#' (or the part after an inline '#') are comments.
    Returns ``base`` with the cell settings found, the sweep settings found
    (which feed :func:`nomasim.experiments.make_sweep`) and the cell keys set.
    Unknown keys and malformed lines are rejected with the offending line number.
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
            if text:
                pairs.append(_parse_pair(text, f"{path}:{i}"))
    pairs += [_parse_pair(text, f"override {text!r}") for text in overrides]

    system_kwargs = {key: value for key, value in pairs if key not in _SWEEP_KEYS}
    sweep_kwargs = {key: value for key, value in pairs if key in _SWEEP_KEYS}
    try:
        config = replace(base, **system_kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return config, sweep_kwargs, tuple(system_kwargs)


def _resolve_config(args, reads: tuple[str, ...] | None = None) -> tuple[SystemConfig, dict, tuple[str, ...]]:
    """Cell config, sweep settings and the cell keys set of parsed arguments; ``reads``
    lists the sweep keys a non-sweep subcommand accepts (make_sweep checks a sweep's)."""
    config, sweep_kwargs, cell_keys = parse_config(args.config, args.overrides, args.base)
    if args.seed is not None:
        config = config.with_(rng_seed=args.seed)
    if reads is not None:
        unread = [key for key in sweep_kwargs if key not in reads]
        if unread:
            raise ConfigError(f"{args.subcommand} does not read the sweep key '{unread[0]}'")
    return config, sweep_kwargs, cell_keys


def _run_sweep_command(args) -> int:
    config, sweep_kwargs, cell_keys = _resolve_config(args)
    trials = sweep_kwargs.pop("trials", None)
    try:
        spec = make_sweep(args.kind, config, trials=trials if args.trials is None else args.trials, **sweep_kwargs)
    except ValueError as e:
        raise ConfigError(f"{args.subcommand}: {e}") from None
    # each sweep sets the cluster size it draws, and only a grid of power shares reads tx_power_dbm
    shares = _KINDS[args.kind].unit.startswith("share")
    unread = [key for key in cell_keys if key == "users_per_cluster" or key == "tx_power_dbm" and not shares]
    if unread:
        raise ConfigError(f"{args.subcommand} does not read the cell key '{unread[0]}', which the sweep sets itself")
    result = run_sweep(spec, workers=args.workers)
    out = args.out or os.path.join(os.environ.get("NOMASIM_OUT_DIR", "."), f"{args.kind}.csv")
    root, ext = os.path.splitext(out)
    meta = (root if ext == ".csv" else out) + ".meta.json"
    with contextlib.suppress(FileNotFoundError):
        os.remove(meta)  # so a failed write never leaves the new CSV beside the previous run's sidecar
    write_csv(result, out)
    write_metadata(result, meta)
    print(f"{args.kind}: {len(result.rows)} rows ({spec.trials} trials) -> {out}")
    print(f"metadata -> {meta}")
    if "max_gap" in result.metadata:
        gap = result.metadata["max_gap"]
        print(f"largest mean rate gap {gap['gap_bps_hz']:.4f} b/s/Hz at split point {tuple(gap['sweep_point'])}")
    return 0


def _run_gap_command(args) -> int:
    if args.grid_points < 2:
        raise ValueError(f"--grid-points must be at least 2, got {args.grid_points}")
    config, _, _ = _resolve_config(args, reads=())
    realization = draw_cluster(config, 0, args.trial_index)
    pair = config.rho * realization.effective_gains[:2]
    star = two_user_gap_maximizer(pair[0])
    grid = np.linspace(0.0, 1.0, args.grid_points)
    gaps = two_user_gap(pair, grid)
    at_grid = float(grid[int(np.argmax(gaps))])
    print(f"scaled gain of the strong user: {float(pair[0])!r}")
    print(f"closed-form maximizer: {star!r}")
    print(f"grid argmax ({args.grid_points} points): {at_grid!r}")
    print(f"gap at the closed-form point: {float(two_user_gap(pair, star))!r} b/s/Hz")
    if not gap_maximizer_excess(pair[None], grid)[0] <= 0:  # NaN fails too
        print("grid argmax disagrees with the closed form beyond one step", file=sys.stderr)
        return 1
    return 0


def _run_verify_command(args) -> int:
    config, sweep_kwargs, cell_keys = _resolve_config(args, reads=("trials",))
    if "users_per_cluster" in cell_keys:  # each check draws the cluster sizes it tests
        raise ConfigError("verify does not read the cell key 'users_per_cluster', which its checks set themselves")
    trials = args.trials if args.trials is not None else sweep_kwargs.get("trials", 1000)
    results = run_verification(trials=trials, seed=config.rng_seed, config=config)
    failed = sum(not r.passed for r in results)
    if args.json:
        rows = [asdict(r) for r in results]
        for row in rows:
            del row["note"]
            row["worst"] = row["worst"] if math.isfinite(row["worst"]) else None  # JSON has no NaN or infinity
        print(json.dumps(rows, indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:30s} trials={r.trials:6d} violations={r.violations:4d} worst={r.worst:.3e}  ({r.note})")
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


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
    common.set_defaults(base=SystemConfig())
    # Each subcommand accepts only the flags it reads.
    trials = argparse.ArgumentParser(add_help=False, parents=[common])
    trials.add_argument("--trials", type=int, help="number of Monte-Carlo trials")
    sweep = argparse.ArgumentParser(add_help=False, parents=[trials])
    sweep.add_argument("--out", metavar="PATH", help="output CSV path (default <kind>.csv in $NOMASIM_OUT_DIR or .)")
    sweep.add_argument("--workers", type=int, default=1, help="trial processes, this one included (does not affect output)")
    sweep.set_defaults(handler=_run_sweep_command)

    parser = argparse.ArgumentParser(
        prog="nomasim",
        description="Superposed vs orthogonal downlink rate sweeps and SINR-target user admission.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    surface_help = "three-user split surface instead of the two-user curve"
    p = sub.add_parser("sweep-split", parents=[sweep], help="sum rate against the power-split grid")
    p.add_argument("--surface", action="store_const", dest="kind", const="split_sweep_3user", help=surface_help)
    p.set_defaults(kind="split_sweep_2user")
    p = sub.add_parser("sweep-power", parents=[sweep], help="sum rate against transmit power, one draw")
    p.set_defaults(kind="power_sweep")
    p = sub.add_parser("ergodic", parents=[sweep], help="mean sum rate against transmit power")
    p.set_defaults(kind="ergodic_power_sweep")
    p = sub.add_parser("fairness", parents=[sweep], help="Jain index against the power-split grid")
    p.add_argument("--surface", action="store_const", dest="kind", const="fairness_3user", help=surface_help)
    p.set_defaults(kind="fairness_2user")
    p = sub.add_parser("gap", parents=[common], help="two-user rate-gap maximizer for one channel draw")
    p.add_argument("--trial", type=int, default=0, dest="trial_index", help="channel draw index")
    p.add_argument("--grid-points", type=int, default=10001, help="dense grid size for the argmax cross-check")
    p.set_defaults(handler=_run_gap_command)
    p = sub.add_parser("admission", parents=[sweep], help="admitted users against target SINR")
    p.add_argument(
        "--by-requesting", action="store_const", dest="kind", const="admission_vs_requesting",
        help="sweep the requesting-pool size instead",
    )
    p.set_defaults(kind="admission_vs_sinr")
    p = sub.add_parser("oracle-compare", parents=[sweep], help="sequential admission against the exact optimum")
    p.add_argument(
        "--mixed", action="store_const", dest="kind", const="oracle_compare_mixed",
        help="per-user random 5/10/15 dB targets instead of equal ones",
    )
    # dense deployment so the comparison with the optimum is not ceiling-bound
    p.set_defaults(kind="oracle_compare_equal", base=SystemConfig(cell_radius_range_km=ORACLE_BENCHMARK_RADIUS_KM))
    p = sub.add_parser("verify", parents=[trials], help="run the randomized invariant checks")
    p.add_argument("--json", action="store_true", help="print each check's numbers and tolerance as JSON")
    # the verification checks' own default seed
    p.set_defaults(handler=_run_verify_command, base=SystemConfig(rng_seed=0))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
