"""Monte-Carlo sweep drivers and their CSV/metadata serialization.

Every sweep evaluates all of its schemes on the same channel draws (trial t of
a sweep always uses the realization keyed by ``(rng_seed, cluster 0, t)``), so
scheme comparisons are paired and per-trial inequalities survive averaging.
Trials are evaluated a chunk at a time, on arrays with a leading trial axis.
Rate sweeps reduce per-user rate columns (summed in user order, or stacked for
the Jain index) and never stack rates only to sum them.
Each trial's values are a pure function of ``(spec, trial)``, whatever chunk
it falls in, and results are reduced in trial order, which keeps output
byte-identical for any chunking and any worker count. With several workers the
calling process evaluates the first contiguous share of trials itself while
child processes evaluate the others and send their values back over pipes.

Each sweep kind is one entry of ``_KINDS``: the cluster size it draws, its
default trials and grid, what its grid holds, the sweep keys it reads, the
series it reports and how a chunk of trials is evaluated. The oracle kinds
set sequential admission against the exact optimum, which the composition DP
of :mod:`nomasim.admission` computes for a whole chunk at once, with counts
equal to those of subset enumeration, the reference it is tested against.
Their draws are power-free, so one DP walk per trial and target row serves
every grid power (``_optimal_admit_powers``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .admission import _optimal_admit_powers, _require_dp_states, _sequential_admit_batch
from .channel import ClusterRealization, SystemConfig, _trial_streams, draw_cluster
from .rates import _columns, _noma_columns, _optimal_oma_columns, _sum_users, extend_split, jain_index
from .units import db_to_linear, is_whole, require_finite, require_linear, store_python_numbers

# Decorrelates the threshold draws of the mixed-target benchmark from the
# channel stream of the same trial.
_THRESHOLD_STREAM = 104729

# Serving area for the admission benchmark against the optimum.
# The comparison tolerances assume a dense deployment where most requesting
# users are admissible; the wide default cell is kept for the other sweeps.
ORACLE_BENCHMARK_RADIUS_KM = (0.01, 0.15)

_EQUAL_MODE_RATE_TOL = 1e-12

# Trials per array pass: enough to spread the per-call overhead of the array
# kernels, few enough that a chunk's temporaries stay around a megabyte.
_CHUNK_TRIALS = 256


def value_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive evenly spaced grid with stable rounding."""
    if step <= 0 or stop < start:
        raise ValueError("need step > 0 and stop >= start")
    n = int(round((stop - start) / step)) + 1
    return tuple(round(start + i * step, 12) for i in range(n))


def split_surface_grid(step: float = 0.05) -> tuple[tuple[float, float], ...]:
    """(strong-user share, mid-user fraction of remainder) pairs; the strong
    share stops short of 1 where the remainder split is meaningless."""
    return tuple(
        (a, b) for a in value_grid(0.0, 1.0 - step, step) for b in value_grid(0.0, 1.0, step)
    )


@dataclass(frozen=True)
class SweepSpec:
    """What to run: sweep kind, its grid, trial count and the cell setup, whose
    cluster size is set to the one the kind draws (see :class:`_Kind`)."""

    kind: str
    grid: tuple
    trials: int
    config: SystemConfig
    power_dbm_values: tuple[float, ...] = (30.0, 40.0, 50.0)
    target_sinr_db_values: tuple[float, ...] = (10.0,)
    requesting_users: int = 8
    threshold_choices_db: tuple[float, ...] = (5.0, 10.0, 15.0)
    base_split: tuple[float, float] = (0.2, 0.8)
    extension_fraction: float = 1.0 / 3.0

    def __post_init__(self):
        require_finite(self)
        entry = _kind_entry(self.kind)
        if not is_whole(self.trials, 1):
            raise ValueError("trials must be a positive integer")
        _check_grid(entry, self.grid)
        if 0 in (len(self.power_dbm_values), len(self.target_sinr_db_values), len(self.threshold_choices_db)):
            raise ValueError("series value lists must be non-empty")
        if "power_dbm_values" in entry.reads:
            self.config._require_power("power_dbm_values entries", self.power_dbm_values)
        for key in ("target_sinr_db_values", "threshold_choices_db"):
            if key in entry.reads:
                require_linear(f"{key} entries", getattr(self, key))
        if entry.unit == "dBm":
            self.config._require_power("grid entries", self.grid)
        elif entry.unit == "dB":
            require_linear("grid entries", self.grid)
        if not is_whole(self.requesting_users, 1):
            raise ValueError("requesting_users must be a positive integer")
        if entry.users is None and self.requesting_users < 2:
            raise ValueError("requesting_users must be at least 2, as it is the cluster size drawn")
        w1, w2 = self.base_split
        if w1 < 0 or w2 < 0 or abs(w1 + w2 - 1.0) > 1e-9:
            raise ValueError("base_split must be two non-negative shares summing to 1")
        if not 0 <= self.extension_fraction <= 1:
            raise ValueError("extension_fraction must lie in [0, 1]")
        if entry.unit == "users" and max(self.grid) != self.requesting_users:
            raise ValueError("requesting_users must equal the largest pool size in grid")
        if entry.levels:
            _require_dp_states(self.requesting_users, entry.levels(self))
        store_python_numbers(self)
        object.__setattr__(self, "config", replace(self.config, users_per_cluster=entry.users or self.requesting_users))


@dataclass(frozen=True)
class SweepRow:
    sweep_point: tuple[float, ...]
    scheme: str
    metric: str
    mean: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    kind: str
    rows: tuple[SweepRow, ...]
    metadata: dict


@dataclass(frozen=True)
class _Kind:
    """Everything that tells one sweep kind from the others.

    ``users`` is the cluster size drawn per trial; ``None`` draws
    ``requesting_users``, which a grid of pool sizes must end at. ``unit``
    says what a grid entry is: a strong-user power ``"share"`` in [0, 1], a
    ``"share pair"`` (strong share, mid-user fraction of the rest), a
    transmit power in ``"dBm"``, an SINR target in ``"dB"`` or a pool size in
    ``"users"``.
    ``evaluate(spec, realization, trials)`` gives the values of a chunk of
    trials, shape ``(len(trials), len(series(spec)), len(spec.grid))``, from
    the chunk's batched draw (trial axis first) and its trial indices; trial
    i's values must not depend on the rest of the chunk. ``reads`` names the
    :class:`SweepSpec` fields besides ``grid`` the kind uses, the only ones
    :func:`make_sweep` accepts as overrides.
    """

    users: int | None
    trials: int
    grid: tuple
    unit: str
    series: Callable[[SweepSpec], tuple[tuple[str, str], ...]]
    evaluate: Callable[[SweepSpec, ClusterRealization, np.ndarray], np.ndarray]
    reads: tuple[str, ...] = ()
    levels: Callable[[SweepSpec], int] | None = None  # distinct targets an oracle instance can draw
    defaults: dict = field(default_factory=dict)  # SweepSpec fields make_sweep sets


def _kind_entry(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ValueError(f"unknown sweep kind '{kind}'")
    return _KINDS[kind]


def _check_grid(entry: _Kind, grid) -> None:
    if not grid:
        raise ValueError("grid must be non-empty")
    if entry.unit == "share pair":
        if any(np.ndim(p) != 1 or len(p) != 2 for p in grid):
            raise ValueError("surface sweeps need a grid of (x, y) pairs")
        flat = [v for p in grid for v in p]
    else:
        if any(np.ndim(p) != 0 for p in grid):
            raise ValueError("this sweep kind needs a grid of scalars")
        flat = list(grid)
    if not np.all(np.isfinite(flat)):
        raise ValueError("grid entries must be finite")
    if entry.unit.startswith("share") and (min(flat) < 0 or max(flat) > 1):
        raise ValueError("power-share grids must stay inside [0, 1]")
    if entry.unit == "users" and any(int(p) != p or p < 1 for p in grid):
        raise ValueError("requesting-user grid must hold positive integers")


def _num_label(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


def _scheme_rows(pairs, reduce) -> np.ndarray:
    """Superposed, then optimal-share orthogonal ``reduce(columns)`` of the per-user rate
    columns of each ``(gains, splits)`` pair, on the series axis after the trial axis."""
    rows = []
    for gains, split in pairs:
        g, w = _columns(gains, split)
        rows += [reduce(_noma_columns(g, w)), reduce(_optimal_oma_columns(g, w))]
    return np.stack(rows, axis=1)


def _fairness(columns: list) -> np.ndarray:
    """Jain index of each rate vector; shares sum to 1, so all-zero rates mean gains too low for any rate."""
    rates = np.stack(columns, axis=-1)
    if np.any(np.all(rates == 0.0, axis=-1)):
        keys = "tx_power_dbm, noise_density_dbm_hz, bandwidth_hz, pathloss_fixed_db, pathloss_slope and cell_radius_range_km"
        raise ValueError(f"every rate rounds to 0: the SNR that {keys} give is too low")
    return jain_index(rates)


def _rate_series(sizes, metric: str):
    series = tuple((f"{scheme}_{k}user", metric) for k in sizes for scheme in ("noma", "oma"))
    return lambda spec: series


def _splits(grid, users: int) -> np.ndarray:
    """Power splits of the grid points, one row per point.

    A surface point (a, b) gives the strong user a and splits the remainder
    b : 1 - b. A scalar share goes to the strong user and the remainder to the
    weak user, or is halved over the two weaker users.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim == 2:
        a, b = pts[:, 0], pts[:, 1]
        return np.stack([a, b * (1 - a), (1 - a) * (1 - b)], axis=-1)
    if users == 2:
        return np.stack([pts, 1 - pts], axis=-1)
    return np.stack([pts, (1 - pts) / 2, (1 - pts) / 2], axis=-1)


def _share_values(sizes, reduce):
    """Evaluator of a power-share grid over the strongest k users, k in ``sizes``."""

    def evaluate(spec: SweepSpec, realization: ClusterRealization, trials: np.ndarray) -> np.ndarray:
        g = spec.config.rho * realization.effective_gains[:, None, :]
        return _scheme_rows([(g[..., :k], _splits(spec.grid, k)) for k in sizes], reduce)

    return evaluate


def _rho(config: SystemConfig, powers_dbm) -> np.ndarray:
    return np.array([config.rho_at(p) for p in powers_dbm])


def _power_values(spec: SweepSpec, realization: ClusterRealization, trials: np.ndarray) -> np.ndarray:
    g3 = _rho(spec.config, spec.grid)[:, None] * realization.effective_gains[:, None, :3]
    w2 = np.asarray(spec.base_split, dtype=float)
    w3 = extend_split(w2, spec.extension_fraction)
    return _scheme_rows([(g3[..., :2], w2), (g3, w3)], _sum_users)


def _admission_series(schemes, blocks):
    """Count and sum-rate series of each scheme in each block ``blocks(spec)`` labels."""
    return lambda spec: tuple(
        (f"{scheme}_{block}", metric)
        for block in blocks(spec)
        for scheme in schemes
        for metric in ("admitted_count", "sum_rate_bps_hz")
    )


def _admission_rows(gains, thresholds, optimum=None) -> np.ndarray:
    """Series rows of a batch of admission instances.

    ``gains`` and linear ``thresholds`` broadcast to ``(trials, blocks...,
    grid, users)``. The result, ``(trials, series, grid)``, holds per block
    the admitted count and sum rate of sequential admission and, given the
    ``optimum``'s counts and rates over ``(trials, blocks..., grid)``, those
    and their excess over sequential admission.
    """
    count, rate = _sequential_admit_batch(gains, thresholds)
    rows = [count, rate]
    if optimum is not None:
        best_count, best_rate = optimum
        rows += [best_count, best_rate, best_count - count, best_rate - rate]
    values = np.stack(rows, axis=-2)  # (trials, blocks..., series, grid)
    return values.reshape(len(values), -1, values.shape[-1])


def _sinr_values(spec: SweepSpec, realization: ClusterRealization, trials: np.ndarray) -> np.ndarray:
    rho = _rho(spec.config, spec.power_dbm_values)
    gains = rho[:, None, None] * realization.effective_gains[:, None, None, :]
    return _admission_rows(gains, db_to_linear(spec.grid)[:, None])


def _requesting_values(spec: SweepSpec, realization: ClusterRealization, trials: np.ndarray) -> np.ndarray:
    # Requesting pools are nested in draw order (not in sorted order), so a
    # longer list never removes anyone from a shorter one. Each pool is padded
    # with zero gains to the full list, which leaves its admission unchanged.
    eff = realization.effective_gains
    draw_order = np.take_along_axis(eff, np.argsort(realization.sort_order, axis=-1), axis=-1)
    pools = np.zeros(eff.shape[:1] + (len(spec.grid),) + eff.shape[1:])
    for j, n in enumerate(spec.grid):
        pools[:, j, : int(n)] = np.sort(draw_order[:, : int(n)], axis=-1)[:, ::-1]
    rho = _rho(spec.config, spec.power_dbm_values)
    gains = rho[:, None, None, None] * pools[:, None, None]
    targets = db_to_linear(spec.target_sinr_db_values)
    return _admission_rows(gains, targets[:, None, None])


def _oracle_equal_values(spec: SweepSpec, realization: ClusterRealization, trials: np.ndarray) -> np.ndarray:
    rho, eff = _rho(spec.config, spec.grid), realization.effective_gains
    targets = db_to_linear(spec.target_sinr_db_values)
    optimum = _optimal_admit_powers(eff[:, None, :], targets[:, None], rho)
    rows = _admission_rows(rho[:, None] * eff[:, None, None, :], targets[:, None, None], optimum)
    diverged = (rows[:, 4::6] != 0) | (np.abs(rows[:, 5::6]) > _EQUAL_MODE_RATE_TOL)
    if diverged.any():
        t, i, j = np.argwhere(diverged)[0]
        raise RuntimeError(
            "equal-target admission diverged from the optimum "
            f"(trial {trials[t]}, power {spec.grid[j]} dBm, target {spec.target_sinr_db_values[i]} dB)"
        )
    return rows


def _mixed_thresholds_db(spec: SweepSpec, trials) -> np.ndarray:
    """Targets of shape (trials, users); trial t's stream is keyed ``[rng_seed, t, _THRESHOLD_STREAM]``."""
    picks = np.empty((len(trials), spec.requesting_users), dtype=np.int64)
    for row, rng in zip(picks, _trial_streams((spec.config.rng_seed,), trials, (_THRESHOLD_STREAM,))):
        row[:] = rng.integers(0, len(spec.threshold_choices_db), size=spec.requesting_users)  # choice()'s bits
    return np.asarray(spec.threshold_choices_db, dtype=float)[picks]


def _oracle_mixed_values(spec: SweepSpec, realization: ClusterRealization, trials: np.ndarray) -> np.ndarray:
    thresholds = db_to_linear(_mixed_thresholds_db(spec, trials))
    rho, eff = _rho(spec.config, spec.grid), realization.effective_gains
    optimum = _optimal_admit_powers(eff, thresholds, rho)
    return _admission_rows(rho[:, None] * eff[:, None, :], thresholds[:, None, :], optimum)


def _power_labels(spec: SweepSpec) -> list[str]:
    return [f"p{_num_label(p)}" for p in spec.power_dbm_values]


def _power_target_labels(spec: SweepSpec) -> list[str]:
    targets = spec.target_sinr_db_values
    return [f"p{_num_label(p)}_s{_num_label(s)}" for p in spec.power_dbm_values for s in targets]


def _target_labels(spec: SweepSpec) -> list[str]:
    return [f"s{_num_label(s)}" for s in spec.target_sinr_db_values]


_SHARE_GRID = value_grid(0.0, 1.0, 0.01)
_SURFACE_GRID = split_surface_grid()
_POWER_GRID = value_grid(20.0, 50.0, 2.0)
_ORACLE_GRID = value_grid(30.0, 50.0, 5.0)
_SUM_RATES = _rate_series((2, 3), "sum_rate_bps_hz")
_SEQUENTIAL = ("greedy",)
_ORACLE = ("greedy", "exhaustive", "exhaustive_minus_greedy")

_RATE_KEYS = ("base_split", "extension_fraction")

# The split and power sweeps draw three users and carry the 2- and 3-user
# schemes on the same draw.
_KINDS = {
    "split_sweep_2user": _Kind(3, 1, _SHARE_GRID, "share", _SUM_RATES, _share_values((2, 3), _sum_users)),
    "split_sweep_3user": _Kind(
        3, 1, _SURFACE_GRID, "share pair", _rate_series((3,), "sum_rate_bps_hz"), _share_values((3,), _sum_users)
    ),
    "power_sweep": _Kind(3, 1, _POWER_GRID, "dBm", _SUM_RATES, _power_values, reads=_RATE_KEYS),
    "ergodic_power_sweep": _Kind(3, 1000, _POWER_GRID, "dBm", _SUM_RATES, _power_values, reads=_RATE_KEYS),
    "fairness_2user": _Kind(
        2, 1, _SHARE_GRID, "share", _rate_series((2,), "jain_index"), _share_values((2,), _fairness)
    ),
    "fairness_3user": _Kind(
        3, 1, _SURFACE_GRID, "share pair", _rate_series((3,), "jain_index"), _share_values((3,), _fairness)
    ),
    "admission_vs_sinr": _Kind(
        None, 1000, value_grid(5.0, 20.0, 2.5), "dB", _admission_series(_SEQUENTIAL, _power_labels), _sinr_values,
        reads=("power_dbm_values", "requesting_users"),
    ),
    "admission_vs_requesting": _Kind(
        None, 1000, tuple(float(n) for n in range(2, 13)), "users",
        _admission_series(_SEQUENTIAL, _power_target_labels), _requesting_values,
        reads=("power_dbm_values", "target_sinr_db_values", "requesting_users"),
    ),
    "oracle_compare_equal": _Kind(
        None, 1000, _ORACLE_GRID, "dBm", _admission_series(_ORACLE, _target_labels), _oracle_equal_values,
        reads=("target_sinr_db_values", "requesting_users"), defaults={"target_sinr_db_values": (5.0, 10.0, 15.0)},
        levels=lambda spec: 1,
    ),
    "oracle_compare_mixed": _Kind(
        None, 1000, _ORACLE_GRID, "dBm", _admission_series(_ORACLE, lambda spec: ["mixed"]), _oracle_mixed_values,
        reads=("threshold_choices_db", "requesting_users"), levels=lambda spec: len(set(spec.threshold_choices_db)),
    ),
}
SWEEP_KINDS = tuple(_KINDS)


def make_sweep(kind: str, config: SystemConfig, trials: int | None = None, **overrides) -> SweepSpec:
    """Build a :class:`SweepSpec` with the conventional defaults per kind.

    Overrides are ``grid`` and the fields the kind reads; any other key is
    rejected, since it would be recorded in the sidecar without effect.
    """
    entry = _kind_entry(kind)
    unread = [key for key in overrides if key != "grid" and key not in entry.reads]
    if unread:
        reads = ", ".join(("grid",) + entry.reads)
        raise ValueError(f"sweep kind '{kind}' does not read '{unread[0]}' (it reads {reads})")
    grid = overrides.pop("grid", None)
    grid = entry.grid if grid is None else tuple(grid)
    fields = {**entry.defaults, **overrides}
    if entry.unit == "users":
        _check_grid(entry, grid)  # before the pool size is read from it
        fields.setdefault("requesting_users", int(max(grid)))
    return SweepSpec(kind=kind, grid=grid, trials=entry.trials if trials is None else trials, config=config, **fields)


def sweep_series(spec: SweepSpec) -> tuple[tuple[str, str], ...]:
    """Ordered (scheme, metric) pairs a sweep reports per grid point."""
    return _KINDS[spec.kind].series(spec)


def _evaluate_trials(spec: SweepSpec, start: int, stop: int) -> np.ndarray:
    """Values of trials ``start`` to ``stop - 1``, shape (trials, n_series, n_grid),
    evaluated ``_CHUNK_TRIALS`` trials at a time."""
    evaluate = _KINDS[spec.kind].evaluate
    chunks = []
    for first in range(start, stop, _CHUNK_TRIALS):
        trials = np.arange(first, min(first + _CHUNK_TRIALS, stop))
        chunks.append(evaluate(spec, draw_cluster(spec.config, 0, trials), trials))
    return np.concatenate(chunks)


def _send_share(writer, spec: SweepSpec, start: int, stop: int) -> None:
    """Body of a child process: send the values of trials ``start`` to
    ``stop - 1``, or the exception that stopped them with its traceback, and
    close the pipe."""
    with writer:
        try:
            values = _evaluate_trials(spec, start, stop)
        except Exception as exc:
            import traceback

            values = (exc, traceback.format_exc())
        writer.send(values)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Execute a sweep and reduce per-trial values to mean and stderr rows.

    ``workers`` only changes how trials are scheduled: they are cut into that
    many contiguous shares, each evaluated chunk by chunk. This process takes
    the first share while a child process per other share sends its values
    back over a pipe; a child's exception is raised here, a child that dies
    raises ``RuntimeError``, and no child outlives the call. ``workers`` is
    capped at one per chunk, so a single chunk starts no child, where its
    start-up costs more than it saves. The reduction always happens in trial
    order, so results are identical for any width.
    """
    if not is_whole(workers, 1):
        raise ValueError("workers must be a positive integer")
    workers = min(workers, math.ceil(spec.trials / _CHUNK_TRIALS))
    share = math.ceil(spec.trials / workers)
    shares = [(start, min(start + share, spec.trials)) for start in range(0, spec.trials, share)]
    children, readers = [], []
    try:
        for start, stop in shares[1:]:
            import multiprocessing  # only a sweep that starts children pays for the import

            reader, writer = multiprocessing.Pipe(duplex=False)
            readers.append(reader)
            # Closing this process's write end at once makes a dead child read as EOF.
            with writer:
                child = multiprocessing.Process(target=_send_share, args=(writer, spec, start, stop))
                child.start()
            children.append(child)
        parts = [_evaluate_trials(spec, *shares[0])]
        for child, reader, (start, stop) in zip(children, readers, shares[1:]):
            try:
                parts.append(reader.recv())
            except EOFError:  # every write end closed with nothing sent: the child died
                child.join()
                raise RuntimeError(
                    f"the worker for trials {start} to {stop - 1} exited with code {child.exitcode} before sending"
                ) from None
            child.join()
            if isinstance(parts[-1], tuple):
                exc, trace = parts[-1]
                raise exc from RuntimeError(f"in the worker for trials {start} to {stop - 1}:\n{trace}")
    finally:
        for child in children:
            child.terminate()  # a no-op once joined; stops a child still running after a failure
            child.join()
        for reader in readers:
            reader.close()
    stacked = np.concatenate(parts)
    del parts  # copied into ``stacked``; the reduction's temporaries need the room
    mean = stacked.mean(axis=0)
    if spec.trials > 1:
        stderr = stacked.std(axis=0, ddof=1) / math.sqrt(spec.trials)
    else:
        stderr = np.zeros_like(mean)

    series = sweep_series(spec)
    surface = _KINDS[spec.kind].unit == "share pair"
    rows = []
    for gi, point in enumerate(spec.grid):
        pt = tuple(point) if surface else (float(point),)
        for si, (scheme, metric) in enumerate(series):
            rows.append(
                SweepRow(
                    sweep_point=pt,
                    scheme=scheme,
                    metric=metric,
                    mean=float(mean[si, gi]),
                    stderr=float(stderr[si, gi]),
                    trials=spec.trials,
                )
            )
    metadata = _build_metadata(spec, series, mean, surface)
    return SweepResult(kind=spec.kind, rows=tuple(rows), metadata=metadata)


def _build_metadata(spec: SweepSpec, series, mean: np.ndarray, surface: bool) -> dict:
    sweep = asdict(spec)
    cfg = sweep.pop("config")
    sweep.update(
        grid=[list(map(float, p)) if surface else float(p) for p in spec.grid],
        series=[list(s) for s in series],
        oma_baseline="optimal_dof",
    )
    meta = {
        "tool": "nomasim",
        "version": __version__,
        "config": cfg,
        "sweep": sweep,
    }
    if surface and series[0] == ("noma_3user", "sum_rate_bps_hz"):
        gap = mean[0] - mean[1]  # superposed minus orthogonal sum rate
        best = int(np.argmax(gap))
        meta["max_gap"] = {
            "gap_bps_hz": float(gap[best]),
            "sweep_point": list(map(float, spec.grid[best])),
        }
    digest = hashlib.sha256(
        json.dumps({"config": cfg, "sweep": sweep}, sort_keys=True).encode()
    ).hexdigest()
    meta["build_tag"] = f"nomasim-{__version__}+cfg.{digest[:10]}"
    return meta


def _write_atomically(path, write) -> None:
    """Run ``write(fh)`` on a temporary file next to ``path``, then rename it
    over ``path``, so a failed write never leaves a partial output behind."""
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "x", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(result: SweepResult, path) -> None:
    """Serialize rows as ``sweep_point[,sweep_point2],scheme,metric,mean,stderr,trials``."""
    arity = len(result.rows[0].sweep_point) if result.rows else 1
    header = ["sweep_point", "sweep_point2"][:arity] + ["scheme", "metric", "mean", "stderr", "trials"]
    lines = [",".join(header)]
    for row in result.rows:
        cells = [repr(float(v)) for v in row.sweep_point]
        cells += [row.scheme, row.metric, repr(row.mean), repr(row.stderr), str(row.trials)]
        lines.append(",".join(cells))
    _write_atomically(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def write_metadata(result: SweepResult, path) -> None:
    def write(fh):
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_atomically(path, write)
