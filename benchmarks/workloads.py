"""The benchmark's workloads: what each runs, at what size, and how its output
is checked.

Importing this module imports neither numpy nor nomasim, so a set-up probe can
time those imports itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The default seed. Every run also repeats each workload at this seed with
# `reference_trials` and compares against the committed file in reference/.
REFERENCE_SEED = 190

# Reference agreement: |a - b| <= ATOL + RTOL * max(|a|, |b|). Loose enough
# for a reordered or batched computation (~1e-14 relative), tight enough that
# any change to the model shows.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

# Superposed minus orthogonal sum rate may dip this far below zero, the same
# tolerance as the acceptance gate.
DOMINANCE_TOL = 1e-9

VERIFY_HEADER = ("name", "trials", "violations", "worst")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str | None  # sweep kind; None runs the verification checks
    block_trials: int  # trials of one timed block
    tiny_trials: int  # trials of one block in the self-test
    reference_trials: int
    requesting_users: int | None = None
    dense_cell: bool = False

    @property
    def is_sweep(self) -> bool:
        return self.kind is not None


WORKLOADS = {
    w.name: w
    for w in (
        # 3-user clusters on the 16-point power grid of the default cell.
        Workload("ergodic_k3", "ergodic_power_sweep", 1000, 4, 200),
        # 8-user pools, 3 powers x 7 targets: 21 sequential admissions per draw.
        Workload("admission_sinr_k8", "admission_vs_sinr", 200, 2, 50, requesting_users=8),
        # 12 users (the enumeration cap), dense cell, 5 powers, 5/10/15 dB targets.
        Workload(
            "oracle_mixed_k12", "oracle_compare_mixed", 50, 1, 20, requesting_users=12, dense_cell=True
        ),
        # Every check of `nomasim verify`; trials per check.
        Workload("verify_all", None, 100, 3, 30),
    )
}


def block_seed(workload: str, seed: int, index: int) -> int:
    """`rng_seed` of block `index` of a run at benchmark seed `seed`.

    Blocks draw distinct trials, so one run averages over many draws and the
    throughput of a run depends little on which seed it was given.
    """
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def build(nomasim, wl: Workload, rng_seed: int, trials: int):
    """The cell config and the sweep spec (None for verification) of one block."""
    config = nomasim.SystemConfig(rng_seed=rng_seed)
    if wl.dense_cell:
        config = config.with_(cell_radius_range_km=nomasim.ORACLE_BENCHMARK_RADIUS_KM)
    if not wl.is_sweep:
        return config, None
    overrides = {} if wl.requesting_users is None else {"requesting_users": wl.requesting_users}
    return config, nomasim.make_sweep(wl.kind, config, trials=trials, **overrides)


def verify_text(results) -> str:
    """CheckResults as CSV, the verification counterpart of a sweep's CSV."""
    lines = [",".join(VERIFY_HEADER)]
    lines += [f"{r.name},{r.trials},{r.violations},{r.worst!r}" for r in results]
    return "\n".join(lines) + "\n"


def reference_path(wl: Workload) -> Path:
    return REFERENCE_DIR / f"{wl.name}.csv"


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    table = list(csv.reader(io.StringIO(text)))
    if not table:
        return [], []
    return table[0], table[1:]


def _float(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_ATOL + REFERENCE_RTOL * max(abs(a), abs(b))


def check_output(wl: Workload, text: str, trials: int, reference_text: str) -> list[str]:
    """Schema and invariant failures of one operation's output (empty if none).

    The reference file fixes the schema: the same header and the same
    (sweep point, scheme, metric) keys in the same order, at any trial count.
    """
    if not wl.is_sweep:
        return _check_verify(text, reference_text)
    header, rows = _rows(text)
    ref_header, ref_rows = _rows(reference_text)
    if header != ref_header:
        return [f"header {header} differs from {ref_header}"]
    if [r[:3] for r in rows] != [r[:3] for r in ref_rows]:
        return [f"row keys differ from the reference schema ({len(rows)} rows, expected {len(ref_rows)})"]
    errors: list[str] = []
    means: dict[tuple[str, str, str], float] = {}
    for row in rows:
        point, scheme, metric, mean, stderr, count = row
        m, s = _float(mean), _float(stderr)
        if m is None or s is None or s < 0:
            errors.append(f"non-finite or negative value in row {row}")
            continue
        if count != str(trials):
            errors.append(f"row {row} reports {count} trials, expected {trials}")
        means[(point, scheme, metric)] = m
    if errors:
        return errors
    points = sorted({k[0] for k in means}, key=float)
    if wl.kind == "ergodic_power_sweep":
        for p in points:
            for size in ("2user", "3user"):
                gap = means[(p, f"noma_{size}", "sum_rate_bps_hz")] - means[(p, f"oma_{size}", "sum_rate_bps_hz")]
                if gap < -DOMINANCE_TOL:
                    errors.append(f"superposed below orthogonal by {-gap!r} at {p} ({size})")
    else:
        for (p, scheme, metric), m in means.items():
            if metric != "admitted_count":
                continue
            if scheme.startswith("exhaustive_minus_greedy"):
                if m < 0:
                    errors.append(f"exhaustive admits fewer than greedy at {p}: {m!r}")
            elif not 0 <= m <= wl.requesting_users:
                errors.append(f"{scheme} admits {m!r} of {wl.requesting_users} users at {p}")
    return errors


def _check_verify(text: str, reference_text: str) -> list[str]:
    header, rows = _rows(text)
    if tuple(header) != VERIFY_HEADER:
        return [f"verification header {header}"]
    ref_names = [r[0] for r in _rows(reference_text)[1]]
    if [r[0] for r in rows] != ref_names:
        return [f"checks {[r[0] for r in rows]} differ from {ref_names}"]
    errors = []
    for name, trials, violations, worst in rows:
        if violations != "0":
            errors.append(f"check {name} FAILED with {violations} violations")
        if _float(worst) is None:
            errors.append(f"check {name} reports a non-finite worst case {worst}")
    return errors


def compare_to_reference(wl: Workload, text: str, reference_text: str) -> list[str]:
    """Disagreements between an output at the reference seed and the reference.

    Keys and counts must match exactly; means, standard errors and worst
    cases within the stated tolerance.
    """
    header, rows = _rows(text)
    ref_header, ref_rows = _rows(reference_text)
    if header != ref_header or len(rows) != len(ref_rows):
        return ["output shape differs from the reference"]
    # sweeps: point, scheme, metric, trials | mean, stderr
    # checks:  name, trials, violations      | worst
    key_cols, value_cols = ((0, 1, 2, 5), (3, 4)) if wl.is_sweep else ((0, 1, 2), (3,))
    errors = []
    for row, ref in zip(rows, ref_rows):
        keys = [row[i] for i in key_cols]
        if keys != [ref[i] for i in key_cols]:
            errors.append(f"row {row} does not match reference row {ref}")
            continue
        for i in value_cols:
            a, b = _float(row[i]), _float(ref[i])
            if a is None or b is None or not _close(a, b):
                errors.append(f"row {keys}: {row[i]} differs from reference {ref[i]}")
    return errors
