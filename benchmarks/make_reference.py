"""Write the reference outputs every run compares against.

    PYTHONPATH=src python3 benchmarks/make_reference.py

Each workload runs once at the reference seed and its reference size, with
workers=1; the CSV goes to benchmarks/reference/<workload>.csv. Regenerate
only when a change is meant to alter the simulator's results, and say so.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402


def main() -> None:
    import nomasim

    W.REFERENCE_DIR.mkdir(exist_ok=True)
    for wl in W.WORKLOADS.values():
        config, spec = W.build(nomasim, wl, W.REFERENCE_SEED, wl.reference_trials)
        if spec is None:
            text = W.verify_text(nomasim.run_verification(wl.reference_trials, W.REFERENCE_SEED, config))
        else:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "out.csv"
                nomasim.write_csv(nomasim.run_sweep(spec), path)
                text = path.read_text()
        W.reference_path(wl).write_text(text)
        print(f"{wl.name}: {len(text.splitlines()) - 1} rows -> {W.reference_path(wl)}")


if __name__ == "__main__":
    main()
