"""Print one hash of each benchmark round's outputs, per (workload, seed).

    python .github/scripts/fingerprints.py <checkout> <seeds>

<checkout> is the root of a source checkout: jmrm is imported from its
src/ and the workloads from its benchmarks/.  <seeds> is a range such as
0-3 or a comma list such as 0,5.  Each line is "<workload> <seed> <hash>",
the hash being of benchmarks/workloads.run_round(...).fingerprint (every
loss, log entry, decode and metric the round output) with the Probe
installed as benchmarks/run.py installs it.  Run it once per checkout,
each in its own process; two checkouts whose lines are equal gave the same
outputs bit for bit.
"""

from __future__ import annotations

import os

# benchmarks/run.py's BLAS pins, set before numpy is first imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    checkout, seeds = Path(argv[0]).resolve(), parse_seeds(argv[1])
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks")]
    import jmrm
    import workloads

    if Path(jmrm.__file__).resolve().parent != checkout / "src" / "jmrm":
        sys.exit(f"error: jmrm was imported from {jmrm.__file__}, not from {checkout / 'src'}")
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            inputs = workloads.setup(workload, seed, workloads.plan_episodes(workload, seed))
            probe = workloads.Probe(test_ids={id(ep) for ep in inputs.test})
            probe.install()
            try:
                fingerprint = workloads.run_round(inputs, probe).fingerprint
            finally:
                probe.uninstall()
            print(workload, seed, hashlib.sha256(repr(fingerprint).encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
