"""Print the per-call time and page faults of log_partition and viterbi_decode on fixed inputs.

    python .github/scripts/lattice_timing.py <checkout>

<checkout> is the root of a source checkout; jmrm is imported from its
src/.  Each input is one batched call of 4 queries, of 12, 40, 12 and 40
tokens on the SNIPS-shaped label space (Y=7, T=79) and of 8 tokens each on
the synthetic one (Y=2, T=9), with scores from a fixed seed:

  relation-masked SNIPS  BIO transitions; intent y allows O and the B-X/I-X
                         pairs of 5, 14, 9, 9, 7, 2 and 7 slot types, the
                         label counts of a snips-ablate episode (W = 29)
  all-allowed SNIPS      BIO transitions, every (intent, slot) pair allowed
  permissive SNIPS       every transition and every pair allowed
  synth-shaped           BIO transitions; each intent allows O and 2 of the
                         4 slot types (W = 5)

Each time is the minimum over REPEATS calls, in ms, so it reads the code,
not the machine's load; next to it are the minor page faults per call
over those calls (the ru_minflt delta of getrusage), which count the
per-call temporaries the allocator hands back to the OS.  Each input also
shows the backward pass's rows, P of Y R: the (intent, transition row
class) pairs of the labels each intent lists.  Prints a markdown table.
Run it once per checkout, each in its own process, and compare the
tables.
"""

from __future__ import annotations

import os

# benchmarks/run.py's BLAS pins, set before numpy is first imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

REPEATS = 200


def inputs():
    """(name, JointScoreInputs) of each input, in the docstring's order."""
    import numpy as np
    from jmrm.core import LabelSpace
    from jmrm.lattice import JointScoreInputs
    from jmrm.masks import RelationMask, build_transition_mask, permissive_transition_mask

    rng = np.random.default_rng(0)

    def space(y, types):
        labels = ("O",) + tuple(f"{p}-type{k}" for k in range(types) for p in ("B", "I"))
        return LabelSpace(tuple(f"intent{n}" for n in range(y)), labels)

    def relation(ls, types_per_intent):
        rm = np.zeros((ls.n_intents, ls.n_slots), dtype=bool)
        rm[:, ls.o_id] = True
        n_types = (ls.n_slots - 1) // 2
        for y, count in enumerate(types_per_intent):
            for k in rng.choice(n_types, size=count, replace=False):
                rm[y, [ls.slot_id(f"B-type{k}"), ls.slot_id(f"I-type{k}")]] = True
        return RelationMask(rm, True)

    def batch(ls, rm, tm, lengths):
        f_l = rng.standard_normal((len(lengths), ls.n_intents))
        f_o = rng.standard_normal((sum(lengths), ls.n_slots))
        return JointScoreInputs(f_l, f_o, rm, tm, 1.0, np.array(lengths))

    snips, synth, snips_lengths = space(7, 39), space(2, 4), (12, 40, 12, 40)
    all_allowed = RelationMask(np.ones((7, 79), dtype=bool), True)
    return [
        ("relation-masked SNIPS",
         batch(snips, relation(snips, (5, 14, 9, 9, 7, 2, 7)), build_transition_mask(snips), snips_lengths)),
        ("all-allowed SNIPS", batch(snips, all_allowed, build_transition_mask(snips), snips_lengths)),
        ("permissive SNIPS", batch(snips, all_allowed, permissive_transition_mask(79), snips_lengths)),
        ("synth-shaped", batch(synth, relation(synth, (2, 2)), build_transition_mask(synth), (8, 8, 8, 8))),
    ]


def backward_rows(jin) -> str:
    """P / Y R: the distinct (intent, row_class) pairs of the allowed
    (intent, label) cells, against every pair."""
    import numpy as np

    y, r = jin.n_intents, jin.tm.row_rep.size
    rows = np.arange(y)[:, None] * r + jin.tm.row_class
    return f"{np.unique(rows[jin.rm.rm]).size} / {y * r}"


def per_call(fn, jin) -> tuple[float, float]:
    """The minimum time of one call in ms, and the minor page faults per call."""
    best, faults = float("inf"), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(jin)
        best = min(best, time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best * 1e3, faults / REPEATS


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    checkout = Path(argv[0]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    import jmrm
    from jmrm.lattice import log_partition, viterbi_decode

    if Path(jmrm.__file__).resolve().parent != checkout / "src" / "jmrm":
        sys.exit(f"error: jmrm was imported from {jmrm.__file__}, not from {checkout / 'src'}")
    print("| input | backward rows P / Y R | log_partition ms | faults | viterbi_decode ms | faults |")
    print("| --- | ---: | ---: | ---: | ---: | ---: |")
    for name, jin in inputs():
        calls = (per_call(fn, jin) for fn in (log_partition, viterbi_decode))
        cells = [f"{ms:.3f} | {faults:.1f}" for ms, faults in calls]
        print(f"| {name} | {backward_rows(jin)} | {' | '.join(cells)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
