"""Run registered mutants of the source against the tests that should kill them.

    python .github/scripts/mutants.py

Each mutant in MUTANTS replaces one anchor, which must occur exactly once
in its file, by a deliberately wrong line, and names the test files that
should fail on it.  The script copies this checkout, without .git, to a
temporary directory and runs pytest -x there: once on the unchanged copy
with every named test file, which must pass, and then once per mutant on
a fresh copy with its own test files.  A mutant is killed when its run
fails.  Prints one line per mutant, then "mutants killed k/n".  Exits 2
when an anchor is missing or the unchanged copy fails, 1 when a mutant
survives, and 0 when every mutant is killed.  A change that moves an
anchor re-anchors or retires its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

LATTICE_TESTS = ("tests/test_lattice.py",)

# (name, file, anchor, replacement, test files)
MUTANTS = (
    ("intent labels listed descending",
     "src/jmrm/masks.py",
     '    labels = (~allowed).argsort(axis=1, kind="stable")[:, :w]  # allowed first, each part ascending\n',
     '    labels = (~allowed).argsort(axis=1, kind="stable")[:, :w]  # allowed first, each part ascending\n'
     "    labels[0, : allowed[0].sum()] = labels[0, : allowed[0].sum()][::-1].copy()\n",
     LATTICE_TESTS),
    ("intent padding not -inf",
     "src/jmrm/lattice.py",
     "il.labels, 1)[:, :, None], il.rm, slice(None))",
     "il.labels, 1)[:, :, None], RelationMask(np.ones_like(il.rm.rm), True), slice(None))",
     LATTICE_TESTS),
    ("a closed successor dropped",
     "src/jmrm/masks.py",
     "tm.closed_succ.T[:, labels]",
     "tm.closed_succ.T[1:, labels]",
     LATTICE_TESTS),
    ("completions start from 1",
     "src/jmrm/lattice.py",
     "    h = np.zeros((n, y, w))\n",
     "    h = np.ones((n, y, w))\n",
     LATTICE_TESTS),
    # the same terms, each row summed over its first W cells instead of at
    # its labels across all T: a regrouping that moves only low bits
    ("backward row sums over W columns, not T labels",
     "src/jmrm/lattice.py",
     "ip * t + il.labels[iy, iw]).ravel()",
     "ip * t + iw).ravel()",
     LATTICE_TESTS),
    # every row still summed, each column reading the next one, wrapping
    ("a backward column reads the wrong row",
     "src/jmrm/lattice.py",
     "    row = (np.cumsum(read) - 1)[cls]",
     "    row = np.cumsum(read)[cls] % read.sum()",
     LATTICE_TESTS),
    ("a banned predecessor reads the intent's sentinel",
     "src/jmrm/lattice.py",
     "    unlisted = np.where(il.plane < yw, il.plane, yw + y)\n",
     "    unlisted = il.plane\n",
     LATTICE_TESTS),
    ("a closed predecessor dropped",
     "src/jmrm/lattice.py",
     "tm.closed_pred[il.labels.flat[closed]].T]",
     "tm.closed_pred[il.labels.flat[closed]].T[1:]]",
     LATTICE_TESTS),
    ("no backward row when no intent lists a label",
     "src/jmrm/lattice.py",
     "    read[cls[il.rm.rm]] = read[cls[0, 0]] = True\n",
     "    read[cls[il.rm.rm]] = True\n",
     LATTICE_TESTS),
    # the batch swept in query order, so a longer query after a shorter
    # one is not in the live prefix
    ("no sort",
     "src/jmrm/lattice.py",
     '    order = np.argsort(-lengths, kind="stable")\n',
     "    order = np.arange(lengths.size)\n",
     LATTICE_TESTS),
    # each query's path sum runs on from the query before it
    ("joint_score accumulated across queries",
     "src/jmrm/lattice.py",
     "[np.add.accumulate(f)[-1] for f in np.split(factors.ravel(), 2 * starts[1:])]",
     "np.add.accumulate(factors.ravel())[2 * (starts + lengths) - 1]",
     LATTICE_TESTS),
)


def copy_checkout(into: Path) -> None:
    shutil.copytree(ROOT, into, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))


def passes(tree: Path, tests: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                         cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    for _, path, anchor, _, _ in MUTANTS:  # every anchor first, before any test run
        count = (ROOT / path).read_text().count(anchor)
        if count != 1:
            print(f"error: the anchor occurs {count} times in {path}, not once: {anchor!r}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_checkout(clean)
        if not passes(clean, sorted({test for *_, tests in MUTANTS for test in tests})):
            print("error: the tests fail without any mutation", file=sys.stderr)
            return 2
        killed = 0
        for n, (name, path, anchor, replacement, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{n}"
            copy_checkout(tree)
            (tree / path).write_text((tree / path).read_text().replace(anchor, replacement))
            survived = passes(tree, list(tests))
            killed += not survived
            print(f"{'SURVIVED' if survived else 'killed'}: {name} ({path})", flush=True)
    print(f"mutants killed {killed}/{len(MUTANTS)}")
    return int(killed < len(MUTANTS))


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(__doc__)
    sys.exit(main())
