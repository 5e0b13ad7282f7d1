"""Mutation check of the test suite: every listed mutant must fail it.

    python3 tools/mutate.py            # every mutant
    python3 tools/mutate.py NAME ...   # the named mutants only

The oracles double as the test suite, so a check that cannot fail is a
hole in the suite.  Each mutant is a (name, file, old text, new text)
entry: the old text must occur exactly once in the file, and is
replaced by the new text in a temporary copy of the files the suite
reads (``COPIED``), where ``pytest -q -x tests`` runs with that copy's
``src/`` on the path.  A mutant is killed when the run fails (or times
out).  The unmutated copy runs first and must pass, so that no mutant
is killed by a broken copy.  The script exits 1 when that run fails, a
mutant survives or an old text no longer occurs exactly once, so a
refactor must update the list rather than drop a mutant without
notice; ``tests/test_mutants.py`` checks the old texts in the tier-1
run too.  The mutants themselves are not part of that run: a killed
mutant takes seconds, a survivor one full run of the suite.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
COPIED = ("src", "tests", "pyproject.toml", "README.md")

MUTANTS = [
    (
        "one-byte guard moves to 257",
        "src/nanoread/core.py",
        "if min(window, n) > _MAX_ENTRY:",
        "if min(window, n) > _MAX_ENTRY + 1:",
    ),
    (
        "xor doubling skips a stride",
        "src/nanoread/core.py",
        "        stride *= 2\n",
        "        stride *= 3\n",
    ),
    (
        "vt path drops its one-deletion test",
        "src/nanoread/code.py",
        "if read >> 8 * i == rv >> 8 * (i + 1):",
        "if True:",
    ),
    (
        "vt insertion puts a 0 where a 1 belongs",
        "src/nanoread/code.py",
        "    if d <= w:\n",
        "    if d < w:\n",
    ),
    (
        "gap repair always steps up",
        "src/nanoread/code.py",
        "(1 if d > 0 else -1)",
        "(1 if d > 0 else 1)",
    ),
    (
        "codeword test skips the syndrome",
        "src/nanoread/code.py",
        "if _checksum(p, n) != params.residue:",
        "if False:",
    ),
    (
        "full-length read skips its comparison",
        "src/nanoread/code.py",
        'elif raw == rv.to_bytes(len(raw), "little"):',
        "elif True:",
    ),
    (
        "decode names every path vt",
        "src/nanoread/code.py",
        'path="immediate" if gap else "vt"',
        'path="vt"',
    ),
    (
        "label fires on any step",
        "src/nanoread/code.py",
        "abs(candidate[i] - candidate[i - 1]) == 2",
        "abs(candidate[i] - candidate[i - 1]) >= 1",
    ),
    (
        "label ignores the first-slot guard",
        "src/nanoread/code.py",
        "gap = 0 < i < m and",
        "gap = i < m and",
    ),
    (
        "decode drops the malformed check",
        "src/nanoread/code.py",
        "    immediate_correct(candidate)  # raises for a gap no deletion leaves\n",
        "",
    ),
    (
        "reconstruction skips the head test",
        "src/nanoread/reconstruct.py",
        "if r2[i:j] == r1[i0:j0]:",
        "if True:",
    ),
    (
        "tail length floors instead of ceiling",
        "src/nanoread/bounds.py",
        "max(0, -((2 * a - 4 - n) // 2 ** (a + 1)))",
        "max(0, (n - 2 * a + 4) // 2 ** (a + 1))",
    ),
    (
        "redundancy bound's tail term decays from n",
        "src/nanoread/bounds.py",
        "2.0**-window * n * math.exp(-(n - 1) / 2 ** (2 * window + 1))",
        "2.0**-window * n * math.exp(-n / 2 ** (2 * window + 1))",
    ),
    (
        "packing chain's closed form drops its tail term",
        "src/nanoread/bounds.py",
        "        closed = math.ldexp(\n"
        "            math.exp(-(n - 1) / 2 ** (2 * window + 1)), n - 1\n"
        "        ) + 2 ** (n + window) / cutoff_num\n",
        "        closed = 2 ** (n + window) / cutoff_num\n",
    ),
    (
        "bound report starts the lower bound at n = 2l + 2",
        "src/nanoread/bounds.py",
        "if window >= 2 and n > 2 * window:",
        "if window >= 2 and n > 2 * window + 1:",
    ),
    (
        "bound report leaves the tail count out at n = 2",
        "src/nanoread/bounds.py",
        "tail_count=_tail_count(hist, n - 1, window) if n >= 2 else None,",
        "tail_count=_tail_count(hist, n - 1, window) if n >= 3 else None,",
    ),
    (
        "run-histogram step drops its - T_(k-a)",
        "src/nanoread/bounds.py",
        "(total - old) + total + (old << shift)",
        "total + total + (old << shift)",
    ),
    (
        "run-histogram step reads T_(k-a) one step late",
        "src/nanoread/bounds.py",
        "            k, total, sums = -1, 1, deque(maxlen=a)\n"
        "        for k in range(k + 1, target + 1):\n"
        "            old = sums[0] if len(sums) == a else 0\n",
        "            k, total, sums = -1, 1, deque(maxlen=a + 1)\n"
        "        for k in range(k + 1, target + 1):\n"
        "            old = sums[0] if len(sums) > a else 0\n",
    ),
    (
        "run-histogram sweep steps on where k goes down",
        "src/nanoread/bounds.py",
        "        if target < k:\n",
        "        if k == math.inf:\n",
    ),
    (
        "reconstruction oracle accepts any result",
        "src/nanoread/oracle.py",
        "if got == rv:",
        "if True:",
    ),
    (
        "a fanned failure returns the fanned sums",
        "src/nanoread/oracle.py",
        "    if not failures:\n",
        "    if True:\n",
    ),
    (
        "a serial pass after a fanned failure passes",
        "src/nanoread/oracle.py",
        "    if result[1] is None:\n",
        "    if False:\n",
    ),
    (
        "fan-out drops the parent's counts",
        "src/nanoread/oracle.py",
        "        checked, skipped, reason = _claim(check, n, claims)\n",
        "        checked, skipped, reason = 0, 0, _claim(check, n, claims)[2]\n",
    ),
    (
        "verify passes a run that checked nothing",
        "src/nanoread/cli.py",
        'if all(rec["checked"] == 0 for rec in records):',
        "if False:",
    ),
    (
        "a failed trial exits 0",
        "src/nanoread/cli.py",
        "return 1 if tally[False] else 0",
        "return 0",
    ),
    (
        "a run of skipped trials is not refused",
        "src/nanoread/cli.py",
        "if tally[None] == trials:",
        "if False:",
    ),
    (
        "decoder oracle accepts any codeword",
        "src/nanoread/oracle.py",
        "if decoded == x:",
        "if True:",
    ),
    (
        "ball equivalence never compares",
        "src/nanoread/oracle.py",
        "if lhs != rhs:",
        "if False:",
    ),
    (
        "validity image never compares",
        "src/nanoread/oracle.py",
        "if is_valid_read_vector(cand, window, n) != (cand in image):",
        "if False:",
    ),
    (
        "intersection limit of 2 at every window",
        "src/nanoread/oracle.py",
        "limit = 2 if window == 1 else 1",
        "limit = 2",
    ),
    (
        "deletion ball slices inside runs",
        "src/nanoread/balls.py",
        "if u[i] != u[i + 1]}",
        "if u[i] == u[i + 1]}",
    ),
    (
        "deletion ball drops the last position's deletion",
        "src/nanoread/balls.py",
        "    ball.add(u[:last])\n",
        "",
    ),
    (
        "sticky ball's run-length test is off by one",
        "src/nanoread/balls.py",
        "if end - start >= r:",
        "if end - start > r:",
    ),
    (
        "images drop the trailing zero run",
        "src/nanoread/balls.py",
        "        ys.add(x[:-1])\n",
        "        pass\n",
    ),
    (
        "images let a leading one qualify",
        "src/nanoread/balls.py",
        'if x[:1] == b"\\x00":',
        'if x[:1] == b"\\x01":',
    ),
    (
        "sticky code keeps words whose ball is empty",
        "src/nanoread/oracle.py",
        "words = [x for x in all_words(n) if sticky_ball(bytes(x), window)]",
        "words = list(all_words(n))",
    ),
    (
        "fan-out chunks take their prefix bits reversed",
        "src/nanoread/oracle.py",
        "prefix = _nth_word(c, b)",
        "prefix = _nth_word(c, b)[::-1]",
    ),
    (
        "fan-out blocks halve",
        "src/nanoread/oracle.py",
        "MIN_BLOCK = 256\n",
        "MIN_BLOCK = 128\n",
    ),
    (
        "fan-out blocks double",
        "src/nanoread/oracle.py",
        "MIN_BLOCK = 256\n",
        "MIN_BLOCK = 512\n",
    ),
    (
        "overlap index drops the count of a one-ball bucket",
        "src/nanoread/oracle.py",
        "                counts[earlier] = counts.get(earlier, 0) + 1\n"
        "                buckets[d] = [earlier, i]\n",
        "                buckets[d] = [earlier, i]\n",
    ),
]


def _stale(mutants) -> list[str]:
    """The mutants whose old text does not occur exactly once."""
    out = []
    for name, path, old, _ in mutants:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            out.append(f"{name}: old text occurs {count} times in {path}")
    return out


def _passes(mutant: tuple[str, str, str] | None) -> tuple[bool, str]:
    """Run the suite on a copy with the (file, old, new) mutant applied,
    or none; (passed, the run's last line)."""
    with tempfile.TemporaryDirectory(prefix="nanoread-mutant-") as tmp:
        copy = pathlib.Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part, ignore=skip)
            else:
                shutil.copy(ROOT / part, copy)
        if mutant is not None:
            path, old, new = mutant
            target = copy / path
            target.write_text(target.read_text().replace(old, new, 1))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
        try:
            run = subprocess.run(
                cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    summary = (run.stdout.strip().splitlines() or ["no output"])[-1]
    return run.returncode == 0, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    mutants = [m for m in MUTANTS if not args.names or m[0] in args.names]
    stale = _stale(mutants)
    for line in stale:
        print(f"STALE    {line}")
    if stale:
        return 1
    passed, how = _passes(None)
    if not passed:
        print(f"BROKEN   the unmutated copy fails: {how}")
        return 1
    survivors = 0
    for name, path, old, new in mutants:
        start = time.perf_counter()
        survived, how = _passes((path, old, new))
        survivors += survived
        status = "SURVIVED" if survived else "killed  "
        print(f"{status} {time.perf_counter() - start:6.1f} s  {name}: {how}", flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
