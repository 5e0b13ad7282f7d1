"""Acceptance suite: one test per end-to-end guarantee.

Each test prints a PASS/FAIL line (visible with pytest -s or in the
captured output) and asserts the same condition.  Everything here is
exhaustive at the stated sizes; the combinatorial checks use exact
arithmetic and zero tolerance unless noted.
"""

import json
import math
from fractions import Fraction
from itertools import combinations

from nanoread import balls, bounds, cli, code, core, oracle


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_c01_reference_transform():
    got = core.format_levels(core.read_vector(core.parse_word("101100"), 3), 3)
    report("01 reference transform", got == "11222100", got)


def test_c02_transform_properties_exhaustive():
    checked = 0
    for w in (1, 2, 3, 4):
        for n in range(1, 15):
            seen = set()
            for x in oracle.all_words(n):
                rv = core.read_vector(x, w)
                assert sum(rv) == w * sum(x)
                assert all(abs(rv[i + 1] - rv[i]) <= 1 for i in range(len(rv) - 1))
                prefix = [s % 2 for s in rv[:n]]
                assert core.recover_from_mod2(prefix, w) == x
                seen.add(rv)
                checked += 1
            assert len(seen) == 1 << n  # distinct words, distinct read vectors
    report("02 transform properties n<=14", True, f"{checked} words")


def test_c03_ball_equivalence_exhaustive():
    for w in (2, 3, 4):
        for n in range(1, 13):
            res = oracle.verify_ball_equivalence(n, w)
            if not res.ok:
                report("03 ball equivalence n<=12", False, str(res.counterexample))
    report("03 ball equivalence n<=12", True)


def test_c04_decoder_exhaustive():
    total = 0
    for w in (2, 3):
        for n in range(w, 13):
            res = oracle.verify_decoder(n, w)
            total += res.checked
            if not res.ok:
                report("04 decoder correctness", False, str(res.counterexample))
    report("04 decoder correctness", True, f"{total} decodes")


def test_c05_sticky_ball_cardinality():
    for n in range(1, 15):
        for u in oracle.all_words(n):
            for r in range(1, n + 1):
                if len(balls.sticky_ball(u, r)) != balls.rho_geq(u, r):
                    report("05 sticky ball size", False, f"u={u} r={r}")
    report("05 sticky ball size", True)


def test_c06_pairwise_overlap_bound():
    for w in (2, 3):
        for n in range(1, 11):
            res = oracle.verify_intersection_bound(n, w)
            if not res.ok:
                report("06 overlap bound", False, str(res.counterexample))
    witness = oracle.verify_intersection_bound(6, 1)
    achieved = witness.detail["max_overlap"] == 2
    report(
        "06 overlap bound",
        achieved,
        f"window 1 witness {witness.detail.get('witness')}",
    )


def _span(u, v):
    """First and last 1-based indices where u and v differ."""
    diff = [i for i, (a, b) in enumerate(zip(u, v), 1) if a != b]
    return diff[0], diff[-1]


def test_c07_two_read_reconstruction():
    total = 0
    for w in (2, 3):
        for n in range(1, 11):
            res = oracle.verify_reconstruction(n, w)
            total += res.checked
            if not res.ok:
                report("07 two-read reconstruction", False, str(res.counterexample))
    # the arbitration property: exactly one candidate validates
    for n in range(2, 9):
        for x in oracle.all_words(n):
            rv = core.read_vector(x, 2)
            ball = sorted(balls.deletion_ball(rv))
            for r1, r2 in combinations(ball, 2):
                i, j = _span(r1, r2)
                head = r1[: i - 1] + (r2[i - 1],) + r1[i - 1 :]
                tail = r1[:j] + (r2[j - 1],) + r1[j:]
                n_valid = len(
                    {c for c in (head, tail) if core.is_valid_read_vector(c, 2, n)}
                )
                assert n_valid == 1, (x, r1, r2)
    report("07 two-read reconstruction", True, f"{total} pairs")


def test_c08_expected_runs_formula():
    for n in range(1, 15):
        for a in range(1, n + 1):
            hist = oracle.rho_geq_histogram(n, a)
            avg = Fraction(sum(r * k for r, k in enumerate(hist)), 1 << n)
            if avg != bounds.expected_runs(n, a):
                report("08 expected runs", False, f"n={n} a={a} avg={avg}")
    report("08 expected runs", True)


def test_c09_sphere_packing_bound():
    for n in range(2, 9):
        res = oracle.exact_max_sticky_code(n, 2)
        ws = bounds.weighted_sum(n, 2)
        assert res.exact
        if Fraction(res.packing_size) > ws:
            report("09 sphere packing", False, f"n={n} A={res.packing_size} ws={ws}")
    report("09 sphere packing", True)


def test_c10_tail_inequality():
    # the expectation formula behind the inequality needs a <= n
    for n in range(1, 15):
        for a in (1, 2, 3):
            if a > n:
                continue
            count = bounds.tail_count(n, a)
            rhs = (1 << n) * math.exp(-n / 2 ** (2 * a + 1))
            if count > rhs + 1e-9:
                report("10 tail inequality", False, f"n={n} a={a} count={count}")
    report("10 tail inequality", True)


def test_c11_pigeonhole_redundancy():
    rows = []
    for w in (1, 2, 3):
        for n in range(w, 17):
            _, size = code.best_residue(n, w)
            assert size >= (1 << n) / (n + 1), (n, w, size)
            redundancy = n - math.log2(size)
            assert redundancy <= math.log2(n + 1) + 1e-9
            if w >= 2 and n > 2 * w:
                rows.append((n, w, redundancy, bounds.redundancy_lower_bound(n, w)))
    # reported, not asserted: best-code redundancy vs the lower bound
    for n, w, red, low in rows:
        print(f"  n={n} window={w} best-code redundancy={red:.3f} lower bound={low:.3f}")
    report("11 pigeonhole redundancy", True, f"{len(rows)} tabulated rows")


def test_c12_cli_determinism(capsys):
    def run(argv):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    rt = ["roundtrip", "--n", "8", "--l", "2", "--trials", "500", "--seed", "99"]
    rc = ["reconstruct", "--n", "10", "--l", "2", "--trials", "500", "--seed", "99"]
    out_rt1, out_rt2 = run(rt), run(rt)
    out_rc1, out_rc2 = run(rc), run(rc)
    assert json.loads(out_rt1)["failures"] == 0
    assert json.loads(out_rc1)["failures"] == 0
    ok = out_rt1 == out_rt2 and out_rc1 == out_rc2
    with capsys.disabled():
        report("12 CLI determinism", ok)
