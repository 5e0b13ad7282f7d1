import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import nanoread
from nanoread import bounds, cli, code, oracle
from nanoread.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTransform:
    def test_reference_word(self, capsys):
        code, out, _ = run(capsys, "transform", "101100", "--l", "3")
        assert code == 0
        assert out.strip() == "11222100"

    def test_all_zero(self, capsys):
        code, out, _ = run(capsys, "transform", "0000", "--l", "2")
        assert out.strip() == "00000"

    def test_file_input_preserves_order(self, capsys, tmp_path):
        f = tmp_path / "words.txt"
        f.write_text("# comment\n101100\n0000\n\n11\n")
        code, out, _ = run(capsys, "transform", "--l", "2", "--input", str(f))
        assert code == 0
        assert out.splitlines() == ["1112100", "00000", "121"]

    def test_parse_error_reports_line(self, capsys, tmp_path):
        f = tmp_path / "words.txt"
        f.write_text("101\nxyz\n")
        code, out, err = run(capsys, "transform", "--l", "2", "--input", str(f))
        assert code == 2
        assert out == ""
        assert f"error: {f}:2: " in err

    def test_one_byte_guard(self, capsys):
        # entries reach min(l, n): 255 computes, 256 exits 2 with nothing on stdout
        code, out, _ = run(capsys, "transform", "1" * 255, "--l", "300")
        assert code == 0
        assert out.strip().split(",")[254:256] == ["255", "255"]
        code, out, err = run(capsys, "transform", "1" * 256, "--l", "256")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "<= 255" in err

    def test_missing_input_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run(capsys, "transform", "--l", "2", "--input", str(missing))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "missing.txt" in err


class TestEnumerate:
    def test_lists_codewords(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--l", "1", "--a", "0")
        assert out.splitlines() == ["00", "11"]

    def test_best_residue_noted(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--l", "1")
        assert code == 0
        assert out.splitlines() == ["000", "101"]
        assert err == "using best residue a=0\n"

    @pytest.mark.parametrize("n, l", [(0, 1), (2, 3), (-1, 1)])
    def test_usage_error_prints_only_the_error(self, capsys, n, l):
        code, out, err = run(capsys, "enumerate", "--n", str(n), "--l", str(l))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestRoundtrip:
    def test_single_deletion_always_succeeds(self, capsys):
        code, out, _ = run(
            capsys,
            "roundtrip",
            "--n", "6", "--l", "3", "--a", "2",
            "--trials", "300", "--seed", "7",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["successes"] == 300
        assert rec["failures"] == 0

    def test_deterministic_output(self, capsys):
        args = ["roundtrip", "--n", "8", "--l", "2", "--trials", "200", "--seed", "42"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_iid_zero_probability_all_no_deletion(self, capsys):
        code, out, _ = run(
            capsys,
            "roundtrip",
            "--n", "6", "--l", "2", "--a", "0",
            "--trials", "50", "--seed", "1", "--p", "0.0",
        )
        rec = json.loads(out)
        assert rec["paths"] == {"no-deletion": 50}

    def test_iid_heavy_deletions_degrade_gracefully(self, capsys):
        code, out, _ = run(
            capsys,
            "roundtrip",
            "--n", "8", "--l", "2",
            "--trials", "200", "--seed", "3", "--p", "0.4",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["out_of_model"] > 0
        assert rec["successes"] + rec["failures"] + rec["out_of_model"] == 200

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_usage_error(self, capsys, trials):
        code, out, err = run(
            capsys, "roundtrip", "--n", "8", "--l", "2", "--trials", trials
        )
        assert code == 2
        assert out == ""
        assert "--trials" in err

    @pytest.mark.parametrize("p", ["1.5", "-0.5", "nan"])
    def test_probability_out_of_range_is_usage_error(self, capsys, p):
        code, out, err = run(
            capsys, "roundtrip", "--n", "6", "--l", "2", "--trials", "3", "--p", p
        )
        assert code == 2
        assert out == ""
        assert "--p" in err

    def test_probability_one_accepted(self, capsys):
        # p = 1 is a probability, but it deletes every symbol: every trial
        # is out of model and the run, having checked nothing, is refused
        code, out, err = run(
            capsys, "roundtrip", "--n", "6", "--l", "2", "--trials", "3", "--p", "1"
        )
        assert code == 2
        assert out == ""
        assert "not a probability" not in err
        assert err == (
            "error: roundtrip: all 3 trials were out of model; no trial was checked\n"
        )

    @pytest.mark.parametrize("p", [(), ("--p", "0.05")], ids=["one-deletion", "iid"])
    def test_wrong_decode_exits_1(self, capsys, monkeypatch, p):
        # a decoder that answers the complemented word fails every trial
        # it is given, in either mode
        decode = cli.code.decode

        def complemented(received, params):
            outcome = decode(received, params)
            return dataclasses.replace(outcome, word=tuple(1 - b for b in outcome.word))

        monkeypatch.setattr(cli.code, "decode", complemented)
        status, out, err = run(
            capsys, "roundtrip", "--n", "6", "--l", "2", "--trials", "20", *p
        )
        assert status == 1
        rec = json.loads(out)
        assert (rec["successes"], rec["paths"]) == (0, {})
        assert rec["failures"] == 20 - rec["out_of_model"] > 0
        assert f"0/20 ok, {rec['failures']} failed" in err


class TestReconstructCmd:
    def test_success_and_determinism(self, capsys):
        args = [
            "reconstruct",
            "--n", "10", "--l", "2", "--trials", "300", "--seed", "5",
        ]
        code, out1, _ = run(capsys, *args)
        assert code == 0
        rec = json.loads(out1)
        assert rec["failures"] == 0
        assert rec["successes"] + rec["skipped_singletons"] == 300
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_window_one_rejected(self, capsys):
        code, out, err = run(capsys, "reconstruct", "--n", "6", "--l", "1")
        assert code == 2
        assert out == ""
        assert "error: reconstruction requires --l >= 2" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_usage_error(self, capsys, trials):
        code, out, err = run(
            capsys, "reconstruct", "--n", "10", "--l", "2", "--trials", trials
        )
        assert code == 2
        assert out == ""
        assert "--trials" in err

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_only_singleton_skips_is_usage_error(self, capsys, n):
        # every read vector of a word this short has a one-element
        # deletion ball, so no pair of reads is ever checked
        code, out, err = run(
            capsys, "reconstruct", "--n", n, "--l", "2", "--trials", "5"
        )
        assert code == 2
        assert out == ""
        assert "5 trials were singleton skips" in err

    def test_negative_length_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "reconstruct", "--n", "-4", "--l", "2", "--trials", "5"
        )
        assert code == 2
        assert out == ""
        assert err == "error: word length must be >= 0\n"

    def test_wrong_reconstruction_exits_1(self, capsys, monkeypatch):
        reconstruct_two = cli.reconstruct.reconstruct_two
        monkeypatch.setattr(
            cli.reconstruct,
            "reconstruct_two",
            lambda *reads: reconstruct_two(*reads)[::-1],
        )
        status, out, err = run(
            capsys, "reconstruct", "--n", "10", "--l", "2", "--trials", "50"
        )
        assert status == 1
        rec = json.loads(out)
        assert rec["failures"] > 0
        assert f"{rec['failures']} failed" in err


# the full output of passing trial runs: (argv, stdout, stderr); the
# records and summaries pin every trial's sub-seed
TRIAL_RUNS = [
    (
        ("roundtrip", "--n", "8", "--l", "2", "--trials", "200", "--seed", "42"),
        '{"a": 0, "command": "roundtrip", "failures": 0, "l": 2, '
        '"mode": "exactly-one-deletion", "n": 8, "out_of_model": 0, "p": null, '
        '"paths": {"immediate": 18, "vt": 182}, "seed": 42, "successes": 200, '
        '"trials": 200}\n',
        "roundtrip: 200/200 ok, 0 failed, 0 out of model\n",
    ),
    (
        (
            "roundtrip", "--n", "8", "--l", "2", "--trials", "200", "--seed", "3",
            "--p", "0.4",
        ),
        '{"a": 0, "command": "roundtrip", "failures": 0, "l": 2, '
        '"mode": "iid-deletion", "n": 8, "out_of_model": 188, "p": 0.4, '
        '"paths": {"immediate": 1, "no-deletion": 1, "vt": 10}, "seed": 3, '
        '"successes": 12, "trials": 200}\n',
        "roundtrip: 12/200 ok, 0 failed, 188 out of model\n",
    ),
    (
        ("reconstruct", "--n", "10", "--l", "2", "--trials", "300", "--seed", "5"),
        '{"command": "reconstruct", "failures": 0, "l": 2, "n": 10, "seed": 5, '
        '"skipped_singletons": 0, "successes": 300, "trials": 300}\n',
        "reconstruct: 300 ok, 0 failed, 0 singleton skips\n",
    ),
]


@pytest.mark.parametrize(
    "argv, stdout, stderr",
    TRIAL_RUNS,
    ids=["roundtrip", "roundtrip-iid", "reconstruct"],
)
def test_trial_run_output(capsys, argv, stdout, stderr):
    assert run(capsys, *argv) == (0, stdout, stderr)


# one pinned record per check, its first at a tiny cell: (args after
# the check name, the stdout line)
RECORDS = {
    "ball-equivalence": (
        ("--n", "3", "--l", "2"),
        '{"check": "ball-equivalence", "checked": 8, "l": 2, "n": 3, '
        '"status": "pass"}',
    ),
    "intersection": (
        ("--n", "3", "--l", "2"),
        '{"check": "intersection", "checked": 8, "l": 2, "max_overlap": 1, '
        '"n": 3, "status": "pass", "witness": [[0, 0, 1], [0, 1, 0]]}',
    ),
    "reconstruction": (
        ("--n", "3", "--l", "2"),
        '{"check": "reconstruction", "checked": 20, "l": 2, "n": 3, '
        '"skipped_singletons": 2, "status": "pass"}',
    ),
    "decoder": (
        ("--n", "3", "--l", "2"),
        '{"check": "decoder", "checked": 20, "l": 2, "n": 3, "status": "pass"}',
    ),
    "code-property": (
        ("--n", "3", "--l", "2"),
        '{"a": 0, "check": "code-property", "checked": 1, "codewords": 2, '
        '"l": 2, "n": 3, "status": "pass"}',
    ),
    "validity-image": (
        ("--n", "3", "--l", "2"),
        '{"check": "validity-image", "checked": 81, "image_size": 8, '
        '"l": 2, "n": 3, "status": "pass"}',
    ),
    "expected-runs": (
        ("--n", "2"),
        '{"a": 1, "average": "3/2", "check": "expected-runs", "checked": 4, '
        '"formula": "3/2", "n": 2, "status": "pass"}',
    ),
    "tail-bound": (
        ("--n", "3", "--l", "2"),
        '{"a": 2, "bound": 7.284082891040273, "check": "tail-bound", '
        '"checked": 1, "count": 2, "n": 3, "status": "pass"}',
    ),
    "sticky-size": (
        ("--n", "3"),
        '{"check": "sticky-size", "checked": 24, "n": 3, "status": "pass"}',
    ),
    "sphere-packing": (
        ("--n", "3", "--l", "2"),
        '{"check": "sphere-packing", "checked": 6, "exact": true, '
        '"free_words": 2, "l": 2, "n": 3, "packing_size": 4, '
        '"status": "pass", "total_size": 6, "weighted_sum": "4"}',
    ),
}


class TestVerify:
    def test_ball_equivalence_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "ball-equivalence", "--n", "4..6", "--l", "2..3"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 6
        assert all(r["status"] == "pass" for r in records)

    def test_intersection(self, capsys):
        code, out, _ = run(capsys, "verify", "intersection", "--n", "6", "--l", "2")
        assert code == 0

    def test_expected_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "expected-runs", "--n", "4..8")
        assert code == 0

    def test_sphere_packing(self, capsys):
        code, out, _ = run(
            capsys, "verify", "sphere-packing", "--n", "4..6", "--l", "2",
            "--exact-only",
        )
        assert code == 0

    def test_sphere_packing_greedy_record_is_inconclusive(self, capsys):
        # n = 9 is past the exact search: a greedy code under the bound
        # says nothing about the optimum, and does not count as passed
        code, out, err = run(
            capsys, "verify", "sphere-packing", "--n", "8..9", "--l", "2"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["exact"], r["status"]) for r in records] == [
            (True, "pass"),
            (False, "inconclusive"),
        ]
        assert "1/2 passed, 1 inconclusive" in err

    def test_sphere_packing_all_inconclusive_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "sphere-packing", "--n", "9", "--l", "2")
        assert code == 2
        assert out == ""
        assert "all 1 records are inconclusive" in err

    def test_sphere_packing_all_inconclusive_exact_only_names_it(self, capsys):
        # --exact-only would drop every record; the refusal names the cause
        code, out, err = run(
            capsys, "verify", "sphere-packing", "--n", "9", "--l", "2", "--exact-only"
        )
        assert code == 2
        assert out == ""
        assert "all 1 records are inconclusive" in err

    def test_sphere_packing_greedy_code_over_bound_fails(self, capsys, monkeypatch):
        # a greedy code is a real code: one larger than the bound refutes it
        monkeypatch.setattr(cli.bounds, "weighted_sum", lambda n, l: Fraction(1))
        code, out, _ = run(capsys, "verify", "sphere-packing", "--n", "9", "--l", "2")
        assert code == 1
        [record] = [json.loads(line) for line in out.splitlines()]
        assert (record["exact"], record["status"]) == (False, "fail")

    def test_empty_range_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "verify", "decoder", "--n", "9..8")
        assert code == 2
        assert out == ""

    def test_tail_bound_default_thresholds(self, capsys):
        # without --l, tail-bound runs a = 1, 2, 3 wherever a <= n
        code, out, _ = run(capsys, "verify", "tail-bound", "--n", "2..3")
        assert code == 0
        cells = [(r["n"], r["a"]) for r in map(json.loads, out.splitlines())]
        assert cells == [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]

    def test_expected_runs_takes_a_from_l(self, capsys):
        # --l names the thresholds, as for tail-bound, wherever a <= n
        code, out, _ = run(
            capsys, "verify", "expected-runs", "--n", "2..4", "--l", "2..3"
        )
        assert code == 0
        cells = [(r["n"], r["a"]) for r in map(json.loads, out.splitlines())]
        assert cells == [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]

    def test_sticky_size_refuses_l(self, capsys):
        # sticky-size runs every r = 1..n: an --l it would ignore is an error
        code, out, err = run(capsys, "verify", "sticky-size", "--n", "3", "--l", "2")
        assert code == 2
        assert out == ""
        assert err == (
            "error: verify sticky-size: --l does not apply; it runs r = 1..n\n"
        )

    def test_reconstruction_refuses_window_1(self, capsys):
        # one error from n = 0 on, before any record is built
        code, out, err = run(
            capsys, "verify", "reconstruction", "--n", "0..2", "--l", "1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: two-read reconstruction requires window >= 2\n"

    def test_every_cell_skipped_is_usage_error(self, capsys):
        # a > n for every cell: tail-bound produces no record
        code, out, _ = run(capsys, "verify", "tail-bound", "--n", "3", "--l", "5")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("l", ["2", "3"])
    def test_ball_equivalence_skips_empty_words(self, capsys, l):
        # n = 0 cells are outside the lemma; alone they produce no record
        code, out, err = run(
            capsys, "verify", "ball-equivalence", "--n", "0", "--l", l
        )
        assert code == 2
        assert out == ""
        assert "no (n, l) in range produced a record" in err
        code, out, _ = run(
            capsys, "verify", "ball-equivalence", "--n", "0..2", "--l", l
        )
        assert code == 0
        assert [json.loads(line)["n"] for line in out.splitlines()] == [1, 2]

    @pytest.mark.parametrize(
        "check, l, ns",
        [
            # the read vector of the empty word at l = 1 is empty
            ("intersection", "1", [1, 2]),
            # weighted_sum needs a word to delete from
            ("sphere-packing", "2", [1, 2, 3]),
        ],
    )
    def test_undefined_n0_cell_is_skipped(self, capsys, check, l, ns):
        code, out, err = run(capsys, "verify", check, "--n", "0", "--l", l)
        assert code == 2
        assert out == ""
        assert "no (n, l) in range produced a record" in err
        code, out, _ = run(capsys, "verify", check, "--n", f"0..{ns[-1]}", "--l", l)
        assert code == 0
        assert [json.loads(line)["n"] for line in out.splitlines()] == ns

    def test_intersection_keeps_the_defined_n0_cell(self, capsys):
        code, out, _ = run(capsys, "verify", "intersection", "--n", "0", "--l", "2")
        assert code == 0
        assert json.loads(out) == {
            "check": "intersection", "checked": 1, "l": 2, "max_overlap": 0,
            "n": 0, "status": "pass",
        }

    @pytest.mark.parametrize(
        "args",
        [
            ("reconstruction", "--n", "1", "--l", "2"),
            ("reconstruction", "--n", "0..1", "--l", "2"),
            ("code-property", "--n", "1", "--l", "1"),
            ("sticky-size", "--n", "0"),
        ],
    )
    def test_nothing_checked_is_usage_error(self, capsys, args):
        # every word's ball is a singleton / every code has one word /
        # the empty word has no run length to check
        code, out, err = run(capsys, "verify", *args)
        assert code == 2
        assert out == ""
        assert "checked 0 instances" in err

    @pytest.mark.parametrize(
        "args",
        [
            ("reconstruction", "--n", "-1", "--l", "2"),
            ("intersection", "--n", "-1", "--l", "3"),
            ("validity-image", "--n", "-1", "--l", "3"),
            ("sticky-size", "--n", "-1"),
        ],
        ids=lambda args: args[0],
    )
    def test_negative_length_is_usage_error(self, capsys, args):
        # these checks keep an n < 0 cell and enumerate its words
        code, out, err = run(capsys, "verify", *args)
        assert code == 2
        assert out == ""
        assert err == "error: word length must be >= 0\n"

    def test_some_record_checked_passes(self, capsys):
        # the n = 1 record checks nothing, the n = 2 records do
        code, out, _ = run(
            capsys, "verify", "code-property", "--n", "1..2", "--l", "1"
        )
        assert code == 0
        checked = [json.loads(line)["checked"] for line in out.splitlines()]
        assert checked[0] == 0 and any(checked)

    def test_tail_bound_beyond_float_range_passes(self, capsys):
        # exact counts have no size limit; 2^n overflows a float from
        # n = 1024 on, the bound 2^n e^(..) only later, and then it is null
        code, out, _ = run(capsys, "verify", "tail-bound", "--n", "1024", "--l", "3")
        assert code == 0
        assert json.loads(out.splitlines()[0])["status"] == "pass"
        code, out, _ = run(capsys, "verify", "tail-bound", "--n", "1100", "--l", "3")
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["status"] == "pass" and rec["bound"] is None

    @pytest.mark.parametrize("check", list(cli.VERIFY_CHECKS))
    def test_every_check_passes_at_tiny_range(self, capsys, check):
        # sticky-size takes no --l
        extra = {"sphere-packing": ["--l", "2", "--exact-only"], "sticky-size": []}
        args = extra.get(check, ["--l", "2"])
        code, out, _ = run(capsys, "verify", check, "--n", "3..4", *args)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        assert all(r["check"] == check and r["status"] == "pass" for r in records)

    def test_validity_image_candidate_guard_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "validity-image", "--n", "8", "--l", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: candidate enumeration guarded")

    def test_counterexample_is_json(self):
        # a failing record carries its counterexample as JSON lists, so
        # that it can be read back and replayed
        params = nanoread.CodeParams(n=4, window=2, residue=0)
        res = oracle.verify_code_property(params, list(oracle.all_words(4)))
        rec = json.loads(
            json.dumps(cli._result_record("code-property", {"n": 4, "l": 2}, res))
        )
        assert rec["status"] == "fail"
        assert rec["counterexample"] == {"pair": [[0, 0, 0, 1], [0, 0, 1, 0]]}

    @pytest.mark.parametrize("check", list(RECORDS))
    def test_record_shape(self, capsys, check):
        # every check's record: check, cell keys, status, checked and
        # its details as JSON values
        args, first = RECORDS[check]
        code, out, _ = run(capsys, "verify", check, *args)
        assert code == 0
        assert out.splitlines()[0] == first

    def test_record_shapes_cover_every_check(self):
        assert list(RECORDS) == list(cli.VERIFY_CHECKS)

    @pytest.mark.parametrize(
        "args, module, name, fake",
        [
            pytest.param(
                ("expected-runs", "--n", "3"), "bounds", "expected_runs",
                lambda n, a: Fraction(0), id="expected-runs",
            ),
            pytest.param(
                ("tail-bound", "--n", "4"), "bounds", "tail_count",
                lambda n, a: 1 << n, id="tail-bound",
            ),
            pytest.param(
                ("sticky-size", "--n", "3"), "oracle", "rho_geq",
                lambda x, r: -1, id="sticky-size",
            ),
            pytest.param(
                ("sphere-packing", "--n", "4", "--l", "2"), "bounds", "weighted_sum",
                lambda n, l: Fraction(1), id="sphere-packing",
            ),
        ],
    )
    def test_planted_fault_is_a_json_counterexample(
        self, capsys, monkeypatch, args, module, name, fake
    ):
        target = oracle if module == "oracle" else oracle.bounds
        monkeypatch.setattr(target, name, fake)
        code, out, err = run(capsys, "verify", *args)
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["status"] == "fail" and r["counterexample"] for r in records)
        assert f"0/{len(records)} passed" in err

    def test_exact_only_drops_the_inconclusive_record(self, capsys):
        code, out, err = run(
            capsys, "verify", "sphere-packing", "--n", "7..9", "--l", "2",
            "--exact-only",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["n"], r["exact"], r["status"]) for r in records] == [
            (7, True, "pass"),
            (8, True, "pass"),
        ]
        assert err == "verify sphere-packing: 2/2 passed\n"

    def test_exact_only_keeps_a_failing_greedy_record(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle.bounds, "weighted_sum", lambda n, l: Fraction(1))
        code, out, _ = run(
            capsys, "verify", "sphere-packing", "--n", "9", "--l", "2", "--exact-only"
        )
        assert code == 1
        [record] = [json.loads(line) for line in out.splitlines()]
        assert (record["exact"], record["status"]) == (False, "fail")
        assert len(record["counterexample"]["witness"]) == record["packing_size"]

    def test_readme_lists_every_check(self):
        text = " ".join(README.read_text().split())
        listed = text.split("Verify checks: ", 1)[1].split(".", 1)[0]
        assert [c.strip(" `") for c in listed.split(",")] == list(cli.VERIFY_CHECKS)

    def test_unknown_check_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus", "--n", "4"])
        assert exc.value.code == 2


class TestBounds:
    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "5..8", "--l", "2")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 4
        assert {r["n"] for r in rows} == {5, 6, 7, 8}
        for r in rows:
            assert r["best_size"] >= 2 ** r["n"] / (r["n"] + 1)

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "6", "--l", "2", "--format", "csv")
        header = out.splitlines()[0]
        for field in ("n", "window", "lower_bound_bits", "weighted_sum",
                      "tail_count", "expected_runs"):
            assert field in header

    def test_empty_range_is_usage_error(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--n", "9..8", "--l", "2", "--format", "csv"
        )
        assert code == 2
        assert out == ""

    def test_best_residue_beyond_enumeration_sizes(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "30", "--l", "2")
        row = json.loads(out)
        assert row["best_residue"] == 0
        assert row["best_size"] >= 2**30 / 31
        assert row["weighted_sum"] is not None and row["tail_count"] is not None

    def test_beyond_float_range_keeps_exact_fields(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "1040", "--l", "2")
        assert code == 0
        row = json.loads(out)
        assert row["weighted_sum_float"] is None
        assert row["weighted_sum"] is not None and row["tail_count"] is not None

    @staticmethod
    def per_row(ns, windows):
        rows = []
        for n in ns:
            for l in windows:
                row = bounds.bound_report(n, l).to_dict()
                if l <= n:
                    residue, size = code.best_residue(n, l)
                    row.update(
                        best_residue=residue,
                        best_size=size,
                        best_redundancy_bits=n - math.log2(size),
                    )
                else:
                    row.update(
                        best_residue=None, best_size=None, best_redundancy_bits=None
                    )
                rows.append(row)
        return rows

    def test_json_table_equals_per_row_reports(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "1..40", "--l", "1..5")
        assert code == 0
        rows = self.per_row(range(1, 41), range(1, 6))
        assert out == "".join(
            json.dumps(row, sort_keys=True, default=str) + "\n" for row in rows
        )

    def test_csv_table_equals_per_row_reports(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--n", "1..40", "--l", "1..5", "--format", "csv"
        )
        assert code == 0
        rows = self.per_row(range(1, 41), range(1, 6))
        expected = io.StringIO()
        writer = csv.DictWriter(expected, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        assert out == expected.getvalue()

    @pytest.mark.parametrize(
        "n, l", [("0..2", "1..2"), ("3", "0..1")], ids=["n0", "l0"]
    )
    def test_bad_cell_prints_no_partial_table(self, capsys, n, l):
        code, out, err = run(capsys, "bounds", "--n", n, "--l", l)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_small_n_leaves_lower_bound_blank(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "4", "--l", "2")
        row = json.loads(out)
        assert row["lower_bound_bits"] is None


ERRORS = [
    obj
    for obj in (getattr(nanoread, name) for name in nanoread.__all__)
    if isinstance(obj, type) and issubclass(obj, Exception)
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: e.__name__)
def test_every_library_error_exits_2(capsys, monkeypatch, error):
    # one error family: every class is a ValueError except the size
    # guard, and main maps each to exit 2 with nothing on stdout
    assert issubclass(error, ValueError) or error is nanoread.ResourceLimitError

    def cmd_transform(args):
        raise error("refused")

    monkeypatch.setattr(cli, "cmd_transform", cmd_transform)
    code, out, err = run(capsys, "transform", "101", "--l", "2")
    assert code == 2
    assert out == ""
    assert err == "error: refused\n"


def test_import_loads_only_stdlib():
    # the package has no runtime dependencies: importing the CLI pulls in
    # nothing beyond the standard library
    src = pathlib.Path(nanoread.__file__).resolve().parents[1]
    probe = (
        "import sys; before = set(sys.modules); import nanoread.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'nanoread'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_runs_as_module():
    # python -m nanoread works from a checkout, without installing
    src = pathlib.Path(nanoread.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "nanoread", "--help"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.startswith("usage: nanoread")
