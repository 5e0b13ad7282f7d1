"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import ast
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

nanoread = run.import_nanoread()

import golden  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import NULL, Tracer  # noqa: E402

TINY = {
    "roundtrip-short": lambda seed: workloads.RoundtripShort(seed, n=6, batch=5),
    "decode-long": lambda seed: workloads.DecodeLong(seed, n=32, codewords=20, batch=10),
    "bounds-table": lambda seed: workloads.BoundsTable(seed, ns=range(5, 9)),
    "verify-sweep": lambda seed: workloads.VerifySweep(seed, max_n=5),
}


def tiny_run(name: str, t=NULL, seed: int = 1, passes: int = 2) -> tuple[run.Tally, dict]:
    w = TINY[name](seed)
    tally = run.Tally()
    w.setup(t)
    phase = run.run_phase(w, t, 0.0, passes, tally)
    return tally, phase


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_smoke(name, traced):
    t = Tracer() if traced else NULL
    tally, phase = tiny_run(name, t)
    assert tally.attempted == len(phase["latencies"]) > 0
    assert tally.failed == 0, tally.first_error
    assert len(phase["passes"]) == 2
    if traced:
        ops = [s for s in t.spans if s["name"] == "op"]
        assert len(ops) == tally.attempted
        children = [s for s in t.spans if s["parent"] is not None]
        assert children and all(s["parent"] in {o["id"] for o in ops} for s in children)


def test_every_workload_has_a_tiny_form():
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


def _flip_first_bit(real):
    def decode(candidate, params):
        out = real(candidate, params)
        word = (1 - out.word[0],) + out.word[1:]
        return nanoread.DecodeOutcome(word=word, path=out.path)

    return decode


@pytest.mark.parametrize("name", ["roundtrip-short", "decode-long"])
def test_gate_catches_wrong_decode(monkeypatch, name):
    monkeypatch.setattr(nanoread, "decode", _flip_first_bit(nanoread.decode))
    tally, _ = tiny_run(name)
    assert tally.failed == tally.attempted > 0


def test_gate_counts_exceptions(monkeypatch):
    def broken(candidate, params):
        raise RuntimeError("broken decoder")

    monkeypatch.setattr(nanoread, "decode", broken)
    tally, _ = tiny_run("decode-long")
    assert tally.failed == tally.attempted > 0
    assert "broken decoder" in tally.first_error


def test_gate_catches_edited_golden_row():
    gold = json.loads(json.dumps(golden.load()["bounds_table"]))
    gold["7,2"]["weighted_sum"] = "1/3"
    w = workloads.BoundsTable(seed=1, ns=range(5, 9), gold=gold)
    tally = run.Tally()
    w.setup(NULL)
    run.run_phase(w, NULL, 0.0, 1, tally)
    assert tally.failed == 1 and tally.attempted == 8


def test_golden_float_tolerance():
    row = {"x": 1.0, "f": "1/3", "none": None}
    assert golden.row_matches(dict(row, x=1.0 + 1e-14), row)
    assert not golden.row_matches(dict(row, x=1.0 + 1e-9), row)
    assert not golden.row_matches(dict(row, f="2/6"), row)
    assert not golden.row_matches(row, None)


def test_golden_weighted_sum_brute_force():
    for n, l in [(5, 2), (9, 3)]:
        assert golden.brute_weighted_sum(n, l) == nanoread.weighted_sum(n, l)


def test_inputs_and_counts_repeat_for_a_seed():
    a, b = TINY["decode-long"](7), TINY["decode-long"](7)
    a.setup(NULL)
    b.setup(NULL)
    assert a.words == b.words
    assert [a.prepare(i) for i in range(30)] == [b.prepare(i) for i in range(30)]
    c = TINY["decode-long"](8)
    c.setup(NULL)
    assert c.words != a.words

    t = Tracer()
    tiny_run("verify-sweep", t, passes=2)
    pass_of = {s["id"]: s["pass"] for s in t.spans if s["name"] == "op"}
    checked = [0, 0]
    for s in t.spans:
        if "checked" in s:
            checked[pass_of[s["parent"]]] += s["checked"]
    assert checked[0] == checked[1] > 0


def test_tail_percentile():
    value, rank, count = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and count == 100 and rank == 90.0
    assert run.tail([3.0, 1.0])[0] == 3.0


def test_host_speed_rescales_by_the_slowness_around_the_work(monkeypatch):
    slowness = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(hostspeed.HostSpeed, "_measure", lambda self: next(slowness))
    speed = hostspeed.HostSpeed()
    assert speed.rescale(3.0) == pytest.approx(1.0)  # (2 + 4) / 2 = 3 times slower
    assert speed.rescale(5.0) == pytest.approx(2.0)  # (4 + 1) / 2 = 2.5 times slower


# Names the benchmark may use: stable public API only, so that later
# changes to kernels, limits and private helpers need no benchmark edit.
ALLOWED_ORACLE = {"verify_decoder", "verify_reconstruction", "verify_ball_equivalence",
                  "verify_intersection_bound", "exact_max_sticky_code"}


def test_benchmark_uses_stable_public_names_only():
    allowed = set(nanoread.__all__)
    for path in HERE.glob("*.py"):
        if path.name.startswith("test_"):
            continue
        source = path.read_text()
        assert "kernels" not in source and "NANOREAD_NO_NUMBA" not in source, path
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("nr", "nanoread") and not node.attr.startswith("__"):
                    assert node.attr in allowed, (path.name, node.attr)
                if node.value.id == "oracle":
                    assert node.attr in ALLOWED_ORACLE, (path.name, node.attr)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nanoread"):
                assert node.module == "nanoread", (path.name, node.module)
                assert all(a.name in allowed | {"oracle"} for a in node.names), path.name
    # getattr(oracle, check) in VerifySweep reads these names
    assert set(workloads.VERIFY_CHECKS) | {"exact_max_sticky_code"} <= ALLOWED_ORACLE


def test_cli_prints_every_end_to_end_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-sweep", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    assert "verify-sweep" in [w["name"] for w in spec["workloads"]]
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in spec["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"metric {m['name']} " in out.stdout


def test_trace_run_reports_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "roundtrip-short", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert (HERE / "out" / "spans-roundtrip-short-seed3.jsonl").is_file()


def test_refuses_a_directory_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
