"""nanoread benchmark: one workload per run, metrics on stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports nanoread from the
checkout's ``src/`` and exits with code 2 when that is missing.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with
its unit, the environment and, as ``record``, the full result.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``ops_per_s``, ``op_p50_ms`` (op workloads): per operation, one
  roundtrip or one decode.
* ``pass_ref_s`` (pass workloads): median time of one whole pass (the
  table, the sweep), rescaled to a fixed host speed (see ``hostspeed``).
* ``setup_s``: median, over fresh processes, of the time from process
  start to the first timed operation (import plus input generation),
  rescaled like ``pass_ref_s``.
* ``peak_rss_mb``: ``ru_maxrss`` of the benchmark process.

Also printed, but not bounded: ``op_p99_ms``, the highest percentile
with at least 10 samples beyond it (the maximum below 11 samples), with
its rank and sample count, ``pass_s``, the median pass as timed, and
``setup_s`` as timed.
On the pass workloads an operation is one pass.  Every run first runs
``WARMUP_S`` seconds of untimed, checked operations.  Failed operations
(wrong output, exception, failed check) are counted in ``failed``;
``fail_frac`` is printed beside the metrics.

``--trace 1`` gives the per-layer metrics.  It runs the workload
untraced for half the time, then traced for the other half, with a span
around every call the benchmark makes into nanoread; functions that
``decode`` and ``bound_report`` call internally are timed as shadow
calls after the operation's timer stopped.  Each per-layer timing
belongs to one workload (``OWNER``); where the traced workload makes no
such call, the value comes from a small probe of the owning workload
run after the traced phase.  Shares (``.frac``) and counts
(``.checked``) come from the traced workload alone and read 0 where it
does not reach the function.  The spans are written once, at the end,
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from hostspeed import HostSpeed
from tracing import NULL, Tracer, durations, dump

# One BLAS thread, in this process and the set-up processes: nanoread
# makes no BLAS call, and the pool OpenBLAS starts when numpy is imported
# competes for the host's few cores, which made import times bimodal.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9  # fresh processes per run for setup_s
WARMUP_S = 3.0  # untimed operations before any timing; the host's speed settles
MIN_PASSES = 3  # untraced passes per run, at least
PATH_SHARE_OPS = 100  # decode path shares count the first traced ops only
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
HOST_SPEED_EVERY_S = 0.5  # how often the run measures the host's speed


class BenchError(Exception):
    """The benchmark cannot run: no nanoread sources, or an unknown workload."""


def import_nanoread():
    """Import nanoread from this checkout's src/, never from elsewhere."""
    if not (SRC / "nanoread" / "__init__.py").is_file():
        raise BenchError(f"no nanoread sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nanoread

    if SRC not in pathlib.Path(nanoread.__file__).resolve().parents:
        raise BenchError(f"nanoread was imported from {nanoread.__file__}")
    return nanoread


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.first_error: str | None = None

    def record(self, ok: bool, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = error or "wrong output"


def timed(w, inp, t, tally: Tally, **op_attrs) -> float:
    """Run one operation; return its latency in seconds.

    An exception, a wrong output or a failing shadow call counts as a
    failed operation; the run goes on."""
    t0 = time.perf_counter()
    try:
        with t.span("op", **op_attrs):
            out = w.execute(inp, t)
    except Exception:
        latency = time.perf_counter() - t0
        tally.record(False, traceback.format_exc())
        return latency
    latency = time.perf_counter() - t0
    try:
        ok = w.check(inp, out)
        if t is not NULL:
            op_id = t.spans[-1]["id"]
            for name, fn, args, attrs in w.shadows(inp, out):
                t.call(name, fn, *args, shadow_of=op_id, **attrs)
    except Exception:
        tally.record(False, traceback.format_exc())
    else:
        tally.record(ok)
    return latency


def pass_inputs(w, k: int) -> list:
    """Inputs of pass k: the table or sweep, or batch k of operations."""
    if w.kind == "pass":
        return list(enumerate(w.units()))
    return [(i, w.prepare(i)) for i in range(k * w.batch, (k + 1) * w.batch)]


def warm_up(w, seconds: float, tally: Tally) -> None:
    """Untimed operations (still checked) from the start of pass 0."""
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        for _, inp in pass_inputs(w, k):
            timed(w, inp, NULL, tally)
            if time.perf_counter() - start >= seconds:
                return
        k += 1


def run_phase(w, t, seconds: float, min_passes: int, tally: Tally) -> dict:
    """Whole passes, at least ``min_passes``, then more while another
    pass of median length still ends within ``seconds``.  Every
    ``HOST_SPEED_EVERY_S`` and at the end of each pass, the operations
    timed since the last such point are rescaled by ``HostSpeed``."""
    latencies, passes, scaled = [], [], []
    start = time.perf_counter()
    speed = HostSpeed()
    while True:
        k = len(passes)
        total = total_scaled = segment = 0.0
        mark = time.perf_counter()
        for i, inp in pass_inputs(w, k):
            d = timed(w, inp, t, tally, i=i, **{"pass": k})
            latencies.append(d)
            total += d
            segment += d
            if time.perf_counter() - mark >= HOST_SPEED_EVERY_S:
                total_scaled += speed.rescale(segment)
                segment, mark = 0.0, time.perf_counter()
        if segment:
            total_scaled += speed.rescale(segment)
        passes.append(total)
        scaled.append(total_scaled)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + statistics.median(passes) > seconds:
            return {"latencies": latencies, "passes": passes, "scaled": scaled,
                    "wall": time.perf_counter() - start - speed.spent}


def tail(latencies: list) -> tuple[float, float, int]:
    """Value and rank (percent) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    s = sorted(latencies)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def measure_setup(workload: str, seed: int) -> dict:
    """setup_s from fresh processes, each rescaled by ``HostSpeed``
    like the passes, with their import and input times as timed."""
    walls, scaled, imports, inputs = [], [], [], []
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            walls.append(time.perf_counter() - t0)
            p.wait(timeout=120)
        if p.returncode != 0 or not line:
            raise RuntimeError(f"setup process failed with code {p.returncode}")
        scaled.append(speed.rescale(walls[-1]))
        rec = json.loads(line)
        imports.append(rec["import_ms"])
        inputs.append(rec["inputs_ms"])
    return {"setup_s": statistics.median(scaled), "setup_timed_s": statistics.median(walls),
            "import_ms": statistics.median(imports),
            "inputs_ms": statistics.median(inputs)}


def setup_only(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import_nanoread()
    import workloads

    t1 = time.perf_counter()
    workload_class(workloads, workload)(seed).setup(NULL)
    t2 = time.perf_counter()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "inputs_ms": (t2 - t1) * 1e3}), flush=True)


def end_to_end(phase: dict, setup: dict, kind: str) -> tuple[dict, dict]:
    ops = phase["latencies"] if kind == "op" else phase["passes"]
    p99, rank, count = tail(ops)
    # The tail is reported but not bounded: on a shared host it swings
    # by more than any bound the benchmark may set (see METRICS.md).
    samples = {"ops": count, "passes": len(phase["passes"]), "op_p99_ms": p99 * 1e3,
               "op_p99_rank_pct": rank, "setup_processes": SETUP_SAMPLES,
               "setup_timed_s": setup["setup_timed_s"]}
    if kind == "op":
        metrics = {
            "ops_per_s": (len(ops) / phase["wall"], "1/s"),
            "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        }
    else:
        # A user of the table or the sweep waits for the whole pass.  Its
        # median time follows the host's drifting speed by more than any
        # bound, so the bounded figure is the pass at the reference speed.
        metrics = {"pass_ref_s": (statistics.median(phase["scaled"]), "s")}
        samples["pass_s"] = statistics.median(phase["passes"])
    metrics["setup_s"] = (setup["setup_s"], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, samples


# Owner of each per-layer timing: the workload whose probe supplies it
# when the traced workload makes no such call.
OWNER = {
    "code.encode": "roundtrip-short",
    "core.read_vector": "roundtrip-short",
    "code.best_residue.n12": "roundtrip-short",
    "code.decode": "decode-long",
    "code.vt_insert": "decode-long",
    "balls.deletion_ball": "decode-long",
    "code.immediate_correct": "decode-long",
    "core.is_valid_read_vector": "decode-long",
    "core.recover_from_mod2": "decode-long",
    "bounds": "bounds-table",
    "code.best_residue.n16": "bounds-table",
    "oracle": "verify-sweep",
}
ORACLE_PER_CHECK = ("verify_decoder", "verify_reconstruction")
ORACLE_PER_PASS = ("verify_ball_equivalence", "verify_intersection_bound",
                   "exact_max_sticky_code")


def _owner(metric: str) -> str:
    return next(w for key, w in OWNER.items() if metric.startswith(key))


def layer_metrics(own: list, probes: dict, traced: dict, untraced: dict,
                  setup: dict, kind: str) -> dict:
    from workloads import DECODE_PATHS

    ops = {s["id"]: s for s in own if s["name"] == "op"}
    op_time = sum(s["end"] - s["start"] for s in ops.values())
    in_ops = [s for s in own if s.get("parent") in ops]
    passes = len(traced["passes"])

    def timing(metric, name, scale, **match):
        for spans in (own, probes[_owner(metric)]):
            d = durations(spans, name, **match)
            if d:
                return (scale * sum(d) / len(d), "us" if scale == 1e6 else "ms")
        raise RuntimeError(f"no span measures {metric}")

    def share(name):
        return (sum(durations(in_ops, name)) / op_time if op_time else 0.0, "frac")

    m = {
        "setup.import_ms": (setup["import_ms"], "ms"),
        "setup.inputs_ms": (setup["inputs_ms"], "ms"),
    }
    key = "latencies" if kind == "op" else "scaled"
    m["trace.overhead_frac"] = (
        statistics.median(traced[key]) / statistics.median(untraced[key]) - 1, "frac")

    m["code.encode.us"] = timing("code.encode", "code.encode", 1e6)
    m["code.encode.frac"] = share("code.encode")
    m["core.read_vector.us"] = timing("core.read_vector", "core.read_vector", 1e6)
    m["code.best_residue.n12.ms"] = timing("code.best_residue.n12", "code.best_residue",
                                           1e3, n=12, l=2)
    m["code.decode.us"] = timing("code.decode", "code.decode", 1e6)
    for path in DECODE_PATHS:
        m[f"code.decode.{path}.us"] = timing("code.decode", "code.decode", 1e6, path=path)
    first = [s for s in in_ops if s["name"] == "code.decode"
             and ops[s["parent"]]["i"] < PATH_SHARE_OPS]
    for path in ("vt", "immediate"):
        hits = sum(1 for s in first if s["path"] == path)
        m[f"code.decode.{path}.frac"] = (hits / len(first) if first else 0.0, "frac")
    for name in ("code.vt_insert", "balls.deletion_ball", "code.immediate_correct",
                 "core.is_valid_read_vector", "core.recover_from_mod2"):
        m[name + ".us"] = timing(name, name, 1e6)

    for n in (16, 22):
        m[f"bounds.bound_report.n{n}.ms"] = timing("bounds", "bounds.bound_report", 1e3,
                                                    n=n, l=2)
    m["bounds.weighted_sum.n22.ms"] = timing("bounds", "bounds.weighted_sum", 1e3, n=22, l=2)
    m["bounds.tail_count.n21.ms"] = timing("bounds", "bounds.tail_count", 1e3, n=21, l=2)
    m["code.best_residue.n16.ms"] = timing("code.best_residue.n16", "code.best_residue",
                                           1e3, n=16, l=2)
    m["bounds.bound_report.frac"] = share("bounds.bound_report")
    m["code.best_residue.frac"] = share("code.best_residue")

    for check in ORACLE_PER_CHECK:
        name = "oracle." + check
        for spans in (in_ops, probes["verify-sweep"]):
            sel = [s for s in spans if s["name"] == name]
            if sel:
                break
        checked = sum(s["checked"] for s in sel)
        m[name + ".us_per_check"] = (
            1e6 * sum(s["end"] - s["start"] for s in sel) / checked, "us")
        own_checked = sum(s["checked"] for s in in_ops if s["name"] == name)
        m[name + ".checked"] = (own_checked // passes, "count")
    for check in ORACLE_PER_PASS:
        name = "oracle." + check
        own_ms = sum(durations(in_ops, name))
        probe_ms = sum(durations(probes["verify-sweep"], name))
        m[name + ".ms"] = (1e3 * (own_ms / passes if own_ms else probe_ms), "ms")
        m[name + ".frac"] = share(name)
    return m


def workload_class(workloads, name: str):
    try:
        return workloads.WORKLOADS[name]
    except KeyError:
        raise BenchError(
            f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}"
        ) from None


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    t_start = time.perf_counter()
    import_nanoread()
    import workloads

    env = environment()
    print("env " + json.dumps(env))
    tally = Tally()
    w = workload_class(workloads, workload)(seed)
    own = Tracer("workload") if trace else NULL
    w.setup(own)
    tally.attempted += w.setup_failed
    tally.failed += w.setup_failed
    warm_up(w, WARMUP_S, tally)
    setup = measure_setup(workload, seed)

    if not trace:
        phase = run_phase(w, NULL, seconds, MIN_PASSES, tally)
        metrics, samples = end_to_end(phase, setup, w.kind)
    else:
        min_passes = 1 if w.kind == "pass" else math.ceil(PATH_SHARE_OPS / w.batch)
        untraced = run_phase(w, NULL, seconds / 2, min_passes, tally)
        traced = run_phase(w, own, seconds / 2, min_passes, tally)
        probes = {}
        for name, cls in workloads.WORKLOADS.items():
            probes[name] = [] if name == workload else run_probe(cls(seed).probe(), name, tally)
        metrics = layer_metrics(own.spans, probes, traced, untraced, setup, w.kind)
        samples = {"untraced_ops": len(untraced["latencies"]),
                   "traced_ops": len(traced["latencies"]),
                   "traced_passes": len(traced["passes"])}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        dump(own.spans + [s for spans in probes.values() for s in spans], path, t_start)
        print(f"spans {path.relative_to(ROOT)}")

    if tally.first_error:
        print(f"first failure:\n{tally.first_error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    if "op_p99_ms" in samples:
        print(f"unbounded op_p99_ms {samples['op_p99_ms']!r} ms "
              f"(p{samples['op_p99_rank_pct']:.1f} of {samples['ops']} operations)")
        print(f"unbounded setup_s as timed {samples['setup_timed_s']!r} s")
    if "pass_s" in samples:
        print(f"unbounded pass_s {samples['pass_s']!r} s "
              f"(median of {samples['passes']} passes, not rescaled)")
    print(f"fail_frac {tally.failed / max(tally.attempted, 1)!r} "
          f"({tally.failed}/{tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "samples": samples, "result": result}
    print("record " + json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


def run_probe(w, name: str, tally: Tally) -> list:
    t = Tracer("probe:" + name)
    w.setup(t)
    if w.kind == "pass":
        for i, inp in pass_inputs(w, 0):
            timed(w, inp, t, tally, i=i, **{"pass": 0})
    else:
        i = 0
        while not w.probe_done(t.spans, i):
            timed(w, w.prepare(i), t, tally, i=i, **{"pass": 0})
            i += 1
    return t.spans


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = _parse(sys.argv[1:])
    try:
        if args.setup_only:
            setup_only(args.workload, args.seed)
            sys.exit(0)
        sys.exit(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
