"""The four benchmark workloads.

Every workload is a closed loop with one caller.  Its inputs come from
the seed alone; nanoread receives only the generated inputs.  Only
stable public names are used: ``nanoread.__all__`` plus the
``oracle.verify_*`` checks and ``oracle.exact_max_sticky_code``.

A workload has

* ``setup(t)``: builds the inputs; only ``best_residue`` is traced.
* ``units()`` (pass workloads) or ``prepare(i)`` (op workloads): the
  input of one timed operation.
* ``execute(inp, t)``: the timed calls into nanoread, each through
  ``t.call`` so that a traced run wraps it in a span.
* ``check(inp, out)``: whether the output is correct (untimed).
* ``shadows(inp, out)``: calls into functions that nanoread makes
  internally, with the same inputs; the traced run times them after
  the operation's timer stopped.
* ``probe()``: a small copy of the workload that the traced run of
  every other workload runs, so that every per-layer timing has a
  value there (see run.py); op workloads stop it by ``probe_done``.
"""

from __future__ import annotations

import math
import random

import nanoread as nr
from nanoread import oracle

import golden

DELETE_PROB = 0.75  # channel: one uniform deletion, else the read is intact
DECODE_PATHS = ("vt", "immediate", "no-deletion")


def _rng(seed: int, *key) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + key)))


def _channel(rng: random.Random, rv: tuple) -> tuple:
    if rng.random() < DELETE_PROB:
        pos = rng.randrange(len(rv))
        return rv[:pos] + rv[pos + 1:]
    return rv


def _path(outcome) -> dict:
    return {"path": outcome.path}


def decode_shadows(received, params, outcome) -> list:
    """The calls ``decode`` makes on its way to ``outcome``, with the
    arguments it passes.  Intermediate values are rebuilt from the
    decoded word, so no slow call is repeated outside the timer."""
    n, window = params.n, params.window
    rv = nr.read_vector(outcome.word, window)
    prefix = [s % 2 for s in rv[:n]]
    if outcome.path == "no-deletion":
        calls = [("core.is_valid_read_vector", nr.is_valid_read_vector, (received, window, n))]
    else:
        calls = [("code.immediate_correct", nr.immediate_correct, (received,))]
    if outcome.path == "immediate":
        calls.append(("core.is_valid_read_vector", nr.is_valid_read_vector, (rv, window, n)))
    if outcome.path == "vt":
        truncated = [s % 2 for s in received[: n - 1]]
        calls.append(("code.vt_insert", nr.vt_insert, (truncated, params.residue, n)))
        calls.append(("balls.deletion_ball", nr.deletion_ball, (rv,)))
    calls.append(("core.recover_from_mod2", nr.recover_from_mod2, (prefix, window)))
    return [(name, fn, args, {}) for name, fn, args in calls]


class RoundtripShort:
    """encode -> read_vector -> channel -> decode at n=12, l=2.

    The only workload that calls ``encode``, which enumerates all 2^n
    words per call and so dominates the operation."""

    name = "roundtrip-short"
    kind = "op"

    def __init__(self, seed: int, n: int = 12, window: int = 2, batch: int = 25):
        self.seed, self.n, self.window, self.batch = seed, n, window, batch
        self.setup_failed = 0

    def setup(self, t) -> None:
        # residue as `nanoread roundtrip` picks it without --a
        residue, self.size = t.call(
            "code.best_residue", nr.best_residue, self.n, self.window,
            n=self.n, l=self.window,
        )
        self.params = nr.CodeParams(n=self.n, window=self.window, residue=residue)

    def prepare(self, i: int):
        rng = _rng(self.seed, self.name, i)
        return rng.randrange(self.size), rng.random(), rng.random()

    def execute(self, inp, t):
        index, coin, where = inp
        x = t.call("code.encode", nr.encode, index, self.params)
        rv = t.call("core.read_vector", nr.read_vector, x, self.window)
        if coin < DELETE_PROB:
            pos = int(where * len(rv))
            rv = rv[:pos] + rv[pos + 1:]
        return x, rv, t.call("code.decode", nr.decode, rv, self.params, tag=_path)

    def check(self, inp, out) -> bool:
        x, _, outcome = out
        return outcome.word == x

    def shadows(self, inp, out) -> list:
        _, received, outcome = out
        return decode_shadows(received, self.params, outcome)

    def probe(self) -> "RoundtripShort":
        return self

    def probe_done(self, spans, ops: int) -> bool:
        return ops >= 5  # the probe times encode and read_vector only


class DecodeLong:
    """One ``decode`` per operation at n=256, l=3, a=0.

    The quadratic VT path dominates; this workload never calls encode,
    the bounds or the oracles."""

    name = "decode-long"
    kind = "op"

    def __init__(self, seed: int, n: int = 256, window: int = 3, residue: int = 0,
                 codewords: int = 600, batch: int = 100):
        self.seed, self.n, self.window = seed, n, window
        self.count, self.batch = codewords, batch
        self.params = nr.CodeParams(n=n, window=window, residue=residue)
        self.setup_failed = 0

    def setup(self, t) -> None:
        # Draw the mod-2 prefix p at random, then set the bits at the
        # power-of-two positions so that sum(i * p_i) meets the residue
        # mod n+1.  Rejection sampling would take seconds at n=256.
        n, rng = self.n, _rng(self.seed, self.name, "codewords")
        checks = [1 << j for j in range(n.bit_length()) if 1 << j <= n]
        self.words, self.reads = [], []
        while len(self.words) < self.count:
            p = [rng.getrandbits(1) for _ in range(n)]
            for c in checks:
                p[c - 1] = 0
            d = (self.params.residue - sum(i * p[i - 1] for i in range(1, n + 1))) % (n + 1)
            for c in checks:
                p[c - 1] = 1 if d & c else 0
            x = nr.recover_from_mod2(p, self.window)
            if not nr.is_member(x, self.params):
                self.setup_failed += 1
                if self.setup_failed > self.count:
                    raise RuntimeError("is_member rejects every constructed codeword")
                continue
            self.words.append(x)
            self.reads.append(nr.read_vector(x, self.window))

    def prepare(self, i: int):
        rng = _rng(self.seed, self.name, i)
        k = rng.randrange(len(self.words))
        return k, _channel(rng, self.reads[k])

    def execute(self, inp, t):
        return t.call("code.decode", nr.decode, inp[1], self.params, tag=_path)

    def check(self, inp, out) -> bool:
        return out.word == self.words[inp[0]]

    def shadows(self, inp, out) -> list:
        return decode_shadows(inp[1], self.params, out)

    def probe(self) -> "DecodeLong":
        return DecodeLong(self.seed, self.n, self.window, self.params.residue,
                          codewords=40, batch=self.batch)

    def probe_done(self, spans, ops: int) -> bool:
        paths = [s["path"] for s in spans if s["name"] == "code.decode"]
        return ops >= 1000 or all(paths.count(p) >= 3 for p in DECODE_PATHS)


class BoundsTable:
    """The 36 rows of ``nanoread bounds --n 5..22 --l 2..3``.

    Run histograms over 2^(n-1) words and the 2^n syndrome scan of
    ``best_residue`` carry almost all the work; nothing is decoded."""

    name = "bounds-table"
    kind = "pass"
    SHADOW_N = 22  # bound_report's internal calls are timed on these rows

    def __init__(self, seed: int, ns=range(5, 23), windows=(2, 3), gold=None):
        self.seed = seed
        self.cells = [(n, l) for n in ns for l in windows]
        self.gold = gold
        self.setup_failed = 0

    def setup(self, t) -> None:
        if self.gold is None:
            self.gold = golden.load()["bounds_table"]
        self.order = list(self.cells)
        _rng(self.seed, self.name).shuffle(self.order)

    def units(self) -> list:
        return self.order

    def execute(self, cell, t) -> dict:
        n, l = cell
        row = t.call("bounds.bound_report", nr.bound_report, n, l, n=n, l=l).to_dict()
        if l <= n <= 16:  # as `nanoread bounds` does
            residue, size = t.call("code.best_residue", nr.best_residue, n, l, n=n, l=l)
            row.update(best_residue=residue, best_size=size,
                       best_redundancy_bits=n - math.log2(size))
        else:
            row.update(best_residue=None, best_size=None, best_redundancy_bits=None)
        return row

    def check(self, cell, row) -> bool:
        return golden.row_matches(row, self.gold.get("%d,%d" % cell))

    def shadows(self, cell, row) -> list:
        n, l = cell
        if n != self.SHADOW_N:
            return []
        return [
            ("bounds.weighted_sum", nr.weighted_sum, (n, l), {"n": n, "l": l}),
            ("bounds.tail_count", nr.tail_count, (n - 1, l), {"n": n - 1, "l": l}),
        ]

    def probe(self) -> "BoundsTable":
        return BoundsTable(self.seed, ns=(16, self.SHADOW_N), windows=(2,), gold=self.gold)


VERIFY_CHECKS = (
    "verify_decoder",
    "verify_reconstruction",
    "verify_ball_equivalence",
    "verify_intersection_bound",
)
STICKY_MAX_N = 8  # exact_max_sticky_code is exact only up to here


class VerifySweep:
    """What ``nanoread verify`` and the tier-1 tests spend their time on:
    exhaustive oracles for l in {2,3}, l <= n <= 11.  Many small decodes
    and reconstructions rather than a few large ones."""

    name = "verify-sweep"
    kind = "pass"

    def __init__(self, seed: int, max_n: int = 11, windows=(2, 3), gold=None):
        self.seed = seed
        self.cells = [
            (check, n, l)
            for l in windows
            for n in range(l, max_n + 1)
            for check in VERIFY_CHECKS
            + (("exact_max_sticky_code",) if n <= STICKY_MAX_N else ())
        ]
        self.gold = gold
        self.setup_failed = 0

    def setup(self, t) -> None:
        if self.gold is None:
            self.gold = golden.load()["sticky"]
        self.order = list(self.cells)
        _rng(self.seed, self.name).shuffle(self.order)

    def units(self) -> list:
        return self.order

    def execute(self, cell, t):
        check, n, l = cell
        fn = getattr(oracle, check)
        if check == "exact_max_sticky_code":
            return t.call("oracle." + check, fn, n, l, n=n, l=l)
        return t.call("oracle." + check, fn, n, l, n=n, l=l,
                      tag=lambda r: {"checked": r.checked})

    def check(self, cell, result) -> bool:
        check, n, l = cell
        if check == "exact_max_sticky_code":
            expect = self.gold.get("%d,%d" % (n, l))
            return (
                result.exact
                and len(result.witness) == result.packing_size
                and [result.packing_size, result.free_words] == expect
            )
        return result.ok and result.checked > 0

    def shadows(self, cell, result) -> list:
        return []

    def probe(self) -> "VerifySweep":
        return VerifySweep(self.seed, max_n=STICKY_MAX_N, windows=(2,), gold=self.gold)


WORKLOADS = {w.name: w for w in (RoundtripShort, DecodeLong, BoundsTable, VerifySweep)}
