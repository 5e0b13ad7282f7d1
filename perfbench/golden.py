"""Golden outputs for the bounds-table and verify-sweep gates.

``golden.json`` holds every bounds-table row and every
``exact_max_sticky_code`` size, captured from nanoread at the commit
that introduced the benchmark.  Fractions are stored exactly, as
strings; floats are compared to a relative 1e-12.

Regenerate (only when a change is meant to alter these outputs):

    python3 perfbench/golden.py

Capturing also checks every ``weighted_sum`` with n <= 14 against a
brute-force sum over ``rho_geq``.
"""

from __future__ import annotations

import json
import math
import pathlib
from fractions import Fraction
from itertools import product

PATH = pathlib.Path(__file__).with_name("golden.json")
REL_TOL = 1e-12
BRUTE_FORCE_MAX_N = 14


def load() -> dict:
    with open(PATH) as f:
        return json.load(f)


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=REL_TOL)
    return type(got) is type(want) and got == want


def row_matches(row: dict, gold: dict | None) -> bool:
    return gold is not None and row.keys() == gold.keys() and all(
        _same(row[k], gold[k]) for k in gold
    )


def brute_weighted_sum(n: int, window: int) -> Fraction:
    import nanoread as nr

    total = Fraction(0)
    for y in product((0, 1), repeat=n - 1):
        r = nr.rho_geq(y, window)
        total += Fraction(1, r) if r > 0 else 1
    return total


def capture() -> dict:
    import nanoread as nr
    from nanoread import oracle

    from tracing import NULL
    from workloads import BoundsTable, VerifySweep

    table = BoundsTable(seed=0, gold={})
    rows = {}
    for n, l in table.cells:
        row = table.execute((n, l), NULL)
        if n <= BRUTE_FORCE_MAX_N:
            brute = brute_weighted_sum(n, l)
            if Fraction(row["weighted_sum"]) != brute or nr.weighted_sum(n, l) != brute:
                raise SystemExit(f"weighted_sum({n}, {l}) disagrees with brute force")
        rows["%d,%d" % (n, l)] = row
    sticky = {}
    for check, n, l in VerifySweep(seed=0, gold={}).cells:
        if check == "exact_max_sticky_code":
            r = oracle.exact_max_sticky_code(n, l)
            sticky["%d,%d" % (n, l)] = [r.packing_size, r.free_words]
    return {"bounds_table": rows, "sticky": sticky}


if __name__ == "__main__":
    import run  # puts the checkout's src/ on sys.path

    run.import_nanoread()
    with open(PATH, "w") as f:
        json.dump(capture(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {PATH}")
