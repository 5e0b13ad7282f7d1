"""Command-line front end: transform, simulate, verify, tabulate.

Machine-readable output (JSON lines, or CSV for tables) goes to stdout;
human-readable summaries go to stderr.  Exit status: 0 when everything
is consistent, 1 when a check or trial found a violation, 2 on usage or
input errors.  Commands raise every such error; ``main`` alone turns it
into exit 2 with ``error: ...`` on stderr.  ``verify`` looks its check
up in ``VERIFY_CHECKS``.

``roundtrip`` and ``reconstruct`` share one trial driver: any failed
trial exits 1, in ``roundtrip`` with or without ``--p``, and a run whose
every trial was skipped (out of model, or a one-read deletion ball)
checked nothing and exits 2.  Randomness comes from Python's Mersenne
Twister; each trial uses the sub-seed ``seed * 1_000_003 + trial`` so
reports are reproducible and independent of scheduling.
"""

from __future__ import annotations

import argparse
import collections
import csv
import json
import math
import random
import sys

from . import balls, bounds, code, core, oracle, reconstruct

TRIAL_SEED_STRIDE = 1_000_003


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, default=str))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_words(args) -> list[core.Word]:
    words = [core.parse_word(w) for w in args.words]
    if args.input:
        with open(args.input) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    words.append(core.parse_word(line))
                except ValueError as exc:
                    raise ValueError(f"{args.input}:{lineno}: {exc}")
    return words


def cmd_transform(args) -> int:
    for x in _read_words(args):
        print(core.format_levels(core.read_vector(x, args.l), args.l))
    return 0


def _code_params(args) -> code.CodeParams:
    """The code of --n, --l and --a; --a defaults to the best residue."""
    residue = args.a
    if residue is None:
        residue, _ = code.best_residue(args.n, args.l)
    return code.CodeParams(n=args.n, window=args.l, residue=residue)


def cmd_enumerate(args) -> int:
    params = _code_params(args)
    if args.a is None:
        _note(f"using best residue a={params.residue}")
    for x in code.enumerate_code(params):
        print(core.format_word(x))
    return 0


def _trial_command(skips: str, refusal: str, summary: str):
    """Make a trial command of setup(args), which checks the command's own
    arguments after --trials and returns (trial, record).  Trial t calls
    trial(rng), rng seeded ``seed * TRIAL_SEED_STRIDE + t``, for True,
    False, or None when skipped.  The tally joins the command's own keys
    in the record, skips under record[skips], and the summary is formatted
    from it.  A run of only skips is refused; any failed trial exits 1.
    """

    def decorate(setup):
        def cmd(args) -> int:
            name, trials = args.command, args.trials
            if trials < 1:
                raise ValueError(
                    f"{name}: --trials {trials} runs no trial; need at least 1"
                )
            trial, record = setup(args)
            tally = collections.Counter(
                trial(random.Random(args.seed * TRIAL_SEED_STRIDE + t))
                for t in range(trials)
            )
            if tally[None] == trials:
                raise ValueError(f"{name}: all {trials} trials were {refusal}")
            record.update(
                command=name,
                n=args.n,
                l=args.l,
                trials=trials,
                seed=args.seed,
                successes=tally[True],
                failures=tally[False],
                **{skips: tally[None]},
            )
            _emit(record)
            _note(summary.format(**record))
            return 1 if tally[False] else 0

        return cmd

    return decorate


@_trial_command(
    "out_of_model",
    "out of model; no trial was checked",
    "roundtrip: {successes}/{trials} ok, {failures} failed, "
    "{out_of_model} out of model",
)
def cmd_roundtrip(args):
    if args.p is not None and not 0 <= args.p <= 1:
        raise ValueError(
            f"roundtrip: --p {args.p} is not a probability; need 0 <= p <= 1"
        )
    params = _code_params(args)
    codewords = code.enumerate_code(params)
    paths = collections.Counter()

    def trial(rng):
        x = codewords[rng.randrange(len(codewords))]
        rv = core.read_vector(x, args.l)
        if args.p is None:
            pos = rng.randrange(len(rv))
            received = rv[:pos] + rv[pos + 1 :]
        else:
            received = tuple(s for s in rv if rng.random() >= args.p)
        if len(received) < len(rv) - 1:
            return None
        try:
            outcome = code.decode(received, params)
        except ValueError:
            return False
        if outcome.word != x:
            return False
        paths[outcome.path] += 1
        return True

    return trial, {
        "a": params.residue,
        "mode": "exactly-one-deletion" if args.p is None else "iid-deletion",
        "p": args.p,
        "paths": paths,
    }


@_trial_command(
    "skipped_singletons",
    "singleton skips; no pair of reads was checked",
    "reconstruct: {successes} ok, {failures} failed, "
    "{skipped_singletons} singleton skips",
)
def cmd_reconstruct(args):
    if args.l < 2:
        raise ValueError("reconstruction requires --l >= 2")
    if args.n < 0:
        raise ValueError("word length must be >= 0")

    def trial(rng):
        x = tuple(rng.randrange(2) for _ in range(args.n))
        rv = core.read_vector(x, args.l)
        ball = sorted(balls.deletion_ball(rv))
        if len(ball) < 2:
            return None
        i, j = rng.sample(range(len(ball)), 2)
        try:
            return reconstruct.reconstruct_two(ball[i], ball[j], args.l, args.n) == rv
        except reconstruct.InconsistentReadsError:
            return False

    return trial, {}


_STATUS = {True: "pass", False: "fail", None: "inconclusive"}


def _result_record(check: str, cell: dict, res: oracle.CheckResult) -> dict:
    rec = {
        "check": check,
        **cell,
        "status": _STATUS[res.ok],
        "checked": res.checked,
        **res.detail,
    }
    if res.counterexample is not None:
        rec["counterexample"] = res.counterexample
    return rec


def _windows(ls: list[int] | None) -> list[int]:
    return [2] if ls is None else ls


def _by_window(skip=lambda n, l: False):
    """Cells {n, l} over ns and the windows, except where skip(n, l)."""

    def cells(ns: list[int], ls: list[int] | None) -> list[dict]:
        return [
            {"n": n, "l": l} for n in ns for l in _windows(ls) if not skip(n, l)
        ]

    return cells


def _code_cells(ns: list[int], ls: list[int] | None) -> list[dict]:
    return [
        {"n": n, "l": l, "a": a}
        for n in ns
        for l in _windows(ls)
        if n >= l
        for a in range(n + 1)
    ]


def _by_threshold(default):
    """Cells {n, a} over ns and the thresholds --l names, default(n) when
    it is omitted; a <= n throughout, where the checks are defined."""

    def cells(ns: list[int], ls: list[int] | None) -> list[dict]:
        return [
            {"n": n, "a": a}
            for n in ns
            for a in (default(n) if ls is None else ls)
            if a <= n
        ]

    return cells


def _word_cells(ns: list[int], ls: list[int] | None) -> list[dict]:
    if ls is not None:
        raise ValueError("verify sticky-size: --l does not apply; it runs r = 1..n")
    return [{"n": n} for n in ns]


def _code_property(n: int, l: int, a: int) -> oracle.CheckResult:
    return oracle.verify_code_property(code.CodeParams(n=n, window=l, residue=a))


# check name -> (oracle check, cells), in the order ``--help`` lists them;
# cells(ns, ls) lists each record's cell keys, and the check is called
# with the cell's values in that order; ls is None when --l is omitted
VERIFY_CHECKS = {
    "ball-equivalence": (
        oracle.verify_ball_equivalence, _by_window(skip=lambda n, l: n < 1)
    ),
    "intersection": (
        oracle.verify_intersection_bound, _by_window(skip=lambda n, l: n + l <= 1)
    ),
    "reconstruction": (oracle.verify_reconstruction, _by_window()),
    "decoder": (oracle.verify_decoder, _by_window(skip=lambda n, l: n < l)),
    "code-property": (_code_property, _code_cells),
    "validity-image": (oracle.verify_validity_image, _by_window()),
    "expected-runs": (
        oracle.verify_expected_runs, _by_threshold(lambda n: range(1, n + 1))
    ),
    "tail-bound": (oracle.verify_tail_bound, _by_threshold(lambda n: (1, 2, 3))),
    "sticky-size": (oracle.verify_sticky_size, _word_cells),
    "sphere-packing": (
        oracle.verify_sphere_packing, _by_window(skip=lambda n, l: n < 1)
    ),
}


def cmd_verify(args) -> int:
    check, cells = VERIFY_CHECKS[args.check]
    ls = _parse_range(args.l) if args.l else None
    records = [
        _result_record(args.check, cell, check(*cell.values()))
        for cell in cells(_parse_range(args.n), ls)
    ]
    # when every record is inconclusive, keep them all for the refusal below
    if args.exact_only and any(rec["status"] != "inconclusive" for rec in records):
        records = [rec for rec in records if rec["status"] != "inconclusive"]
    if not records:
        raise ValueError(f"verify {args.check}: no (n, l) in range produced a record")
    if all(rec["checked"] == 0 for rec in records):
        raise ValueError(
            f"verify {args.check}: all {len(records)} records checked 0 instances"
        )
    statuses = [rec["status"] for rec in records]
    inconclusive = statuses.count("inconclusive")
    if inconclusive == len(records):
        raise ValueError(
            f"verify {args.check}: all {len(records)} records are inconclusive"
        )
    for rec in records:
        _emit(rec)
    summary = f"verify {args.check}: {statuses.count('pass')}/{len(records)} passed"
    if inconclusive:
        summary += f", {inconclusive} inconclusive"
    _note(summary)
    return 1 if "fail" in statuses else 0


def cmd_bounds(args) -> int:
    ns = _parse_range(args.n)
    ls = _parse_range(args.l)
    rows = []
    for report in bounds.bound_table(ns, ls):
        n, l = report.n, report.window
        row = report.to_dict()
        if l <= n:
            residue, size = code.best_residue(n, l)
            row["best_residue"] = residue
            row["best_size"] = size
            row["best_redundancy_bits"] = n - math.log2(size)
        else:
            row["best_residue"] = None
            row["best_size"] = None
            row["best_redundancy_bits"] = None
        rows.append(row)
    if not rows:
        raise ValueError("bounds: empty --n or --l range")

    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    else:
        for row in rows:
            _emit(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoread",
        description="Sliding-window read channel: transform, code, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="window-weight transform of words")
    p.add_argument("words", nargs="*", help="binary words, e.g. 101100")
    p.add_argument("--l", type=int, required=True, help="window length")
    p.add_argument("--input", help="file of words, one per line, # comments")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("enumerate", help="list codewords")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", type=int, default=None, help="residue (default: best)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("roundtrip", help="encode, corrupt, decode trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=None, help="iid deletion probability")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("reconstruct", help="two-read reconstruction trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run an exhaustive check")
    p.add_argument("check", choices=list(VERIFY_CHECKS))
    p.add_argument("--n", required=True, help="n or range lo..hi")
    p.add_argument("--l", default=None, help="window or range lo..hi")
    p.add_argument("--exact-only", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="tabulate bound reports")
    p.add_argument("--n", required=True, help="n or range lo..hi")
    p.add_argument("--l", required=True, help="window or range lo..hi")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OverflowError, OSError) as exc:
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
