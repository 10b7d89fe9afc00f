"""Command line front end.

Two subcommands: `decide` runs the staged pipeline on one subgroup pair,
`atlas` classifies every subgroup pair of a small symmetric group.

Exit codes for `decide`: 0 when the pair was decided either way, 2 when
the run ended inconclusive (budget), 1 for bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .groups import DEFAULT_ENDO_BUDGET, DEFAULT_MAX_GROUP_ORDER
from .pipeline import MAX_SPEC_INPUT_CHARS, Config, PairSpecError, decide, format_decision

EXIT_DECIDED = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 means inconclusive here,
    so usage problems are remapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subindep",
                     description="Decide independence of a pair of permutation subgroups.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    dec = sub.add_parser("decide", help="classify one subgroup pair")
    src = dec.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE",
                     help="JSON pair spec {degree, A, B}; '-' reads stdin")
    src.add_argument("--inline", action="store_true",
                     help="build the pair from --degree/--a/--b flags")
    dec.add_argument("--degree", type=int, help="number of points acted on")
    dec.add_argument("--a", action="append", default=None, metavar="CYCLES",
                     help="generator of A in cycle notation (repeatable)")
    dec.add_argument("--b", action="append", default=None, metavar="CYCLES",
                     help="generator of B in cycle notation (repeatable)")
    dec.add_argument("--format", choices=("json", "text"), default="json")
    dec.add_argument("--max-group-order", type=int, default=DEFAULT_MAX_GROUP_ORDER)
    dec.add_argument("--endo-budget", type=int, default=DEFAULT_ENDO_BUDGET)
    dec.add_argument("--diagnostics", action="store_true",
                     help="recheck the witness and audit extension laws after deciding")

    atl = sub.add_parser("atlas", help="classify all subgroup pairs of a symmetric group")
    # The upper bound is atlas.MAX_ATLAS_DEGREE, spelled out so that
    # building the parser does not import the atlas; a test holds the two
    # equal.
    atl.add_argument("--degree", type=int, required=True,
                     help="symmetric group degree, 2..5")
    atl.add_argument("--out", metavar="FILE", required=True, help="report file to write")
    atl.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _load_pair_spec(args) -> dict:
    if args.inline:
        if args.degree is None or not args.a or not args.b:
            raise PairSpecError("--inline requires --degree, at least one --a and one --b")
        return {"degree": args.degree, "A": args.a, "B": args.b}
    if args.degree is not None or args.a is not None or args.b is not None:
        raise PairSpecError("--degree, --a and --b need --inline; --input reads the whole pair")
    # One character past the bound is enough to reject the input, and
    # no more is read.
    if args.input == "-":
        text = sys.stdin.read(MAX_SPEC_INPUT_CHARS + 1)
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_SPEC_INPUT_CHARS + 1)
    if len(text) > MAX_SPEC_INPUT_CHARS:
        raise PairSpecError(f"input is longer than {MAX_SPEC_INPUT_CHARS} characters")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # The decoder recurses once per nesting level.
        raise PairSpecError(f"input is not valid JSON: {exc}") from exc


def _cmd_decide(args) -> int:
    try:
        config = Config(max_group_order=args.max_group_order,
                        endo_budget=args.endo_budget,
                        run_diagnostics=args.diagnostics)
        spec = _load_pair_spec(args)
        decision = decide(spec, config)
    except (PairSpecError, ValueError, OSError) as exc:
        print(f"subindep: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(format_decision(decision, args.format))
    return EXIT_DECIDED if decision.status != "Inconclusive" else EXIT_INCONCLUSIVE


def _cmd_atlas(args) -> int:
    # Imported here so that decide never loads the atlas or csv.
    from .atlas import emit_report, run_atlas

    try:
        rows, summary, orbits, (lattice_s, classify_s) = run_atlas(args.degree)
        t0 = time.perf_counter()
        emit_report(rows, summary, args.out, args.format)
        write_s = time.perf_counter() - t0
    except (ValueError, OSError) as exc:
        print(f"subindep: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    # The gap-region ids stay in the report; stdout keeps only their count.
    shown = {k: v for k, v in summary.items() if k != "gap_region_ids"}
    print(json.dumps(shown, indent=2))
    # Timing goes to stderr only, never into the report or stdout.
    print(f"wrote {len(rows)} rows ({orbits} orbits classified) to {args.out} "
          f"in {lattice_s + classify_s + write_s:.1f}s (lattice {lattice_s * 1e3:.0f} ms, "
          f"classify {classify_s * 1e3:.0f} ms, write {write_s * 1e3:.0f} ms)", file=sys.stderr)
    return EXIT_DECIDED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decide":
        return _cmd_decide(args)
    return _cmd_atlas(args)


if __name__ == "__main__":
    sys.exit(main())
