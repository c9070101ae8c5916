"""Command-line front end: compute, build, enumerate, search, verify.

Exit codes are a stable contract: 0 success, 1 claim violation, 2 parse or
usage error, 3 disconnected input, 4 infeasible parameters, 5 enumeration
cap exceeded.  JSON output always carries a meta block with the tool
version, seed, worker count, and wall time; everything except the wall time
is byte-for-byte reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Sequence

# Each command imports the submodules it runs in its handler, so that a
# fresh process loads only those.
from . import CLAIM_IDS, __version__ as TOOL_VERSION
from .errors import (
    CapError,
    DisconnectedError,
    FormatError,
    InfeasibleError,
    InvalidGraphError,
)

if TYPE_CHECKING:
    from .graphs import Graph

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DISCONNECTED = 3
EXIT_INFEASIBLE = 4
EXIT_CAP = 5

_EXIT_CODES = {
    FormatError: EXIT_USAGE,
    InvalidGraphError: EXIT_USAGE,
    DisconnectedError: EXIT_DISCONNECTED,
    InfeasibleError: EXIT_INFEASIBLE,
    CapError: EXIT_CAP,
}


def _env_cap() -> int | None:
    raw = os.environ.get("SZEGED_MAX_N")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise FormatError(f"SZEGED_MAX_N must be an integer, got {raw!r}")
    if value < 1:
        raise FormatError(f"SZEGED_MAX_N must be at least 1, got {value}")
    return value


def _cap_from(args) -> int | None:
    cap = getattr(args, "cap", None)
    if cap is None:
        return _env_cap()
    if cap < 1:
        raise FormatError(f"--cap must be at least 1, got {cap}")
    return cap


def _refuse(args, command: str, *flags: str) -> None:
    """Exit 2 on any of ``flags`` given to a command that would not read it."""
    given = [f for f in flags if getattr(args, f[2:].replace("-", "_")) is not None]
    if given:
        raise FormatError(f"{command} takes no {', '.join(given)}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szegedtools",
        description="Exact Szeged-type index workbench for cactus graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="indices of one graph (or a graph6 stream)"
    )
    src = p_compute.add_mutually_exclusive_group(required=True)
    src.add_argument("--g6", help="graph6 string")
    src.add_argument("--file", help="edge list file: first line 'n m', then edges")
    src.add_argument(
        "--stdin", action="store_true", help="read graph6 lines from standard input"
    )
    p_compute.add_argument(
        "--edges", action="store_true", help="include per-edge partitions"
    )
    p_compute.add_argument(
        "--format", choices=("json", "csv", "human"), default="json"
    )

    p_build = sub.add_parser("build", help="construct a named family, print graph6")
    p_build.add_argument(
        "family",
        choices=tuple(_FAMILIES),
    )
    p_build.add_argument("--n", type=int, help="vertex count (cycle: length)")
    p_build.add_argument("--k", type=int, help="cycle count")
    p_build.add_argument("--lengths", help="bundle cycle lengths, e.g. 3,4,4")
    p_build.add_argument("--pendants", type=int, help="bundle pendants (default 0)")
    p_build.add_argument("--format", choices=("g6", "json"), default="g6")

    p_enum = sub.add_parser("enumerate", help="stream all cacti at (n, k)")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--k", type=int, required=True)
    p_enum.add_argument(
        "--labeled", action="store_true", help="labeled graphs, not classes"
    )
    p_enum.add_argument("--count", action="store_true", help="count only")
    p_enum.add_argument("--workers", type=int, default=1)
    p_enum.add_argument("--cap", type=int)
    p_enum.add_argument(
        "--format", choices=("g6", "json", "csv"), default="g6"
    )

    p_search = sub.add_parser(
        "search", help="exhaustive extremal search over one class"
    )
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument(
        "--second", action="store_true", help="include the runner-up"
    )
    p_search.add_argument(
        "--expect-thm32",
        action="store_true",
        help="exit nonzero unless the minimum matches the closed form",
    )
    p_search.add_argument(
        "--expect-thm44",
        action="store_true",
        help="accepted for compatibility; no pair inside the cap has a "
        "runner-up bound, so it never changes the exit code",
    )
    p_search.add_argument("--workers", type=int, default=1)
    p_search.add_argument("--cap", type=int)
    p_search.add_argument("--format", choices=("json", "human"), default="json")

    p_verify = sub.add_parser("verify", help="run one claim's verification")
    p_verify.add_argument("claim", choices=CLAIM_IDS)
    p_verify.add_argument("--max-n", type=int, help="sweep all feasible (n,k)")
    p_verify.add_argument("--n", type=int, help="single universe: vertex count")
    p_verify.add_argument("--k", type=int, help="single universe: cycle count")
    p_verify.add_argument(
        "--m", type=int, help="formula-level audit at this edge count (with --k)"
    )
    p_verify.add_argument("--samples", type=int, help="random cacti a lemma draws")
    p_verify.add_argument("--seed", type=int, help="random draws' seed (0 by default)")
    p_verify.add_argument(
        "--sample-max-n", type=int, help="largest n drawn by a lemma (40 by default)"
    )
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--cap", type=int)
    p_verify.add_argument("--format", choices=("json", "human"), default="json")

    return parser


def _meta(args, started: float) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "seed": getattr(args, "seed", None),
        "workers": getattr(args, "workers", 1),
        "wall_ms": int((time.monotonic() - started) * 1000),
    }


def _print_json(payload: dict, args, started: float) -> None:
    body = dict(payload)
    body["meta"] = _meta(args, started)
    print(json.dumps(body, sort_keys=True))


def _graph_report(g: Graph, source: str, with_edges: bool) -> dict:
    from .formats import emit_graph6
    from .indices import edge_partitions, edge_revised_szeged, szeged, wiener

    value = edge_revised_szeged(g)
    report = {
        "graph6": emit_graph6(g),
        "source": source,
        "n": g.n,
        "m": len(g.edges),
        "wiener": wiener(g),
        "szeged": szeged(g),
        "edge_revised_szeged": value.to_dict(),
        "edge_revised_szeged_decimal": value.as_decimal(),
    }
    if with_edges:
        report["edges"] = [
            {"edge": [u, v], "m_u": p.m_u, "m_v": p.m_v, "m_0": p.m_0}
            for (u, v), p in zip(g.edges, edge_partitions(g))
        ]
    return report


def _compute_inputs(args) -> list[tuple[str, Graph]]:
    from .formats import parse_edge_list, parse_graph6

    if args.g6 is not None:
        return [(args.g6, parse_graph6(args.g6))]
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="ascii") as handle:
                text = handle.read()
        except OSError as exc:
            raise FormatError(f"cannot read {args.file}: {exc}")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{args.file} is not {exc.encoding} text", exc.start)
        return [(args.file, parse_edge_list(text))]
    # Read whole, so that a decoding error's offset counts from the start.
    try:
        text = sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"standard input is not {exc.encoding} text", exc.start)
    graphs = []
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if line:
            try:
                graphs.append((line, parse_graph6(line)))
            except FormatError as exc:
                # The offset stays within the line; the prefix names it.
                exc.args = (f"line {number}: {exc}",)
                raise
    if not graphs:
        raise FormatError("no graph6 lines on standard input")
    return graphs


_COMPUTE_CSV_FIELDS = (
    "graph6",
    "n",
    "m",
    "wiener",
    "szeged",
    "edge_revised_szeged_num",
    "edge_revised_szeged_den",
    "edge_revised_szeged_decimal",
)


def _print_csv(reports) -> None:
    """The CSV table of ``compute`` and ``enumerate``: the header, then one
    row per graph report, written once the last report is made."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_COMPUTE_CSV_FIELDS)
    for report in reports:
        value = report["edge_revised_szeged"]
        writer.writerow(
            [report[key] for key in ("graph6", "n", "m", "wiener", "szeged")]
            + [value["num"], value["den"], report["edge_revised_szeged_decimal"]]
        )
    sys.stdout.write(buf.getvalue())


def _cmd_compute(args, started: float) -> int:
    if args.format == "csv" and args.edges:
        raise FormatError("compute --format csv takes no --edges")
    reports = [
        _graph_report(g, source, args.edges) for source, g in _compute_inputs(args)
    ]
    if args.format == "json":
        _print_json({"results": reports}, args, started)
    elif args.format == "csv":
        _print_csv(reports)
    else:
        for report in reports:
            print(f"graph {report['graph6']}: n={report['n']} m={report['m']}")
            print(f"  wiener               {report['wiener']}")
            print(f"  szeged               {report['szeged']}")
            print(
                "  edge revised szeged  "
                f"{report['edge_revised_szeged']['num']}/4 "
                f"= {report['edge_revised_szeged_decimal']}"
            )
            for entry in report.get("edges", ()):
                u, v = entry["edge"]
                print(
                    f"  edge ({u},{v}): m_u={entry['m_u']} "
                    f"m_v={entry['m_v']} m_0={entry['m_0']}"
                )
    return EXIT_OK


# Each ``build`` family: its constructor in ``szegedtools.families`` and the
# flags it is built from, in order; any other flag is refused. ``bundle``
# reads its two flags into the one BundleSpec its constructor takes.
_FAMILIES = {
    "c0": ("triangle_bundle", ("n", "k")),
    "c1": ("quadrangle_bundle", ("n", "k")),
    "g_star_1": ("tailed_quadrangle_bundle", ("n", "k")),
    "bundle": ("bundle", ("lengths", "pendants")),
    "cycle": ("cycle", ("n",)),
    "path": ("path", ("n",)),
    "star": ("star", ("n",)),
}


def _cmd_build(args, started: float) -> int:
    from . import families
    from .formats import emit_graph6

    name, flags = _FAMILIES[args.family]
    unread = [f"--{x}" for x in ("n", "k", "lengths", "pendants") if x not in flags]
    _refuse(args, args.family, *unread)
    if name == "bundle" and args.pendants is None:
        args.pendants = 0
    values = [getattr(args, x) for x in flags]
    missing = [f"--{x}" for x, value in zip(flags, values) if value is None]
    if missing:
        raise FormatError(f"{args.family} requires {', '.join(missing)}")
    if name == "bundle":
        try:
            lengths = tuple(int(x) for x in args.lengths.split(",") if x)
        except ValueError:
            raise FormatError(f"bad --lengths value: {args.lengths!r}")
        values = [families.BundleSpec(lengths, args.pendants)]
    g = getattr(families, name)(*values)
    line = emit_graph6(g)
    if args.format == "json":
        _print_json(
            {"graph6": line, "n": g.n, "m": len(g.edges), "family": args.family},
            args,
            started,
        )
    else:
        print(line)
    return EXIT_OK


def _cmd_enumerate(args, started: float) -> int:
    from .canon import labeled_copy_count
    from .enumeration import cactus_classes, count_cacti, enumerate_cacti
    from .formats import emit_graph6

    if args.format == "csv" and args.count:
        raise FormatError("enumerate --format csv takes no --count")
    cap = _cap_from(args)
    if args.count:
        total = (
            count_cacti(args.n, args.k, cap=cap)
            if not args.labeled
            # Orbit-stabilizer: class g has n!/|Aut(g)| labeled copies.
            else sum(map(labeled_copy_count, cactus_classes(args.n, args.k, cap=cap)))
        )
        if args.format == "json":
            _print_json({"n": args.n, "k": args.k, "count": total}, args, started)
        else:
            print(total)
        return EXIT_OK
    stream = enumerate_cacti(args.n, args.k, dedup=not args.labeled, cap=cap)
    if args.format == "json":
        lines = [emit_graph6(g) for g in stream]
        _print_json(
            {"n": args.n, "k": args.k, "count": len(lines), "classes": lines},
            args,
            started,
        )
    elif args.format == "csv":
        _print_csv(_graph_report(g, "enumerate", False) for g in stream)
    else:
        for g in stream:
            print(emit_graph6(g))
    return EXIT_OK


def _cmd_search(args, started: float) -> int:
    from .enumeration import search_extremal

    report = search_extremal(args.n, args.k, cap=_cap_from(args))
    payload = report.to_dict()
    if not args.second:
        payload.pop("second_value", None)
        payload.pop("second_witnesses", None)
        payload.pop("second_case", None)
        payload.pop("second_agrees", None)
    code = EXIT_OK
    if args.expect_thm32 and not report.minimum_agrees:
        code = EXIT_VIOLATION
    if args.format == "json":
        _print_json(payload, args, started)
    else:
        print(
            f"(n,k)=({report.n},{report.k}): {report.class_count} classes, "
            f"minimum {report.min_value} "
            f"({len(report.min_witnesses)} witness(es))"
        )
        if args.second:
            if report.second_value is None:
                print("  no second value (single class or all tied)")
            else:
                print(
                    f"  second {report.second_value} "
                    f"({len(report.second_witnesses)} witness(es))"
                )
        print(f"  closed-form minimum agrees: {report.minimum_agrees}")
        for note in report.notes:
            print(f"  note: {note}")
    return code


def _cmd_verify(args, started: float) -> int:
    from .verify import (
        Universe,
        feasible_pairs,
        verify_claim,
        verify_minimum_formula,
        verify_second_minimum,
    )

    claim = args.claim
    cap = _cap_from(args)
    for flag, value, least in (
        ("--samples", args.samples, 0),
        ("--sample-max-n", args.sample_max_n, 3),
        ("--max-n", args.max_n, 1),
    ):
        if value is not None and value < least:
            raise FormatError(f"verify {flag} must be at least {least}, got {value}")
    if claim == "thm3.2" and args.samples is not None:
        raise FormatError("verify thm3.2 checks whole classes; it takes no --samples")
    # Each mode reads its own flags and refuses the others.
    if claim == "thm4.4":
        _refuse(
            args, "verify thm4.4", "--m", "--max-n", "--samples", "--seed", "--sample-max-n"
        )
        if args.n is None or args.k is None:
            raise FormatError("verify thm4.4 needs --n and --k")
    elif not args.samples:
        _refuse(args, f"verify {claim}", "--seed", "--sample-max-n")
    args.seed = args.seed or 0  # what meta.seed reports when none is given
    if claim == "thm3.2" and args.m is not None:
        _refuse(args, "verify thm3.2 --m", "--n", "--max-n")
        if args.k is None:
            raise FormatError("verify thm3.2 --m needs --k")
        report = verify_minimum_formula(args.m, args.k)
    elif claim == "thm4.4":
        report = verify_second_minimum(args.n, args.k, cap=cap)
    else:
        pairs = ()
        _refuse(args, f"verify {claim}", "--m")
        if args.n is not None:
            _refuse(args, f"verify {claim} --n", "--max-n")
            if args.k is None:
                raise FormatError(f"verify {claim} --n needs --k")
            pairs = ((args.n, args.k),)
        elif args.k is not None:
            raise FormatError(f"verify {claim} --k needs --n")
        elif args.max_n is not None:
            pairs = feasible_pairs(args.max_n)
        elif claim == "thm3.2":
            raise FormatError("verify thm3.2 needs --max-n, --n/--k, or --m/--k")
        elif not args.samples:
            raise FormatError(
                f"verify {claim} needs --max-n, --n/--k and/or --samples"
            )
        universe = Universe(
            pairs=pairs,
            samples=args.samples or 0,
            sample_max_n=args.sample_max_n or 40,
            seed=args.seed,
            cap=cap,
        )
        report = verify_claim(claim, universe)
    if args.format == "json":
        _print_json({"report": report.to_dict()}, args, started)
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"{report.claim}: {status} ({report.checked} checked, "
              f"{len(report.violations)} violations)")
        print(f"  universe: {report.universe}")
        for v in report.violations:
            print(f"  violation: {v}")
        for f in report.findings:
            print(f"  finding: {f}")
    return EXIT_OK if report.passed else EXIT_VIOLATION


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.monotonic()
    handlers = {
        "compute": _cmd_compute,
        "build": _cmd_build,
        "enumerate": _cmd_enumerate,
        "search": _cmd_search,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, started)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


def run() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head`` does: nothing is
        # wrong. Later writes, the interpreter's flush at exit included, go
        # to os.devnull, so they cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    run()
