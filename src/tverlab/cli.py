"""Batch command line front end with uniform JSON reports.

Every invocation prints a single JSON document
``{"input_echo": ..., "result": ..., "timing_seconds": ..., "version": ...}``
whose ``input_echo``, read off the parsed arguments, reproduces the run when
fed back as flags; error reports carry it too.  Exit codes: 0 success,
1 domain failure (thresholds unmet, no witness, budget hit, an input file
that cannot be read, an ``--out`` file that cannot be opened or written,
whose error report goes to stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .records import DEFAULT_FACE_BUDGET, DecompositionError, FaceBudgetError


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _add_complex_source(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--chessboard", nargs=2, type=int, metavar=("M", "N"),
                       help="m-by-n board complex")
    group.add_argument("--rainbow", type=_csv_ints, metavar="SIZES",
                       help="join of discrete color classes, comma-separated sizes")
    group.add_argument("--points", type=int, metavar="COUNT",
                       help="discrete point set")
    group.add_argument("--complex", dest="complex", metavar="FILE",
                       help="JSON file {\"vertices\": N, \"faces\": [[ids...]...]}")


# global flags and the run function are not echoed, nor unused complex sources
_NOT_ECHOED = ("face_budget", "out", "table", "run")
_COMPLEX_SOURCES = ("chessboard", "rainbow", "points", "complex")


def _resolve_complex(args):
    from .complexes import SimplicialComplex, chessboard, discrete_points, rainbow_complex

    budget = args.face_budget
    if args.chessboard is not None:
        return chessboard(*args.chessboard, budget=budget)
    if args.rainbow is not None:
        return rainbow_complex(args.rainbow, budget=budget)[0]
    if args.points is not None:
        return discrete_points(args.points, budget=budget)
    with open(args.complex, "r", encoding="utf-8") as fh:
        return SimplicialComplex.from_json(fh.read(), budget=budget)


def _add_bundle(sp):
    for flag in ("--d", "--k", "--m", "--p", "--n"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--sizes", type=_csv_ints, required=True)


def _instance(args):
    from .bounds import TheoremInstance

    return TheoremInstance(d=args.d, k=args.k, m_large=args.m,
                           p=args.p, n=args.n, sizes=tuple(args.sizes))


def _complex_payload(complex_):
    return {
        "vertices": complex_.n_vertices,
        "dim": complex_.dim,
        "f_vector": list(complex_.f_vector),
        "face_count": complex_.face_count,
        "facets": [list(f) for f in complex_.facets()],
    }


# each subparser binds a run function: parsed arguments -> (result, exit code);
# a run function imports what it needs, so that a command loads only the
# modules it calls
def _run_chessboard(args):
    from .complexes import chessboard

    return _complex_payload(chessboard(args.m, args.n, budget=args.face_budget)), 0


def _run_rainbow(args):
    from .complexes import rainbow_complex

    complex_, coloring = rainbow_complex(args.sizes, budget=args.face_budget)
    return {**_complex_payload(complex_), "colors": [list(b) for b in coloring.classes]}, 0


def _run_deleted_join(args):
    from .complexes import deleted_join

    out = deleted_join(_resolve_complex(args), args.copies, args.wise, budget=args.face_budget)
    return _complex_payload(out), 0


def _run_deleted_product(args):
    from .complexes import deleted_product

    base = _resolve_complex(args)
    prod = deleted_product(base, args.copies, args.wise, budget=args.face_budget)
    return {
        "base_vertices": base.n_vertices,
        "copies": prod.n,
        "wise": prod.k,
        "dim": prod.dim,
        "cells_by_dim": list(prod.f_vector),
        "total_cells": prod.cell_count,
    }, 0


def _run_homology(args):
    from .homology import betti, chain_complex, hconn

    cc = chain_complex(_resolve_complex(args), args.p)
    h = hconn(cc, args.p)
    return {"p": args.p, "betti": list(betti(cc).betti),
            "hconn": h.value, "hconn_is_lower_bound": h.is_lower_bound}, 0


def _run_verify_theorem(args):
    from .bounds import evaluate_bundle

    report = evaluate_bundle(_instance(args))
    return report, 0 if report["verdict"]["applicable"] else 1


def _run_tverberg_search(args):
    from .geometry import ColoredConfiguration, find_disjoint_intersecting_family

    with open(args.config, "r", encoding="utf-8") as fh:
        config = ColoredConfiguration.from_dict(json.load(fh))
    res = find_disjoint_intersecting_family(config, args.q, lp_budget=args.lp_budget)
    if res.witness:
        res.witness.verify(config)
    return {
        "status": res.status,
        "hull_queries": res.hull_queries,
        "nodes": res.nodes,
        "witness": res.witness.to_dict() if res.witness else None,
    }, 0 if res.found else 1


def _run_experiment(args):
    from .geometry import verify_theorem_empirically

    report = verify_theorem_empirically(
        _instance(args), args.trials, args.seed,
        q=args.q, lp_budget=args.lp_budget, coordinate_bound=args.bound,
        budget=args.face_budget,
    )
    return report.to_dict(), 0 if report.successes == len(report.trials) else 1


def _run_decompose(args):
    from .complexes import decomposition_isomorphism

    witness = decomposition_isomorphism(args.sizes, args.r, budget=args.face_budget)
    return {
        "verified": witness.verified,
        "face_count": witness.left.face_count,
        "left_f_vector": list(witness.left.f_vector),
        "right_f_vector": list(witness.right.f_vector),
        "vertex_map_size": len(witness.vertex_map),
    }, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tverlab",
        description="Chessboard complexes, deleted joins/products, mod-p homology, "
                    "index bounds, and exact rainbow-face witness search.",
    )
    parser.add_argument("--face-budget", type=int, default=None,
                        help="refuse constructions beyond this many faces "
                             f"(default {DEFAULT_FACE_BUDGET})")
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON report to PATH instead of stdout")
    parser.add_argument("--table", action="store_true",
                        help="append a short human-readable summary to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("chessboard", help="build a board complex")
    sp.set_defaults(run=_run_chessboard)
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)

    sp = sub.add_parser("rainbow", help="build a rainbow complex")
    sp.set_defaults(run=_run_rainbow)
    sp.add_argument("sizes", type=_csv_ints)

    for name, run in (("deleted-join", _run_deleted_join),
                      ("deleted-product", _run_deleted_product)):
        sp = sub.add_parser(name, help=f"n-fold k-wise {name.replace('-', ' ')} of a base complex")
        sp.set_defaults(run=run)
        _add_complex_source(sp)
        sp.add_argument("--copies", type=int, required=True)
        sp.add_argument("--wise", type=int, default=2)

    for name in ("betti", "hconn"):
        sp = sub.add_parser(name, help=f"{name} over Z_p")
        sp.set_defaults(run=_run_homology)
        _add_complex_source(sp)
        sp.add_argument("--p", type=int, default=2)

    sp = sub.add_parser("verify-theorem", help="applicability verdict for a parameter bundle")
    sp.set_defaults(run=_run_verify_theorem)
    _add_bundle(sp)

    sp = sub.add_parser("tverberg-search",
                        help="search a configuration file for q disjoint rainbow faces "
                             "with intersecting hulls")
    sp.set_defaults(run=_run_tverberg_search)
    sp.add_argument("--config", required=True, metavar="FILE")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--lp-budget", type=int, default=None)

    sp = sub.add_parser("experiment", help="seeded random trials for a parameter bundle")
    sp.set_defaults(run=_run_experiment)
    _add_bundle(sp)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--q", type=int, default=None,
                    help="override the promised face count (default r-1)")
    sp.add_argument("--lp-budget", type=int, default=None)
    sp.add_argument("--bound", type=int, default=1000,
                    help="coordinate bound of the generated points")

    sp = sub.add_parser("decompose",
                        help="verify the chessboard decomposition of the deleted join")
    sp.set_defaults(run=_run_decompose)
    sp.add_argument("--sizes", type=_csv_ints, required=True)
    sp.add_argument("--r", type=int, required=True)

    return parser


def _summarize(result: dict) -> str:
    lines = []
    for key, value in result.items():
        if isinstance(value, (dict, list)) and len(str(value)) > 72:
            value = f"<{type(value).__name__} of {len(value)} entries>"
        lines.append(f"{key:24} {value}")
    return "\n".join(lines)


def _error_result(exc: Exception) -> dict:
    return {"error": str(exc), "error_type": type(exc).__name__}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    echo = {key: value for key, value in vars(args).items()
            if key not in _NOT_ECHOED and not (key in _COMPLEX_SOURCES and value is None)}
    started = time.perf_counter()
    out = None
    try:
        if args.out:
            out = open(args.out, "w", encoding="utf-8")
        result, code = args.run(args)
    # RecursionError and OverflowError come from input files: brackets
    # nested too deeply for the JSON parser, a vertex count too large to
    # index; MemoryError from a complex inside the face budget whose chain
    # complex or reduction does not fit in memory
    except (ValueError, OSError, RecursionError, OverflowError, MemoryError,
            FaceBudgetError, DecompositionError) as exc:
        result, code = _error_result(exc), 1
    report = {
        "input_echo": echo,
        "result": result,
        "timing_seconds": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    text = json.dumps(report, indent=2)
    if out is not None:
        try:
            with out:
                out.write(text + "\n")
        except OSError as exc:
            # the report could not be written to --out (a full disk, say),
            # so an error report goes to stdout instead
            result = report["result"] = _error_result(exc)
            code = 1
            text = json.dumps(report, indent=2)
            out = None
    if out is None:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe early (``| head``): nothing more can
            # be reported there, and the flush at exit must not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    if args.table:
        print(_summarize(result), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
