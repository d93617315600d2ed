"""Batch command line front end with uniform JSON reports.

Every invocation prints a single JSON document
``{"input_echo": ..., "result": ..., "timing_seconds": ..., "version": ...}``
whose ``input_echo`` reproduces the run when fed back as flags.  Exit codes:
0 success, 1 domain failure (thresholds unmet, no witness, budget hit),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .bounds import (
    InapplicableError,
    SizeThresholdError,
    TheoremInstance,
    evaluate_bundle,
)
from .complexes import (
    DEFAULT_FACE_BUDGET,
    DecompositionError,
    FaceBudgetError,
    SimplicialComplex,
    chessboard,
    decomposition_isomorphism,
    deleted_join,
    deleted_product,
    discrete_points,
    rainbow_complex,
)
from .geometry import (
    ColoredConfiguration,
    find_disjoint_intersecting_family,
    verify_theorem_empirically,
)
from .homology import betti, chain_complex, hconn


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
    group.add_argument("--complex", dest="complex_file", metavar="FILE",
                       help="JSON file {\"vertices\": N, \"faces\": [[ids...]...]}")


def _resolve_complex(args, budget):
    if args.chessboard is not None:
        m, n = args.chessboard
        return chessboard(m, n, budget=budget), {"chessboard": [m, n]}
    if args.rainbow is not None:
        complex_, _ = rainbow_complex(args.rainbow, budget=budget)
        return complex_, {"rainbow": list(args.rainbow)}
    if args.points is not None:
        return discrete_points(args.points, budget=budget), {"points": args.points}
    with open(args.complex_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    return SimplicialComplex.from_json(text, budget=budget), {"complex": args.complex_file}


def _complex_payload(complex_, include_facets=True):
    payload = {
        "vertices": complex_.n_vertices,
        "dim": complex_.dim,
        "f_vector": list(complex_.f_vector),
        "face_count": complex_.face_count,
    }
    if include_facets:
        payload["facets"] = [list(f) for f in complex_.facets()]
    return payload


def _hconn_payload(h):
    return {"hconn": h.value, "hconn_is_lower_bound": h.is_lower_bound}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tverlab",
        description="Chessboard complexes, deleted joins/products, mod-p homology, "
                    "index bounds, and exact rainbow-face witness search.",
    )
    parser.add_argument("--face-budget", type=int, default=DEFAULT_FACE_BUDGET,
                        help="refuse constructions beyond this many faces "
                             f"(default {DEFAULT_FACE_BUDGET}, env TVERLAB_FACE_BUDGET)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON report to PATH instead of stdout")
    parser.add_argument("--table", action="store_true",
                        help="append a short human-readable summary to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("chessboard", help="build a board complex")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)

    sp = sub.add_parser("rainbow", help="build a rainbow complex")
    sp.add_argument("sizes", type=_csv_ints)

    sp = sub.add_parser("deleted-join", help="n-fold k-wise deleted join of a base complex")
    _add_complex_source(sp)
    sp.add_argument("--copies", type=int, required=True)
    sp.add_argument("--wise", type=int, default=2)

    sp = sub.add_parser("deleted-product", help="n-fold k-wise deleted product of a base complex")
    _add_complex_source(sp)
    sp.add_argument("--copies", type=int, required=True)
    sp.add_argument("--wise", type=int, default=2)

    for name in ("betti", "hconn"):
        sp = sub.add_parser(name, help=f"{name} over Z_p")
        _add_complex_source(sp)
        sp.add_argument("--p", type=int, default=2)

    sp = sub.add_parser("verify-theorem", help="applicability verdict for a parameter bundle")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sizes", type=_csv_ints, required=True)

    sp = sub.add_parser("tverberg-search",
                        help="search a configuration file for q disjoint rainbow faces "
                             "with intersecting hulls")
    sp.add_argument("--config", required=True, metavar="FILE")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--lp-budget", type=int, default=None)
    sp.add_argument("--max-dim", type=int, default=None)

    sp = sub.add_parser("experiment", help="seeded random trials for a parameter bundle")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--sizes", type=_csv_ints, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--q", type=int, default=None,
                    help="override the promised face count (default r-1)")
    sp.add_argument("--lp-budget", type=int, default=None)
    sp.add_argument("--bound", type=int, default=1000,
                    help="coordinate bound of the generated points")

    sp = sub.add_parser("decompose",
                        help="verify the chessboard decomposition of the deleted join")
    sp.add_argument("--sizes", type=_csv_ints, required=True)
    sp.add_argument("--r", type=int, required=True)

    return parser


def _run_subcommand(args) -> tuple[dict, dict, int]:
    """Returns (input_echo, result, exit_code)."""
    budget = args.face_budget

    if args.subcommand == "chessboard":
        echo = {"subcommand": "chessboard", "m": args.m, "n": args.n}
        return echo, _complex_payload(chessboard(args.m, args.n, budget=budget)), 0

    if args.subcommand == "rainbow":
        echo = {"subcommand": "rainbow", "sizes": list(args.sizes)}
        complex_, coloring = rainbow_complex(args.sizes, budget=budget)
        payload = _complex_payload(complex_)
        payload["colors"] = [list(block) for block in coloring.classes]
        return echo, payload, 0

    if args.subcommand == "deleted-join":
        base, src = _resolve_complex(args, budget)
        echo = {"subcommand": "deleted-join", **src,
                "copies": args.copies, "wise": args.wise}
        out = deleted_join(base, args.copies, args.wise, budget=budget)
        return echo, _complex_payload(out), 0

    if args.subcommand == "deleted-product":
        base, src = _resolve_complex(args, budget)
        echo = {"subcommand": "deleted-product", **src,
                "copies": args.copies, "wise": args.wise}
        prod = deleted_product(base, args.copies, args.wise, budget=budget)
        result = {
            "base_vertices": base.n_vertices,
            "copies": prod.n,
            "wise": prod.k,
            "dim": prod.dim,
            "cells_by_dim": list(prod.f_vector),
            "total_cells": prod.cell_count,
        }
        return echo, result, 0

    if args.subcommand in ("betti", "hconn"):
        base, src = _resolve_complex(args, budget)
        echo = {"subcommand": args.subcommand, **src, "p": args.p}
        cc = chain_complex(base, args.p)
        profile = betti(cc)
        h = hconn(cc, args.p)
        result = {"p": args.p, "betti": list(profile.betti), **_hconn_payload(h)}
        return echo, result, 0

    if args.subcommand == "verify-theorem":
        echo = {"subcommand": "verify-theorem", "d": args.d, "k": args.k,
                "m": args.m, "p": args.p, "n": args.n, "sizes": list(args.sizes)}
        ti = TheoremInstance(d=args.d, k=args.k, m_large=args.m,
                             p=args.p, n=args.n, sizes=tuple(args.sizes))
        report = evaluate_bundle(ti)
        return echo, report, 0 if report["verdict"]["applicable"] else 1

    if args.subcommand == "tverberg-search":
        echo = {"subcommand": "tverberg-search", "config": args.config, "q": args.q,
                "lp_budget": args.lp_budget, "max_dim": args.max_dim}
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        config = ColoredConfiguration.from_dict(doc)
        res = find_disjoint_intersecting_family(
            config, args.q, lp_budget=args.lp_budget, max_dim=args.max_dim
        )
        result = {
            "status": res.status,
            "hull_queries": res.hull_queries,
            "nodes": res.nodes,
            "witness": res.witness.to_dict() if res.witness else None,
        }
        return echo, result, 0 if res.found else 1

    if args.subcommand == "experiment":
        echo = {"subcommand": "experiment", "d": args.d, "p": args.p, "n": args.n,
                "k": args.k, "m": args.m, "sizes": list(args.sizes),
                "trials": args.trials, "seed": args.seed, "q": args.q,
                "lp_budget": args.lp_budget, "bound": args.bound}
        ti = TheoremInstance(d=args.d, k=args.k, m_large=args.m,
                             p=args.p, n=args.n, sizes=tuple(args.sizes))
        report = verify_theorem_empirically(
            ti, args.trials, args.seed,
            q=args.q, lp_budget=args.lp_budget, coordinate_bound=args.bound,
        )
        ok = report.successes == len(report.trials)
        return echo, report.to_dict(), 0 if ok else 1

    if args.subcommand == "decompose":
        echo = {"subcommand": "decompose", "sizes": list(args.sizes), "r": args.r}
        witness = decomposition_isomorphism(args.sizes, args.r, budget=budget)
        result = {
            "verified": witness.verified,
            "face_count": witness.left.face_count,
            "left_f_vector": list(witness.left.f_vector),
            "right_f_vector": list(witness.right.f_vector),
            "vertex_map_size": len(witness.vertex_map),
        }
        return echo, result, 0

    raise AssertionError(f"unhandled subcommand {args.subcommand}")


def _summarize(result: dict) -> str:
    lines = []
    for key, value in result.items():
        if isinstance(value, (dict, list)) and len(str(value)) > 72:
            value = f"<{type(value).__name__} of {len(value)} entries>"
        lines.append(f"{key:24} {value}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        echo, result, code = _run_subcommand(args)
    except (SizeThresholdError, InapplicableError, FaceBudgetError,
            DecompositionError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        echo = {"subcommand": args.subcommand}
        result = {"error": str(exc), "error_type": type(exc).__name__}
        code = 1
    report = {
        "input_echo": echo,
        "result": result,
        "timing_seconds": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
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
