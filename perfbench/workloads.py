"""The three workloads. Each one generates its inputs from the seed when it is
constructed (part of set-up), runs one pass at a time, and checks the
answers of a pass after the pass has been timed.

A pass returns a list of ops, one per answer the user waits for: a
(complex, prime) instance, a search trial or a CLI invocation. An op is a
dict with ``part`` (what the pass is split by), ``seconds``, and either the
data its check needs or ``error``. A ``profile`` op also has ``calls``, the
times of its build, assembly and rank calls.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# -- homology: full Betti profiles --------------------------------------------


@dataclass(frozen=True)
class Instance:
    label: str
    p: int
    build: Callable


def _rainbow_deleted_join(sizes, r):
    return lambda tl: tl.deleted_join(tl.rainbow_complex(sizes)[0], r)


def _board_deleted_product(m, n, r):
    return lambda tl: tl.deleted_product(tl.chessboard(m, n), r)


# Each pass must stay short enough that several fit in one run: this leaves
# out 7x7 boards, chessboard(6,6), deleted_product(chessboard(3,4),3) and
# the larger deleted joins over Z_3.
PROFILE_INSTANCES = (
    Instance("chessboard(6,7)", 2, lambda tl: tl.chessboard(6, 7)),
    Instance("deleted_join(rainbow([3,2,2]),3)", 3, _rainbow_deleted_join([3, 2, 2], 3)),
    Instance("deleted_product(chessboard(3,3),3)", 3, _board_deleted_product(3, 3, 3)),
    Instance("deleted_join(rainbow([3,3,3]),3)", 2, _rainbow_deleted_join([3, 3, 3], 3)),
)


class ProfileWorkload:
    """Build, assemble and compute the full reduced Betti profile of each
    instance.

    The instances are fixed because their answers come from a table; the
    seed only fixes the order in which a pass visits them."""

    instances = PROFILE_INSTANCES

    def __init__(self, tl, seed: int, root: Path):
        self.tl = tl
        self.order = list(self.instances)
        random.Random(seed).shuffle(self.order)

    def _assemble(self, cx, p):
        if isinstance(cx, self.tl.ProductCellComplex):
            return self.tl.cellular_chain_complex(cx, p)
        return self.tl.chain_complex(cx, p)

    def run_pass(self, tracer):
        ops, counts = [], {"complexes.cells": 0, "homology.nnz": 0}
        for inst in self.order:
            op = {"part": f"z{inst.p}", "instance": inst}
            cx = cc = None
            gc.collect()  # so that no call pays for the garbage of the one before
            marks = [time.perf_counter()]
            try:
                with tracer.span(f"part.z{inst.p}"):
                    with tracer.span("complexes.build"):
                        cx = inst.build(self.tl)
                    marks.append(time.perf_counter())
                    with tracer.span("homology.assemble"):
                        cc = self._assemble(cx, inst.p)
                    marks.append(time.perf_counter())
                    with tracer.span(f"homology.rank.z{inst.p}"):
                        op["answer"] = self.tl.betti(cc)
            except Exception as exc:  # one failed op must not stop the run
                op["error"] = _error(exc)
            marks += [time.perf_counter()] * (4 - len(marks))
            op["seconds"] = marks[-1] - marks[0]
            op["calls"] = [b - a for a, b in zip(marks, marks[1:])]
            if "error" not in op:
                op["f_vector"] = cx.f_vector
                if tracer.enabled:  # counted outside the timed calls
                    counts["complexes.cells"] += sum(op["f_vector"])
                    counts["homology.nnz"] += sum(m.nnz for m in cc.boundaries)
            del cx, cc
            ops.append(op)
        return ops, counts

    @staticmethod
    def check(op):
        inst = op["instance"]
        return checks.check_betti(inst.label, inst.p, op["f_vector"], op["answer"].betti)


# -- certified witness search -------------------------------------------------


@dataclass(frozen=True)
class Bundle:
    name: str
    d: int
    sizes: tuple
    p: int
    n: int
    q: int


# All three are certified by the Volovikov condition, so every trial must
# end "found". Two LP sizes: d = 2 and d = 3.
BUNDLES = (
    Bundle("d2-444-r4", 2, (4, 4, 4), 2, 2, 3),
    Bundle("d2-333-r3", 2, (3, 3, 3), 3, 1, 2),
    Bundle("d3-2222-r3", 3, (2, 2, 2, 2), 3, 1, 2),
)
TRIALS = 40  # per bundle; several passes must fit in one run
COORD = 1000
POOL_SEED = 0


def class_blocks(sizes):
    blocks, start = [], 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    return blocks


def point_pool(bundle: Bundle, trials: int = TRIALS):
    """Integer configurations, coordinates in [-COORD, COORD], drawn with
    stdlib ``random`` so that tverlab's own generator cannot change them."""
    rng = random.Random(f"{POOL_SEED}:{bundle.name}")
    total = sum(bundle.sizes)
    return [
        [tuple(rng.randint(-COORD, COORD) for _ in range(bundle.d)) for _ in range(total)]
        for _ in range(trials)
    ]


def signed_axis_permutation(points, rng: random.Random):
    """Apply one seeded symmetry of the coordinate cube to a configuration.

    Hull intersections, and so the whole search tree and its hull-query
    count, are invariant under it, while the coefficients every LP sees
    change. Independently drawn configurations instead make a pass vary by
    about 15% from seed to seed (heavy-tailed trials), more than any bound
    could absorb."""
    d = len(points[0])
    perm = rng.sample(range(d), d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    return [tuple(signs[t] * pt[perm[t]] for t in range(d)) for pt in points]


class SearchWorkload:
    """``find_disjoint_intersecting_family`` then the certificate check, for
    TRIALS configurations of each bundle."""

    def __init__(self, tl, seed: int, root: Path):
        self.tl = tl
        rng = random.Random(seed)
        self.plan = []
        for b in BUNDLES:
            ti = tl.TheoremInstance(d=b.d, k=len(b.sizes) - 1, m_large=0, p=b.p, n=b.n, sizes=b.sizes)
            blocks = class_blocks(b.sizes)
            coloring = tl.Coloring(tuple(tuple(x) for x in blocks))
            trials = []
            for pts in point_pool(b):
                pts = signed_axis_permutation(pts, rng)
                trials.append((pts, tl.ColoredConfiguration(b.d, tuple(pts), coloring)))
            self.plan.append((b, ti, blocks, trials))

    def run_pass(self, tracer):
        tl = self.tl
        ops = []
        counts = {"geometry.hull_queries": 0, "geometry.nodes": 0}
        for b, ti, blocks, trials in self.plan:
            gc.collect()  # each bundle starts from the same collector state
            with tracer.span("bounds.verdict"):
                verdict = tl.volovikov_condition(ti)
            certified = verdict.applicable and verdict.q >= b.q
            for pts, config in trials:
                op = {"part": b.name, "bundle": b, "blocks": blocks, "points": pts,
                      "certified": certified}
                t0 = time.perf_counter()
                try:
                    with tracer.span("geometry.search"):
                        res = tl.find_disjoint_intersecting_family(config, b.q)
                    if res.found:
                        with tracer.span("geometry.verify"):
                            res.witness.verify(config)
                except Exception as exc:  # one failed op must not stop the run
                    op["error"] = _error(exc)
                else:
                    op["answer"] = res
                    counts["geometry.hull_queries"] += res.hull_queries
                    counts["geometry.nodes"] += res.nodes
                op["seconds"] = time.perf_counter() - t0
                ops.append(op)
        return ops, counts

    @staticmethod
    def check(op):
        b, res = op["bundle"], op["answer"]
        problems = [] if op["certified"] else [f"{b.name}: not certified by volovikov_condition"]
        if res.status != "found":
            return problems + [f"{b.name}: search ended {res.status!r}"]
        w = res.witness
        return problems + checks.check_witness(
            op["points"], op["blocks"], b.q, [f.vertices for f in w.faces], w.point, w.weights)


# -- cold CLI -----------------------------------------------------------------


def cross_polytope_facets(dim: int, rng: random.Random):
    """Facets of the boundary of the (dim+1)-dimensional cross-polytope, a
    dim-sphere, on seeded vertex labels."""
    labels = list(range(2 * (dim + 1)))
    rng.shuffle(labels)
    facets = []
    for mask in range(2 ** (dim + 1)):
        facets.append(sorted(labels[2 * i + ((mask >> i) & 1)] for i in range(dim + 1)))
    return facets


def child_env(root: Path) -> dict:
    """Environment under which every child imports tverlab from this tree."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CLI_TIMEOUT_S = 60


class CliWorkload:
    """Cold ``python -m tverlab.cli`` invocations, one child at a time."""

    def __init__(self, tl, seed: int, root: Path):
        rng = random.Random(seed)
        self.root = root
        self.env = child_env(root)
        work = root / "perfbench" / "out" / f"cli-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        complex_path = work / "sphere.json"
        complex_path.write_text(json.dumps(
            {"vertices": 8, "faces": cross_polytope_facets(3, rng)}))
        bundle = BUNDLES[0]
        self.points = signed_axis_permutation(point_pool(bundle, 1)[0], rng)
        self.blocks = class_blocks(bundle.sizes)
        config_path = work / "points.json"
        config_path.write_text(json.dumps({
            "d": bundle.d, "points": [[str(c) for c in pt] for pt in self.points],
            "colors": self.blocks}))
        rel = lambda p: str(p.relative_to(root))
        self.commands = [
            ("chessboard", ["chessboard", "3", "3"], 0,
             {"vertices": 9, "f_vector": [9, 18, 6], "face_count": 33}),
            ("rainbow", ["rainbow", "2,2"], 0,
             {"f_vector": [4, 4], "colors": [[0, 1], [2, 3]]}),
            ("hconn", ["hconn", "--chessboard", "4", "4", "--p", "3"], 0,
             {"p": 3, "betti": [0, 0, 15, 0], "hconn": checks.nu(4, 4),
              "hconn_is_lower_bound": False}),
            ("betti", ["betti", "--complex", rel(complex_path)], 0,
             {"p": 2, "betti": [0, 0, 0, 1], "hconn": 2, "hconn_is_lower_bound": False}),
            ("deleted-product", ["deleted-product", "--chessboard", "2", "2", "--copies", "2"], 0,
             {"cells_by_dim": [12, 8, 2], "total_cells": 22}),
            ("decompose", ["decompose", "--sizes", "3,3", "--r", "3"], 0,
             {"verified": True, "face_count": 34 * 34 - 1}),  # join of two 33-face boards
            ("verify-theorem", ["verify-theorem", "--d", "2", "--k", "2", "--m", "0", "--p", "7",
                                "--n", "1", "--sizes", "10,10,10"], 0,
             {"verdict.applicable": True, "verdict.q": 6}),
            ("tverberg-search", ["tverberg-search", "--config", rel(config_path), "--q", "3"], 0,
             {"status": "found"}),
        ]
        rng.shuffle(self.commands)
        self.stdout_path = work / "stdout.txt"
        self.stderr_path = work / "stderr.txt"

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def invoke(self, argv):
        """Run one child to completion; returns (wall s, exit code, stdout,
        stderr, peak RSS in KiB)."""
        with open(self.stdout_path, "w+b") as out, open(self.stderr_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "tverlab.cli", *argv],
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    cwd=self.root, env=self.env)
            pidfd = os.pidfd_open(proc.pid)
            finished = False
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                finished = bool(poller.poll(CLI_TIMEOUT_S * 1000))
            finally:
                os.close(pidfd)
                if not finished:  # timed out, or this process is exiting
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (wall, proc.returncode, out.read().decode("utf-8", "replace"),
                    err.read().decode("utf-8", "replace"), usage.ru_maxrss)

    def run_pass(self, tracer):
        ops = []
        for name, argv, code, fields in self.commands:
            with tracer.span("cli.invoke"):
                wall, rc, stdout, stderr, rss = self.invoke(argv)
            ops.append({"part": name, "seconds": wall, "returncode": rc, "stdout": stdout,
                        "stderr": stderr, "rss_kib": rss, "expect": (code, fields)})
        return ops, {}

    def check(self, op):
        code, fields = op["expect"]
        problems, report = checks.check_cli(op["part"], op["returncode"], op["stdout"], code, fields)
        if problems and op["stderr"]:
            problems.append(op["stderr"][-500:])
        if report is not None:
            op["work_s"] = report["timing_seconds"]
            if op["part"] == "tverberg-search" and not problems:
                problems += checks.check_witness_report(report["result"]["witness"],
                                                        self.points, self.blocks, 3)
        return problems


WORKLOADS = {
    "profile": ProfileWorkload,
    "search": SearchWorkload,
    "cli": CliWorkload,
}
