"""Exact-rational search for pairwise disjoint rainbow faces whose convex
hulls share a common point.

Points live in Q^d (arbitrary-precision rationals), hull intersection is
decided by a phase-1 simplex method with Bland's anti-cycling rule, and every
positive answer carries a certificate of convex weights that re-verifies by
pure rational arithmetic.  Infeasibility is a value, not an error; search
budget exhaustion is reported distinctly from an exhaustive "none".
"""

from __future__ import annotations

import copy
import itertools
import random
import re
import time
from fractions import Fraction

from .records import (
    Coloring, _check_budget, _check_ints, _record, is_int, is_int_lists, json_field,
)


# the coordinate strings a configuration may use: "[+-]digits" or
# "[+-]digits/digits", with surrounding whitespace
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(value) -> Fraction:
    """Accept an int, a Fraction, or a string ``[+-]digits`` or
    ``[+-]digits/digits`` with surrounding whitespace; anything else
    (exponents, decimals, underscores, ``inf``) raises ``ValueError``."""
    if isinstance(value, bool):
        raise ValueError("booleans are not coordinates")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"cannot parse rational from {value!r}: expected an int, a Fraction, "
                         "or a string '[+-]digits' or '[+-]digits/digits'")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@_record
class ColoredConfiguration:
    """Points in Q^d partitioned into color classes by point index."""

    d: int
    points: tuple[tuple[Fraction, ...], ...]
    coloring: Coloring

    def __post_init__(self):
        if not is_int(self.d):
            raise ValueError(f"dimension {self.d!r} is not an integer")
        if self.d < 1:
            raise ValueError("dimension must be positive")
        pts = tuple(tuple(parse_rational(c) for c in pt) for pt in self.points)
        object.__setattr__(self, "points", pts)
        for pt in pts:
            if len(pt) != self.d:
                raise ValueError(f"point {pt} does not have {self.d} coordinates")
        if self.coloring.n_vertices != len(pts):
            raise ValueError("coloring must partition exactly the point indices")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def color_classes(self) -> tuple[tuple[int, ...], ...]:
        return self.coloring.classes

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "points": [[format_rational(c) for c in pt] for pt in self.points],
            "colors": [list(block) for block in self.coloring.classes],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ColoredConfiguration":
        """Parse ``to_dict`` output; raises ``ValueError`` on a missing or
        mistyped key."""
        d = json_field(doc, "d", is_int, "an integer")
        points = json_field(doc, "points", _is_lists, "a list of coordinate lists")
        colors = json_field(doc, "colors", is_int_lists, "a list of lists of integers")
        return cls(
            d=d,
            points=tuple(tuple(pt) for pt in points),
            coloring=Coloring(tuple(tuple(b) for b in colors)),
        )


def _is_lists(value) -> bool:
    return isinstance(value, list) and all(isinstance(pt, list) for pt in value)


@_record
class RainbowFace:
    """A nonempty face choosing at most one point per color class; a color
    or point index that is not an ``int`` raises ``ValueError``."""

    members: tuple[tuple[int, int], ...]  # sorted (color, point index) pairs

    def __post_init__(self):
        members = tuple(self.members)
        if not all(is_int(c) and is_int(v) for c, v in members):
            raise ValueError(f"rainbow face {members} has an index that is not an integer")
        members = tuple(sorted((c, v) for c, v in members))
        if not members:
            raise ValueError("rainbow faces are nonempty")
        if len({c for c, _ in members}) != len(members):
            raise ValueError("at most one point per color")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_members(cls, mapping: dict) -> "RainbowFace":
        return cls(tuple(mapping.items()))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for _, v in self.members))

    def __len__(self):
        return len(self.members)

    def to_dict(self) -> dict:
        return {"members": {str(c): v for c, v in self.members}}


def enumerate_rainbow_faces(config: ColoredConfiguration) -> list[RainbowFace]:
    """The rainbow faces the witness search reads, in its order: every
    nonempty one of dimension at most d, larger first, then by color set,
    then in the product order of its classes (see ``_rainbow_tuples``)."""
    return _rainbow_faces(config, _rainbow_tuples(config))


def _rainbow_tuples(config: ColoredConfiguration):
    """Every nonempty rainbow face of dimension at most d, lazily, as sorted
    vertex tuples: larger first, then by color set, then in the product
    order of its classes (sorted-vertex order when each lies below the next).
    The cap loses no family: a point of conv(F) lies in the hull of at most
    d + 1 vertices of F (Caratheodory), a sub-face that stays rainbow and
    disjoint from the others, so "none" over these faces is "none" over all."""
    classes = config.color_classes
    for size in range(min(config.d + 1, len(classes)), 0, -1):
        for blocks in itertools.combinations(classes, size):
            yield from map(tuple, map(sorted, itertools.product(*blocks)))


def _rainbow_faces(config: ColoredConfiguration, vertex_tuples) -> list[RainbowFace]:
    color_of = {v: c for c, block in enumerate(config.color_classes) for v in block}
    return [RainbowFace(tuple((color_of[v], v) for v in vs)) for vs in vertex_tuples]


# -- exact LP feasibility -----------------------------------------------------


def hulls_intersect(faces, config: ColoredConfiguration):
    """Decide whether the convex hulls of the given faces share a point.

    Returns ``(point, weights)`` with exact rational entries, or None when
    the intersection is empty; both answers are exact.  ``weights[i]`` is
    aligned with the sorted vertex list of face i (a plain vertex tuple is
    taken in the order given).

    The weights x >= 0 come from a phase-1 simplex over the rationals.  One
    row per face says that its weights sum to 1, and d rows per later face
    say that it reproduces face 0's point.  Every right-hand side is 0 or 1,
    so row i starts on its own artificial variable, id n + i.  The pivots
    drive the artificial sum to zero, entering and leaving by Bland's rule
    (guaranteed termination).  The eliminations and the returned point skip
    every product with a zero factor; each is exactly zero, so the pivots
    and answers are those of the dense loop.
    """
    vert_lists = [f.vertices if isinstance(f, RainbowFace) else tuple(f) for f in faces]
    if not vert_lists or any(not vs for vs in vert_lists):
        raise ValueError("every face must be nonempty")
    for vs in vert_lists:  # a negative index would read a point from the end
        if not (all(map(is_int, vs)) and 0 <= min(vs) and max(vs) < config.n_points):
            raise ValueError(f"face {vs} has a vertex that is not a point id "
                             f"in 0..{config.n_points - 1}")
    d = config.d
    pts = config.points

    # Conservative exact prefilter: a common point lies in every bounding box.
    for t in range(d):
        lo = max(min(pts[v][t] for v in vs) for vs in vert_lists)
        hi = min(max(pts[v][t] for v in vs) for vs in vert_lists)
        if lo > hi:
            return None

    offsets = [0]
    for vs in vert_lists:
        offsets.append(offsets[-1] + len(vs))
    n = offsets[-1]  # weight columns; column n is the right-hand side
    zero, one = Fraction(0), Fraction(1)
    rows = []
    for i, vs in enumerate(vert_lists):
        row = [zero] * (n + 1)
        row[offsets[i]:offsets[i + 1]] = [one] * len(vs)
        row[n] = one
        rows.append(row)
    first = vert_lists[0]
    for i in range(1, len(vert_lists)):
        for t in range(d):
            row = [zero] * (n + 1)
            row[:len(first)] = [pts[v][t] for v in first]
            row[offsets[i]:offsets[i + 1]] = [-pts[v][t] for v in vert_lists[i]]
            rows.append(row)
    basis = list(range(n, n + len(rows)))

    while True:
        art = [row for row, bv in zip(rows, basis) if bv >= n]
        enter = next((j for j in range(n) if sum(row[j] for row in art) > 0), None)
        if enter is None:
            break
        leave = best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[n] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        assert leave is not None, "phase-1 objective is bounded below by zero"
        inv = one / rows[leave][enter]
        prow = rows[leave] = [v * inv if v else v for v in rows[leave]]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                rows[i] = [a - f * b if b else a for a, b in zip(row, prow)]
        basis[leave] = enter

    if any(row[n] for row, bv in zip(rows, basis) if bv >= n):
        return None
    x = [zero] * n
    for row, bv in zip(rows, basis):
        if bv < n:
            x[bv] = row[n]
    weights = tuple(tuple(x[offsets[i]:offsets[i + 1]]) for i in range(len(vert_lists)))
    point = tuple(
        sum((w * pts[v][t] for w, v in zip(weights[0], first) if w), zero) for t in range(d)
    )
    return point, weights


# -- witnesses and search -----------------------------------------------------


@_record
class Witness:
    """q pairwise disjoint rainbow faces, an exact common point of their
    hulls, and the convex weights certifying it."""

    faces: tuple[RainbowFace, ...]
    point: tuple[Fraction, ...]
    weights: tuple[tuple[Fraction, ...], ...]

    def verify(self, config: ColoredConfiguration) -> None:
        """Re-check the whole certificate by pure rational arithmetic: at
        least one face, each member's point in its stated color class, the
        faces pairwise disjoint, one convex weight vector per face, and a
        point in Q^d that each face's weights reproduce.  Raises ValueError
        on the first violation."""
        if not self.faces:
            raise ValueError("a witness has at least one face")
        if len(self.weights) != len(self.faces):
            raise ValueError("need one weight vector per face")
        if len(self.point) != config.d:
            raise ValueError(f"the common point does not have {config.d} coordinates")
        classes = config.color_classes
        seen: set[int] = set()
        for face in self.faces:
            for c, v in face.members:
                if not (0 <= c < len(classes) and v in classes[c]):
                    raise ValueError(f"point {v} is not in color class {c}")
            vs = face.vertices
            if seen & set(vs):
                raise ValueError("witness faces are not pairwise disjoint")
            seen.update(vs)
        for face, ws in zip(self.faces, self.weights):
            vs = face.vertices
            if len(ws) != len(vs):
                raise ValueError("weight vector does not match face size")
            if any(w < 0 for w in ws):
                raise ValueError("negative convex weight")
            if sum(ws) != 1:
                raise ValueError("weights do not sum to one")
            for t in range(config.d):
                coord = sum(
                    (w * config.points[v][t] for w, v in zip(ws, vs)), Fraction(0)
                )
                if coord != self.point[t]:
                    raise ValueError("weighted sum does not reproduce the point")

    def to_dict(self) -> dict:
        return {
            "faces": [list(f.vertices) for f in self.faces],
            "members": [f.to_dict()["members"] for f in self.faces],
            "point": [format_rational(c) for c in self.point],
            "weights": [[format_rational(w) for w in ws] for ws in self.weights],
        }


@_record
class SearchResult:
    """Outcome of a witness search: status is "found", "none" (exhaustive),
    or "budget" (hull-query budget hit before exhausting the space)."""

    status: str
    witness: Witness | None
    hull_queries: int
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"


class _BudgetExhausted(Exception):
    pass


def find_disjoint_intersecting_family(
    config: ColoredConfiguration, q: int, *, lp_budget=None
) -> SearchResult:
    """Depth-first search for q pairwise disjoint rainbow faces with
    intersecting hulls.

    Faces are tried in the order of ``enumerate_rainbow_faces``, larger
    first (bigger hulls meet more easily), and generated as they are read;
    the family is built in ascending face order.  A partial family is
    extended only while its hulls already intersect, which is sound because
    adding a face can only shrink the intersection.  Deterministic: equal
    inputs give the identical result.

    Without ``lp_budget`` the search is exhaustive over all rainbow faces
    (see ``_rainbow_tuples``): it makes at most one hull query per
    increasing family (in the face order above) of at most q pairwise
    disjoint rainbow faces of dimension at most d, and ends "found" or
    "none".  ``lp_budget``, at least 0, bounds the hull queries; a search
    that reaches it ends "budget", having generated only the faces it
    scanned, and counts one node more than queries.
    """
    _check_ints(q=q)
    if q < 1:
        raise ValueError("q must be at least 1")
    if lp_budget is not None:
        _check_ints(lp_budget=lp_budget)
        if lp_budget < 0:
            raise ValueError("lp_budget must be nonnegative")
    queries = 0  # each node of the search is one hull query

    def extend(rest, chosen, used):
        nonlocal queries
        for face in rest:
            if not used.isdisjoint(face):
                continue
            if queries == lp_budget:  # never without a budget
                raise _BudgetExhausted
            queries += 1
            res = hulls_intersect(chosen + [face], config)
            if res is None:
                continue
            if len(chosen) + 1 == q:
                point, weights = res
                return Witness(tuple(_rainbow_faces(config, chosen + [face])), point, weights)
            # rest is a tee object: its copy reads on after this face
            deeper = extend(copy.copy(rest), chosen + [face], used.union(face))
            if deeper is not None:
                return deeper
        return None

    try:
        witness = extend(itertools.tee(_rainbow_tuples(config), 1)[0], [], set())
    except _BudgetExhausted:  # the node that found the budget spent is counted
        return SearchResult("budget", None, queries, queries + 1)
    return SearchResult("none" if witness is None else "found", witness, queries, queries)


# -- instance generation and the experiment harness ---------------------------


def random_configuration(
    d: int, sizes, seed: int, coordinate_bound: int = 1000, *, budget=None
) -> ColoredConfiguration:
    """Deterministic pseudorandom integer configuration: one point per vertex
    with coordinates in [-coordinate_bound, coordinate_bound], color classes
    taken as consecutive index blocks.  Its d * sum(sizes) coordinates count
    against the face budget before any point is made."""
    sizes = list(sizes)
    _check_ints(d=d, sizes=sizes, coordinate_bound=coordinate_bound)
    if coordinate_bound < 1:
        raise ValueError("coordinate bound must be at least 1")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be a nonempty list of positive integers")
    _check_budget(d * sum(sizes), budget, f"a configuration of {sum(sizes)} points in R^{d}")
    rng = random.Random(seed)
    points = []
    blocks = []
    start = 0
    for s in sizes:
        for _ in range(s):
            points.append(
                tuple(Fraction(rng.randint(-coordinate_bound, coordinate_bound)) for _ in range(d))
            )
        blocks.append(tuple(range(start, start + s)))
        start += s
    return ColoredConfiguration(d, tuple(points), Coloring(tuple(blocks)))


@_record
class TrialRecord:
    trial: int
    seed: int
    status: str
    hull_queries: int
    nodes: int


@_record
class ExperimentReport:
    """Aggregate of seeded trials; exhaustive failures carry the full
    machine-readable configuration so they can be replayed."""

    instance: dict
    q: int
    mode: str  # "certified" when the verdict promises q faces, else "exploratory"
    trials: tuple[TrialRecord, ...]
    counterexamples: tuple[dict, ...]
    elapsed_seconds: float

    @property
    def successes(self) -> int:
        return sum(1 for t in self.trials if t.status == "found")

    @property
    def budget_exhausted(self) -> int:
        return sum(1 for t in self.trials if t.status == "budget")

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "q": self.q,
            "mode": self.mode,
            "trials": len(self.trials),
            "successes": self.successes,
            "budget_exhausted": self.budget_exhausted,
            "hull_queries_total": sum(t.hull_queries for t in self.trials),
            "per_trial": [{"trial": t.trial, "seed": t.seed, "status": t.status,
                           "hull_queries": t.hull_queries, "nodes": t.nodes} for t in self.trials],
            "counterexamples": [dict(c) for c in self.counterexamples],
            "elapsed_seconds": self.elapsed_seconds,
        }


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def verify_theorem_empirically(
    ti,
    trials: int,
    seed: int,
    *,
    q=None,
    lp_budget=None,
    coordinate_bound: int = 1000,
    budget=None,
) -> ExperimentReport:
    """Run seeded trials of the bundle ``ti`` (a ``bounds.TheoremInstance``,
    imported lazily): generate a configuration with its class sizes,
    search for q pairwise disjoint rainbow faces with intersecting hulls,
    and aggregate the outcomes.

    When the bundle's verdict does not promise at least q faces the run is
    labelled exploratory.  An exhaustive "none" is recorded as a
    machine-readable counterexample report; on a certified bundle with an
    affine map that would contradict the theorem and almost certainly
    indicates a bug.  Each configuration's coordinates count against
    ``budget`` as in :func:`random_configuration`.
    """
    from .bounds import promised_faces, strict_inequality_note, volovikov_condition

    _check_ints(trials=trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    promised = promised_faces(volovikov_condition(ti), strict_inequality_note(ti))
    effective_q = ti.q if q is None else q
    mode = "certified" if promised is not None and effective_q <= promised else "exploratory"

    t0 = time.perf_counter()
    records = []
    counterexamples = []
    for trial in range(trials):
        s = _trial_seed(seed, trial)
        config = random_configuration(ti.d, ti.sizes, s, coordinate_bound, budget=budget)
        result = find_disjoint_intersecting_family(config, effective_q, lp_budget=lp_budget)
        if result.found:
            result.witness.verify(config)
        records.append(
            TrialRecord(trial, s, result.status, result.hull_queries, result.nodes)
        )
        if result.status == "none":
            counterexamples.append(
                {
                    "trial": trial,
                    "seed": s,
                    "q": effective_q,
                    "mode": mode,
                    "configuration": config.to_dict(),
                }
            )
    return ExperimentReport(
        instance=ti.to_dict(),
        q=effective_q,
        mode=mode,
        trials=tuple(records),
        counterexamples=tuple(counterexamples),
        elapsed_seconds=time.perf_counter() - t0,
    )
