"""Finite simplicial complexes and the tagged constructions built on them:
joins, deleted joins, deleted products, chessboard and rainbow complexes,
and permutation actions on tagged copies.

Vertices are integer ids 0..n-1; every vertex carries an external label
(a bare id, a board cell ``(row, col)``, a tagged pair ``(copy, label)``, ...).
Faces are canonically sorted tuples of ids.  Every face of a complex is
stored explicitly, so the constructors enforce a face budget to fail loudly
instead of exhausting memory.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass

DEFAULT_FACE_BUDGET = int(os.environ.get("TVERLAB_FACE_BUDGET", "10000000"))


class FaceBudgetError(RuntimeError):
    """A construction would exceed the configured face budget."""


class DecompositionError(RuntimeError):
    """The chessboard decomposition bijection failed to verify.

    This indicates an implementation bug, never a property of the input;
    ``counterexample`` holds the offending face.
    """

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


# Miller-Rabin with the first 13 primes as bases is exact for every n below
# this bound (OEIS A014233); above it no fixed base set is known to be.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality test; raises ``ValueError`` for p at or above
    about 3.3e24, where it could not be exact."""
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError(f"primality of p >= {_PRIME_TEST_LIMIT} is not decided exactly")
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_budget(count: int, budget: int, what: str) -> None:
    if count > budget:
        raise FaceBudgetError(
            f"{what} needs more than the face budget of {budget}; "
            f"raise the budget explicitly if this is intended"
        )


@dataclass(frozen=True)
class Coloring:
    """Ordered partition of vertex ids into nonempty color classes."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "classes", tuple(tuple(sorted(block)) for block in self.classes)
        )
        seen: set[int] = set()
        total = 0
        for block in self.classes:
            if not block:
                raise ValueError("color classes must be nonempty")
            total += len(block)
            seen.update(block)
        if len(seen) != total:
            raise ValueError("color classes must be pairwise disjoint")
        if seen and seen != set(range(max(seen) + 1)):
            raise ValueError("color classes must cover exactly the vertex range")

    @property
    def n_vertices(self) -> int:
        return sum(len(block) for block in self.classes)

    @property
    def n_colors(self) -> int:
        return len(self.classes)

    def color_of(self, vertex: int) -> int:
        for ci, block in enumerate(self.classes):
            if vertex in block:
                return ci
        raise KeyError(vertex)


class SimplicialComplex:
    """Abstract simplicial complex with the full face set stored.

    The empty face is a face of every complex; it is kept implicit and never
    stored.  Equality compares vertex counts and face sets (labels are
    presentation data and do not participate).

    ``closed=True`` is the caller's promise that ``faces`` is already closed
    under taking faces; it is not checked, and homology of a complex that
    breaks it raises ``ValueError``.
    """

    __slots__ = ("n_vertices", "labels", "_by_dim", "_face_set", "_label_index")

    def __init__(self, n_vertices, faces, labels=None, *, closed=False, budget=None):
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        if budget is None:
            budget = DEFAULT_FACE_BUDGET
        self.n_vertices = n_vertices
        if labels is None:
            labels = tuple(range(n_vertices))
        else:
            labels = tuple(labels)
            if len(labels) != n_vertices:
                raise ValueError("exactly one label per vertex required")
        self.labels = labels

        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for f in faces:
            t = tuple(f)
            if not t:
                continue
            if not all(map(operator.lt, t, t[1:])):
                t = tuple(sorted(set(t)))
            if t[0] < 0 or t[-1] >= n_vertices:
                raise ValueError(f"face {t} uses vertices outside 0..{n_vertices - 1}")
            by_dim.setdefault(len(t) - 1, []).append(t)
        # sorted and deduplicated top down, so that the closure has added all
        # of dimension d before dimension d is read
        graded = {}
        count = 0
        for d in range(max(by_dim, default=-1), -1, -1):
            if d not in by_dim:
                continue
            fs = _sorted_distinct(by_dim.pop(d))
            count += len(fs)
            _check_budget(count, budget, "storing the given faces" if closed
                          else "computing the downward closure")
            if not closed and d:
                by_dim.setdefault(d - 1, []).extend(
                    f[:t] + f[t + 1:] for f in fs for t in range(d + 1)
                )
            graded[d] = fs
        self._by_dim = dict(sorted(graded.items()))
        self._face_set = None
        self._label_index = None

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self._by_dim.get(d, ())) for d in range(self.dim + 1))

    @property
    def face_count(self) -> int:
        return sum(map(len, self._by_dim.values()))

    @property
    def is_empty(self) -> bool:
        return not self._by_dim

    def faces_of_dim(self, d: int) -> tuple[tuple[int, ...], ...]:
        return self._by_dim.get(d, ())

    def faces(self, dim=None):
        """Iterate faces (sorted by dimension, then lexicographically)."""
        if dim is not None:
            yield from self._by_dim.get(dim, ())
            return
        for d in sorted(self._by_dim):
            yield from self._by_dim[d]

    def has_face(self, face) -> bool:
        t = tuple(sorted(face))
        if not t:
            return True  # the empty face belongs to every complex
        if self._face_set is None:
            self._face_set = frozenset(itertools.chain.from_iterable(self._by_dim.values()))
        return t in self._face_set

    def facets(self) -> list[tuple[int, ...]]:
        """Maximal faces, sorted by dimension then lexicographically."""
        out = []
        for d, fs in self._by_dim.items():
            covered = {g[:t] + g[t + 1:] for g in self._by_dim.get(d + 1, ()) for t in range(d + 2)}
            out.extend(f for f in fs if f not in covered)
        return out

    def index_of_label(self, label) -> int:
        if self._label_index is None:
            self._label_index = {lab: v for v, lab in enumerate(self.labels)}
        return self._label_index[label]

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        # faces are stored sorted and distinct, so equal sets are equal tuples
        return self.n_vertices == other.n_vertices and self._by_dim == other._by_dim

    __hash__ = None

    def __repr__(self):
        return (
            f"SimplicialComplex(n_vertices={self.n_vertices}, dim={self.dim}, "
            f"f_vector={self.f_vector})"
        )

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize as ``{"vertices": N, "faces": [facet, ...]}`` (facets only)."""
        return json.dumps(
            {"vertices": self.n_vertices, "faces": [list(f) for f in self.facets()]}
        )

    @classmethod
    def from_json(cls, text: str, *, budget=None) -> "SimplicialComplex":
        """Parse ``to_json`` output (any faces, closed downward here); raises
        ``ValueError`` on a missing or mistyped key."""
        doc = json.loads(text)
        n = json_field(doc, "vertices", is_int, "an integer")
        faces = json_field(doc, "faces", is_int_lists, "a list of lists of integers")
        return cls(n, [tuple(f) for f in faces], budget=budget)


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_int_lists(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(f, list) and all(map(is_int, f)) for f in value
    )


def json_field(doc, key: str, valid, expected: str):
    """``doc[key]`` of a parsed JSON object, checked by ``valid``; raises
    ``ValueError`` naming the key if it is missing or ``valid`` rejects it."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, not {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    if not valid(doc[key]):
        raise ValueError(f"key {key!r} must be {expected}, not {type(doc[key]).__name__}")
    return doc[key]


def _sorted_distinct(faces: list) -> tuple:
    """The distinct entries of ``faces`` in ascending order (sorts in place)."""
    faces.sort()
    keep = itertools.chain((True,), map(operator.ne, itertools.islice(faces, 1, None), faces))
    return tuple(itertools.compress(faces, keep))


class ProductCellComplex:
    """Cell complex whose cells are tuples of nonempty faces of a base complex.

    Cells are graded by the sum of the factor dimensions.  The cell set must
    be closed under replacing any factor by one of its nonempty codimension-1
    faces, which is what the cellular boundary operator needs; this is not
    checked, and homology of a cell set that is not closed raises
    ``ValueError``.
    """

    __slots__ = ("base", "n", "k", "_by_dim", "_cell_set")

    def __init__(self, base: SimplicialComplex, n: int, k: int, cells):
        self.base = base
        self.n = n
        self.k = k
        by_dim: dict[int, list] = {}
        for cell in cells:
            by_dim.setdefault(sum(map(len, cell)) - len(cell), []).append(cell)
        self._by_dim = {d: _sorted_distinct(cs) for d, cs in sorted(by_dim.items())}
        self._cell_set = None

    @property
    def dim(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    @property
    def cell_count(self) -> int:
        return sum(map(len, self._by_dim.values()))

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self._by_dim.get(d, ())) for d in range(self.dim + 1))

    def cells_of_dim(self, d: int):
        return self._by_dim.get(d, ())

    def cells(self, dim=None):
        if dim is not None:
            yield from self._by_dim.get(dim, ())
            return
        for d in sorted(self._by_dim):
            yield from self._by_dim[d]

    def has_cell(self, cell) -> bool:
        if self._cell_set is None:
            self._cell_set = frozenset(itertools.chain.from_iterable(self._by_dim.values()))
        return tuple(cell) in self._cell_set

    def __repr__(self):
        return (
            f"ProductCellComplex(n={self.n}, k={self.k}, dim={self.dim}, "
            f"f_vector={self.f_vector})"
        )


# -- elementary constructors ------------------------------------------------


def discrete_points(count: int, *, budget=None) -> SimplicialComplex:
    """`count` isolated vertices."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return SimplicialComplex(
        count, ((v,) for v in range(count)), closed=True, budget=budget
    )


def full_simplex(dim: int, *, budget=None) -> SimplicialComplex:
    """The solid simplex on ``dim + 1`` vertices (all nonempty subsets)."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    verts = range(dim + 1)
    faces = (
        c for size in range(1, dim + 2) for c in itertools.combinations(verts, size)
    )
    return SimplicialComplex(dim + 1, faces, closed=True, budget=budget)


def boundary_simplex(dim: int, *, budget=None) -> SimplicialComplex:
    """The boundary of the ``dim``-simplex, a triangulated (dim-1)-sphere."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    verts = range(dim + 1)
    faces = (
        c for size in range(1, dim + 1) for c in itertools.combinations(verts, size)
    )
    return SimplicialComplex(dim + 1, faces, closed=True, budget=budget)


def chessboard(m: int, n: int, *, budget=None) -> SimplicialComplex:
    """Complex of non-attacking rook placements on an m-by-n board.

    Vertices are the board cells, labelled ``(row, col)`` with 1-based
    indices; a set of cells is a face exactly when its rows are pairwise
    distinct and its columns are pairwise distinct.
    """
    if m < 1 or n < 1:
        raise ValueError("board sides must be positive")
    if budget is None:
        budget = DEFAULT_FACE_BUDGET
    sizes = range(1, min(m, n) + 1)
    _check_budget(sum(math.comb(m, s) * math.perm(n, s) for s in sizes), budget,
                  f"chessboard({m},{n})")
    labels = tuple((i + 1, j + 1) for i in range(m) for j in range(n))
    # rows ascend within a face, so row*n + col ascends with them
    faces = [
        tuple(map(operator.add, rows, cols))
        for size in sizes
        for rows in itertools.combinations(range(0, m * n, n), size)
        for cols in itertools.permutations(range(n), size)
    ]
    return SimplicialComplex(m * n, faces, labels, closed=True, budget=budget)


def rainbow_complex(sizes, *, budget=None):
    """Join of discrete color classes of the given sizes.

    Returns ``(complex, coloring)``.  Vertices are labelled
    ``(color, index)`` with 1-based indices; the faces are exactly the sets
    using at most one vertex per color class.
    """
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be a nonempty list of positive integers")
    if budget is None:
        budget = DEFAULT_FACE_BUDGET
    total = 1
    for s in sizes:
        total *= s + 1
    _check_budget(total - 1, budget, f"rainbow complex of sizes {sizes}")

    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    labels = tuple(
        (ci + 1, v + 1) for ci, s in enumerate(sizes) for v in range(s)
    )
    choice_lists = [
        [None] + [offsets[ci] + v for v in range(s)] for ci, s in enumerate(sizes)
    ]
    faces = []
    for combo in itertools.product(*choice_lists):
        face = tuple(v for v in combo if v is not None)
        if face:
            faces.append(face)
    coloring = Coloring(
        tuple(tuple(range(offsets[ci], offsets[ci + 1])) for ci in range(len(sizes)))
    )
    complex_ = SimplicialComplex(offsets[-1], faces, labels, closed=True, budget=budget)
    return complex_, coloring


# -- joins -------------------------------------------------------------------


def join_many(factors, *, budget=None) -> SimplicialComplex:
    """Join of several complexes; vertex labels become ``(factor, label)``
    with 1-based factor indices."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if budget is None:
        budget = DEFAULT_FACE_BUDGET
    total = 1
    for fac in factors:
        total *= fac.face_count + 1
    _check_budget(total - 1, budget, "join")

    offsets = [0]
    labels = []
    for fi, fac in enumerate(factors):
        offsets.append(offsets[-1] + fac.n_vertices)
        labels.extend((fi + 1, lab) for lab in fac.labels)

    per_factor = []
    for fi, fac in enumerate(factors):
        off = offsets[fi]
        shifted = [()]
        for f in fac.faces():
            shifted.append(tuple(off + v for v in f))
        per_factor.append(shifted)

    faces = []
    for combo in itertools.product(*per_factor):
        face = tuple(itertools.chain.from_iterable(combo))
        if face:
            faces.append(face)
    return SimplicialComplex(
        offsets[-1], faces, tuple(labels), closed=True, budget=budget
    )


def join(a: SimplicialComplex, b: SimplicialComplex, *, budget=None) -> SimplicialComplex:
    return join_many([a, b], budget=budget)


# -- deleted joins and deleted products --------------------------------------


def _tuple_stream(base, n, k, payload, include_empty, budget, what):
    """n-tuples of faces of ``base`` (the empty face allowed when
    ``include_empty``) in which every vertex appears in fewer than k faces,
    that is, every k of the faces intersect emptily.  Each tuple is returned
    as the concatenation of ``payload(copy, face)`` over its copies.

    Tuples grow one copy at a time.  A partial tuple is kept only if it
    extends to a full one: with the empty face that is always so, and
    without it the vertex slots still free, k - 1 per vertex less those
    used, must cover one vertex per copy still to come.  So no level holds
    more tuples than the result, and the budget is checked as each grows.
    """
    options = [((), 0, 0)] if include_empty else []
    options += [(f, sum(1 << v for v in f), len(f)) for f in base.faces()]
    slots = (k - 1) * len(base.faces_of_dim(0))
    # a state: which vertices lie in more than j faces (j = 0..k-2), how many
    # vertex slots are used, and the payload so far
    level = [((0,) * (k - 1), 0, ())]
    for copy in range(n):
        # options are sorted by size, so the first too large ends the scan
        room = slots if include_empty else slots - (n - copy - 1)
        opts = [(mask, size, payload(copy, f)) for f, mask, size in options]
        last = copy == n - 1
        grown = []
        for used, taken, acc in level:
            full = used[-1]
            for mask, size, pay in opts:
                if taken + size > room:
                    break
                if mask & full:
                    continue
                if last:
                    grown.append(acc + pay)
                    continue
                carry, nxt = mask, []
                for u in used:
                    nxt.append(u | carry)
                    carry &= u
                grown.append((tuple(nxt), taken + size, acc + pay))
            _check_budget(len(grown) - include_empty, budget, what)
        level = grown
    return level


def deleted_join(base: SimplicialComplex, n: int, k: int = 2, *, budget=None) -> SimplicialComplex:
    """n-fold k-wise deleted join: tagged unions of faces, one per copy
    (empty allowed), such that every k of them intersect emptily.

    Vertex labels are ``(copy, base_label)`` with copies numbered 1..n.
    """
    if n < 2:
        raise ValueError("need at least 2 copies")
    if k < 2:
        raise ValueError("wiseness k must be at least 2")
    if budget is None:
        budget = DEFAULT_FACE_BUDGET
    nb = base.n_vertices
    labels = tuple((c + 1, base.labels[v]) for c in range(n) for v in range(nb))
    # copy c of vertex v is c*nb + v, so the concatenated parts stay sorted
    faces = _tuple_stream(
        base, n, k, lambda c, f: tuple(c * nb + v for v in f),
        True, budget, f"{n}-fold deleted join",
    )
    return SimplicialComplex(n * nb, faces, labels, closed=True, budget=budget)


def deleted_product(base: SimplicialComplex, n: int, k: int = 2, *, budget=None) -> ProductCellComplex:
    """n-fold k-wise deleted product: tuples of nonempty faces in which every
    k factors intersect emptily, graded by total dimension."""
    if n < 2:
        raise ValueError("need at least 2 copies")
    if k < 2:
        raise ValueError("wiseness k must be at least 2")
    if budget is None:
        budget = DEFAULT_FACE_BUDGET
    cells = _tuple_stream(
        base, n, k, lambda c, f: (f,), False, budget, f"{n}-fold deleted product"
    )
    return ProductCellComplex(base, n, k, cells)


# -- the chessboard decomposition of the deleted join ------------------------


@dataclass(frozen=True)
class DecompositionWitness:
    """Verified vertex bijection from the r-fold pairwise deleted join of a
    rainbow complex onto the join of per-color chessboard complexes."""

    left: SimplicialComplex
    right: SimplicialComplex
    vertex_map: dict
    verified: bool


def decomposition_isomorphism(sizes, r: int, *, budget=None) -> DecompositionWitness:
    """Construct and verify the bijection sending the j-th copy of vertex v
    of color i to board cell (v, j) of the i-th chessboard factor.

    Raises :class:`DecompositionError` with a counterexample face if the map
    fails to carry faces to faces in either direction.
    """
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be a nonempty list of positive integers")
    if r < 2:
        raise ValueError("need at least 2 copies")
    rainbow, _ = rainbow_complex(sizes, budget=budget)
    left = deleted_join(rainbow, r, 2, budget=budget)
    right = join_many([chessboard(s, r, budget=budget) for s in sizes], budget=budget)

    id_map = {}
    for lid in range(left.n_vertices):
        copy_j, (color_i, v) = left.labels[lid]
        id_map[lid] = right.index_of_label((color_i, (v, copy_j)))

    if left.face_count != right.face_count:
        raise DecompositionError(
            f"face counts differ: {left.face_count} vs {right.face_count}"
        )
    for f in left.faces():
        img = tuple(sorted(id_map[v] for v in f))
        if not right.has_face(img):
            raise DecompositionError("image of a face is not a face", counterexample=f)
    inverse = {w: v for v, w in id_map.items()}
    for g in right.faces():
        pre = tuple(sorted(inverse[w] for w in g))
        if not left.has_face(pre):
            raise DecompositionError(
                "preimage of a face is not a face", counterexample=g
            )

    label_map = {left.labels[v]: right.labels[w] for v, w in id_map.items()}
    return DecompositionWitness(left=left, right=right, vertex_map=label_map, verified=True)


# -- symmetry ----------------------------------------------------------------


def apply_symmetry(complex_: SimplicialComplex, perm) -> dict:
    """Relabel the tagged copies of a deleted join by a permutation.

    ``perm`` is a sequence with ``perm[t]`` the image of copy ``t + 1``.
    Returns the induced permutation of the face set as a dict; raises if the
    complex is not an n-fold tagged construction of matching degree, and
    fails loudly if an image face were missing (which would be a bug, since
    the action preserves the complex).
    """
    perm = tuple(perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    copies = set()
    for lab in complex_.labels:
        if not (isinstance(lab, tuple) and len(lab) == 2 and isinstance(lab[0], int)):
            raise ValueError("complex vertices are not tagged (copy, label) pairs")
        copies.add(lab[0])
    if copies != set(range(1, n + 1)):
        raise ValueError(f"complex has copies {sorted(copies)}, permutation degree {n}")

    vmap = [
        complex_.index_of_label((perm[c - 1], base)) for (c, base) in complex_.labels
    ]
    out = {}
    for f in complex_.faces():
        img = tuple(sorted(vmap[v] for v in f))
        if not complex_.has_face(img):
            raise RuntimeError(f"symmetry image {img} of face {f} left the complex")
        out[f] = img
    return out


def regular_embedding(p: int, n: int) -> list[tuple[int, ...]]:
    """The elementary abelian group (Z_p)^n inside Sym(p^n), acting on its own
    element list by translation.

    Elements are enumerated lexicographically as exponent tuples, so the
    identity permutation comes first.  The action is free and every
    non-identity permutation has order p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("exponent must be positive")
    elems = list(itertools.product(range(p), repeat=n))
    index = {e: i for i, e in enumerate(elems)}
    perms = []
    for g in elems:
        perms.append(
            tuple(
                index[tuple((gi + hi) % p for gi, hi in zip(g, h))] for h in elems
            )
        )
    return perms
