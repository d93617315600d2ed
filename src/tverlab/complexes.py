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

FACE_BUDGET_VARIABLE = "TVERLAB_FACE_BUDGET"
DEFAULT_FACE_BUDGET = 10_000_000


def default_face_budget() -> int:
    """The budget of a constructor called without ``budget=``: the
    ``TVERLAB_FACE_BUDGET`` environment variable, read at the call, or
    DEFAULT_FACE_BUDGET when it is unset."""
    text = os.environ.get(FACE_BUDGET_VARIABLE)
    if text is None:
        return DEFAULT_FACE_BUDGET
    if not text.strip().isdecimal():
        raise ValueError(f"{FACE_BUDGET_VARIABLE} must be a nonnegative integer, got {text!r}")
    return int(text)


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


class _GradedCells:
    """The store of :class:`SimplicialComplex` and :class:`ProductCellComplex`:
    per dimension, ascending, a sorted tuple of distinct cells."""

    __slots__ = ("_by_dim", "_members")

    def __init__(self, graded: dict):
        self._by_dim = dict(sorted(graded.items()))
        self._members = None

    @property
    def dim(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self._by_dim.get(d, ())) for d in range(self.dim + 1))

    @property
    def _count(self) -> int:
        return sum(map(len, self._by_dim.values()))

    def _of_dim(self, d: int) -> tuple:
        return self._by_dim.get(d, ())

    def _iter(self, dim=None):
        """Iterate cells (sorted by dimension, then lexicographically)."""
        if dim is not None:
            yield from self._by_dim.get(dim, ())
            return
        for cells in self._by_dim.values():
            yield from cells

    def _has(self, cell) -> bool:
        if self._members is None:
            self._members = frozenset(itertools.chain.from_iterable(self._by_dim.values()))
        return tuple(cell) in self._members


class SimplicialComplex(_GradedCells):
    """Abstract simplicial complex with the full face set stored, graded by
    dimension in the store it shares with :class:`ProductCellComplex`.

    The empty face is a face of every complex; it is kept implicit and never
    stored.  Equality compares vertex counts and face sets (labels are
    presentation data and do not participate).

    ``faces`` may list a face in any vertex order and more than once; a
    vertex that is not an ``int`` in 0..n_vertices-1 raises ``ValueError``.
    ``closed=True`` is the caller's promise that ``faces`` is already closed
    under taking faces; it is not checked, and homology of a complex that
    breaks it raises ``ValueError``.
    """

    __slots__ = ("n_vertices", "labels", "_label_index")

    def __init__(self, n_vertices, faces, labels=None, *, closed=False, budget=None):
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        if budget is None:
            budget = default_face_budget()
        self.n_vertices = n_vertices
        if labels is None:
            labels = tuple(range(n_vertices))
        else:
            labels = tuple(labels)
            if len(labels) != n_vertices:
                raise ValueError("exactly one label per vertex required")
        self.labels = labels

        # grouped by length in one sort, then taken longest first, so that the
        # closure has added all of a length before that length is read
        pending = {length: list(group) for length, group
                   in itertools.groupby(sorted(map(tuple, faces), key=len), len) if length}
        graded = {}
        count = 0
        for length in range(max(pending, default=0), 0, -1):
            fs = _sorted_distinct(_canonical(pending.pop(length, []), length, n_vertices, pending))
            if not fs:  # no face of this length, or each lost a repeated vertex
                continue
            count += len(fs)
            _check_budget(count, budget, "storing the given faces" if closed
                          else "computing the downward closure")
            if not closed and length > 1:
                positions = _positions(fs, length)
                for t in range(length):
                    pending.setdefault(length - 1, []).extend(_drop_position(positions, t))
            graded[length - 1] = fs
        super().__init__(graded)
        self._label_index = None

    # -- basic queries -------------------------------------------------

    face_count = _GradedCells._count
    faces_of_dim = _GradedCells._of_dim
    faces = _GradedCells._iter

    @property
    def is_empty(self) -> bool:
        return not self._by_dim

    def has_face(self, face) -> bool:
        t = tuple(sorted(face))
        # the empty face belongs to every complex
        return not t or self._has(t)

    def facets(self) -> list[tuple[int, ...]]:
        """Maximal faces, sorted by dimension then lexicographically."""
        out = []
        for d, fs in self._by_dim.items():
            above = _positions(self._of_dim(d + 1), d + 2)
            covered = set(itertools.chain(*(_drop_position(above, t) for t in range(d + 2))))
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


def _canonical(faces: list, length: int, n_vertices: int, shorter: dict) -> list:
    """``faces`` of ``length`` vertices, checked one position at a time and
    sorted face by face only if some are not sorted and distinct; a face
    that loses a repeated vertex moves to ``shorter[its new length]``."""
    positions = _positions(faces, length)
    if not all({int}.issuperset(map(type, vs)) for vs in positions):
        for f in faces:  # subclasses of int other than bool pass
            if not all(map(is_int, f)):
                raise ValueError(f"face {f} has a vertex that is not an integer")
    if not _ascending(positions):
        kept = []
        for f in map(tuple, map(sorted, map(set, faces))):
            (kept if len(f) == length else shorter.setdefault(len(f), [])).append(f)
        faces, positions = kept, _positions(kept, length)
    # sorted, so the first and last vertex of a face are its least and largest
    if faces and (min(positions[0]) < 0 or max(positions[-1]) >= n_vertices):
        bad = next(f for f in faces if f[0] < 0 or f[-1] >= n_vertices)
        raise ValueError(f"face {bad} uses vertices outside 0..{n_vertices - 1}")
    return faces


def _positions(keys, length: int) -> list:
    """The entries of the ``length``-tuples ``keys``, one list per position."""
    return [list(map(operator.itemgetter(t), keys)) for t in range(length)]


def _ascending(positions: list) -> bool:
    """Whether every tuple of ``positions`` (see ``_positions``) ascends strictly."""
    return all(all(map(operator.lt, a, b)) for a, b in zip(positions, positions[1:]))


def _drop_position(positions: list, t: int):
    """The tuples of ``positions`` (see ``_positions``) without entry ``t``."""
    return zip(*positions[:t], *positions[t + 1:])


def _sorted_distinct(faces: list) -> tuple:
    """The distinct entries of ``faces`` in ascending order (sorts in place)."""
    faces.sort()
    keep = itertools.chain((True,), map(operator.ne, itertools.islice(faces, 1, None), faces))
    return tuple(itertools.compress(faces, keep))


class ProductCellComplex(_GradedCells):
    """Cell complex whose cells are tuples of nonempty faces of a base complex.

    Cells are graded by the sum of the factor dimensions, in the store this
    class shares with :class:`SimplicialComplex`.  The cell set must be
    closed under replacing any factor by one of its nonempty codimension-1
    faces, which is what the cellular boundary operator needs; this is not
    checked, and homology of a cell set that is not closed raises
    ``ValueError``.
    """

    __slots__ = ("base", "n", "k")

    def __init__(self, base: SimplicialComplex, n: int, k: int, cells):
        self.base = base
        self.n = n
        self.k = k
        by_dim: dict[int, list] = {}
        for cell in cells:
            by_dim.setdefault(sum(map(len, cell)) - len(cell), []).append(cell)
        super().__init__({d: _sorted_distinct(cs) for d, cs in by_dim.items()})

    cell_count = _GradedCells._count
    cells_of_dim = _GradedCells._of_dim
    cells = _GradedCells._iter
    has_cell = _GradedCells._has

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
        budget = default_face_budget()
    sizes = range(1, min(m, n) + 1)
    count = 0
    for s in sizes:  # checked as it grows: the full sum of a huge board is slow
        count += math.comb(m, s) * math.perm(n, s)
        _check_budget(count, budget, f"chessboard({m},{n})")
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
        budget = default_face_budget()
    _check_budget(math.prod(s + 1 for s in sizes) - 1, budget, f"rainbow complex of sizes {sizes}")
    classes = [SimplicialComplex(s, ((v,) for v in range(s)), range(1, s + 1),
                                 closed=True, budget=budget) for s in sizes]
    offsets = list(itertools.accumulate(sizes, initial=0))
    coloring = Coloring(tuple(tuple(range(a, b)) for a, b in zip(offsets, offsets[1:])))
    return join_many(classes, budget=budget), coloring


# -- joins -------------------------------------------------------------------


def join_many(factors, *, budget=None) -> SimplicialComplex:
    """Join of several complexes; vertex labels become ``(factor, label)``
    with 1-based factor indices."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if budget is None:
        budget = default_face_budget()
    _check_budget(math.prod(fac.face_count + 1 for fac in factors) - 1, budget, "join")

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


def _tuple_stream(base, n, k, payload, check):
    """n-tuples of nonempty faces of ``base`` in which every vertex appears
    in fewer than k faces, that is, every k of the faces intersect emptily.
    Each tuple is returned as the concatenation of ``payload(copy, face)``
    over its copies.

    Tuples grow one copy at a time from a pool of partial tuples, and a
    partial tuple is kept only if it extends to a full one: the vertex slots
    still free, k - 1 per vertex less those used, must cover one vertex per
    copy still to come.  So no level is larger than the last, and
    ``check(size)`` is called with the size of each level as it grows.
    """
    k = min(k, n + 1)  # n faces cannot put a vertex in more than n of them
    # a state: the faces at each vertex counted in a field of b + 1 bits,
    # which starts at 2**b - k so that its top bit is set once the count
    # reaches k; how many vertex slots are used; and the payload so far
    b = (k - 1).bit_length()
    ones = sum(1 << (b + 1) * v for v in range(base.n_vertices))
    top = ones << b
    options = [(f, sum(1 << (b + 1) * v for v in f), len(f)) for f in base.faces()]
    slots = (k - 1) * len(base.faces_of_dim(0))
    pool = [(((1 << b) - k) * ones, 0, ())]
    for copy in range(n):
        # options are sorted by size, so the first too large ends the scan
        room = slots - (n - copy - 1)
        opts = [(f_ones, size, payload(copy, f)) for f, f_ones, size in options]
        last = copy == n - 1
        grown = []
        for counts, taken, acc in pool:
            full = ((counts + ones) & top) >> b  # the vertices in k - 1 faces
            for f_ones, size, pay in opts:
                if taken + size > room:
                    break
                if f_ones & full:
                    continue
                if last:
                    grown.append(acc + pay)
                else:
                    grown.append((counts + f_ones, taken + size, acc + pay))
            check(len(grown))
        pool = grown
        if not pool:  # no later copy can extend an empty pool
            break
    return pool


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
        budget = default_face_budget()
    nb = base.n_vertices
    what = f"{n}-fold deleted join"
    # a face whose nonempty copies are t of the n is a t-fold deleted
    # product moved onto those copies, so the count is known before any face
    # is made; copy c of vertex v is c*nb + v, so the parts stay sorted
    levels, count = [], 0
    for t in range(1, n + 1):
        ways = math.comb(n, t)
        level = _tuple_stream(base, t, k, lambda c, f: tuple(c * nb + v for v in f),
                              lambda size: _check_budget(count + ways * size, budget, what))
        if not level:  # dropping its last face would put a longer tuple here
            break
        count += ways * len(level)
        levels.append(level)
    faces = []
    for t, level in enumerate(levels, 1):
        faces += level  # the first set of copies, 0..t-1, is the stream's own
        for copies in itertools.islice(itertools.combinations(range(n), t), 1, None):
            remap = [c * nb + v for c in copies for v in range(nb)]
            faces += [tuple(map(remap.__getitem__, f)) for f in level]
    labels = tuple((c + 1, base.labels[v]) for c in range(n) for v in range(nb))
    return SimplicialComplex(n * nb, faces, labels, closed=True, budget=budget)


def deleted_product(base: SimplicialComplex, n: int, k: int = 2, *, budget=None) -> ProductCellComplex:
    """n-fold k-wise deleted product: tuples of nonempty faces in which every
    k factors intersect emptily, graded by total dimension."""
    if n < 2:
        raise ValueError("need at least 2 copies")
    if k < 2:
        raise ValueError("wiseness k must be at least 2")
    if budget is None:
        budget = default_face_budget()
    what = f"{n}-fold deleted product"
    cells = _tuple_stream(base, n, k, lambda c, f: (f,),
                          lambda size: _check_budget(size, budget, what))
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

    Raises :class:`DecompositionError` if the face counts differ, or with a
    counterexample face if the map fails to carry a face to a face.
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

    # the labels are distinct, so the vertex map and with it the face map
    # are injective; once every face maps to a face, equal face counts make
    # the face map onto, and no preimage needs checking
    if left.face_count != right.face_count:
        raise DecompositionError(
            f"face counts differ: {left.face_count} vs {right.face_count}"
        )
    for f in left.faces():
        img = tuple(sorted(id_map[v] for v in f))
        if not right.has_face(img):
            raise DecompositionError("image of a face is not a face", counterexample=f)

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
