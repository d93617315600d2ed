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
from collections import Counter

DEFAULT_FACE_BUDGET = 10_000_000


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
    about 3.3e24, where it could not be exact, and for p not an ``int``."""
    if not is_int(p):
        raise ValueError(f"{p!r} is not an integer")
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


def _check_budget(count: int, budget, what: str) -> None:
    """Raise ``FaceBudgetError`` when ``count`` faces exceed ``budget``
    (``DEFAULT_FACE_BUDGET`` when None)."""
    if budget is None:
        budget = DEFAULT_FACE_BUDGET
    if count > budget:
        raise FaceBudgetError(
            f"{what} needs more than the face budget of {budget}; "
            f"raise the budget explicitly if this is intended"
        )


def _record(cls):
    """Class decorator for the library's records, in place of ``dataclasses``
    (whose import and ``exec``-made methods cost a cold CLI start about
    10 ms): ``__init__`` over the annotated fields, with class-attribute
    defaults, then ``__post_init__``; ``__eq__``, ``__hash__`` and ``__repr__``
    on the fields; no assignment (a ``cached_property`` writes ``__dict__``)."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)
    values_of = operator.attrgetter(*names)

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or kwargs.keys() - names[len(args):] or len(values) < len(names):
            raise TypeError(f"{cls.__name__} takes the fields {names}: got {args} and {kwargs}")
        for name in names:  # in field order, so that instances share their keys
            object.__setattr__(self, name, values[name])
        post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values_of(self) == values_of(other)

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def refuse(self, name, *value):
        raise AttributeError(f"{cls.__name__} is frozen: {name!r} cannot change")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(values_of(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@_record
class Coloring:
    """Ordered partition of vertex ids into nonempty color classes; a vertex
    that is not an ``int`` raises ``ValueError``."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        classes = tuple(map(tuple, self.classes))
        for block in classes:
            if not all(map(is_int, block)):
                raise ValueError(f"color class {block} has a vertex that is not an integer")
        object.__setattr__(self, "classes", tuple(tuple(sorted(block)) for block in classes))
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

    The constructor canonicalizes caller input: ``faces`` may list a face
    in any vertex order and more than once; a vertex count that is not an
    ``int``, a face that is not iterable, or a vertex that is not an
    ``int`` in 0..n_vertices-1, raises ``ValueError``; every face of a
    given face is added.  Each face is checked in the given order, before
    the closure and the budget, so the error names the first malformed
    face.  Default labels, ``0..n_vertices-1``, count against the face
    budget before they are made.  The builders of this module make
    canonical faces and hand them to ``_from_graded``, which checks
    nothing.
    """

    __slots__ = ("n_vertices", "labels", "_label_index")

    def __init__(self, n_vertices, faces, labels=None, *, budget=None):
        if not is_int(n_vertices):
            raise ValueError(f"vertex count {n_vertices!r} is not an integer")
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        if labels is None:
            _check_budget(n_vertices, budget, f"labelling {n_vertices} vertices")
            labels = tuple(range(n_vertices))
        else:
            labels = tuple(labels)
            if len(labels) != n_vertices:
                raise ValueError("exactly one label per vertex required")

        by_length = {}
        for f in faces:
            try:
                f = tuple(f)
            except TypeError:  # not iterable
                raise ValueError(f"face {f!r} is not a collection of vertices") from None
            if not all(map(is_int, f)):  # subclasses of int other than bool pass
                raise ValueError(f"face {f} has a vertex that is not an integer")
            f = tuple(sorted(set(f)))
            if f and (f[0] < 0 or f[-1] >= n_vertices):
                raise ValueError(f"face {f} uses vertices outside 0..{n_vertices - 1}")
            by_length.setdefault(len(f), set()).add(f)
        # longest first, so that the closure has added all of a length before
        # that length is read
        graded = {}
        count = 0
        for length in range(max(by_length, default=0), 0, -1):
            fs = sorted(by_length.pop(length))  # nonempty: given, or faces of a longer one
            count += len(fs)
            _check_budget(count, budget, "computing the downward closure")
            positions = _positions(fs, length)  # vertices add nothing: their faces are empty
            shorter = by_length.setdefault(length - 1, set())
            for t in range(length):  # checked as it grows: the next level can be far larger
                shorter.update(_drop_position(positions, t))
                _check_budget(count + len(shorter), budget, "computing the downward closure")
            graded[length - 1] = tuple(fs)
        super().__init__(graded)
        self.n_vertices, self.labels, self._label_index = n_vertices, labels, None

    @classmethod
    def _from_graded(cls, n_vertices: int, graded: dict, labels) -> "SimplicialComplex":
        """The complex whose d-faces are ``graded[d]``, stored unchecked: the
        caller promises sorted tuples of distinct ascending faces on
        0..n_vertices-1, closed under taking faces, and one label per vertex."""
        self = cls.__new__(cls)
        _GradedCells.__init__(self, {d: fs for d, fs in graded.items() if fs})
        self.n_vertices, self.labels, self._label_index = n_vertices, tuple(labels), None
        return self

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
        return cls(n, faces, budget=budget)


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ints(**args) -> None:
    """Raise ``ValueError`` naming the first argument that is not an
    ``int``, ``bool`` excluded, or a list or tuple holding one that is not."""
    for name, value in args.items():
        if isinstance(value, (list, tuple)):
            if not all(map(is_int, value)):
                raise ValueError(f"{name} {value} include one that is not an integer")
        elif not is_int(value):
            raise ValueError(f"{name} = {value!r} is not an integer")


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


def _positions(keys, length: int) -> list:
    """The entries of the ``length``-tuples ``keys``, one list per position."""
    return [list(map(operator.itemgetter(t), keys)) for t in range(length)]


def _drop_position(positions: list, t: int):
    """The tuples of ``positions`` (see ``_positions``) without entry ``t``."""
    return zip(*positions[:t], *positions[t + 1:])


class ProductCellComplex(_GradedCells):
    """Cell complex whose cells are tuples of nonempty faces of a base complex.

    Cells are graded by the sum of the factor dimensions, in the store this
    class shares with :class:`SimplicialComplex`.  The constructor takes
    cells in any order and more than once; a cell that is not a tuple,
    without exactly ``n`` factors, with an empty factor, one that is not a
    sorted tuple or one that is not a face of ``base``, or with a vertex in
    ``k`` or more factors raises ``ValueError``.  So does a cell set that
    is not closed under replacing a factor of two or more vertices by one
    of its codimension-1 faces, which the cellular boundary operator needs:
    homology skips the faces of cleared cells, so it could not tell.
    ``deleted_product`` hands its cells to ``_from_graded`` unchecked.
    """

    __slots__ = ("base", "n", "k")

    def __init__(self, base: SimplicialComplex, n: int, k: int, cells):
        _check_ints(n=n, k=k)
        self.base, self.n, self.k = base, n, k
        by_dim: dict[int, list] = {}
        for cell in cells:
            if not isinstance(cell, tuple):
                raise ValueError(f"cell {cell} is not a tuple")
            if len(cell) != n:
                raise ValueError(f"cell {cell} does not have {n} factors")
            if not all(cell):
                raise ValueError(f"cell {cell} has an empty factor")
            if not all(isinstance(f, tuple) and all(map(operator.lt, f, f[1:])) for f in cell):
                raise ValueError(f"cell {cell} has a factor that is not a sorted tuple")
            if not all(map(base.has_face, cell)):
                raise ValueError(f"cell {cell} has a factor that is not a face of the base")
            if max(Counter(itertools.chain.from_iterable(cell)).values(), default=0) >= k:
                raise ValueError(f"cell {cell} has a vertex in {k} or more factors")
            by_dim.setdefault(sum(map(len, cell)) - n, []).append(cell)
        super().__init__({d: tuple(sorted(set(cs))) for d, cs in by_dim.items()})
        for cell in self._iter():
            for i, f in enumerate(cell):
                for t in range(len(f) if len(f) > 1 else 0):
                    face = (*cell[:i], f[:t] + f[t + 1:], *cell[i + 1:])
                    if not self._has(face):
                        raise ValueError(f"cell {cell} has the face {face}, which is not a "
                                         "cell: the cells are not closed under taking faces")

    @classmethod
    def _from_graded(cls, base: SimplicialComplex, n: int, k: int, graded: dict):
        """The product whose d-cells are ``graded[d]``, stored unchecked: the
        caller promises nonempty sorted tuples of distinct cells of sorted factors."""
        self = cls.__new__(cls)
        _GradedCells.__init__(self, graded)
        self.base, self.n, self.k = base, n, k
        return self

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
    _check_ints(count=count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    _check_budget(count, budget, f"discrete_points({count})")
    return SimplicialComplex._from_graded(count, {0: tuple(zip(range(count)))}, range(count))


def full_simplex(dim: int, *, budget=None) -> SimplicialComplex:
    """The solid simplex on ``dim + 1`` vertices (all nonempty subsets)."""
    _check_ints(dim=dim)
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    _check_budget(2 ** (dim + 1) - 1, budget, f"full_simplex({dim})")
    verts = range(dim + 1)  # combinations come in lexicographic order
    graded = {size - 1: tuple(itertools.combinations(verts, size)) for size in range(1, dim + 2)}
    return SimplicialComplex._from_graded(dim + 1, graded, verts)


def boundary_simplex(dim: int, *, budget=None) -> SimplicialComplex:
    """The boundary of the ``dim``-simplex, a triangulated (dim-1)-sphere."""
    _check_ints(dim=dim)
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    _check_budget(2 ** (dim + 1) - 2, budget, f"boundary_simplex({dim})")
    verts = range(dim + 1)
    graded = {size - 1: tuple(itertools.combinations(verts, size)) for size in range(1, dim + 1)}
    return SimplicialComplex._from_graded(dim + 1, graded, verts)


def chessboard(m: int, n: int, *, budget=None) -> SimplicialComplex:
    """Complex of non-attacking rook placements on an m-by-n board.

    Vertices are the board cells, labelled ``(row, col)`` with 1-based
    indices; a set of cells is a face exactly when its rows are pairwise
    distinct and its columns are pairwise distinct.
    """
    _check_ints(m=m, n=n)
    if m < 1 or n < 1:
        raise ValueError("board sides must be positive")
    sizes = range(1, min(m, n) + 1)
    count = 0
    for s in sizes:  # checked as it grows: the full sum of a huge board is slow
        count += math.comb(m, s) * math.perm(n, s)
        _check_budget(count, budget, f"chessboard({m},{n})")
    labels = tuple((i + 1, j + 1) for i in range(m) for j in range(n))
    # rows ascend within a face, so row*n + col ascends with them; the faces
    # come by rows, then by columns, so each size is sorted once
    graded = {size - 1: tuple(sorted(
        tuple(map(operator.add, rows, cols))
        for rows in itertools.combinations(range(0, m * n, n), size)
        for cols in itertools.permutations(range(n), size))) for size in sizes}
    return SimplicialComplex._from_graded(m * n, graded, labels)


def rainbow_complex(sizes, *, budget=None):
    """Join of discrete color classes of the given sizes.

    Returns ``(complex, coloring)``.  Vertices are labelled
    ``(color, index)`` with 1-based indices; the faces are exactly the sets
    using at most one vertex per color class.
    """
    sizes = list(sizes)
    _check_ints(sizes=sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be a nonempty list of positive integers")
    _check_budget(math.prod(s + 1 for s in sizes) - 1, budget, f"rainbow complex of sizes {sizes}")
    classes = [SimplicialComplex._from_graded(s, {0: tuple(zip(range(s)))}, range(1, s + 1))
               for s in sizes]
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
    _check_budget(math.prod(fac.face_count + 1 for fac in factors) - 1, budget, "join")

    offsets = [0]
    labels = []
    for fi, fac in enumerate(factors):
        offsets.append(offsets[-1] + fac.n_vertices)
        labels.extend((fi + 1, lab) for lab in fac.labels)

    # the factors' vertices come in ascending blocks, so every face is sorted;
    # the first choice, the empty face of each factor, is left out
    per_factor = [[(), *(tuple(map(off.__add__, f)) for f in fac.faces())]
                  for off, fac in zip(offsets, factors)]
    faces = sorted(map(tuple, map(itertools.chain.from_iterable,
                                  itertools.islice(itertools.product(*per_factor), 1, None))),
                   key=len)
    graded = {length - 1: tuple(sorted(group)) for length, group in itertools.groupby(faces, len)}
    return SimplicialComplex._from_graded(offsets[-1], graded, labels)


def join(a: SimplicialComplex, b: SimplicialComplex, *, budget=None) -> SimplicialComplex:
    return join_many([a, b], budget=budget)


# -- deleted joins and deleted products --------------------------------------


def _tuple_stream(base, n, k, payload, check):
    """n-tuples of nonempty faces of ``base`` in which every vertex appears
    in fewer than k faces, that is, every k of the faces intersect emptily.
    Each tuple is the concatenation of ``payload(copy, face)`` over its
    copies, and the tuples, all distinct, come as ``{vertex count: list}``
    with no empty list.

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
        grown = [[] for _ in range(room + 1)] if last else []  # the last by vertex count
        made = 0
        for counts, taken, acc in pool:
            full = ((counts + ones) & top) >> b  # the vertices in k - 1 faces
            for f_ones, size, pay in opts:
                if taken + size > room:
                    break
                if f_ones & full:
                    continue
                if last:
                    grown[taken + size].append(acc + pay)
                else:
                    grown.append((counts + f_ones, taken + size, acc + pay))
                made += 1
            check(made)
        pool = grown
        if not made:  # no later copy can extend an empty pool
            return {}
    return {count: level for count, level in enumerate(pool) if level}


def deleted_join(base: SimplicialComplex, n: int, k: int = 2, *, budget=None) -> SimplicialComplex:
    """n-fold k-wise deleted join: tagged unions of faces, one per copy
    (empty allowed), such that every k of them intersect emptily.

    Vertex labels are ``(copy, base_label)`` with copies numbered 1..n.
    """
    _check_ints(n=n, k=k)
    if n < 2:
        raise ValueError("need at least 2 copies")
    if k < 2:
        raise ValueError("wiseness k must be at least 2")
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
        count += ways * sum(map(len, level.values()))
        levels.append(level)
    graded = {}
    for t, level in enumerate(levels, 1):
        # the first set of copies, 0..t-1, is the stream's own
        remaps = [[c * nb + v for c in copies for v in range(nb)]
                  for copies in itertools.islice(itertools.combinations(range(n), t), 1, None)]
        for length, faces in level.items():
            out = graded.setdefault(length - 1, [])
            out += faces
            for remap in remaps:
                out += [tuple(map(remap.__getitem__, f)) for f in faces]
    labels = tuple((c + 1, base.labels[v]) for c in range(n) for v in range(nb))
    return SimplicialComplex._from_graded(
        n * nb, {d: tuple(sorted(faces)) for d, faces in graded.items()}, labels)


def deleted_product(base: SimplicialComplex, n: int, k: int = 2, *, budget=None) -> ProductCellComplex:
    """n-fold k-wise deleted product: tuples of nonempty faces in which every
    k factors intersect emptily, graded by total dimension."""
    _check_ints(n=n, k=k)
    if n < 2:
        raise ValueError("need at least 2 copies")
    if k < 2:
        raise ValueError("wiseness k must be at least 2")
    what = f"{n}-fold deleted product"
    cells = _tuple_stream(base, n, k, lambda c, f: (f,),
                          lambda size: _check_budget(size, budget, what))
    # a cell of v vertices in n factors has dimension v - n
    return ProductCellComplex._from_graded(
        base, n, k, {count - n: tuple(sorted(cs)) for count, cs in cells.items()})


# -- the chessboard decomposition of the deleted join ------------------------


@_record
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
    _check_ints(sizes=sizes, r=r)
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
    Returns the induced permutation of the face set as a dict; raises
    ``ValueError`` if a copy number is not an ``int`` or the complex is not
    an n-fold tagged construction of matching degree, and fails loudly if
    an image face were missing (which would be a bug, since the action
    preserves the complex).
    """
    perm = tuple(perm)
    _check_ints(perm=perm)
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


def regular_embedding(p: int, n: int, *, budget=None) -> list[tuple[int, ...]]:
    """The elementary abelian group (Z_p)^n inside Sym(p^n), acting on its own
    element list by translation.

    Elements are enumerated lexicographically as exponent tuples, so the
    identity permutation comes first.  The action is free and every
    non-identity permutation has order p.  Its (p^n)^2 entries count
    against the face budget before any permutation is built.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_ints(n=n)
    if n < 1:
        raise ValueError("exponent must be positive")
    order = 1
    for _ in range(n):  # checked as it grows: a huge n would make a huge power first
        order *= p
        _check_budget(order * order, budget, f"regular_embedding({p}, {n})")
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
