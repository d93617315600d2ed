"""Reduced homology with Z_p coefficients for simplicial and product-cell
complexes: augmented chain complexes, Betti profiles, and homological
connectivity.

Homological connectivity is one less than the least degree carrying
nonvanishing reduced Z_p homology.  It is a computational proxy for
topological connectivity: the two agree for simply connected spaces, but a
complex whose bottom homology is pure torsion at some other prime will look
"more connected" than it is over Z_p.  Results are therefore reported with
an explicit lower-bound marker when homology vanishes through the top
dimension.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .complexes import ProductCellComplex, SimplicialComplex, _drop_position, _positions
from .records import _record, is_prime


class ModMatrix:
    """Sparse matrix over Z_p stored column-major, as the assembler builds it,
    and as ``pivot_rows`` keeps a column it reduces over odd p: column j is
    the tuple of its rows, ``rows[j]``, lowest (largest-index) row first,
    beside the tuple of their values in 1..p-1, ``values[j]``.  The column
    count is ``len(rows)``; the constructor checks nothing.
    """

    __slots__ = ("nrows", "p", "rows", "values")

    def __init__(self, nrows: int, p: int, rows: list, values: list):
        self.nrows, self.p, self.rows, self.values = nrows, p, rows, values

    @property
    def nnz(self) -> int:
        return sum(map(len, self.rows))

    def pivot_rows(self) -> set[int]:
        """Pivot rows of the column reduction: columns are taken left to
        right, and each is reduced by the earlier pivot columns until its
        lowest (largest-index) nonzero row carries no pivot yet, or it
        vanishes.

        A column whose lowest row, its first, is free becomes that row's pivot
        as stored, and later columns read it as stored.  Only the column being
        reduced is converted, over GF(2) to an int whose set bits are its
        rows, over odd p to a ``{row: value}`` dict.  If it becomes a pivot,
        the int is kept, and the dict goes back to the stored form, unscaled:
        a pivot is met scaled by the inverse of its lowest value.  The input
        is never written.  The pivot rows depend only on the span of the
        columns, and their number is the rank.
        """
        p = self.p
        # per lowest row, its pivot: a stored column, or a reduced one
        pivots = [None] * self.nrows
        placed = []  # the rows given a pivot
        if p == 2:
            for rows in self.rows:
                if not rows:
                    continue
                low = rows[0]
                if pivots[low] is None:
                    pivots[low] = rows
                    placed.append(low)
                    continue
                mask = 0
                for i in rows:
                    mask ^= 1 << i
                while mask:
                    low = mask.bit_length() - 1
                    other = pivots[low]
                    if other is None:
                        pivots[low] = mask
                        placed.append(low)
                        break
                    if type(other) is int:
                        mask ^= other
                    else:
                        for i in other:
                            mask ^= 1 << i
        else:
            inverse = {}  # per lowest value met, its inverse mod p
            for col in zip(self.rows, self.values):
                if not col[0]:
                    continue
                low = col[0][0]
                if pivots[low] is None:
                    pivots[low] = col
                    placed.append(low)
                    continue
                vec = dict(zip(*col))
                while vec:
                    low = max(vec)
                    other = pivots[low]
                    if other is None:
                        first = vec.pop(low)
                        pivots[low] = ((low, *vec), (first, *vec.values()))
                        placed.append(low)
                        break
                    inv = inverse.get(other[1][0])
                    if inv is None:  # the inverse of its lowest value, once per value
                        inv = inverse[other[1][0]] = pow(other[1][0], -1, p)
                    c = vec[low] * inv % p
                    for i, v in zip(*other):
                        # v and c are units, so w == 0 only where vec has row i
                        w = (vec.get(i, 0) - c * v) % p
                        if w:
                            vec[i] = w
                        else:
                            del vec[i]
        del pivots  # the reduced columns go before the set is made
        return set(dict.fromkeys(placed))  # sized once, unlike a set grown row by row


@_record
class ChainComplexModP:
    """Augmented chain complex over Z_p of a simplicial or product-cell
    complex, which it holds and does not copy; a simplex is the 1-factor
    cell ``(face,)``.  Each degree's cells are numbered from the end of the
    store, so row and column 0 are the last cell, and a column's lowest row
    is the face without the last vertex of the cell's first factor of two
    or more, the least of its faces in the store.  Any order gives the same
    ranks, but the fill-in depends on it: this one reduces 7x7/Z_3 about
    4x faster than store order, though a board with more rows than columns,
    such as 10x5, about 2x slower.  ``ranks`` assembles each boundary when
    it reduces it, top degree down, and drops it.  With clearing, a d-cell
    that is a pivot row of the reduced boundary of degree d+1, so the
    lowest cell of a cycle, gets no column, as its column lies in the span
    of the earlier ones.  This assumes consecutive boundaries compose to
    zero and columns list their lowest row first; the assembler guarantees
    both, and the tests check them.  Like every record it refuses
    assignment, so its cached ranks are those of its ``p`` and ``complex_``.
    """

    p: int
    complex_: SimplicialComplex | ProductCellComplex

    def __post_init__(self):
        if not isinstance(self.complex_, (SimplicialComplex, ProductCellComplex)):
            raise TypeError(f"cannot take homology of {type(self.complex_).__name__}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def dims(self) -> list[int]:
        return list(self.complex_.f_vector)

    def _groups(self, d: int) -> dict | None:
        """The d-cells as ``{shape: (rows, keys)}`` (see ``_boundary``),
        numbered from the last in store order, and None below degree 0,
        where the augmentation has its one row."""
        if d < 0:
            return None
        if isinstance(self.complex_, SimplicialComplex):
            faces = self.complex_.faces_of_dim(d)  # a face is its own key
            return {(d + 1,): (range(len(faces)), faces[::-1])}
        groups = {}
        for row, cell in enumerate(reversed(self.complex_.cells_of_dim(d))):
            rows, keys = groups.setdefault(tuple(map(len, cell)), ([], []))
            rows.append(row)
            keys.append(tuple(itertools.chain.from_iterable(cell)))
        return groups

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Ranks of the boundaries of degrees 0..top, with clearing.  The
        cells of degree d-1 are grouped once, for the rows of degree d and
        then for its columns."""
        ranks, cleared, lower = [], frozenset(), self._groups(len(self.dims) - 1)
        for d in reversed(range(len(self.dims))):
            groups, lower = lower, self._groups(d - 1)
            cleared = _boundary(groups, lower, self.p, cleared).pivot_rows()
            ranks.append(len(cleared))
        return tuple(reversed(ranks))

    @cached_property
    def boundaries(self) -> list[ModMatrix]:
        """Every boundary in full, the augmentation first; ``ranks`` never reads it."""
        groups = [self._groups(d) for d in range(-1, len(self.dims))]
        return [_boundary(g, lower, self.p, frozenset()) for lower, g in zip(groups, groups[1:])]


@_record
class BettiProfile:
    """Reduced Betti numbers over Z_p, degrees 0..top."""

    p: int
    betti: tuple[int, ...]

    def first_nonzero_degree(self):
        for d, b in enumerate(self.betti):
            if b:
                return d
        return None


@_record
class HConn:
    """Homological connectivity: the honest value, or a lower bound when
    reduced homology vanishes through the top dimension (the complex may be
    more connected than Z_p homology can certify).  -2 is the empty complex.
    """

    value: int
    is_lower_bound: bool = False

    def __str__(self):
        return f">= {self.value}" if self.is_lower_bound else str(self.value)


def chain_complex(complex_: SimplicialComplex | ProductCellComplex, p: int) -> ChainComplexModP:
    """The augmented chain complex over Z_p of a simplicial or product-cell
    complex, ``ChainComplexModP(p, complex_)``: simplicial boundaries have
    the standard alternating signs in the canonical vertex order, cellular
    ones follow the graded Leibniz rule (see ``_boundary``)."""
    return ChainComplexModP(p, complex_)


cellular_chain_complex = chain_complex  # a simplex is the 1-factor cell


def _boundary(groups: dict, lower, p: int, cleared) -> ModMatrix:
    """The boundary over Z_p of one degree's cells, ``{shape: (rows, keys)}``
    with each shape's rows ascending: a column per cell whose row is not in
    ``cleared``, in row order.  ``lower`` groups the cells one degree down
    the same way, and they are the rows; in degree 0 it is None and the
    boundary is the augmentation, into one row.  Both number their cells
    from the end of the store (see ``ChainComplexModP``).

    A cell is a tuple of factors, each a sorted tuple of base vertices, and
    a simplex the 1-factor cell ``(face,)``.  Its shape is the tuple of its
    factor lengths and its key its factors concatenated, distinct among the
    cells of one shape.  Dropping position pos, in factor i, has sign
    (-1)**(pos - i): (-1) to the position in the factor times (-1) to the
    dimension of the factors before it.  A summand whose factor would
    become empty is dropped, so 0-dimensional factors contribute nothing.
    """
    if lower is not None:  # per shape, the row of each key
        lower = {shape: dict(zip(keys, rows)) for shape, (rows, keys) in lower.items()}
    nrows = 1 if lower is None else sum(map(len, lower.values()))
    order, cols, values = [], [], []
    try:
        for shape, (rows, keys) in groups.items():
            kept = [row not in cleared for row in rows]
            rows, keys = (list(itertools.compress(seq, kept)) for seq in (rows, keys))
            faces, signs = ([(0,)] * len(rows), (1,)) if lower is None else _columns(shape, keys, lower, p)
            order += rows
            cols += faces
            values += [signs] * len(faces)
    except KeyError:
        # a face of the cell is not among the cells one degree down
        raise ValueError("complex is not closed under taking faces") from None
    if len(groups) > 1 and cols:  # the rows of one shape ascend, but not of several
        _, cols, values = map(list, zip(*sorted(zip(order, cols, values))))
    return ModMatrix(nrows, p, cols, values)


def _columns(shape: tuple, keys: list, lower: dict, p: int) -> tuple[list, tuple]:
    """The boundary columns of one shape's cells (see ``_boundary``) as row
    tuples, and the values tuple they share, a vertex position at a time,
    each factor's last first.  Rows number the sorted cells from the last,
    so with sorted factors, which both stores keep, a cell's first face,
    which drops the last vertex of its first factor of two or more, is the
    least of its faces in the store and so its lowest row."""
    positions = _positions(keys, sum(shape))
    faces, signs, pos = [], [], 0
    for i, length in enumerate(shape):
        if length > 1:
            row_of = lower[shape[:i] + (length - 1,) + shape[i + 1:]].__getitem__
            for t in reversed(range(pos, pos + length)):
                faces.append(map(row_of, _drop_position(positions, t)))
                signs.append(p - 1 if (t - i) & 1 else 1)
        pos += length
    # per cell, the row of each of its faces; the values are reduced mod p
    return list(zip(*faces)), tuple(signs)


def _as_chain_complex(obj, p: int) -> ChainComplexModP:
    if not isinstance(obj, ChainComplexModP):
        return ChainComplexModP(p, obj)
    if obj.p != p:
        raise ValueError(f"chain complex is over Z_{obj.p}, not Z_{p}")
    return obj


def betti(cc: ChainComplexModP) -> BettiProfile:
    """Reduced Betti numbers, ``dims[d] - ranks[d] - ranks[d+1]`` in degree
    d, from the boundary ranks, which are computed with clearing and so
    assume consecutive boundaries compose to zero."""
    ranks = (*cc.ranks, 0)
    return BettiProfile(cc.p, tuple(n - ranks[d] - ranks[d + 1] for d, n in enumerate(cc.dims)))


def betti_numbers(complex_, p: int = 2) -> BettiProfile:
    """Reduced Betti numbers of a simplicial or product-cell complex, or of
    a chain complex over Z_p."""
    return betti(_as_chain_complex(complex_, p))


def hconn(complex_, p: int = 2) -> HConn:
    """Homological connectivity over Z_p: one less than the first degree of
    the Betti profile with nonzero homology."""
    cc = _as_chain_complex(complex_, p)
    if not cc.dims:
        return HConn(-2)
    d = betti(cc).first_nonzero_degree()
    if d is None:
        return HConn(len(cc.dims) - 1, is_lower_bound=True)
    return HConn(d - 1)
