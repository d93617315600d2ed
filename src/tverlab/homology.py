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
from dataclasses import dataclass
from functools import cached_property

from .complexes import (ProductCellComplex, SimplicialComplex, _ascending, _drop_position,
                        _positions, is_prime)


class ModMatrix:
    """Sparse matrix over Z_p stored column-major, as the assembler builds
    it: column j is the tuple of its rows, ``rows[j]``, lowest
    (largest-index) row first, beside the tuple of their values in 1..p-1,
    ``values[j]``, which the columns of one shape share.  The column count
    is ``len(rows)``; the constructor checks nothing.
    """

    __slots__ = ("nrows", "p", "rows", "values")

    def __init__(self, nrows: int, p: int, rows: list, values: list):
        self.nrows, self.p, self.rows, self.values = nrows, p, rows, values

    @property
    def ncols(self) -> int:
        return len(self.rows)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.rows))

    def composes_to_zero(self, next_boundary: "ModMatrix") -> bool:
        """True iff self @ next_boundary is the zero matrix."""
        if self.ncols != next_boundary.nrows:
            raise ValueError("boundary shapes do not chain")
        rows, values, p = self.rows, self.values, self.p
        for col_rows, col_values in zip(next_boundary.rows, next_boundary.values):
            acc: dict[int, int] = {}
            for r, v in zip(col_rows, col_values):
                for i, w in zip(rows[r], values[r]):
                    acc[i] = (acc.get(i, 0) + v * w) % p
            if any(acc.values()):
                return False
        return True

    def pivot_rows(self, skip=frozenset()) -> set[int]:
        """Pivot rows of the column reduction: columns are taken left to
        right, and each is reduced by the earlier pivot columns until its
        lowest (largest-index) nonzero row carries no pivot yet, or it
        vanishes.  Columns whose index is in ``skip`` are left out.

        A column whose lowest row, its first, is free becomes that row's
        pivot as stored, and is converted only when a later column reduces
        against it, as is every column reduced: over GF(2) to an int whose
        set bits are its rows, over odd p to a ``{row: value}`` dict, a
        pivot scaled to 1 in its lowest row.  The pivot rows of the reduced
        columns depend only on the span of the columns reduced, and with no
        ``skip`` their number is the rank.
        """
        p = self.p
        pivots = {}  # per lowest row, its pivot: as stored (a tuple), or converted
        if p == 2:
            for j, rows in enumerate(self.rows):
                if not rows or j in skip:
                    continue
                low = rows[0]
                other = pivots.get(low)
                if other is None:
                    pivots[low] = rows
                    continue
                if type(other) is tuple:
                    other = pivots[low] = _mask(other)
                mask = _mask(rows) ^ other
                while mask:
                    low = mask.bit_length() - 1
                    other = pivots.get(low)
                    if other is None:
                        pivots[low] = mask
                        break
                    if type(other) is tuple:
                        other = pivots[low] = _mask(other)
                    mask ^= other
            return set(pivots)
        for j, col in enumerate(zip(self.rows, self.values)):
            if not col[0] or j in skip:
                continue
            low = col[0][0]
            if low not in pivots:
                pivots[low] = col
                continue
            vec = dict(zip(*col))
            while vec:
                low = max(vec)
                other = pivots.get(low)
                if other is None:
                    inv = pow(vec[low], -1, p)
                    pivots[low] = {i: v * inv % p for i, v in vec.items()}
                    break
                if type(other) is tuple:
                    inv = pow(other[1][0], -1, p)  # the value in the lowest row
                    other = pivots[low] = {i: v * inv % p for i, v in zip(*other)}
                c = vec[low]
                for i, v in other.items():
                    # v and c are units, so w == 0 only where vec has row i
                    w = (vec.get(i, 0) - c * v) % p
                    if w:
                        vec[i] = w
                    else:
                        del vec[i]
        return set(pivots)


def _mask(rows: tuple) -> int:
    """The int whose set bits are the given distinct rows; one shift by the
    least row keeps the summands small."""
    lo = min(rows)
    mask = 0
    for i in rows:
        mask |= 1 << (i - lo)
    return mask << lo


@dataclass
class ChainComplexModP:
    """Graded boundary matrices over Z_p, augmented in degree -1.

    ``boundaries[d]`` maps degree d to degree d-1, with ``boundaries[0]``
    the 1-row augmentation sending every 0-cell to the point class; the
    cell counts ``dims`` are read off their column counts.

    All boundary ranks are computed together, on first use, top degree down
    with clearing: a d-cell that is a pivot row of the reduced
    ``boundaries[d+1]`` is the lowest cell of a boundary, hence of a cycle,
    so its column of ``boundaries[d]`` lies in the span of the earlier ones
    and is skipped.  This assumes ``boundaries[d] @ boundaries[d+1] == 0``,
    and that each column lists its lowest row first; the assembler
    guarantees both, and ``verify()`` checks them.
    """

    p: int
    boundaries: list[ModMatrix]

    @property
    def dims(self) -> list[int]:
        return [mat.ncols for mat in self.boundaries]

    @property
    def top_dim(self) -> int:
        return len(self.boundaries) - 1

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Ranks of ``boundaries[0..top]``, reduced with clearing."""
        ranks = []
        cleared = frozenset()
        for mat in reversed(self.boundaries):
            cleared = mat.pivot_rows(skip=cleared)
            ranks.append(len(cleared))
        return tuple(reversed(ranks))

    def verify(self) -> None:
        """Assert row counts chain, columns list their lowest row first, and
        consecutive boundaries compose to zero (augmentation included)."""
        nrows = 1
        for d, mat in enumerate(self.boundaries):
            if mat.nrows != nrows:
                raise AssertionError(f"boundary {d} has {mat.nrows} rows, not {nrows}")
            if any(rows and rows[0] != max(rows) for rows in mat.rows):
                raise AssertionError(f"boundary {d} has a column whose lowest row is not first")
            nrows = mat.ncols
        for d in range(self.top_dim):
            if not self.boundaries[d].composes_to_zero(self.boundaries[d + 1]):
                raise AssertionError(f"boundary composition {d} o {d + 1} is nonzero")


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers over Z_p, degrees 0..top."""

    p: int
    betti: tuple[int, ...]

    def first_nonzero_degree(self):
        for d, b in enumerate(self.betti):
            if b:
                return d
        return None


@dataclass(frozen=True)
class HConn:
    """Homological connectivity: the honest value, or a lower bound when
    reduced homology vanishes through the top dimension (the complex may be
    more connected than Z_p homology can certify).  -2 is the empty complex.
    """

    value: int
    is_lower_bound: bool = False

    def __str__(self):
        return f">= {self.value}" if self.is_lower_bound else str(self.value)


def chain_complex(complex_: SimplicialComplex, p: int) -> ChainComplexModP:
    """Simplicial chain complex with the standard alternating-sign boundary
    in the canonical vertex order, augmented over Z_p."""
    # a simplex is the 1-factor cell (face,), and its face is its key
    graded = [{(d + 1,): (range(len(fs)), fs)}
              for d, fs in enumerate(map(complex_.faces_of_dim, range(complex_.dim + 1)))]
    return _assemble(graded, p)


def cellular_chain_complex(product: ProductCellComplex, p: int) -> ChainComplexModP:
    """Cellular chain complex of a product-cell complex.

    The boundary of a cell is the signed sum over factors of the simplicial
    boundary of that factor, the sign of factor i being (-1) to the total
    dimension of the preceding factors; summands whose factor would become
    empty are dropped, so 0-dimensional factors contribute nothing.
    """
    graded: list[dict] = [{} for _ in range(product.dim + 1)]
    for d, groups in enumerate(graded):
        for row, cell in enumerate(product.cells_of_dim(d)):
            rows, keys = groups.setdefault(tuple(map(len, cell)), ([], []))
            rows.append(row)
            keys.append(tuple(itertools.chain.from_iterable(cell)))
    return _assemble(graded, p)


def _assemble(graded, p: int) -> ChainComplexModP:
    """Augmented chain complex over Z_p of cells given degree by degree, a
    degree as ``{shape: (rows, keys)}`` with each shape's rows ascending.

    A cell is a tuple of factors, each a sorted tuple of base vertices, and
    a simplex the 1-factor cell ``(face,)``.  Its shape is the tuple of its
    factor lengths and its key its factors concatenated, distinct among the
    cells of one shape.  Dropping position pos, in factor i, has sign
    (-1)**(pos - i): (-1) to the position in the factor times (-1) to the
    dimension of the factors before it.  A summand whose factor would
    become empty is dropped.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    boundaries = []
    lower: dict[tuple, dict] = {}  # per shape one degree down, the row of each key
    for groups in graded:
        index, cols, values = {}, [], []
        try:
            for shape, (rows, keys) in groups.items():
                index[shape] = dict(zip(keys, rows))
                # the boundary of degree 0 is the augmentation
                faces, signs = _columns(shape, keys, lower, p) if boundaries else ([(0,)] * len(rows), (1,))
                cols += faces
                values += [signs] * len(faces)
        except KeyError:
            # a face of the cell is not among the cells one degree down
            raise ValueError("complex is not closed under taking faces") from None
        if len(groups) > 1:  # the rows of one shape ascend, but not of several
            order = itertools.chain.from_iterable(rows for rows, _ in groups.values())
            _, cols, values = map(list, zip(*sorted(zip(order, cols, values))))
        boundaries.append(ModMatrix(boundaries[-1].ncols if boundaries else 1, p, cols, values))
        lower = index
    return ChainComplexModP(p, boundaries)


def _columns(shape: tuple, keys: list, lower: dict, p: int) -> tuple[list, tuple]:
    """The boundary columns of one shape's cells (see ``_assemble``) as row
    tuples, and the values tuple they share, a vertex position at a time.
    Rows follow the sorted cells, so with sorted factors a cell's first face,
    which drops the least vertex of its first factor of two or more, is its
    lowest row."""
    positions = _positions(keys, sum(shape))
    faces, signs, pos = [], [], 0
    for i, length in enumerate(shape):
        if length > 1:
            if not _ascending(positions[pos:pos + length]):
                raise ValueError("a factor of a cell is not a sorted tuple")
            row_of = lower[shape[:i] + (length - 1,) + shape[i + 1:]].__getitem__
            for t in range(pos, pos + length):
                faces.append(map(row_of, _drop_position(positions, t)))
                signs.append(p - 1 if (t - i) & 1 else 1)
        pos += length
    # per cell, the row of each of its faces; the values are reduced mod p
    return list(zip(*faces)), tuple(signs)


def _as_chain_complex(obj, p: int) -> ChainComplexModP:
    if isinstance(obj, ChainComplexModP):
        if obj.p != p:
            raise ValueError(f"chain complex is over Z_{obj.p}, not Z_{p}")
        return obj
    if isinstance(obj, ProductCellComplex):
        return cellular_chain_complex(obj, p)
    if isinstance(obj, SimplicialComplex):
        return chain_complex(obj, p)
    raise TypeError(f"cannot take homology of {type(obj).__name__}")


def betti(cc: ChainComplexModP) -> BettiProfile:
    """Reduced Betti numbers, ``dims[d] - ranks[d] - ranks[d+1]`` in degree
    d, from the boundary ranks, which are computed with clearing and so
    assume consecutive boundaries compose to zero."""
    ranks = (*cc.ranks, 0)
    return BettiProfile(cc.p, tuple(n - ranks[d] - ranks[d + 1] for d, n in enumerate(cc.dims)))


def betti_numbers(complex_, p: int = 2) -> BettiProfile:
    """Reduced Betti numbers of a simplicial or product-cell complex, or of
    a chain complex already assembled over Z_p."""
    return betti(_as_chain_complex(complex_, p))


def hconn(complex_, p: int = 2) -> HConn:
    """Homological connectivity over Z_p: one less than the first degree of
    the Betti profile with nonzero homology."""
    cc = _as_chain_complex(complex_, p)
    if not cc.boundaries:
        return HConn(-2)
    d = betti(cc).first_nonzero_degree()
    if d is None:
        return HConn(cc.top_dim, is_lower_bound=True)
    return HConn(d - 1)
