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

from dataclasses import dataclass
from functools import cached_property

from .complexes import ProductCellComplex, SimplicialComplex, is_prime


class ModMatrix:
    """Sparse matrix over Z_p stored column-major: each column is a
    ``{row: value}`` dict with values in 1..p-1.

    The constructor and ``set_column`` take a column as ``(row, value)``
    pairs, reduced mod p, with the values of a repeated row added up.
    """

    __slots__ = ("nrows", "ncols", "p", "cols")

    def __init__(self, nrows, ncols, p, cols=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.nrows = nrows
        self.ncols = ncols
        self.p = p
        self.cols = [{} for _ in range(ncols)]
        for j, col in enumerate(cols or ()):
            self.set_column(j, col)

    def set_column(self, j, entries):
        p = self.p
        col: dict[int, int] = {}
        for i, v in entries:
            if v % p:
                if not 0 <= i < self.nrows:
                    raise ValueError(f"row {i} out of range")
                v = (col.get(i, 0) + v) % p
                if v:
                    col[i] = v
                else:
                    del col[i]
        self.cols[j] = col

    @property
    def nnz(self) -> int:
        return sum(map(len, self.cols))

    def composes_to_zero(self, next_boundary: "ModMatrix") -> bool:
        """True iff self @ next_boundary is the zero matrix."""
        if self.ncols != next_boundary.nrows:
            raise ValueError("boundary shapes do not chain")
        for col in next_boundary.cols:
            acc: dict[int, int] = {}
            for r, v in col.items():
                for i, w in self.cols[r].items():
                    acc[i] = (acc.get(i, 0) + v * w) % self.p
            if any(acc.values()):
                return False
        return True

    def pivot_rows(self, skip=frozenset()) -> set[int]:
        """Pivot rows of the column reduction: columns are taken left to
        right, and each is reduced by the earlier pivot columns until its
        lowest (largest-index) nonzero row carries no pivot yet, or it
        vanishes.  Columns whose index is in ``skip`` are left out.

        Over GF(2) a column is an int whose set bits are its rows; over odd p
        it is a ``{row: value}`` dict, and each pivot column is scaled to
        have 1 in its lowest row.  The pivot rows of the reduced columns
        depend only on the span of the columns reduced, and with no ``skip``
        their number is the rank.
        """
        p = self.p
        if p == 2:
            masks: dict[int, int] = {}
            for j, col in enumerate(self.cols):
                if not col or j in skip:
                    continue
                # one shift by the least row keeps the summands small
                lo = min(col)
                mask = 0
                for i in col:
                    mask |= 1 << (i - lo)
                mask <<= lo
                while mask:
                    low = mask.bit_length() - 1
                    other = masks.get(low)
                    if other is None:
                        masks[low] = mask
                        break
                    mask ^= other
            return set(masks)
        pivots: dict[int, dict[int, int]] = {}
        for j, col in enumerate(self.cols):
            if not col or j in skip:
                continue
            vec = dict(col)
            while vec:
                low = max(vec)
                other = pivots.get(low)
                if other is None:
                    inv = pow(vec[low], -1, p)
                    pivots[low] = {i: v * inv % p for i, v in vec.items()}
                    break
                c = vec[low]
                for i, v in other.items():
                    # v and c are units, so w == 0 only where vec has row i
                    w = (vec.get(i, 0) - c * v) % p
                    if w:
                        vec[i] = w
                    else:
                        del vec[i]
        return set(pivots)

    def rank(self) -> int:
        """Exact rank over Z_p, for any matrix."""
        return len(self.pivot_rows())


@dataclass
class ChainComplexModP:
    """Graded boundary matrices over Z_p, augmented in degree -1.

    ``dims[d]`` counts the cells in degree d; ``boundaries[d]`` maps degree d
    to degree d-1, with ``boundaries[0]`` the 1-row augmentation sending every
    0-cell to the point class.

    All boundary ranks are computed together, on first use, top degree down
    with clearing: a d-cell that is a pivot row of the reduced
    ``boundaries[d+1]`` is the lowest cell of a boundary, hence of a cycle,
    so its column of ``boundaries[d]`` lies in the span of the earlier ones
    and is skipped.  This assumes ``boundaries[d] @ boundaries[d+1] == 0``,
    which both assemblers guarantee and ``verify()`` checks.
    """

    p: int
    dims: list[int]
    boundaries: list[ModMatrix]

    @property
    def top_dim(self) -> int:
        return len(self.dims) - 1

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Ranks of ``boundaries[0..top]``, reduced with clearing."""
        ranks = []
        cleared = frozenset()
        for mat in reversed(self.boundaries):
            cleared = mat.pivot_rows(skip=cleared)
            ranks.append(len(cleared))
        return tuple(reversed(ranks))

    def rank_boundary(self, d: int) -> int:
        """Rank of the boundary map leaving degree d (0 above the top)."""
        if d < 0 or d > self.top_dim:
            return 0
        return self.ranks[d]

    def betti_number(self, d: int) -> int:
        if d < 0 or d > self.top_dim:
            return 0
        return self.dims[d] - self.rank_boundary(d) - self.rank_boundary(d + 1)

    def verify(self) -> None:
        """Assert shapes chain correctly and that consecutive boundaries
        compose to zero (augmentation included)."""
        for d in range(self.top_dim + 1):
            mat = self.boundaries[d]
            expect_rows = 1 if d == 0 else self.dims[d - 1]
            if mat.nrows != expect_rows or mat.ncols != self.dims[d]:
                raise AssertionError(f"boundary {d} has shape {mat.nrows}x{mat.ncols}")
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
    graded = [zip(complex_.faces_of_dim(d)) for d in range(complex_.dim + 1)]
    return _assemble(graded, 1, complex_.n_vertices, p)


def cellular_chain_complex(product: ProductCellComplex, p: int) -> ChainComplexModP:
    """Cellular chain complex of a product-cell complex.

    The boundary of a cell is the signed sum over factors of the simplicial
    boundary of that factor, the sign of factor i being (-1) to the total
    dimension of the preceding factors; summands whose factor would become
    empty are dropped, so 0-dimensional factors contribute nothing.
    """
    graded = [product.cells_of_dim(d) for d in range(product.dim + 1)]
    return _assemble(graded, product.n, product.base.n_vertices, p)


def _assemble(graded, n_factors: int, n_vertices: int, p: int) -> ChainComplexModP:
    """Augmented chain complex over Z_p of cells given degree by degree; a
    degree's cells are iterated once, in the order of their rows.

    A cell is a tuple of factors, each a sorted tuple of base vertices; a
    simplex is the 1-factor cell ``(face,)``.  A cell's key is its vertex
    bit mask, vertex v of factor i being bit ``i*n_vertices + v``, so the
    face that drops that vertex has key ``key ^ bit``.  Dropping the vertex
    at position t of factor i has sign (-1)**t times (-1) to the dimension
    of the factors before it, that is (-1)**(pos - i) with pos its position
    in the concatenated factors.  A summand whose factor would become empty
    is dropped.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    alternating = [1, p - 1] * (n_vertices // 2 + 1)
    signs = (alternating, alternating[1:])
    bits = [[1 << (i * n_vertices + v) for v in range(n_vertices)] for i in range(n_factors)]
    dims: list[int] = []
    boundaries: list[ModMatrix] = []
    lower: dict[int, int] = {}
    for cells in graded:
        index: dict[int, int] = {}
        cols = []
        try:
            for cell in cells:
                key = 0
                terms = []  # (bit, sign) of each vertex that may be dropped
                parity = 0  # of the dimension of the factors so far
                for b, f in zip(bits, cell):
                    fbits = list(map(b.__getitem__, f))
                    key += sum(fbits)
                    if len(f) > 1:
                        terms += zip(fbits, signs[parity])
                    parity ^= ~len(f) & 1
                index[key] = len(index)
                # dims is empty in degree 0, whose boundary is the augmentation
                cols.append({lower[key ^ bit]: s for bit, s in terms} if dims else {0: 1})
        except KeyError:
            # a face of the cell is not among the cells one degree down
            raise ValueError("complex is not closed under taking faces") from None
        # the columns are built reduced mod p, so set_column is not needed
        mat = ModMatrix(dims[-1] if dims else 1, 0, p)
        mat.ncols, mat.cols = len(cols), cols
        dims.append(len(cols))
        boundaries.append(mat)
        lower = index
    return ChainComplexModP(p, dims, boundaries)


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
    """Reduced Betti numbers from the boundary ranks, which are computed
    with clearing and so assume consecutive boundaries compose to zero."""
    return BettiProfile(
        cc.p, tuple(cc.betti_number(d) for d in range(cc.top_dim + 1))
    )


def betti_numbers(complex_, p: int = 2) -> BettiProfile:
    """Reduced Betti numbers of a simplicial or product-cell complex, or of
    a chain complex already assembled over Z_p."""
    return betti(_as_chain_complex(complex_, p))


def hconn(complex_, p: int = 2) -> HConn:
    """Homological connectivity over Z_p: one less than the first degree of
    the Betti profile with nonzero homology."""
    cc = _as_chain_complex(complex_, p)
    if not cc.dims:
        return HConn(-2)
    d = betti(cc).first_nonzero_degree()
    if d is None:
        return HConn(cc.top_dim, is_lower_bound=True)
    return HConn(d - 1)
