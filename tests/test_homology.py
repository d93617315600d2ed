import gc
import json
import random
import sys
import tracemalloc

import pytest

from tverlab.complexes import (
    ProductCellComplex,
    SimplicialComplex,
    boundary_simplex,
    chessboard,
    deleted_join,
    deleted_product,
    discrete_points,
    full_simplex,
    join,
    rainbow_complex,
)
from tverlab.homology import (
    ChainComplexModP,
    ModMatrix,
    betti,
    betti_numbers,
    cellular_chain_complex,
    chain_complex,
    hconn,
)

from oracles import (
    check_chain_complex,
    composes_to_zero,
    mod_matrix,
    oracle_betti,
    oracle_boundary_columns,
    oracle_cellular_betti,
    oracle_rank_mod_p,
    stored_columns,
)


SIMPLICIAL_SUITE = [
    full_simplex(2),
    boundary_simplex(2),
    boundary_simplex(3),
    chessboard(2, 2),
    chessboard(3, 3),
    chessboard(3, 4),
    deleted_join(discrete_points(3), 2, 2),
    join(boundary_simplex(1), boundary_simplex(1)),
    rainbow_complex([2, 2, 2])[0],
]

CELLULAR_SUITE = [
    deleted_product(discrete_points(2), 2, 2),
    deleted_product(full_simplex(1), 2, 2),
    deleted_product(boundary_simplex(2), 2, 2),
    deleted_product(boundary_simplex(3), 2, 2),
    deleted_product(rainbow_complex([2, 2])[0], 2, 2),
]


# -- chain complex structure -----------------------------------------------------


# several cell shapes, the lengths of the factors, share one degree: in
# degree 2, ((0, 1, 2), (3,), (4,)) and ((0, 1), (2, 3), (4,)), among others
MIXED_SHAPES = deleted_product(full_simplex(4), 3, 2)


def test_mixed_shapes_product_has_several_shapes_in_a_degree():
    shapes = {tuple(map(len, cell)) for cell in MIXED_SHAPES.cells_of_dim(2)}
    assert len(shapes) == 6


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("c", SIMPLICIAL_SUITE + CELLULAR_SUITE + [MIXED_SHAPES])
def test_boundary_columns_match_the_per_cell_oracle(c, p):
    if isinstance(c, ProductCellComplex):
        cc = cellular_chain_complex(c, p)
    else:
        cc = chain_complex(c, p)
    expected = oracle_boundary_columns(c, p)
    assert stored_columns(cc) == expected
    assert [mat.nrows for mat in cc.boundaries] == [1, *cc.dims[:-1]]
    assert [mat.nnz for mat in cc.boundaries] == [sum(map(len, cols)) for cols in expected]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("c", SIMPLICIAL_SUITE)
def test_boundary_squares_to_zero_simplicial(c, p):
    check_chain_complex(chain_complex(c, p))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("c", CELLULAR_SUITE)
def test_boundary_squares_to_zero_cellular(c, p):
    check_chain_complex(cellular_chain_complex(c, p))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("c", SIMPLICIAL_SUITE)
def test_one_factor_product_assembles_like_the_simplicial_complex(c, p):
    # a simplex is the 1-factor product cell (face,)
    product = ProductCellComplex(c, 1, 2, [(f,) for f in c.faces()])
    cellular, simplicial = cellular_chain_complex(product, p), chain_complex(c, p)
    assert cellular.dims == simplicial.dims
    for a, b in zip(cellular.boundaries, simplicial.boundaries):
        assert (a.nrows, a.rows, a.values) == (b.nrows, b.rows, b.values)


def test_cellular_boundary_follows_the_graded_leibniz_rule():
    # other sign conventions also square to zero and give the same Betti
    # numbers, so the documented one is pinned entry by entry, over Z_3
    # where -1 and 1 differ
    dp = deleted_product(full_simplex(3), 3, 2)
    assert stored_columns(cellular_chain_complex(dp, 3)) == oracle_boundary_columns(dp, 3)
    # d((0,1) x (2,3) x (4,)) = (1)x(23)x(4) - (0)x(23)x(4) - (01)x(3)x(4) + (01)x(2)x(4)
    dp = deleted_product(full_simplex(4), 3, 2)
    cc = cellular_chain_complex(dp, 3)
    # each degree's cells are numbered from the end of the store
    row = {c: i for i, c in enumerate(reversed(dp.cells_of_dim(1)))}.__getitem__
    j = dp.cells_of_dim(2)[::-1].index(((0, 1), (2, 3), (4,)))
    d2 = cc.boundaries[2]
    assert dict(zip(d2.rows[j], d2.values[j])) == {
        row(((1,), (2, 3), (4,))): 1,
        row(((0,), (2, 3), (4,))): 2,
        row(((0, 1), (3,), (4,))): 2,
        row(((0, 1), (2,), (4,))): 1,
    }


def test_chain_complex_rejects_composite_modulus():
    with pytest.raises(ValueError):
        chain_complex(full_simplex(1), 4)
    with pytest.raises(ValueError):
        cellular_chain_complex(deleted_product(discrete_points(2), 2, 2), 6)


def test_a_chain_complex_is_made_only_from_a_complex():
    # the cells by shape that the constructor used to take unchecked: with
    # the edge key (2, 0) this triangle's boundary had Betti numbers (0, 0)
    # over Z_3, where the circle has (0, 1)
    cells = [{(1,): (range(3), [(0,), (1,), (2,)])}, {(2,): (range(3), [(0, 1), (2, 0), (1, 2)])}]
    with pytest.raises(TypeError, match="cannot take homology of list"):
        ChainComplexModP(3, cells)
    with pytest.raises(ValueError, match="4 is not prime"):
        ChainComplexModP(4, boundary_simplex(2))
    # 3.0 passed as prime, and the reduction failed in pow with a TypeError
    with pytest.raises(ValueError, match="3.0 is not an integer"):
        ChainComplexModP(3.0, boundary_simplex(2))


def test_a_chain_complex_with_cached_ranks_cannot_be_re_pointed():
    # when it could, the 2x2 board under the ranks of the 3x4 board read
    # (-8, -32), where its profile is (1, 0)
    cc = chain_complex(chessboard(3, 4), 3)
    before = betti(cc)
    with pytest.raises(AttributeError):
        cc.complex_ = chessboard(2, 2)
    with pytest.raises(AttributeError):
        cc.p = 2
    assert betti(cc) == before == betti(chain_complex(chessboard(3, 4), 3))


@pytest.mark.parametrize("c", [chessboard(3, 3), MIXED_SHAPES], ids=["simplicial", "product"])
def test_both_constructors_take_either_kind_of_complex(c):
    a, b = chain_complex(c, 3), cellular_chain_complex(c, 3)
    assert a.dims == b.dims == list(c.f_vector)
    assert a.ranks == b.ranks
    assert ([(m.nrows, m.rows, m.values) for m in a.boundaries]
            == [(m.nrows, m.rows, m.values) for m in b.boundaries])


def test_a_chain_complex_holds_no_copy_of_the_cells():
    # the cells are grouped by shape only to assemble a degree; a flattened
    # copy of every cell held 13.3 MiB here
    c = deleted_product(chessboard(3, 4), 3)
    gc.collect()
    tracemalloc.start()
    try:
        cc = cellular_chain_complex(c, 3)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cc.dims == [1320, 9720, 26784, 35424, 23760, 7776, 1056]
    assert held < 2**20


# the constructor closes the faces it is given, so a simplicial store that
# is not closed comes only from the unchecked entry the builders use
@pytest.mark.parametrize(
    "complex_",
    [
        SimplicialComplex._from_graded(3, {2: ((0, 1, 2),)}, range(3)),
        SimplicialComplex._from_graded(3, {0: ((0,), (1,), (2,)), 1: ((0, 1),), 2: ((0, 1, 2),)},
                                       range(3)),
    ],
    ids=["facet-only", "edges-missing"],
)
@pytest.mark.parametrize("p", [2, 3])
def test_complex_not_closed_under_faces_is_rejected(complex_, p):
    with pytest.raises(ValueError, match="not closed under taking faces"):
        betti_numbers(complex_, p)
    # the faces of cleared cells are never looked up, so the product's
    # constructor refuses a cell set that is not closed
    with pytest.raises(ValueError, match=r"face \(\(1,\), \(1,\)\), which is not a cell: "
                                         "the cells are not closed under taking faces"):
        ProductCellComplex(full_simplex(1), 2, 3, [((0,), (1,)), ((0, 1), (1,))])


@pytest.mark.parametrize("p", [2, 3])
def test_euler_characteristic_identity(p):
    # alternating sum of cell counts equals alternating sum of unreduced Betti
    for c in SIMPLICIAL_SUITE + CELLULAR_SUITE:
        cc = (
            chain_complex(c, p)
            if isinstance(c, SimplicialComplex)
            else cellular_chain_complex(c, p)
        )
        euler_cells = sum((-1) ** d * nd for d, nd in enumerate(cc.dims))
        reduced = betti(cc).betti
        euler_betti = 1 + sum((-1) ** d * b for d, b in enumerate(reduced))
        assert euler_cells == euler_betti


# -- simplicial homology values --------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_full_simplices_are_acyclic(dim, p):
    profile = betti_numbers(full_simplex(dim), p)
    assert all(b == 0 for b in profile.betti)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_boundary_simplex_is_a_sphere(dim, p):
    profile = betti_numbers(boundary_simplex(dim), p)
    expected = [0] * (dim - 1) + [1]
    assert list(profile.betti) == expected


def test_chessboard_2x2_has_two_components():
    assert betti_numbers(chessboard(2, 2), 2).betti == (1, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_chessboard_3x3_betti(p):
    # 9 vertices, 18 edges, 6 triangles; every edge lies in exactly one
    # triangle, so the top boundary has full rank and the complex is a
    # wedge of four circles up to homology
    assert betti_numbers(chessboard(3, 3), p).betti == (0, 4, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_chessboard_4x4_betti(p):
    assert betti_numbers(chessboard(4, 4), p).betti == (0, 0, 15, 0)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "c",
    [
        chessboard(2, 3),
        chessboard(3, 3),
        boundary_simplex(3),
        deleted_join(discrete_points(3), 2, 2),
        join(discrete_points(2), discrete_points(3)),
    ],
)
def test_betti_matches_independent_oracle(c, p):
    assert list(betti_numbers(c, p).betti) == oracle_betti(c, p)


# -- cellular homology values -----------------------------------------------------


def test_product_of_two_points_has_one_reduced_component():
    dp = deleted_product(discrete_points(2), 2, 2)
    assert betti_numbers(dp, 2).betti == (1,)


def test_product_of_solid_edge_is_two_isolated_cells():
    dp = deleted_product(full_simplex(1), 2, 2)
    assert betti_numbers(dp, 2).betti == (1,)


def test_product_of_triangle_boundary_is_a_circle():
    dp = deleted_product(boundary_simplex(2), 2, 2)
    # hand enumeration: six vertex-vertex cells and six vertex-edge cells
    assert dp.f_vector == (6, 6)
    zero_cells = {
        ((a,), (b,)) for a in range(3) for b in range(3) if a != b
    }
    one_cells = set()
    for a in range(3):
        rest = tuple(v for v in range(3) if v != a)
        one_cells.add(((a,), rest))
        one_cells.add((rest, (a,)))
    assert set(dp.cells(0)) == zero_cells
    assert set(dp.cells(1)) == one_cells
    assert betti_numbers(dp, 2).betti == (0, 1)
    assert betti_numbers(dp, 3).betti == (0, 1)


def test_two_point_configuration_space_of_a_circle():
    # two distinct points on a 4-cycle: homotopy equivalent to a circle
    c4, _ = rainbow_complex([2, 2])
    dp = deleted_product(c4, 2, 2)
    assert betti_numbers(dp, 2).betti == (0, 1, 0)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dp", CELLULAR_SUITE)
def test_cellular_betti_matches_independent_oracle(dp, p):
    assert list(betti_numbers(dp, p).betti) == oracle_cellular_betti(dp, p)


# -- homological connectivity ------------------------------------------------------


def test_hconn_chessboard_2x2():
    h = hconn(chessboard(2, 2), 2)
    assert (h.value, h.is_lower_bound) == (-1, False)


def test_hconn_chessboard_3x3():
    assert hconn(chessboard(3, 3), 2).value == 0


def test_hconn_join_of_two_spheres_is_a_circle():
    j = join(discrete_points(2), discrete_points(2))
    h = hconn(j, 2)
    assert (h.value, h.is_lower_bound) == (0, False)


def test_hconn_point_reports_lower_bound_marker():
    h = hconn(chessboard(1, 1), 2)
    assert h.is_lower_bound and h.value == 0
    assert str(h) == ">= 0"


def test_hconn_empty_complex():
    empty = SimplicialComplex(0, [])
    assert hconn(empty, 2).value == -2


def test_hconn_of_product_complex():
    dp = deleted_product(boundary_simplex(2), 2, 2)
    assert hconn(dp, 2).value == 0  # connected, first homology in degree 1


# -- join homology / Kuenneth -------------------------------------------------------


JOIN_PAIRS = [
    (boundary_simplex(1), boundary_simplex(1)),
    (boundary_simplex(2), boundary_simplex(1)),
    (boundary_simplex(2), boundary_simplex(2)),
    (discrete_points(3), discrete_points(2)),
    (chessboard(2, 2), boundary_simplex(2)),
    (chessboard(3, 3), discrete_points(2)),
    (chessboard(2, 3), boundary_simplex(1)),
]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("a,b", JOIN_PAIRS)
def test_kuenneth_for_joins(a, b, p):
    ba = betti_numbers(a, p).betti
    bb = betti_numbers(b, p).betti
    bj = betti_numbers(join(a, b), p).betti
    top = len(ba) + len(bb)  # dim(join) + 1
    for t in range(top):
        expected = sum(
            ba[i] * bb[t - 1 - i]
            for i in range(len(ba))
            if 0 <= t - 1 - i < len(bb)
        )
        actual = bj[t] if t < len(bj) else 0
        assert actual == expected, f"degree {t}: {actual} != {expected}"


@pytest.mark.parametrize("a,b", JOIN_PAIRS)
def test_join_connectivity_additivity(a, b):
    ha, hb = hconn(a, 2), hconn(b, 2)
    hj = hconn(join(a, b), 2)
    assert not (ha.is_lower_bound or hb.is_lower_bound)
    assert hj.value >= ha.value + hb.value + 2


def test_suspension_of_hexagon_is_a_two_sphere():
    hexagon = deleted_join(discrete_points(3), 2, 2)
    susp = join(hexagon, discrete_points(2))
    assert betti_numbers(susp, 2).betti == (0, 0, 1)


# -- rank engines -------------------------------------------------------------------


def _random_mod_matrix(rng, nrows, ncols, p, density=0.3):
    cols = []
    rows = [[0] * ncols for _ in range(nrows)]
    for j in range(ncols):
        entries = []
        for i in range(nrows):
            if rng.random() < density:
                v = rng.randrange(1, p)
                entries.append((i, v))
                rows[i][j] = v
        cols.append(entries)
    return mod_matrix(nrows, p, cols), rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_engines_agree_with_oracle(p):
    rng = random.Random(p * 101)
    for _ in range(25):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        mat, rows = _random_mod_matrix(rng, nrows, ncols, p)
        assert len(mat.pivot_rows()) == oracle_rank_mod_p(rows, p)
    for c in SIMPLICIAL_SUITE + CELLULAR_SUITE:
        if isinstance(c, SimplicialComplex):
            cc, expected = chain_complex(c, p), oracle_betti(c, p)
        else:
            cc, expected = cellular_chain_complex(c, p), oracle_cellular_betti(c, p)
        # cleared profile against the un-cleared rank of each boundary
        assert cc.ranks == tuple(len(m.pivot_rows()) for m in cc.boundaries)
        assert list(betti(cc).betti) == expected


def test_rank_is_invariant_under_row_and_column_shuffles():
    rng = random.Random(5)
    c = chessboard(3, 3)
    cc = chain_complex(c, 3)
    base = cc.boundaries[2]
    expected = len(base.pivot_rows())
    for _ in range(5):
        row_perm = list(range(base.nrows))
        col_perm = list(range(len(base.rows)))
        rng.shuffle(row_perm)
        rng.shuffle(col_perm)
        cols = [None] * len(base.rows)
        for j, col in enumerate(zip(base.rows, base.values)):
            cols[col_perm[j]] = [(row_perm[i], v) for i, v in zip(*col)]
        assert len(mod_matrix(base.nrows, base.p, cols).pivot_rows()) == expected


# -- column storage ------------------------------------------------------------------


def test_columns_are_stored_as_row_tuples_lowest_row_first():
    # d(i, j) = (j) - (i): the row of (i) first, and over Z_3 -1 is 2; the
    # cells of a degree are numbered from the end of the store, so the
    # columns are the edges (1, 2), (0, 2), (0, 1) and the rows the
    # vertices (2,), (1,), (0,)
    cc = chain_complex(boundary_simplex(2), 3)
    mat = cc.boundaries[1]
    assert (mat.rows, mat.values) == ([(1, 0), (2, 0), (2, 1)], [(2, 1)] * 3)
    # the columns of one shape share one values tuple
    assert mat.values[0] is mat.values[2]
    assert (mat.nrows, len(mat.rows), mat.nnz) == (3, 3, 6)
    # the cell counts are the column counts
    assert cc.dims == [3, 3]


def test_composes_to_zero_reads_rows_and_values():
    # over Z_3 the row (1, 1) takes the column (1, 2) to zero, not (1, 1)
    row = mod_matrix(1, 3, [[(0, 1)], [(0, 1)]])
    assert composes_to_zero(row, mod_matrix(2, 3, [[(0, 1), (1, 2)]]))
    assert not composes_to_zero(row, mod_matrix(2, 3, [[(0, 1), (1, 1)]]))
    with pytest.raises(ValueError, match="do not chain"):
        composes_to_zero(row, mod_matrix(3, 3, [[]]))
    # one sign flipped in an assembled boundary breaks the composition
    cc = chain_complex(chessboard(3, 3), 3)
    d1, d2 = cc.boundaries[1], cc.boundaries[2]
    assert composes_to_zero(d1, d2)
    d2.values[0] = (-d2.values[0][0] % 3, *d2.values[0][1:])  # the lowest row's value
    assert not composes_to_zero(d1, d2)


def test_verify_checks_that_row_counts_chain():
    # check_chain_complex checks the row counts before the compositions,
    # whose shape check would raise ValueError instead
    cc = chain_complex(boundary_simplex(2), 3)
    cc.boundaries[1].nrows += 1
    with pytest.raises(AssertionError, match="boundary 1 has 4 rows, not 3"):
        check_chain_complex(cc)


def test_verify_checks_that_consecutive_boundaries_compose_to_zero():
    cc = chain_complex(chessboard(3, 3), 3)
    d2 = cc.boundaries[2]
    d2.values[0] = (-d2.values[0][0] % 3, *d2.values[0][1:])  # the lowest row's value
    with pytest.raises(AssertionError, match="composition 1 o 2 is nonzero"):
        check_chain_complex(cc)


def test_verify_checks_that_each_column_lists_its_lowest_row_first():
    cc = chain_complex(boundary_simplex(2), 3)
    check_chain_complex(cc)
    mat = cc.boundaries[1]
    mat.rows[0], mat.values[0] = mat.rows[0][::-1], mat.values[0][::-1]
    with pytest.raises(AssertionError, match="lowest row is not first"):
        check_chain_complex(cc)


def test_cells_with_an_unsorted_factor_are_rejected():
    # a cell's first face is its lowest row only if every factor is sorted
    with pytest.raises(ValueError, match="not a sorted tuple"):
        ProductCellComplex(full_simplex(1), 1, 2, [((1, 0),), ((0,),), ((1,),)])


def test_a_cell_with_an_empty_factor_is_rejected():
    # ((), (0,)) would be graded in degree -1, below every cell, and be
    # counted by cell_count but not by f_vector or the Betti numbers
    with pytest.raises(ValueError, match="empty factor"):
        ProductCellComplex(full_simplex(1), 2, 2, [((), (0,)), ((0,), (1,))])


@pytest.mark.parametrize(
    "cells,message",
    [
        ([((0,),), ((0,), (1,))], r"\(\(0,\),\) does not have 2 factors"),
        ([((0,), (1,), (0,))], r"\(\(0,\), \(1,\), \(0,\)\) does not have 2 factors"),
        ([((0,), (5,))], r"\(\(0,\), \(5,\)\) has a factor that is not a face of the base"),
        ([((0,), (0,)), ((0,), (1,))], r"\(\(0,\), \(0,\)\) has a vertex in 2 or more factors"),
        ([[[0], [1]], [[1], [0]]], r"cell \[\[0\], \[1\]\] is not a tuple"),
        ([((0,), [1])], r"cell \(\(0,\), \[1\]\) has a factor that is not a sorted tuple"),
    ],
    ids=["too-few-factors", "too-many-factors", "vertex-outside-the-base", "vertex-in-k-factors",
         "cell-of-lists", "factor-a-list"],
)
def test_a_cell_that_is_no_cell_of_the_product_is_rejected(cells, message):
    # each would be stored and given homology: the first reported f_vector
    # (2,) and Betti numbers (1,) for a set that is no 2-fold product
    with pytest.raises(ValueError, match=message):
        ProductCellComplex(full_simplex(1), 2, 2, cells)


def test_a_vertex_may_lie_in_fewer_than_k_factors():
    # ((0,), (0,)) is no cell of the 2-wise deleted product, but one of the
    # 3-wise one, where only three factors sharing a vertex are excluded
    p = ProductCellComplex(full_simplex(1), 2, 3, [((0,), (0,)), ((0,), (1,))])
    assert p.cells_of_dim(0) == (((0,), (0,)), ((0,), (1,)))
    assert betti_numbers(p, 2).betti == (1,)  # reduced: two points


def test_homology_of_what_is_not_a_complex_is_a_type_error():
    with pytest.raises(TypeError, match="cannot take homology of str"):
        betti_numbers("x")


def test_cells_with_an_unsorted_later_factor_are_rejected():
    # the sortedness check covers every factor of a product cell, not only
    # a cell's first: here the faces of (1, 0) are all cells one degree down
    cells = [((0,), (1, 0)), ((0,), (0,)), ((0,), (1,))]
    with pytest.raises(ValueError, match="not a sorted tuple"):
        cellular_chain_complex(ProductCellComplex(full_simplex(1), 2, 3, cells), 2)


def _pivot_rows_by_rank(dense, p, kept):
    """Row i is a pivot row of the reduction exactly when the rows from i
    down have larger rank, over the kept columns, than the rows below i."""
    block = [oracle_rank_mod_p([[r[j] for j in kept] for r in dense[i:]], p)
             for i in range(len(dense) + 1)]
    return {i for i in range(len(dense)) if block[i] > block[i + 1]}


def _kept(mat, kept):
    """The matrix of the columns ``kept`` of ``mat``, as clearing leaves them."""
    return ModMatrix(mat.nrows, mat.p, [mat.rows[j] for j in kept], [mat.values[j] for j in kept])


def _dense(nrows, ncols, cols):
    dense = [[0] * ncols for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col:
            dense[i][j] += v
    return dense


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_stored_pivot_is_reduced_against_as_stored(p):
    two = 2 if p > 2 else 1
    # column 0 becomes the pivot of row 3 as stored, with 2 there over odd
    # p; column 1 meets it as stored, scaled by the inverse of that 2, and
    # ends as the pivot of row 2, which column 2 meets; column 3 is a pivot
    # nothing meets, and column 4 meets column 0, still as stored
    cols = [[(3, two), (0, 1)], [(3, 1), (2, 1)], [(2, two), (0, p - 1)], [(1, 1)], [(3, 1), (0, 1)]]
    mat = mod_matrix(4, p, cols)
    dense = _dense(4, len(cols), cols)
    assert len(mat.pivot_rows()) == oracle_rank_mod_p(dense, p)
    for skip in ([], [0], [1], [0, 3]):
        kept = [j for j in range(len(cols)) if j not in skip]
        assert _kept(mat, kept).pivot_rows() == _pivot_rows_by_rank(dense, p, kept)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_stored_pivot_is_met_by_three_later_columns(p):
    two = 2 if p > 2 else 1
    # column 0 is the pivot of row 2 as stored, with 2 there over odd p;
    # columns 1 and 2 meet it at once, and column 4 only after column 3,
    # the stored pivot of row 4, has filled row 2 in
    cols = [[(2, two), (0, 1)], [(2, 1), (1, 1)], [(2, p - 1), (1, 1), (0, 1)],
            [(4, 1), (2, two)], [(4, 1), (0, 1)]]
    mat = mod_matrix(5, p, cols)
    dense = _dense(5, len(cols), cols)
    assert len(mat.pivot_rows()) == oracle_rank_mod_p(dense, p)
    for skip in ([], [1], [2], [1, 2], [0]):
        kept = [j for j in range(len(cols)) if j not in skip]
        assert _kept(mat, kept).pivot_rows() == _pivot_rows_by_rank(dense, p, kept)


@pytest.mark.parametrize("complex_,p", [
    (chessboard(6, 7), 2),
    (deleted_product(chessboard(3, 3), 3), 3),
], ids=["chessboard-6x7-z2", "dp-chessboard-3x3-z3"])
def test_pivot_rows_does_not_write_its_input(complex_, p):
    # later columns read a stored pivot as stored, so a write into one
    # would corrupt every column after it
    for mat in chain_complex(complex_, p).boundaries:
        rows, values = list(mat.rows), list(mat.values)
        first = mat.pivot_rows()
        assert mat.pivot_rows() == first
        assert mat.rows == rows
        assert mat.values == values


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pivot_rows_where_many_columns_share_a_lowest_row(p):
    # most columns end in one of the last two rows, so most pivots are met,
    # some long after they were stored; entries are given in any order.
    # A reduced pivot keeps its lowest value, which over Z_7 is mostly not
    # its own inverse
    rng = random.Random(11 * p)
    for _ in range(40):
        nrows, ncols = rng.randint(2, 9), rng.randint(1, 14)
        cols = []
        for _ in range(ncols):
            low = nrows - rng.randint(1, 2)
            col = [(low, rng.randrange(1, p))]
            col += [(i, rng.randrange(1, p)) for i in range(low) if rng.random() < 0.4]
            rng.shuffle(col)
            cols.append(col)
        mat = mod_matrix(nrows, p, cols)
        dense = _dense(nrows, ncols, cols)
        assert len(mat.pivot_rows()) == oracle_rank_mod_p(dense, p)
        kept = [j for j in range(ncols) if rng.random() >= 0.25]
        assert _kept(mat, kept).pivot_rows() == _pivot_rows_by_rank(dense, p, kept)


def test_chain_complex_holds_one_row_tuple_per_column():
    # the columns of a shape share one values tuple, so beyond its complex
    # the boundaries hold about 4.3 MiB here; a dict per column held 9.9
    c = chessboard(6, 7)
    gc.collect()
    tracemalloc.start()
    try:
        cc = chain_complex(c, 2)
        boundaries = cc.boundaries
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cc.dims == [42, 630, 4200, 12600, 15120, 5040]
    assert [len(mat.rows) for mat in boundaries] == cc.dims
    assert held < 6 * 2**20


def test_betti_assembles_a_degree_at_a_time_and_drops_it():
    # each boundary is assembled only for the cells clearing leaves, and
    # goes once reduced: beyond its complex the Betti profile peaked at
    # 8.5 MiB here when every boundary was assembled first, 3.5 MiB now
    c = deleted_join(rainbow_complex([3, 3, 3])[0], 3)
    gc.collect()
    tracemalloc.start()
    try:
        profile = betti(chain_complex(c, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.betti == (0, 0, 0, 0, 0, 64, 0, 0, 0)
    assert peak < 7 * 2**20


def test_betti_reduces_against_stored_pivots_without_copies():
    # a pivot is read as the assembler stored it: beyond its complex the
    # Betti profile peaked at 9.1 MiB here when a pivot was kept as a bit
    # mask once a later column met it, 6.4 MiB now.  And a column pivots on
    # the face without the last vertex of its first factor of two or more,
    # the least face in the store: the profile peaked at 10.95 MiB when it
    # pivoted on the greatest face
    c = chessboard(6, 7)
    gc.collect()
    tracemalloc.start()
    try:
        profile = betti(chain_complex(c, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.betti == (0, 0, 0, 0, 1092, 1)
    assert peak < 7.5 * 2**20


def test_betti_over_z3_stores_reduced_pivots_as_columns():
    # a reduced pivot over odd p is a row tuple beside a value tuple, as the
    # assembler stores a column: beyond its complex the Betti profile peaked
    # at 7.3 MiB here when it was a {row: value} dict, 5.0 MiB now
    c = chessboard(6, 7)
    gc.collect()
    tracemalloc.start()
    try:
        profile = betti(chain_complex(c, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.betti == (0, 0, 0, 1, 1093, 1)
    assert peak < 6 * 2**20


def test_profile_instances_keep_their_cell_and_nonzero_counts():
    # the figures a benchmark reads from the library for these four: the
    # cells of the complexes and the nonzeros of their boundaries, read
    # after the Betti profile, as a traced benchmark pass reads them
    instances = [
        (chessboard(6, 7), 2),
        (deleted_join(rainbow_complex([3, 2, 2])[0], 3), 3),
        (deleted_product(chessboard(3, 3), 3), 3),
        (deleted_join(rainbow_complex([3, 3, 3])[0], 3), 2),
    ]
    cells = nnz = 0
    for cx, p in instances:
        cells += sum(cx.f_vector)
        assemble = cellular_chain_complex if isinstance(cx, ProductCellComplex) else chain_complex
        cc = assemble(cx, p)
        betti(cc)
        nnz += sum(mat.nnz for mat in cc.boundaries)
    assert (cells, nnz) == (92_214, 452_841)


def test_betti_of_chessboard_5x5_differs_between_primes():
    # the bottom homology of the 5x5 board is pure 3-torsion: invisible
    # over Z_2, a one-dimensional class over Z_3
    c = chessboard(5, 5)
    assert betti_numbers(c, 2).betti == (0, 0, 0, 56, 0)
    assert betti_numbers(c, 3).betti == (0, 0, 1, 57, 0)
    assert hconn(c, 2).value == 2
    assert hconn(c, 3).value == 1


def test_betti_is_exact_for_primes_whose_products_overflow_int64():
    p = 3037000507  # the first prime above sqrt(2**63)
    assert betti_numbers(boundary_simplex(2), p).betti == (0, 1)
    assert betti_numbers(chessboard(3, 3), p).betti == (0, 4, 0)


def test_prebuilt_chain_complex_over_another_prime_is_rejected():
    cc = chain_complex(chessboard(3, 3), 3)
    with pytest.raises(ValueError):
        hconn(cc, 2)
    with pytest.raises(ValueError):
        betti_numbers(cc, 2)
    assert hconn(cc, 3).value == 0
    assert betti_numbers(cc, 3).betti == (0, 4, 0)


# the top-level modules that importing every tverlab module adds to a fresh
# interpreter; the baseline is taken first, since site may already have
# loaded third-party modules (certifi, _distutils_hack) of its own
NEW_TOP_LEVEL_MODULES = """
import json, sys
before = set(sys.modules)
import tverlab.cli, tverlab.complexes, tverlab.homology, tverlab.bounds, tverlab.geometry
import tverlab.records
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_import_loads_only_the_standard_library(fresh_python):
    # tverlab has no runtime dependency
    out, err = fresh_python("-c", NEW_TOP_LEVEL_MODULES).communicate(timeout=60)
    added = json.loads(out)
    assert "tverlab" in added, err
    assert [m for m in added if m != "tverlab" and m not in sys.stdlib_module_names] == []


SLOW_IMPORTS_LOADED = """
import sys
import tverlab.cli, tverlab.complexes, tverlab.homology, tverlab.bounds, tverlab.geometry
import tverlab.records
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_import_loads_neither_dataclasses_nor_inspect(fresh_python):
    # importing them cost each cold CLI start 6-8 ms, and the records need
    # neither
    out, err = fresh_python("-c", SLOW_IMPORTS_LOADED).communicate(timeout=60)
    assert out == b"[]\n", err
