import gc
import random
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
    betti,
    betti_numbers,
    cellular_chain_complex,
    chain_complex,
    hconn,
)

from oracles import (
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
    chain_complex(c, p).verify()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("c", CELLULAR_SUITE)
def test_boundary_squares_to_zero_cellular(c, p):
    cellular_chain_complex(c, p).verify()


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
    row = {c: i for i, c in enumerate(dp.cells_of_dim(1))}.__getitem__
    j = dp.cells_of_dim(2).index(((0, 1), (2, 3), (4,)))
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


@pytest.mark.parametrize(
    "complex_",
    [
        SimplicialComplex(3, [(0, 1, 2)], closed=True),
        SimplicialComplex(3, [(0,), (1,), (2,), (0, 1), (0, 1, 2)], closed=True),
        ProductCellComplex(full_simplex(1), 2, 2, [((0,), (1,)), ((0, 1), (1,))]),
    ],
    ids=["facet-only", "edges-missing", "product"],
)
@pytest.mark.parametrize("p", [2, 3])
def test_complex_not_closed_under_faces_is_rejected(complex_, p):
    with pytest.raises(ValueError, match="not closed under taking faces"):
        betti_numbers(complex_, p)


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


@pytest.mark.parametrize("p", [2, 3, 5])
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
        col_perm = list(range(base.ncols))
        rng.shuffle(row_perm)
        rng.shuffle(col_perm)
        cols = [None] * base.ncols
        for j, col in enumerate(zip(base.rows, base.values)):
            cols[col_perm[j]] = [(row_perm[i], v) for i, v in zip(*col)]
        assert len(mod_matrix(base.nrows, base.p, cols).pivot_rows()) == expected


# -- column storage ------------------------------------------------------------------


def test_columns_are_stored_as_row_tuples_lowest_row_first():
    # d(i, j) = (j) - (i): the row of (j) first, and over Z_3 -1 is 2
    cc = chain_complex(boundary_simplex(2), 3)
    mat = cc.boundaries[1]
    assert (mat.rows, mat.values) == ([(1, 0), (2, 0), (2, 1)], [(1, 2)] * 3)
    # the columns of one shape share one values tuple
    assert mat.values[0] is mat.values[2]
    assert (mat.nrows, mat.ncols, mat.nnz) == (3, 3, 6)
    # the cell counts are the column counts
    assert cc.dims == [3, 3]


def test_composes_to_zero_reads_rows_and_values():
    # over Z_3 the row (1, 1) takes the column (1, 2) to zero, not (1, 1)
    row = mod_matrix(1, 3, [[(0, 1)], [(0, 1)]])
    assert row.composes_to_zero(mod_matrix(2, 3, [[(0, 1), (1, 2)]]))
    assert not row.composes_to_zero(mod_matrix(2, 3, [[(0, 1), (1, 1)]]))
    with pytest.raises(ValueError, match="do not chain"):
        row.composes_to_zero(mod_matrix(3, 3, [[]]))
    # one sign flipped in an assembled boundary breaks the composition
    cc = chain_complex(chessboard(3, 3), 3)
    d1, d2 = cc.boundaries[1], cc.boundaries[2]
    assert d1.composes_to_zero(d2)
    d2.values[0] = (-d2.values[0][0] % 3, *d2.values[0][1:])  # the lowest row's value
    assert not d1.composes_to_zero(d2)


def test_verify_checks_that_each_column_lists_its_lowest_row_first():
    cc = chain_complex(boundary_simplex(2), 3)
    cc.verify()
    mat = cc.boundaries[1]
    mat.rows[0], mat.values[0] = mat.rows[0][::-1], mat.values[0][::-1]
    with pytest.raises(AssertionError, match="lowest row is not first"):
        cc.verify()


def test_cells_with_an_unsorted_factor_are_rejected():
    # a cell's first face is its lowest row only if every factor is sorted
    edge = ProductCellComplex(full_simplex(1), 1, 2, [((1, 0),), ((0,),), ((1,),)])
    with pytest.raises(ValueError, match="not a sorted tuple"):
        cellular_chain_complex(edge, 2)


def _pivot_rows_by_rank(dense, p, kept):
    """Row i is a pivot row of the reduction exactly when the rows from i
    down have larger rank, over the kept columns, than the rows below i."""
    block = [oracle_rank_mod_p([[r[j] for j in kept] for r in dense[i:]], p)
             for i in range(len(dense) + 1)]
    return {i for i in range(len(dense)) if block[i] > block[i + 1]}


def _dense(nrows, ncols, cols):
    dense = [[0] * ncols for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col:
            dense[i][j] += v
    return dense


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_stored_pivot_is_converted_when_a_later_column_meets_it(p):
    two = 2 if p > 2 else 1
    # column 0 becomes the pivot of row 3 as stored, with 2 there over odd
    # p; column 1 meets it, so it is converted and scaled, and ends as the
    # pivot of row 2, which column 2 meets; column 3 is a pivot nothing
    # meets, and column 4 meets column 0 once it is converted
    cols = [[(3, two), (0, 1)], [(3, 1), (2, 1)], [(2, two), (0, p - 1)], [(1, 1)], [(3, 1), (0, 1)]]
    mat = mod_matrix(4, p, cols)
    dense = _dense(4, len(cols), cols)
    assert len(mat.pivot_rows()) == oracle_rank_mod_p(dense, p)
    for skip in ([], [0], [1], [0, 3]):
        kept = [j for j in range(len(cols)) if j not in skip]
        assert mat.pivot_rows(frozenset(skip)) == _pivot_rows_by_rank(dense, p, kept)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pivot_rows_where_many_columns_share_a_lowest_row(p):
    # most columns end in one of the last two rows, so most pivots are met,
    # some long after they were stored; entries are given in any order
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
        skip = frozenset(j for j in range(ncols) if rng.random() < 0.25)
        kept = [j for j in range(ncols) if j not in skip]
        assert mat.pivot_rows(skip) == _pivot_rows_by_rank(dense, p, kept)


def test_chain_complex_holds_one_row_tuple_per_column():
    # the columns of a shape share one values tuple, so beyond its complex
    # the chain complex holds about 4.3 MiB here; a dict per column held 9.9
    c = chessboard(6, 7)
    gc.collect()
    tracemalloc.start()
    try:
        cc = chain_complex(c, 2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cc.dims == [42, 630, 4200, 12600, 15120, 5040]
    assert held < 6 * 2**20


def test_profile_instances_keep_their_cell_and_nonzero_counts():
    # the figures a benchmark reads from the library for these four: the
    # cells of the complexes and the nonzeros of their boundaries
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
        nnz += sum(mat.nnz for mat in assemble(cx, p).boundaries)
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


def test_import_loads_no_numpy(fresh_python):
    # tverlab has no runtime dependencies; a fresh interpreter that loads
    # every public name shows it
    code = "from tverlab import *; import sys; assert 'numpy' not in sys.modules"
    proc = fresh_python("-c", code)
    assert proc.wait(timeout=60) == 0, proc.stderr.read()
