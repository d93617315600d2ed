import os
import random
import subprocess
import sys
from pathlib import Path

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
    ModMatrix,
    betti,
    betti_numbers,
    cellular_chain_complex,
    chain_complex,
    hconn,
)

from oracles import oracle_betti, oracle_cellular_betti, oracle_rank_mod_p


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
        assert (a.nrows, a.ncols, a.cols) == (b.nrows, b.ncols, b.cols)


def test_cellular_boundary_follows_the_graded_leibniz_rule():
    # other sign conventions also square to zero and give the same Betti
    # numbers, so the documented one is pinned entry by entry, over Z_3
    # where -1 and 1 differ
    dp = deleted_product(full_simplex(3), 3, 2)
    cc = cellular_chain_complex(dp, 3)
    for d in range(1, dp.dim + 1):
        rows = {c: i for i, c in enumerate(dp.cells_of_dim(d - 1))}
        for j, cell in enumerate(dp.cells_of_dim(d)):
            expected = {}
            before = 0  # the dimension of the factors before factor i
            for i, f in enumerate(cell):
                for t in range(len(f) if len(f) > 1 else 0):
                    face = cell[:i] + (f[:t] + f[t + 1:],) + cell[i + 1:]
                    expected[rows[face]] = (-1) ** (before + t) % 3
                before += len(f) - 1
            assert cc.boundaries[d].cols[j] == expected
    # d((0,1) x (2,3) x (4,)) = (1)x(23)x(4) - (0)x(23)x(4) - (01)x(3)x(4) + (01)x(2)x(4)
    dp = deleted_product(full_simplex(4), 3, 2)
    cc = cellular_chain_complex(dp, 3)
    row = {c: i for i, c in enumerate(dp.cells_of_dim(1))}.__getitem__
    j = dp.cells_of_dim(2).index(((0, 1), (2, 3), (4,)))
    assert cc.boundaries[2].cols[j] == {
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
    mat = ModMatrix(nrows, ncols, p)
    rows = [[0] * ncols for _ in range(nrows)]
    for j in range(ncols):
        entries = []
        for i in range(nrows):
            if rng.random() < density:
                v = rng.randrange(1, p)
                entries.append((i, v))
                rows[i][j] = v
        mat.set_column(j, entries)
    return mat, rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_engines_agree_with_oracle(p):
    rng = random.Random(p * 101)
    for _ in range(25):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        mat, rows = _random_mod_matrix(rng, nrows, ncols, p)
        assert mat.rank() == oracle_rank_mod_p(rows, p)
    for c in SIMPLICIAL_SUITE + CELLULAR_SUITE:
        if isinstance(c, SimplicialComplex):
            cc, expected = chain_complex(c, p), oracle_betti(c, p)
        else:
            cc, expected = cellular_chain_complex(c, p), oracle_cellular_betti(c, p)
        # cleared profile against the un-cleared rank of each boundary
        assert cc.ranks == tuple(m.rank() for m in cc.boundaries)
        assert list(betti(cc).betti) == expected


def test_rank_reduces_constructor_entries_mod_p():
    assert ModMatrix(1, 1, 2, [[(0, 2)]]).rank() == 0
    assert ModMatrix(2, 2, 3, [[(1, 3), (0, 4)], [(0, -2)]]).rank() == 1
    # the values of a repeated row add up
    assert ModMatrix(2, 1, 3, [[(0, 1), (1, 1), (0, 2)]]).cols == [{1: 1}]
    assert ModMatrix(1, 1, 2, [[(0, 1), (0, 1)]]).rank() == 0


def test_rank_is_invariant_under_row_and_column_shuffles():
    rng = random.Random(5)
    c = chessboard(3, 3)
    cc = chain_complex(c, 3)
    base = cc.boundaries[2]
    expected = base.rank()
    for _ in range(5):
        row_perm = list(range(base.nrows))
        col_perm = list(range(base.ncols))
        rng.shuffle(row_perm)
        rng.shuffle(col_perm)
        shuffled = ModMatrix(base.nrows, base.ncols, base.p)
        for j, col in enumerate(base.cols):
            shuffled.set_column(col_perm[j], [(row_perm[i], v) for i, v in col.items()])
        assert shuffled.rank() == expected


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


def test_import_loads_no_numpy():
    # tverlab has no runtime dependencies; a fresh interpreter shows it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import tverlab, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
