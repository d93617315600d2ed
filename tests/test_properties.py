"""Property tests: random small complexes against the independent oracles,
the reduced Euler identity, and invariance under relabelling vertices; every
builder's cells, deleted products included, against a rebuild by the
validating constructor; the constructor's closure of caller faces against
every subset of each face; the product constructor's refusal of a cell set
that misses a face; the exact hull LP against a planar oracle; the
rainbow-face order against a product-and-sort oracle; JSON round trips.
The hypothesis profile is set in ``conftest.py``."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tverlab.complexes import (
    Coloring,
    ProductCellComplex,
    SimplicialComplex,
    boundary_simplex,
    chessboard,
    deleted_join,
    deleted_product,
    discrete_points,
    full_simplex,
    join_many,
    rainbow_complex,
)
from tverlab.geometry import ColoredConfiguration, enumerate_rainbow_faces, hulls_intersect
from tverlab.homology import betti, betti_numbers, cellular_chain_complex, chain_complex

from oracles import (
    check_certificate,
    closure_by_subsets,
    deleted_join_by_product,
    deleted_product_by_product,
    oracle_betti,
    oracle_boundary_columns,
    oracle_cellular_betti,
    oracle_hulls_meet_2d,
    rainbow_faces_by_product,
    rebuilt,
    stored_columns,
)


@st.composite
def complexes(draw, max_vertices=7, max_facets=6):
    """A complex on at most ``max_vertices`` vertices, closed downward from
    a few random facets; the last vertices may be left out of every face."""
    n = draw(st.integers(1, max_vertices))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    return SimplicialComplex(n, draw(st.lists(facet, max_size=max_facets)))


@st.composite
def caller_faces(draw):
    """Faces on at most 6 vertices as a caller may give them: unsorted, with
    repeated vertices, empty, given more than once, as lists or tuples."""
    n = draw(st.integers(1, 6))
    face = st.lists(st.integers(0, n - 1), max_size=8)
    faces = draw(st.lists(st.one_of(face, face.map(tuple)), max_size=8))
    if faces:
        faces += draw(st.lists(st.sampled_from(faces), max_size=4))
    return n, draw(st.permutations(faces))


@given(caller_faces())
def test_constructor_closes_caller_faces_as_every_subset(n_faces):
    n, faces = n_faces
    assert list(SimplicialComplex(n, faces).faces()) == closure_by_subsets(faces)


primes = st.sampled_from([2, 3])


def relabelled(c: SimplicialComplex, seed: int) -> SimplicialComplex:
    perm = list(range(c.n_vertices))
    random.Random(seed).shuffle(perm)
    return SimplicialComplex(c.n_vertices, ([perm[v] for v in f] for f in c.faces()))


def reduced_euler_holds(f_vector, betti) -> bool:
    """The reduced Euler identity sum (-1)^d f_d - 1 = sum (-1)^d b_d.  The
    right side runs from degree -1, where only the empty complex has
    homology; the profile starts at degree 0."""
    cells = sum((-1) ** d * f for d, f in enumerate(f_vector))
    below = 0 if f_vector else -1
    return cells - 1 == below + sum((-1) ** d * b for d, b in enumerate(betti))


@given(complexes(), primes, st.integers(0, 2**32))
def test_simplicial_betti_agrees_with_oracle_and_relabelling(c, p, seed):
    cc = chain_complex(c, p)
    cc.verify()
    profile = betti(cc).betti
    assert list(profile) == oracle_betti(c, p)
    assert reduced_euler_holds(c.f_vector, profile)
    assert betti_numbers(relabelled(c, seed), p).betti == profile


@given(
    complexes(max_vertices=4, max_facets=3),
    st.integers(2, 3),
    st.integers(2, 3),
    primes,
    st.integers(0, 2**32),
)
def test_deleted_product_betti_agrees_with_oracle_and_relabelling(base, n, k, p, seed):
    product = deleted_product(base, n, k)
    cc = cellular_chain_complex(product, p)
    cc.verify()
    profile = betti(cc).betti
    assert list(profile) == oracle_cellular_betti(product, p)
    assert reduced_euler_holds(product.f_vector, profile)
    moved = deleted_product(relabelled(base, seed), n, k)
    assert betti_numbers(moved, p).betti == profile


# n copies and a wiseness k in {2, 3, n + 2}, the last above any n faces
copies_and_wiseness = st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from([2, 3, n + 2])))


@given(complexes(max_vertices=4, max_facets=3), copies_and_wiseness)
def test_deleted_join_and_product_agree_with_a_direct_enumeration(base, nk):
    n, k = nk
    assert list(deleted_join(base, n, k).faces()) == deleted_join_by_product(base, n, k)
    assert list(deleted_product(base, n, k).cells()) == deleted_product_by_product(base, n, k)


@given(complexes(), st.sampled_from([2, 3, 5]))
def test_simplicial_boundary_columns_agree_with_oracle(c, p):
    assert stored_columns(chain_complex(c, p)) == oracle_boundary_columns(c, p)


@given(complexes(max_vertices=4, max_facets=3), st.integers(2, 3), st.integers(2, 3),
       st.sampled_from([2, 3, 5]))
def test_cellular_boundary_columns_agree_with_oracle(base, n, k, p):
    product = deleted_product(base, n, k)
    assert stored_columns(cellular_chain_complex(product, p)) == oracle_boundary_columns(product, p)


def single_builds(scale):
    """Complexes from one builder call each, joins and deleted joins aside,
    their sizes bounded by ``scale``."""
    return st.one_of(
        st.builds(discrete_points, st.integers(0, scale + 1)),
        st.builds(full_simplex, st.integers(0, scale)),
        st.builds(boundary_simplex, st.integers(1, scale)),
        st.builds(chessboard, st.integers(1, scale), st.integers(1, scale + 1)),
        st.lists(st.integers(1, scale), min_size=1, max_size=3).map(
            lambda sizes: rainbow_complex(sizes)[0]),
    )


@st.composite
def small_deleted(draw, builder):
    """An n-fold k-wise deleted join or product, as ``builder`` makes it, n
    in {2, 3} and k in 2..n+1, of a small base, since its cells grow as a
    power of the base's faces."""
    base = draw(st.one_of(single_builds(2), complexes(max_vertices=4, max_facets=2)))
    n = draw(st.integers(2, 3))
    return builder(base, n, draw(st.integers(2, n + 1)))


built_complexes = st.one_of(
    single_builds(3),
    st.lists(single_builds(2), min_size=1, max_size=3).map(join_many),
    small_deleted(deleted_join),
)


# a deleted product is drawn beside each complex, so every example has one
@given(built_complexes, small_deleted(deleted_product))
def test_builders_hand_over_canonical_faces(c, product):
    for built, assemble in ((c, chain_complex), (product, cellular_chain_complex)):
        oracle = rebuilt(built)
        # the same cells in the same order, dimension by dimension
        assert list(built._by_dim.items()) == list(oracle._by_dim.items())
        for cells in built._by_dim.values():
            assert all(a < b for a, b in zip(cells, cells[1:]))
        for p in (2, 3):
            assemble(built, p).verify()
    oracle = rebuilt(c)
    assert c == oracle and c.labels == oracle.labels


def codimension_one_faces(cell):
    """The cells obtained from ``cell`` by dropping one vertex from a factor
    of two or more."""
    return {cell[:i] + (f[:t] + f[t + 1:],) + cell[i + 1:]
            for i, f in enumerate(cell) if len(f) > 1 for t in range(len(f))}


@given(small_deleted(deleted_product), primes, st.data())
def test_caller_product_cells_are_refused_unless_closed_under_faces(product, p, data):
    cells = data.draw(st.permutations(list(product.cells())))
    given_cells = ProductCellComplex(product.base, product.n, product.k, cells)
    assert betti_numbers(given_cells, p) == betti_numbers(product, p)
    faces = set().union(*map(codimension_one_faces, cells))
    if faces:  # without a face of another cell, no cell set misses one
        dropped = data.draw(st.sampled_from(sorted(faces)))
        with pytest.raises(ValueError, match="not closed under taking faces"):
            ProductCellComplex(product.base, product.n, product.k,
                               [cell for cell in cells if cell != dropped])


# small coordinates, some halves: coincident points and collinear triples
# turn up often
coordinates = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2]))


@given(st.lists(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=4),
                min_size=2, max_size=3))
def test_hull_lp_agrees_with_planar_oracle(point_lists):
    points = [pt for pts in point_lists for pt in pts]
    faces, start = [], 0
    for pts in point_lists:
        faces.append(tuple(range(start, start + len(pts))))
        start += len(pts)
    config = ColoredConfiguration(2, tuple(points), Coloring((tuple(range(start)),)))
    res = hulls_intersect(faces, config)
    assert (res is not None) == oracle_hulls_meet_2d(faces, config.points)
    if res is not None:
        point, weights = res
        check_certificate(config.points, 2, faces, point, weights)


@given(complexes())
def test_simplicial_complex_json_round_trip(c):
    assert SimplicialComplex.from_json(c.to_json()) == c


@st.composite
def configurations(draw):
    """A configuration in Q^d, d <= 3, with its points dealt into color
    classes in a random order."""
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    order = draw(st.permutations(range(sum(sizes))))
    blocks, start = [], 0
    for s in sizes:
        blocks.append(tuple(order[start:start + s]))
        start += s
    point = st.tuples(*[st.fractions(max_denominator=10 ** 6)] * d)
    points = draw(st.lists(point, min_size=start, max_size=start))
    return ColoredConfiguration(d, tuple(points), Coloring(tuple(blocks)))


@given(configurations())
def test_configuration_json_round_trip(config):
    doc = json.loads(json.dumps(config.to_dict()))
    assert ColoredConfiguration.from_dict(doc) == config


@given(configurations())
def test_rainbow_faces_come_in_the_search_order(config):
    # the classes interleave in many draws, so the generator's sorted
    # groups are exercised as well as its plain products; d runs from 1 to
    # 3 and the colors from 1 to 4, so the cap at d binds in some draws
    faces = enumerate_rainbow_faces(config)
    expected = rainbow_faces_by_product(config.color_classes, config.d)
    assert [f.members for f in faces] == expected
