"""Property tests: random small complexes against the independent oracles,
the reduced Euler identity, and invariance under relabelling vertices."""

import random

from hypothesis import given, settings, strategies as st

from tverlab.complexes import SimplicialComplex, deleted_product
from tverlab.homology import betti, betti_numbers, cellular_chain_complex, chain_complex

from oracles import oracle_betti, oracle_cellular_betti

# derandomized, so every run of the suite draws the same examples
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def complexes(draw, max_vertices=7, max_facets=6):
    """A complex on at most ``max_vertices`` vertices, closed downward from
    a few random facets; the last vertices may be left out of every face."""
    n = draw(st.integers(1, max_vertices))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    return SimplicialComplex(n, draw(st.lists(facet, max_size=max_facets)))


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


@SETTINGS
@given(complexes(), primes, st.integers(0, 2**32))
def test_simplicial_betti_agrees_with_oracle_and_relabelling(c, p, seed):
    cc = chain_complex(c, p)
    cc.verify()
    profile = betti(cc).betti
    assert list(profile) == oracle_betti(c, p)
    assert reduced_euler_holds(c.f_vector, profile)
    assert betti_numbers(relabelled(c, seed), p).betti == profile


@SETTINGS
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
