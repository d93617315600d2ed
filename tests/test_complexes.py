import itertools
import random
import time
from collections import Counter

import pytest

import tverlab.complexes as complexes
from tverlab.complexes import (
    Coloring,
    DecompositionError,
    FaceBudgetError,
    SimplicialComplex,
    apply_symmetry,
    boundary_simplex,
    chessboard,
    decomposition_isomorphism,
    deleted_join,
    deleted_product,
    discrete_points,
    full_simplex,
    is_prime,
    join,
    join_many,
    rainbow_complex,
    regular_embedding,
)

from oracles import (
    brute_force_chessboard_faces,
    deleted_join_by_product,
    deleted_product_by_product,
    is_downward_closed,
)


# -- chessboard ---------------------------------------------------------------


def test_chessboard_2x2_is_two_disjoint_edges():
    c = chessboard(2, 2)
    assert c.n_vertices == 4
    assert c.dim == 1
    assert c.f_vector == (4, 2)
    edges = {tuple(c.labels[v] for v in f) for f in c.faces(1)}
    assert edges == {((1, 1), (2, 2)), ((1, 2), (2, 1))}


def test_chessboard_1x1_is_a_point():
    c = chessboard(1, 1)
    assert c.f_vector == (1,)
    assert c.dim == 0


def test_chessboard_3x3_f_vector():
    assert chessboard(3, 3).f_vector == (9, 18, 6)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 4), (4, 2)])
def test_chessboard_matches_brute_force_enumeration(m, n):
    c = chessboard(m, n)
    assert set(c.faces()) == brute_force_chessboard_faces(m, n)


def test_chessboard_rejects_degenerate_sides():
    with pytest.raises(ValueError):
        chessboard(0, 3)
    with pytest.raises(ValueError):
        chessboard(3, 0)


# -- joins --------------------------------------------------------------------


def test_join_of_two_points_is_an_edge():
    j = join(discrete_points(1), discrete_points(1))
    assert j.f_vector == (2, 1)


def test_join_of_point_pairs_is_a_four_cycle():
    j = join(discrete_points(2), discrete_points(2))
    assert j.f_vector == (4, 4)
    # complete bipartite as a graph: every edge joins the two factors
    for e in j.faces(1):
        tags = {j.labels[v][0] for v in e}
        assert tags == {1, 2}


def test_join_of_sphere0_with_sphere0_matches_point_pairs():
    a = boundary_simplex(1)  # two isolated points
    assert join(a, a) == join(discrete_points(2), discrete_points(2))


def test_join_face_count_identity():
    # |faces(X * Y)| + 1 = (|faces X| + 1)(|faces Y| + 1)
    samples = [discrete_points(3), boundary_simplex(2), chessboard(2, 2)]
    for a, b in itertools.combinations(samples, 2):
        j = join(a, b)
        assert j.face_count + 1 == (a.face_count + 1) * (b.face_count + 1)


def test_join_many_tags_factors():
    j = join_many([discrete_points(1), discrete_points(1), discrete_points(1)])
    assert j.f_vector == (3, 3, 1)  # a solid triangle
    assert [lab[0] for lab in j.labels] == [1, 2, 3]


# -- rainbow complexes ---------------------------------------------------------


def test_rainbow_1_1_is_an_edge_with_two_blocks():
    c, coloring = rainbow_complex([1, 1])
    assert c.f_vector == (2, 1)
    assert coloring.classes == ((0,), (1,))


def test_rainbow_3_3_3_f_vector():
    c, _ = rainbow_complex([3, 3, 3])
    assert c.f_vector == (9, 27, 27)


def test_rainbow_10_10_10_f_vector():
    c, coloring = rainbow_complex([10, 10, 10])
    assert c.f_vector == (30, 300, 1000)
    assert [len(b) for b in coloring.classes] == [10, 10, 10]


def test_rainbow_faces_use_at_most_one_vertex_per_color():
    c, coloring = rainbow_complex([2, 3, 2])
    for f in c.faces():
        for block in coloring.classes:
            assert len(set(f) & set(block)) <= 1


def rainbow_by_product(sizes):
    """Faces in the stored order, labels and color blocks of the rainbow
    complex, enumerated directly: one vertex or none from each class."""
    offsets = list(itertools.accumulate(sizes, initial=0))
    blocks = tuple(tuple(range(a, b)) for a, b in zip(offsets, offsets[1:]))
    choices = itertools.product(*[(None, *block) for block in blocks])
    faces = [tuple(v for v in combo if v is not None) for combo in choices]
    labels = tuple((c + 1, i + 1) for c, s in enumerate(sizes) for i in range(s))
    return sorted(filter(None, faces), key=lambda f: (len(f), f)), labels, blocks


@pytest.mark.parametrize("sizes", [[1], [3], [2, 2], [3, 2, 2], [1, 4, 2, 3]])
def test_rainbow_matches_a_direct_enumeration(sizes):
    faces, labels, blocks = rainbow_by_product(sizes)
    c, coloring = rainbow_complex(sizes)
    assert list(c.faces()) == faces
    assert c.labels == labels
    assert coloring.classes == blocks
    assert rainbow_complex(sizes, budget=len(faces))[0] == c
    with pytest.raises(FaceBudgetError, match="rainbow complex of sizes"):
        rainbow_complex(sizes, budget=len(faces) - 1)


def test_rainbow_rejects_bad_sizes():
    with pytest.raises(ValueError):
        rainbow_complex([])
    with pytest.raises(ValueError):
        rainbow_complex([2, 0])


# -- deleted joins --------------------------------------------------------------


def test_deleted_join_of_three_points_is_a_hexagon():
    dj = deleted_join(discrete_points(3), 2, 2)
    assert dj.f_vector == (6, 6) == chessboard(3, 2).f_vector
    # every vertex lies on exactly two edges and the edge graph is a single
    # closed walk through all six vertices
    degree = {v: 0 for v in range(6)}
    neighbors = {v: set() for v in range(6)}
    for a, b in dj.faces(1):
        degree[a] += 1
        degree[b] += 1
        neighbors[a].add(b)
        neighbors[b].add(a)
    assert set(degree.values()) == {2}
    seen = {0}
    frontier = neighbors[0]
    while frontier:
        seen.update(frontier)
        frontier = {w for v in frontier for w in neighbors[v]} - seen
    assert seen == set(range(6))
    # the explicit bijection onto the 3-by-2 board verifies
    assert decomposition_isomorphism([3], 2).verified


def test_deleted_join_of_single_point_is_two_isolated_vertices():
    dj = deleted_join(discrete_points(1), 2, 2)
    assert dj.f_vector == (2,)


def test_deleted_join_faces_are_tagged_unions_of_base_faces():
    base, _ = rainbow_complex([2, 2])
    dj = deleted_join(base, 2, 2)
    for f in dj.faces():
        parts = {}
        for v in f:
            copy, _ = dj.labels[v]
            parts.setdefault(copy, []).append(v % base.n_vertices)
        for part in parts.values():
            assert base.has_face(tuple(sorted(part)))
        # pairwise disjoint parts
        all_base = [v % base.n_vertices for v in f]
        assert len(all_base) == len(set(all_base))


# the last two have k > n + 1, where no k of the n faces can meet
ENUMERATED = pytest.mark.parametrize(
    "base,n,k",
    [
        (discrete_points(1), 5, 2),
        (discrete_points(2), 6, 2),
        (discrete_points(3), 4, 3),
        (boundary_simplex(2), 4, 2),
        (full_simplex(2), 3, 2),
        (rainbow_complex([2, 2])[0], 3, 3),
        (discrete_points(3), 3, 5),
        (boundary_simplex(2), 2, 10**6),
    ],
    ids=["1pt", "2pts", "3pts", "circle", "triangle", "rainbow", "3pts-wide", "circle-wide"],
)


@ENUMERATED
def test_deleted_join_matches_a_direct_enumeration(base, n, k):
    faces = deleted_join_by_product(base, n, k)
    dj = deleted_join(base, n, k)
    assert list(dj.faces()) == faces
    sizes = Counter(map(len, faces))
    assert dj.f_vector == tuple(sizes[d + 1] for d in range(max(sizes)))
    # the face count is known exactly before any face is made: the budget
    # admits exactly the count and fires one below it
    assert deleted_join(base, n, k, budget=len(faces)) == dj
    with pytest.raises(FaceBudgetError, match=f"{n}-fold deleted join"):
        deleted_join(base, n, k, budget=len(faces) - 1)


@ENUMERATED
def test_deleted_product_matches_a_direct_enumeration(base, n, k):
    cells = deleted_product_by_product(base, n, k)
    dp = deleted_product(base, n, k)
    assert list(dp.cells()) == cells
    assert dp.k == k
    # no level of the stream is larger than the cell count: the budget admits
    # exactly the count and fires one below it
    assert list(deleted_product(base, n, k, budget=len(cells)).cells()) == cells
    with pytest.raises(FaceBudgetError, match=f"{n}-fold deleted product"):
        deleted_product(base, n, k, budget=len(cells) - 1)


# k - 1 = 2, 4 and 8 are where the width of a vertex's packed face count
# grows by one bit
PACKED_COUNTS = [(n, k) for n in range(2, 10) for k in range(2, n + 4)]


def test_deleted_product_of_one_point_has_one_cell_exactly_when_k_exceeds_n():
    for n, k in PACKED_COUNTS:
        cells = list(deleted_product(discrete_points(1), n, k).cells())
        assert cells == ([((0,),) * n] if k > n else []), (n, k)


def test_deleted_join_of_two_points_across_count_widths():
    base = discrete_points(2)
    for n, k in PACKED_COUNTS:
        assert list(deleted_join(base, n, k).faces()) == deleted_join_by_product(base, n, k), (n, k)


def test_wiseness_above_copies_plus_one_acts_as_copies_plus_one():
    base = rainbow_complex([3, 2])[0]
    for n in (2, 3):
        assert deleted_join(base, n, 10**6) == deleted_join(base, n, n + 1)
        assert (list(deleted_product(base, n, 10**6).cells())
                == list(deleted_product(base, n, n + 1).cells()))


def test_deleted_join_rejects_small_parameters():
    with pytest.raises(ValueError):
        deleted_join(discrete_points(2), 1, 2)
    with pytest.raises(ValueError):
        deleted_join(discrete_points(2), 2, 1)


def test_deleted_join_grows_with_wiseness():
    base = full_simplex(1)  # an edge
    faces2 = set(deleted_join(base, 3, 2).faces())
    faces3 = set(deleted_join(base, 3, 3).faces())
    assert faces2 < faces3


def test_deleted_join_is_subcomplex_of_full_join():
    base = full_simplex(1)
    dj = set(deleted_join(base, 2, 2).faces())
    full = set(join(base, base).faces())
    # the join tags with (1, label)/(2, label) in the same block order
    assert dj <= full


# -- deleted products ------------------------------------------------------------


def test_deleted_product_of_two_points():
    dp = deleted_product(discrete_points(2), 2, 2)
    assert dp.f_vector == (2,)
    assert set(dp.cells(0)) == {((0,), (1,)), ((1,), (0,))}


def test_deleted_product_of_solid_edge_has_only_two_cells():
    dp = deleted_product(full_simplex(1), 2, 2)
    assert dp.f_vector == (2,)
    assert set(dp.cells(0)) == {((0,), (1,)), ((1,), (0,))}


def test_deleted_product_of_three_points():
    dp = deleted_product(discrete_points(3), 2, 2)
    assert dp.f_vector == (6,)


def test_deleted_product_cells_are_closed_under_factor_shrinking():
    dp = deleted_product(boundary_simplex(2), 2, 2)
    for cell in dp.cells():
        for i, factor in enumerate(cell):
            if len(factor) < 2:
                continue
            for t in range(len(factor)):
                child = cell[:i] + (factor[:t] + factor[t + 1:],) + cell[i + 1:]
                assert dp.has_cell(child)


def test_deleted_product_pairwise_disjointness():
    dp = deleted_product(boundary_simplex(2), 2, 2)
    for cell in dp.cells():
        used = [v for factor in cell for v in factor]
        assert len(used) == len(set(used))


def test_deleted_product_rejects_small_parameters():
    with pytest.raises(ValueError):
        deleted_product(discrete_points(2), 1, 2)
    with pytest.raises(ValueError):
        deleted_product(discrete_points(2), 2, 1)


# -- decomposition isomorphism -----------------------------------------------------


def test_decomposition_single_class_size2_gives_2x2_board():
    w = decomposition_isomorphism([2], 2)
    assert w.verified
    assert w.left.f_vector == (4, 2)
    assert w.right.f_vector == (4, 2)


def test_decomposition_two_singleton_classes_gives_four_cycle():
    w = decomposition_isomorphism([1, 1], 2)
    assert w.verified
    assert w.left.f_vector == (4, 4)


def test_decomposition_3_3_r3():
    w = decomposition_isomorphism([3, 3], 3)
    assert w.verified
    assert w.left.f_vector == w.right.f_vector


def test_decomposition_vertex_map_formula():
    w = decomposition_isomorphism([2, 3], 2)
    for (copy_j, (color_i, v)), target in w.vertex_map.items():
        assert target == (color_i, (v, copy_j))


def test_decomposition_error_when_face_counts_differ(monkeypatch):
    board = complexes.chessboard

    def without_top_faces(m, n, *, budget=None):
        b = board(m, n, budget=budget)
        return SimplicialComplex(b.n_vertices, (f for f in b.faces() if len(f) < min(m, n)),
                                 b.labels, closed=True)

    monkeypatch.setattr(complexes, "chessboard", without_top_faces)
    with pytest.raises(DecompositionError, match="face counts differ: 6 vs 4"):
        decomposition_isomorphism([2], 2)


def test_decomposition_error_names_a_face_whose_image_is_not_a_face(monkeypatch):
    board = complexes.chessboard

    def swapped(m, n, *, budget=None):
        # cells (1,1) and (1,2) trade labels: same face count, other faces
        b = board(m, n, budget=budget)
        labels = list(b.labels)
        labels[0], labels[1] = labels[1], labels[0]
        return SimplicialComplex(b.n_vertices, b.faces(), labels, closed=True)

    monkeypatch.setattr(complexes, "chessboard", swapped)
    with pytest.raises(DecompositionError, match="image of a face is not a face") as info:
        decomposition_isomorphism([2], 2)
    # copy 1 of vertex 1 and copy 2 of vertex 2: cells (1,1) and (2,2) on the
    # true board, but the swapped board puts the first in column 2
    assert info.value.counterexample == (0, 3)


def test_deleted_join_of_zero_dim_complex_is_a_chessboard():
    # single color class: the deleted join of c points is the c-by-n board
    for c, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        w = decomposition_isomorphism([c], n)
        assert w.verified
        assert w.left.f_vector == chessboard(c, n).f_vector


# -- downward closure and budget ---------------------------------------------------


@pytest.mark.parametrize(
    "builder",
    [
        lambda: chessboard(3, 3),
        lambda: rainbow_complex([2, 2, 2])[0],
        lambda: deleted_join(discrete_points(3), 2, 2),
        lambda: join(boundary_simplex(2), discrete_points(2)),
    ],
)
def test_downward_closure(builder):
    assert is_downward_closed(builder())


def test_closure_is_reconstructed_from_facets():
    c = chessboard(3, 3)
    rebuilt = SimplicialComplex(c.n_vertices, c.facets())
    assert rebuilt == c


def test_budget_guard_fires():
    with pytest.raises(FaceBudgetError):
        chessboard(6, 6, budget=100)
    with pytest.raises(FaceBudgetError):
        deleted_join(discrete_points(4), 3, 2, budget=10)
    with pytest.raises(FaceBudgetError):
        deleted_product(discrete_points(4), 3, 2, budget=10)


@pytest.mark.parametrize(
    "build",
    [
        lambda budget: chessboard(3, 4, budget=budget),
        lambda budget: deleted_join(discrete_points(4), 3, 2, budget=budget),
        lambda budget: deleted_join(boundary_simplex(2), 3, 3, budget=budget),
        # each of 6 copies takes one of 6 vertices: 720 cells, while
        # 2100 triples of disjoint nonempty faces could start them
        lambda budget: deleted_product(full_simplex(5), 6, 2, budget=budget),
        lambda budget: deleted_product(boundary_simplex(2), 3, 3, budget=budget),
    ],
)
def test_budget_counts_the_distinct_faces_built(build):
    built = build(None)
    count = built.face_count if isinstance(built, SimplicialComplex) else built.cell_count
    assert build(count).f_vector == built.f_vector
    with pytest.raises(FaceBudgetError):
        build(count - 1)


def test_face_budget_variable_is_read_and_checked_at_the_call(monkeypatch):
    monkeypatch.setenv("TVERLAB_FACE_BUDGET", "5")
    with pytest.raises(FaceBudgetError):
        chessboard(3, 3)
    assert chessboard(3, 3, budget=33).face_count == 33
    for text in ("abc", "-1", ""):
        monkeypatch.setenv("TVERLAB_FACE_BUDGET", text)
        with pytest.raises(ValueError, match="TVERLAB_FACE_BUDGET"):
            chessboard(2, 2)
        assert chessboard(2, 2, budget=6).face_count == 6


def test_budget_counts_distinct_given_faces():
    faces = [(0, 1), (1, 0), (0, 1), (1,), (0,)]
    assert SimplicialComplex(2, faces, closed=True, budget=3).face_count == 3
    assert SimplicialComplex(2, faces, budget=3).face_count == 3
    with pytest.raises(FaceBudgetError):
        SimplicialComplex(2, faces, closed=True, budget=2)


def test_deleted_join_checks_each_level_times_its_sets_of_copies(monkeypatch):
    # 4 copies of 3 points: 12 faces on one copy, then 6 x 6 = 36 on two,
    # 72 in all.  The level on two copies already takes the count past 20,
    # so no stream for three copies is run; checking count + size alone
    # (12 + 6) would let it run.
    streams = []
    stream = complexes._tuple_stream

    def recording(base, n, *args):
        streams.append(n)
        return stream(base, n, *args)

    monkeypatch.setattr(complexes, "_tuple_stream", recording)
    assert deleted_join(discrete_points(3), 4).face_count == 72
    streams.clear()
    with pytest.raises(FaceBudgetError, match="4-fold deleted join"):
        deleted_join(discrete_points(3), 4, budget=20)
    assert streams == [1, 2]


def test_deleted_product_budget_is_checked_while_cells_are_built():
    # the 3-fold deleted product of the 6x6 board has far more cells than
    # could be listed before counting them
    with pytest.raises(FaceBudgetError):
        deleted_product(chessboard(6, 6), 3, 2, budget=1000)


@pytest.mark.parametrize("closed", [True, False])
def test_face_order_and_repeats_do_not_change_the_complex(closed):
    c = chessboard(3, 3)
    rng = random.Random(3)
    given = [tuple(rng.sample(f, len(f))) for f in c.faces()] * 2
    rng.shuffle(given)
    rebuilt = SimplicialComplex(c.n_vertices, given, closed=closed)
    assert rebuilt == c
    assert list(rebuilt.faces()) == list(c.faces())
    assert rebuilt.facets() == c.facets()
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(0, 3)], closed=closed)
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(-1, 2)], closed=closed)


@pytest.mark.parametrize("closed", [True, False])
def test_sorted_and_unsorted_faces_of_one_length(closed):
    c = SimplicialComplex(4, [(0, 1), (1, 0), (0, 2), (3, 1), (0,), (1,), (2,), (3,)],
                          closed=closed)
    assert list(c.faces()) == [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 3)]


@pytest.mark.parametrize("closed", [True, False])
def test_repeated_vertex_moves_a_face_to_a_shorter_length(closed):
    # (1, 1, 2) becomes the edge (1, 2) and (2, 2, 2) the vertex (2,), while
    # (0, 1, 2), of the same length, stays
    given = [(0, 1, 2), (1, 1, 2), (2, 2, 2), (1, 2), (0, 1), (0, 2), (0,), (1,)]
    c = SimplicialComplex(3, given, closed=closed)
    assert c == full_simplex(2)
    # every face of a length shrinks
    c = SimplicialComplex(2, [(1, 1, 1), (0, 0)], closed=closed)
    assert list(c.faces()) == [(0,), (1,)]
    assert (c.dim, c.f_vector) == (0, (2,))
    assert c == discrete_points(2)


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize(
    "face,shown",
    [((2, -1, 0), (-1, 0, 2)), ((3, 0, 1), (0, 1, 3)), ((2, 2, 5), (2, 5))],
)
def test_out_of_range_vertex_in_an_unsorted_face(closed, face, shown):
    faces = [(0, 1, 2), face]
    with pytest.raises(ValueError) as info:
        SimplicialComplex(3, faces, closed=closed)
    assert str(info.value) == f"face {shown} uses vertices outside 0..2"


def test_faces_may_be_lists_or_generators_and_empty_faces_are_skipped():
    given = [[0, 1], (v for v in (2, 1)), (), [], iter(()), [2]]
    c = SimplicialComplex(3, given)
    assert c == SimplicialComplex(3, [(0, 1), (1, 2)])
    assert c.f_vector == (3, 2)
    assert SimplicialComplex(2, [(), []]).is_empty


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("vertex", [1.5, "1", None, True])
def test_non_integer_vertex_is_rejected(closed, vertex):
    # a bool is rejected too, as by is_int
    with pytest.raises(ValueError, match="not an integer") as info:
        SimplicialComplex(3, [(0, 1), (2, vertex)], closed=closed)
    assert str((2, vertex)) in str(info.value)
    with pytest.raises(ValueError, match="not an integer"):
        SimplicialComplex(3, [(vertex,)], closed=closed)


def test_int_subclass_vertices_are_accepted():
    class Vertex(int):
        pass

    c = SimplicialComplex(3, [(Vertex(2), Vertex(0))])
    assert list(c.faces()) == [(0,), (2,), (0, 2)]


def test_serialization_round_trip():
    for c in [chessboard(3, 3), deleted_join(discrete_points(3), 2, 2)]:
        assert SimplicialComplex.from_json(c.to_json()) == c


def test_empty_face_is_always_a_face():
    c = chessboard(2, 2)
    assert c.has_face(()) and c.has_face([]) and c.has_face(v for v in ())


def test_has_face_sorts_any_iterable_of_vertices():
    c = chessboard(3, 3)
    face = c.faces_of_dim(2)[-1]
    assert len(face) == 3
    for given in (list(face), tuple(reversed(face)), (v for v in reversed(face))):
        assert c.has_face(given)
    assert not c.has_face([1, 0])  # cells (1,1) and (1,2) share a row


@pytest.mark.parametrize(
    "build", [lambda: chessboard(3, 4), lambda: deleted_product(chessboard(2, 3), 3)],
    ids=["board", "deleted_product"],
)
def test_graded_views_agree(build):
    x = build()
    if isinstance(x, SimplicialComplex):
        count, of_dim, every, has = x.face_count, x.faces_of_dim, x.faces, x.has_face
    else:
        count, of_dim, every, has = x.cell_count, x.cells_of_dim, x.cells, x.has_cell
    graded = [of_dim(d) for d in range(x.dim + 1)]
    assert all(graded) and all(list(cs) == sorted(set(cs)) for cs in graded)
    assert graded == [tuple(every(d)) for d in range(x.dim + 1)]
    assert list(every()) == [cell for cs in graded for cell in cs]
    assert x.f_vector == tuple(map(len, graded))
    assert count == sum(x.f_vector) > 0
    assert of_dim(x.dim + 1) == () and list(every(x.dim + 1)) == []
    assert all(has(list(cell)) for cell in every())


# -- symmetry action -----------------------------------------------------------


def test_identity_symmetry_is_identity_on_faces():
    dj = deleted_join(discrete_points(3), 2, 2)
    action = apply_symmetry(dj, (1, 2))
    assert all(f == g for f, g in action.items())


def test_swap_symmetry_on_hexagon():
    dj = deleted_join(discrete_points(3), 2, 2)
    action = apply_symmetry(dj, (2, 1))
    for face, image in action.items():
        labs = {dj.labels[v] for v in face}
        expect = {(2 if c == 1 else 1, base) for c, base in labs}
        assert {dj.labels[v] for v in image} == expect
    # an edge {(a, copy1), (b, copy2)} maps to {(b, copy1), (a, copy2)}
    a = dj.index_of_label((1, 0))
    b = dj.index_of_label((2, 1))
    image = action[tuple(sorted((a, b)))]
    assert {dj.labels[v] for v in image} == {(1, 1), (2, 0)}


def test_three_cycle_symmetry_preserves_face_set():
    dj = deleted_join(discrete_points(2), 3, 2)
    action = apply_symmetry(dj, (2, 3, 1))
    assert set(action.values()) == set(action.keys())


def test_symmetry_rejects_wrong_degree():
    dj = deleted_join(discrete_points(3), 2, 2)
    with pytest.raises(ValueError):
        apply_symmetry(dj, (1, 2, 3))
    with pytest.raises(ValueError):
        apply_symmetry(dj, (1, 1))


def test_symmetry_is_automorphism_for_random_permutations():
    dj = deleted_join(discrete_points(2), 4, 2)
    rng = random.Random(7)
    for _ in range(5):
        perm = list(range(1, 5))
        rng.shuffle(perm)
        action = apply_symmetry(dj, perm)
        assert set(action.values()) == set(action.keys())


# -- regular embedding -----------------------------------------------------------


def test_regular_embedding_z2():
    perms = regular_embedding(2, 1)
    assert perms == [(0, 1), (1, 0)]


def test_regular_embedding_z3():
    perms = regular_embedding(3, 1)
    assert (0, 1, 2) in perms
    for g in perms:
        if g != (0, 1, 2):
            assert all(g[i] != i for i in range(3))  # rotations


def test_regular_embedding_klein_four():
    perms = regular_embedding(2, 2)
    assert len(perms) == 4
    for g in perms:
        if g == (0, 1, 2, 3):
            continue
        assert all(g[i] != i for i in range(4))
        assert tuple(g[g[i]] for i in range(4)) == (0, 1, 2, 3)  # order 2


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_regular_embedding_is_a_free_group_action(p, n):
    perms = regular_embedding(p, n)
    order = p ** n
    assert len(set(perms)) == order
    identity = tuple(range(order))
    assert identity in perms
    perm_set = set(perms)
    for g in perms:
        for h in perms:
            assert tuple(g[h[i]] for i in range(order)) in perm_set
        if g != identity:
            assert all(g[i] != i for i in range(order))
            power = g
            for _ in range(p - 1):
                power = tuple(g[power[i]] for i in range(order))
            assert power == identity


def test_is_prime_is_exact_and_fast_for_large_primes():
    t0 = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert time.perf_counter() - t0 < 1


def test_is_prime_rejects_strong_pseudoprimes():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_is_prime_matches_a_sieve_below_1000():
    sieve = [True] * 1000
    sieve[0] = sieve[1] = False
    for i in range(2, 32):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, 1000, i))
    assert [n for n in range(-3, 1000) if is_prime(n)] == [n for n in range(1000) if sieve[n]]


def test_is_prime_refuses_numbers_beyond_its_exact_range():
    assert not is_prime(3317044064679887385961980)  # even, just below the bound
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_regular_embedding_rejects_composites():
    with pytest.raises(ValueError):
        regular_embedding(4, 1)
    with pytest.raises(ValueError):
        regular_embedding(2, 0)


# -- coloring ---------------------------------------------------------------------


def test_coloring_validation():
    Coloring(((0, 1), (2,)))
    with pytest.raises(ValueError):
        Coloring(((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        Coloring(((0, 1), ()))  # empty block
    with pytest.raises(ValueError):
        Coloring(((0,), (2,)))  # gap
