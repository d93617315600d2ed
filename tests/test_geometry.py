import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from tverlab import geometry
from tverlab.bounds import TheoremInstance, conn_lower_bound_join
from tverlab.complexes import (
    Coloring,
    ProductCellComplex,
    SimplicialComplex,
    apply_symmetry,
    chessboard,
    deleted_join,
    deleted_product,
    discrete_points,
    full_simplex,
    rainbow_complex,
    regular_embedding,
)
from tverlab.geometry import (
    ColoredConfiguration,
    RainbowFace,
    Witness,
    _trial_seed,
    enumerate_rainbow_faces,
    find_disjoint_intersecting_family,
    format_rational,
    hulls_intersect,
    parse_rational,
    random_configuration,
    verify_theorem_empirically,
)

from oracles import (
    check_certificate,
    oracle_hulls_intersect_pair,
    rainbow_faces_by_product,
    random_rational_faces,
)


def _config(d, pts, blocks):
    return ColoredConfiguration(
        d,
        tuple(tuple(Fraction(c) for c in p) for p in pts),
        Coloring(tuple(tuple(b) for b in blocks)),
    )


RADON = _config(
    2,
    [(0, 0), (2, 0), (1, 2), (1, Fraction(1, 2))],
    [(0,), (1,), (2,), (3,)],
)


# -- rationals and configuration I/O ------------------------------------------


def test_rational_codec():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-2)) == "-2"
    with pytest.raises(ValueError):
        parse_rational(True)
    assert parse_rational(" +3/4 ") == Fraction(3, 4)
    # only the documented forms: no exponents, decimals, underscores or inf
    for text in ("1e1000000", "0.5", "1_000", "inf"):
        with pytest.raises(ValueError, match=r"\[\+-\]digits/digits"):
            parse_rational(text)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        ColoredConfiguration.from_dict({"d": 1, "points": [["1/0"]], "colors": [[0]]})


def test_configuration_round_trip():
    doc = RADON.to_dict()
    text = json.dumps(doc)
    back = ColoredConfiguration.from_dict(json.loads(text))
    assert back == RADON


def test_configuration_validation():
    with pytest.raises(ValueError):
        _config(2, [(0, 0, 0)], [(0,)])  # wrong coordinate count
    with pytest.raises(ValueError):
        _config(2, [(0, 0), (1, 1)], [(0,)])  # coloring misses a point


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ColoredConfiguration(0, (), Coloring(())), "dimension must be positive"),
        (lambda: hulls_intersect([(), (0,)], RADON), "every face must be nonempty"),
        (lambda: find_disjoint_intersecting_family(RADON, 0), "q must be at least 1"),
        # -1 used to end "budget" after no hull query
        (lambda: find_disjoint_intersecting_family(RADON, 2, lp_budget=-1),
         "lp_budget must be nonnegative"),
        (lambda: random_configuration(2, [1], 0, coordinate_bound=0),
         "coordinate bound must be at least 1"),
        (lambda: random_configuration(2, [], 0), "sizes must be a nonempty list"),
        (lambda: verify_theorem_empirically(
            TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(1, 1, 1)), 0, 1),
         "need at least one trial"),
    ],
    ids=["zero-dimension", "empty-face", "no-faces-wanted", "negative-budget",
         "zero-coordinate-bound", "no-sizes", "no-trials"],
)
def test_out_of_range_arguments_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call,message",
    [
        # each used to be read as an int, or kept as given and fail later
        (lambda: RainbowFace(((0, 1.7),)), r"face \(\(0, 1.7\),\) has an index that is not"),
        (lambda: RainbowFace((("0", "1"),)), "has an index that is not an integer"),
        (lambda: Coloring(((0.0, 1), (2,))), r"class \(0.0, 1\) has a vertex that is not"),
        (lambda: Coloring(((False,), (True,))), "has a vertex that is not an integer"),
        (lambda: SimplicialComplex(True, [[0]]), "vertex count True is not an integer"),
        (lambda: SimplicialComplex(2.5, [[0]]), "vertex count 2.5 is not an integer"),
        # 2 == 2.0, so the float passed the coordinate count and the
        # search failed later with a TypeError
        (lambda: ColoredConfiguration(2.0, ((0, 0), (1, 0), (0, 1), (1, 1)),
                                      Coloring(((0,), (1,), (2,), (3,)))),
         "dimension 2.0 is not an integer"),
        (lambda: ColoredConfiguration(True, ((0,), (1,)), Coloring(((0,), (1,)))),
         "dimension True is not an integer"),
        # q = 2.5 searched on to an exhaustive, false "none", which an
        # experiment would record as a counterexample
        (lambda: find_disjoint_intersecting_family(RADON, 2.5), "q = 2.5 is not an integer"),
        (lambda: find_disjoint_intersecting_family(RADON, 2, lp_budget=2.5),
         "lp_budget = 2.5 is not an integer"),
        (lambda: verify_theorem_empirically(
            TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(1, 1, 1)), 1, 1, q=2.5),
         "q = 2.5 is not an integer"),
        # a builder or a bound read True as 1, wrote it into a report, or
        # failed later on a float
        (lambda: discrete_points(True), "count = True is not an integer"),
        (lambda: deleted_product(chessboard(2, 2), 3, 2.5), "k = 2.5 is not an integer"),
        (lambda: deleted_join(discrete_points(3), 2, 2.0), "k = 2.0 is not an integer"),
        (lambda: ProductCellComplex(full_simplex(1), True, 2, []), "n = True is not an integer"),
        (lambda: conn_lower_bound_join([5.5, 5], 3, 1),
         r"sizes \[5.5, 5\] include one that is not an integer"),
        (lambda: chessboard(True, 3), "m = True is not an integer"),
        (lambda: rainbow_complex([True, 2]), r"sizes \[True, 2\] include one that is not"),
        (lambda: regular_embedding(2, True), "n = True is not an integer"),
        (lambda: random_configuration(2, [True, 2], 1), r"sizes \[True, 2\] include one"),
        (lambda: verify_theorem_empirically(
            TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(1, 1, 1)), True, 1),
         "trials = True is not an integer"),
        # sorted((True, 2)) == [1, 2], so each passed the permutation check
        (lambda: apply_symmetry(deleted_join(discrete_points(2), 2), (True, 2)),
         r"perm \(True, 2\) include one that is not an integer"),
        (lambda: apply_symmetry(deleted_join(discrete_points(2), 2), (2.0, 1)),
         r"perm \(2.0, 1\) include one that is not an integer"),
    ],
    ids=["face-float-point", "face-strings", "coloring-float", "coloring-bools",
         "complex-bool-count", "complex-float-count", "config-float-dimension",
         "config-bool-dimension", "search-float-q", "search-float-budget",
         "experiment-float-q", "points-bool-count", "product-float-k", "join-float-k",
         "cells-bool-n", "bound-float-size", "board-bool-side", "rainbow-bool-size",
         "embedding-bool-exponent", "configuration-bool-size", "experiment-bool-trials",
         "symmetry-bool-copy", "symmetry-float-copy"],
)
def test_an_id_that_is_not_an_int_is_refused_where_it_enters(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("vertex", [-3, 3, 1.0, True])
def test_a_hull_query_refuses_a_vertex_that_is_no_point_id(vertex):
    # -3 used to be read as point 0 of the three, so the hulls met
    line = _config(1, [(0,), (5,), (10,)], [(0,), (1,), (2,)])
    with pytest.raises(ValueError, match=r"face \(%s,\) has a vertex that is not a point id "
                                         r"in 0\.\.2" % vertex):
        hulls_intersect([(0,), (vertex,)], line)


# -- rainbow face enumeration ---------------------------------------------------


def test_enumerate_two_singleton_colors():
    cfg = _config(1, [(0,), (1,)], [(0,), (1,)])
    faces = enumerate_rainbow_faces(cfg)
    assert len(faces) == 3
    assert {f.vertices for f in faces} == {(0,), (1,), (0, 1)}


def test_enumerate_three_colors_of_two():
    cfg = random_configuration(2, [2, 2, 2], seed=0)
    assert len(enumerate_rainbow_faces(cfg)) == 3 ** 3 - 1 == 26


def test_enumerate_three_colors_of_ten():
    cfg = random_configuration(2, [10, 10, 10], seed=0)
    assert len(enumerate_rainbow_faces(cfg)) == 11 ** 3 - 1 == 1330


def test_enumerate_stops_at_dimension_d():
    cfg = random_configuration(1, [2, 2, 2], seed=0)
    faces = enumerate_rainbow_faces(cfg)
    assert all(len(f) <= 2 for f in faces)
    assert len(faces) == 6 + 12  # singletons plus bichromatic pairs


def test_rainbow_face_invariants():
    face = RainbowFace.from_members({2: 5, 0: 1})
    assert face.members == ((0, 1), (2, 5))
    assert face.vertices == (1, 5)
    with pytest.raises(ValueError):
        RainbowFace(((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        RainbowFace(())


# -- exact hull intersection -----------------------------------------------------


def test_overlapping_segments_on_the_line():
    cfg = _config(1, [(0,), (2,), (1,), (3,)], [(0, 1), (2, 3)])
    res = hulls_intersect([(0, 1), (2, 3)], cfg)
    assert res is not None
    point, weights = res
    assert Fraction(1) <= point[0] <= Fraction(2)


def test_distinct_singletons_do_not_intersect():
    cfg = _config(2, [(0, 0), (1, 0)], [(0,), (1,)])
    assert hulls_intersect([(0,), (1,)], cfg) is None


def test_triangle_contains_its_interior_point():
    res = hulls_intersect([(0, 1, 2), (3,)], RADON)
    assert res is not None
    point, weights = res
    assert point == (Fraction(1), Fraction(1, 2))
    assert weights[0] == (Fraction(3, 8), Fraction(3, 8), Fraction(1, 4))
    assert weights[1] == (Fraction(1),)


def test_lp_agrees_with_planar_predicates():
    rng = random.Random(424242)
    checked_feasible = 0
    for _ in range(120):
        d = rng.choice([1, 2])
        fa, fb, pts = random_rational_faces(rng, d, 6)
        cfg = _config(d, pts, [tuple(fa), tuple(fb)])
        lp = hulls_intersect([tuple(fa), tuple(fb)], cfg)
        expected = oracle_hulls_intersect_pair(fa, fb, cfg.points, d)
        assert (lp is not None) == expected
        if lp is not None:
            checked_feasible += 1
            point, weights = lp
            check_certificate(cfg.points, d, [tuple(fa), tuple(fb)], point, weights)
    assert checked_feasible > 10  # both verdicts exercised


# -- witness search ----------------------------------------------------------------


def test_single_face_family_always_exists():
    cfg = random_configuration(2, [2, 2], seed=3)
    res = find_disjoint_intersecting_family(cfg, 1)
    assert res.found and len(res.witness.faces) == 1
    res.witness.verify(cfg)


def test_radon_style_split():
    res = find_disjoint_intersecting_family(RADON, 2)
    assert res.found
    assert [f.vertices for f in res.witness.faces] == [(0, 1, 2), (3,)]
    res.witness.verify(RADON)


def test_families_are_pairwise_disjoint():
    cfg = random_configuration(2, [3, 3, 3], seed=11)
    res = find_disjoint_intersecting_family(cfg, 2)
    assert res.found
    used = list(itertools.chain.from_iterable(f.vertices for f in res.witness.faces))
    assert len(used) == len(set(used))


def test_search_is_deterministic():
    cfg = random_configuration(2, [3, 3, 3], seed=5)
    first = find_disjoint_intersecting_family(cfg, 2)
    second = find_disjoint_intersecting_family(cfg, 2)
    assert first == second


def test_exhaustive_none_is_distinct_from_budget():
    far = _config(1, [(0,), (100,)], [(0,), (1,)])
    res = find_disjoint_intersecting_family(far, 2)
    assert res.status == "none" and res.witness is None

    cfg = random_configuration(2, [3, 3, 3], seed=5)
    starved = find_disjoint_intersecting_family(cfg, 2, lp_budget=1)
    assert starved.status == "budget"


def _dealt(cfg, seed):
    """``cfg``'s points with its class sizes dealt out in a shuffled vertex
    order, so that the classes interleave."""
    order = list(range(cfg.n_points))
    random.Random(seed).shuffle(order)
    blocks = []
    for block in cfg.color_classes:
        blocks.append(tuple(order[:len(block)]))
        del order[:len(block)]
    return ColoredConfiguration(cfg.d, cfg.points, Coloring(tuple(blocks)))


def test_pruned_search_matches_unpruned_enumeration():
    # the DFS prunes on prefix infeasibility; compare against checking every
    # disjoint family in the reference face order with a single full-tuple
    # test, on consecutive blocks and on interleaved classes
    interleaved = 0
    for seed in range(6):
        blocks = random_configuration(2, [2, 2, 2], seed=seed, coordinate_bound=5)
        for cfg in (blocks, _dealt(blocks, seed)):
            classes = cfg.color_classes
            interleaved += any(a[-1] > b[0] for a, b in zip(classes, classes[1:]))
            q = 2
            faces = [tuple(sorted(v for _, v in members))
                     for members in rainbow_faces_by_product(classes, cfg.d)]
            expected = None
            for family in itertools.combinations(faces, q):
                used = list(itertools.chain.from_iterable(family))
                if len(used) != len(set(used)):
                    continue
                if hulls_intersect(family, cfg) is not None:
                    expected = family
                    break
            res = find_disjoint_intersecting_family(cfg, q)
            actual = (
                tuple(f.vertices for f in res.witness.faces) if res.found else None
            )
            assert actual == expected
    assert interleaved >= 5


def test_witness_verify_rejects_tampering():
    res = find_disjoint_intersecting_family(RADON, 2)
    w = res.witness
    bad_point = Witness(w.faces, (w.point[0] + 1, w.point[1]), w.weights)
    with pytest.raises(ValueError):
        bad_point.verify(RADON)
    overlapping = Witness(
        (w.faces[0], w.faces[0]), w.point, (w.weights[0], w.weights[0])
    )
    with pytest.raises(ValueError):
        overlapping.verify(RADON)


# four points on the line, classes (0, 1) and (2, 3): the faces {0, 3} and
# {1, 2} span [0, 2] and [1, 3], and both reproduce the point 1
LINE = _config(1, [(0,), (3,), (1,), (2,)], [(0, 1), (2, 3)])
HALF, ZERO, ONE = Fraction(1, 2), Fraction(0), Fraction(1)
LINE_WITNESS = Witness(
    (RainbowFace(((0, 0), (1, 3))), RainbowFace(((0, 1), (1, 2)))),
    (ONE,),
    ((HALF, HALF), (ZERO, ONE)),
)


def test_the_line_witness_verifies():
    LINE_WITNESS.verify(LINE)


def test_witness_verify_rejects_fewer_weight_vectors_than_faces():
    w = LINE_WITNESS
    with pytest.raises(ValueError, match="one weight vector per face"):
        Witness(w.faces, w.point, w.weights[:1]).verify(LINE)


# each of the next three witnesses reproduces its point with every face, so
# only the weight check it names can reject it


def test_witness_verify_rejects_a_negative_weight():
    # -1/2 * 0 + 3/2 * 2 = 3: affine, but not convex
    w = Witness(LINE_WITNESS.faces, (Fraction(3),), ((-HALF, 3 * HALF), (ONE, ZERO)))
    with pytest.raises(ValueError, match="negative convex weight"):
        w.verify(LINE)


def test_witness_verify_rejects_weights_that_do_not_sum_to_one():
    w = Witness(LINE_WITNESS.faces, (Fraction(3),), ((ZERO, 3 * HALF), (ONE, ZERO)))
    with pytest.raises(ValueError, match="do not sum to one"):
        w.verify(LINE)


def test_witness_verify_rejects_a_weight_vector_longer_than_its_face():
    # zip would drop the extra zero weight unseen
    w = Witness(LINE_WITNESS.faces, (ONE,), ((HALF, HALF, ZERO), (ZERO, ONE)))
    with pytest.raises(ValueError, match="does not match face size"):
        w.verify(LINE)


def test_witness_verify_rejects_a_face_with_two_points_of_one_class():
    # points 0 and 1 both lie in class 0; the face states point 1 as color 1
    both = Witness((RainbowFace(((0, 0), (1, 1))),), (ZERO,), ((ONE, ZERO),))
    with pytest.raises(ValueError, match="not in color class"):
        both.verify(LINE)


def test_witness_verify_rejects_a_point_outside_its_stated_class():
    # point 2 lies in class 1, not 0
    wrong = Witness((RainbowFace(((0, 2),)),), (ONE,), ((ONE,),))
    with pytest.raises(ValueError, match="not in color class"):
        wrong.verify(LINE)


def test_witness_verify_rejects_a_common_point_with_extra_coordinates():
    w = LINE_WITNESS
    with pytest.raises(ValueError, match="coordinates"):
        Witness(w.faces, (*w.point, ZERO), w.weights).verify(LINE)


def test_witness_verify_rejects_a_witness_with_no_faces():
    with pytest.raises(ValueError, match="at least one face"):
        Witness((), LINE_WITNESS.point, ()).verify(LINE)


@pytest.mark.parametrize("v", [4, -1])
def test_witness_verify_rejects_a_point_out_of_range(v):
    # -1 would otherwise be read as the last point, 4 raise IndexError
    outside = Witness((RainbowFace(((1, v),)),), (Fraction(2),), ((ONE,),))
    with pytest.raises(ValueError, match="not in color class"):
        outside.verify(LINE)


# -- instance generation --------------------------------------------------------------


def test_random_configuration_is_deterministic():
    a = random_configuration(2, [4, 4, 4], seed=99)
    b = random_configuration(2, [4, 4, 4], seed=99)
    assert a == b
    c = random_configuration(2, [4, 4, 4], seed=100)
    assert a != c


def test_random_configuration_shape():
    cfg = random_configuration(2, [4, 4, 4], seed=1, coordinate_bound=1000)
    assert cfg.n_points == 12
    assert [len(b) for b in cfg.color_classes] == [4, 4, 4]
    assert all(abs(c) <= 1000 for pt in cfg.points for c in pt)
    example = random_configuration(2, [10, 10, 10], seed=1)
    assert example.n_points == 30 and len(example.color_classes) == 3


# -- experiment harness -----------------------------------------------------------------


def test_trivial_promise_single_face():
    ti = TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(3, 3, 3))
    report = verify_theorem_empirically(ti, 10, seed=7, q=1)
    assert report.successes == 10
    assert report.counterexamples == ()


def test_certified_mode_r4():
    ti = TheoremInstance(d=2, k=2, m_large=0, p=2, n=2, sizes=(4, 4, 4))
    report = verify_theorem_empirically(ti, 3, seed=1, lp_budget=10 ** 6)
    assert report.mode == "certified"
    assert report.q == 3
    assert report.successes == 3


def test_exploratory_mode_when_promise_exceeded():
    ti = TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(3, 3, 3))
    report = verify_theorem_empirically(ti, 2, seed=5, q=2)
    assert report.mode == "exploratory"
    assert report.successes == 2


def test_counterexample_reports_carry_the_configuration():
    # one color per point, points far apart on a line: no two disjoint
    # rainbow faces can share a hull point
    ti = TheoremInstance(d=1, k=1, m_large=0, p=2, n=1, sizes=(1, 1))
    report = verify_theorem_empirically(ti, 1, seed=1, q=2, coordinate_bound=1000)
    if report.counterexamples:
        doc = report.counterexamples[0]
        assert doc["q"] == 2
        replay = ColoredConfiguration.from_dict(doc["configuration"])
        assert replay.n_points == 2
    # either way the run is exploratory and recorded
    assert report.mode == "exploratory"
    assert report.successes + len(report.counterexamples) == 1


# seeded totals, d = 2, m = 0, seed 1: the face order, the pruning and the
# budget all move them
@pytest.mark.parametrize(
    "sizes,p,n,q,trials,found,queries,nodes",
    [
        ((4, 4, 4), 2, 2, None, 20, 20, 2095, 2095),
        ((2, 2, 2), 3, 1, None, 30, 30, 124, 124),
        ((2, 2, 2), 3, 1, 3, 30, 0, 6053, 6053),
    ],
    ids=["r4", "r3", "r3-q3"],
)
def test_seeded_search_counts(sizes, p, n, q, trials, found, queries, nodes):
    ti = TheoremInstance(d=2, k=2, m_large=0, p=p, n=n, sizes=sizes)
    report = verify_theorem_empirically(ti, trials, seed=1, q=q)
    assert report.successes == found
    assert len(report.counterexamples) == trials - found
    assert sum(t.hull_queries for t in report.trials) == queries
    assert sum(t.nodes for t in report.trials) == nodes
    assert all(t.nodes == t.hull_queries + (t.status == "budget") for t in report.trials)


def _r4_searches():
    """The searches of the "r4" case above, one per trial."""
    ti = TheoremInstance(d=2, k=2, m_large=0, p=2, n=2, sizes=(4, 4, 4))
    return [find_disjoint_intersecting_family(
        random_configuration(ti.d, ti.sizes, _trial_seed(1, trial)), ti.q) for trial in range(20)]


# the witnesses the dense elimination returned: an exact LP that keeps
# Bland's rule takes the same pivots, so it returns these value for value
WITNESS_DIGEST = "8c5751120be7a9440e21815b1c40de7017b2f66e9976c5562b3fbd816f7791e2"


def test_the_witnesses_are_pinned():
    results = _r4_searches() + [find_disjoint_intersecting_family(
        random_configuration(3, (2, 2, 2, 2), _trial_seed(1, trial)), 2) for trial in range(10)]
    assert [r.status for r in results] == ["found"] * 30
    doc = json.dumps([r.witness.to_dict() for r in results], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == WITNESS_DIGEST


# Fraction products inside hulls_intersect over the "r4" searches
LP_PRODUCTS = 130_773


def test_the_hull_lp_multiplies_no_zero_entry(monkeypatch):
    # counts, not timings, so that a dense loop brought back shows on any host
    counts = {"in_lp": False, "products": 0, "zero": 0}
    mul, lp = Fraction.__mul__, geometry.hulls_intersect

    def counted_mul(a, b):
        if counts["in_lp"]:
            counts["products"] += 1
            counts["zero"] += not a or not b
        return mul(a, b)

    def counted_lp(faces, config):
        counts["in_lp"] = True
        try:
            return lp(faces, config)
        finally:
            counts["in_lp"] = False

    monkeypatch.setattr(Fraction, "__mul__", counted_mul)
    monkeypatch.setattr(geometry, "hulls_intersect", counted_lp)
    assert sum(r.hull_queries for r in _r4_searches()) == 2095
    assert counts["zero"] == 0
    assert counts["products"] == LP_PRODUCTS


def test_experiment_is_deterministic():
    ti = TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(3, 3, 3))
    a = verify_theorem_empirically(ti, 4, seed=3, q=2)
    b = verify_theorem_empirically(ti, 4, seed=3, q=2)
    assert a.to_dict()["per_trial"] == b.to_dict()["per_trial"]
