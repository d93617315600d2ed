import itertools
import json
import sys

import pytest

from tverlab.bounds import (
    InapplicableError,
    SizeThresholdError,
    TheoremInstance,
    conn_lower_bound_join,
    evaluate_bundle,
    index_lower_bound_deleted_join,
    index_lower_bound_deleted_product,
    strict_inequality_note,
    threshold_violations,
    volovikov_condition,
)
from tverlab.complexes import chessboard, deleted_join, deleted_product, rainbow_complex
from tverlab.homology import betti_numbers, hconn


EX_LARGE = TheoremInstance(d=8, k=7, m_large=6, p=7, n=1, sizes=(13,) * 6 + (10, 10))
EX_SMALL = TheoremInstance(d=2, k=2, m_large=0, p=7, n=1, sizes=(10, 10, 10))


# -- instance validation -----------------------------------------------------------


def test_instance_derived_quantities():
    assert EX_LARGE.r == 7 and EX_LARGE.q == 6
    ti = TheoremInstance(d=2, k=2, m_large=0, p=2, n=2, sizes=(4, 4, 4))
    assert ti.r == 4 and ti.q == 3


def test_instance_validation():
    with pytest.raises(ValueError):
        TheoremInstance(d=0, k=1, m_large=0, p=2, n=1, sizes=(1, 1))
    with pytest.raises(ValueError):
        TheoremInstance(d=2, k=3, m_large=0, p=2, n=1, sizes=(1,) * 4)
    with pytest.raises(ValueError):
        TheoremInstance(d=2, k=2, m_large=4, p=2, n=1, sizes=(1, 1, 1))
    with pytest.raises(ValueError):
        TheoremInstance(d=2, k=2, m_large=0, p=4, n=1, sizes=(1, 1, 1))
    with pytest.raises(ValueError):
        TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(1, 1))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: TheoremInstance(d=2, k=2, m_large=0, p=2, n=0, sizes=(1, 1, 1)),
         "prime exponent n must be at least 1"),
        (lambda: TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(1, 0, 1)),
         "color classes must be nonempty"),
        (lambda: conn_lower_bound_join([3, 3], 3, 3), "m_large out of range"),
    ],
    ids=["zero-exponent", "empty-class", "more-large-classes-than-classes"],
)
def test_out_of_range_arguments_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_instance_rejects_an_r_too_long_to_print():
    # at the default limit of 4300 digits for int-to-text conversion: every
    # number a report prints is below (d+1)r, here 3 * 2**n; r is never
    # computed, so a bundle with a huge n is rejected at once
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for p, n in [(3, 30_000_000), (2, 20_000), (2, 14_283)]:
            with pytest.raises(ValueError, match=rf"r = {p}\*\*{n} makes \(d\+1\)r, .* longer than 4300 digits"):
                TheoremInstance(d=2, k=2, m_large=0, p=p, n=n, sizes=(1, 1, 1))
        # 3 * 2**14282 has 4300 digits, and the report prints (d+1)(r-1) =
        # 3 * 2**14282 - 3; 3 * 2**14283 has 4301
        ti = TheoremInstance(d=2, k=2, m_large=0, p=2, n=14_282, sizes=(1, 1, 1))
        assert len(json.dumps(evaluate_bundle(ti))) > 4300
    finally:
        sys.set_int_max_str_digits(limit)


# -- connectivity lower bound -------------------------------------------------------


def test_conn_bound_eight_colors():
    assert conn_lower_bound_join(EX_LARGE.sizes, 7, 6) == 52


def test_conn_bound_three_small_colors():
    assert conn_lower_bound_join((10, 10, 10), 7, 0) == 16


def test_conn_bound_two_colors_r2():
    assert conn_lower_bound_join((3, 3), 2, 2) == 2


def test_conn_bound_flags_thin_classes():
    with pytest.raises(SizeThresholdError) as err:
        conn_lower_bound_join((13, 9), 7, 1)
    assert err.value.violations[0]["index"] == 1
    assert err.value.violations[0]["required"] == 10
    assert threshold_violations((12, 10), 7, 1) == [
        {"index": 0, "size": 12, "required": 13}
    ]


# -- index bounds --------------------------------------------------------------------


def test_deleted_join_bound_large_example():
    bound = index_lower_bound_deleted_join(EX_LARGE)
    assert bound.lower == 54 == (EX_LARGE.d + 1) * (EX_LARGE.r - 1)
    rules = [step["rule"] for step in bound.provenance]
    assert rules == [
        "chessboard-connectivity",
        "join-connectivity",
        "index-from-connectivity",
        "large-class-count",
    ]


def test_deleted_join_bound_small_example():
    assert index_lower_bound_deleted_join(EX_SMALL).lower == 18


def test_deleted_join_bound_tiny():
    ti = TheoremInstance(d=1, k=1, m_large=2, p=2, n=1, sizes=(3, 3))
    assert index_lower_bound_deleted_join(ti).lower == 4


def test_deleted_product_bound_values():
    assert index_lower_bound_deleted_product(EX_LARGE).lower == 48
    assert index_lower_bound_deleted_product(EX_SMALL).lower == 12
    ti = TheoremInstance(d=1, k=1, m_large=0, p=2, n=1, sizes=(1, 1))
    assert index_lower_bound_deleted_product(ti).lower == 1


def test_deleted_product_bound_requires_enough_large_classes():
    ti = TheoremInstance(d=3, k=2, m_large=1, p=3, n=1, sizes=(5, 2, 2))
    with pytest.raises(InapplicableError) as err:
        index_lower_bound_deleted_product(ti)
    assert err.value.condition == "large-class-count"


def test_each_trace_step_cites_one_rule():
    for bound in (
        index_lower_bound_deleted_join(EX_LARGE),
        index_lower_bound_deleted_product(EX_SMALL),
    ):
        for step in bound.provenance:
            assert set(step) == {"rule", "statement"}
            assert step["rule"]


# -- verdicts -------------------------------------------------------------------------


def test_verdict_large_example_applicable():
    v = volovikov_condition(EX_LARGE)
    assert v.applicable and v.q == 6
    assert v.achieved_lower_bound == 48
    assert v.required_index == 48


def test_verdict_small_example_applicable():
    v = volovikov_condition(EX_SMALL)
    assert v.applicable and v.q == 6
    assert v.achieved_lower_bound == 12 == v.required_index


def test_verdict_remark_branch_r4():
    ti = TheoremInstance(d=2, k=2, m_large=0, p=2, n=2, sizes=(4, 4, 4))
    v = volovikov_condition(ti)
    assert v.applicable and v.q == 3
    branch = {c.name: c for c in v.conditions}["three-coincidences-exclusion"]
    assert branch.passed and "r = 4" in branch.detail


def test_verdict_fails_on_thin_classes():
    ti = TheoremInstance(d=2, k=2, m_large=0, p=7, n=1, sizes=(10, 10, 9))
    v = volovikov_condition(ti)
    assert not v.applicable
    failed = {c.name for c in v.conditions if not c.passed}
    assert "size-thresholds" in failed


def test_verdict_fails_when_m_too_small():
    ti = TheoremInstance(d=3, k=2, m_large=1, p=3, n=1, sizes=(5, 2, 2))
    v = volovikov_condition(ti)
    assert not v.applicable
    failed = {c.name for c in v.conditions if not c.passed}
    assert "large-class-count" in failed


def test_verdict_r2_is_out_of_coincidence_range():
    # q = 1 coincidence is vacuous; the argument needs y >= 2
    ti = TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(3, 3, 3))
    v = volovikov_condition(ti)
    assert not v.applicable
    failed = {c.name for c in v.conditions if not c.passed}
    assert "coincidence-count-in-range" in failed


def test_connectedness_is_recorded_as_assumption():
    v = volovikov_condition(EX_SMALL)
    assumed = [c for c in v.conditions if c.assumed]
    assert len(assumed) == 1
    assert assumed[0].name == "configuration-space-connected"


CONDITION_NAMES = [
    "size-thresholds",
    "large-class-count",
    "coincidence-count-in-range",
    "three-coincidences-exclusion",
    "index-inequality",
    "configuration-space-connected",
]


def bundle_grid():
    """Bundles with d <= 4, r in {2, 3, 4, 5, 7, 9}, every m_large, and class
    sizes at and one below both thresholds."""
    for d, p, n in itertools.product(range(1, 5), (2, 3, 5, 7), (1, 2)):
        r = p ** n
        if r > 9:
            continue
        around = sorted({max(s, 1) for s in (2 * r - 5, 2 * r - 4, 2 * r - 2, 2 * r - 1)})
        for k in range(1, d + 1):
            for m in range(k + 2):
                # every size on the first two classes, the rest held at 2r-1
                for head in itertools.product(around, repeat=2):
                    yield TheoremInstance(d, k, m, p, n, (*head, *[2 * r - 1] * (k - 1)))


def test_verdict_states_the_theorem_on_a_grid():
    # with q = r - 1 the verdict comes down to the paper's hypotheses, and
    # a claimed product bound d(r-1) is exactly the index the argument needs
    count = 0
    for ti in bundle_grid():
        r, d, k, m = ti.r, ti.d, ti.k, ti.m_large
        v = volovikov_condition(ti)
        thresholds_met = all(
            s >= (2 * r - 1 if i < m else 2 * r - 4) for i, s in enumerate(ti.sizes)
        )
        claimed = thresholds_met and m >= (d - k) * (r - 1)
        assert v.applicable == (claimed and r >= 3)
        assert v.required_index == d * (r - 1)
        assert v.achieved_lower_bound == (v.required_index if claimed else None)
        assert [c.name for c in v.conditions] == CONDITION_NAMES
        count += 1
    assert count > 2000


# -- the board thresholds, against exact homology -----------------------------------


def board_threshold(r, m_large):
    """Smallest board width the bound accepts for one class: 2r-1 for a large
    class, 2r-4 (at least 1) for a small one."""
    return max(2 * r - 1 if m_large else 2 * r - 4, 1)


# r = 5 is read over Z_2 only: its 9-column board over an odd prime takes
# seconds to reduce
@pytest.mark.parametrize(
    "r,primes", [(2, (2,)), (3, (2, 3)), (4, (2,)), (5, (2,))], ids=["r2", "r3", "r4", "r5"]
)
@pytest.mark.parametrize("m_large", [1, 0], ids=["large", "small"])
def test_board_homology_vanishes_through_the_claimed_degree(r, primes, m_large):
    """The r x s chessboard at a size threshold has no reduced homology through
    the degree ``conn_lower_bound_join`` claims it connected to.  This is a
    necessary condition only: homology cannot prove connectivity."""
    s = board_threshold(r, m_large)
    degree = conn_lower_bound_join([s], r, m_large)
    board = chessboard(r, s)
    assert not board.is_empty  # (-1)-connected
    for p in primes:
        assert not any(betti_numbers(board, p).betti[: degree + 1]), (r, s, p)


# one below each threshold; 5x5 has only 3-torsion in degree 2, so Z_2 sees
# no homology there
@pytest.mark.parametrize(
    "r,m_large,p",
    [(2, 1, 2), (3, 1, 2), (3, 0, 2), (4, 1, 2), (4, 0, 2), (5, 1, 2), (5, 0, 3)],
)
def test_board_thresholds_are_sharp(r, m_large, p):
    """One column below a threshold, the board has homology in the degree
    claimed at the threshold, so it is not that connected, and the bound
    refuses the class."""
    s = board_threshold(r, m_large) - 1
    degree = conn_lower_bound_join([s + 1], r, m_large)
    with pytest.raises(SizeThresholdError):
        conn_lower_bound_join([s], r, m_large)
    assert betti_numbers(chessboard(r, s), p).betti[degree] > 0


# -- the strict-inequality upgrade -----------------------------------------------------


def test_upgrade_when_inequality_strict():
    ti = TheoremInstance(d=3, k=3, m_large=1, p=3, n=1, sizes=(5, 5, 5, 5))
    note = strict_inequality_note(ti)
    assert note is not None and note.promised_faces == 3


def test_no_upgrade_on_equality():
    ti = TheoremInstance(d=3, k=2, m_large=2, p=3, n=1, sizes=(5, 5, 2))
    assert strict_inequality_note(ti) is None


def test_no_upgrade_below_the_size_thresholds():
    # m_large = 2 > (d-k)(r-1) = 0, but both classes are below 2r-1 = 5, so
    # neither the join bound nor its upgrade is claimed
    ti = TheoremInstance(d=1, k=1, m_large=2, p=3, n=1, sizes=(1, 1))
    assert strict_inequality_note(ti) is None
    report = evaluate_bundle(ti)
    assert "error" in report["deleted_join_bound"]
    assert report["upgrade"] is None and report["promised_faces"] is None


def test_upgrade_large_example_with_extra_class():
    ti = TheoremInstance(d=8, k=7, m_large=7, p=7, n=1, sizes=(13,) * 7 + (10,))
    note = strict_inequality_note(ti)
    assert note is not None and note.promised_faces == 7


def test_evaluate_bundle_promised_faces():
    upgraded = TheoremInstance(d=3, k=2, m_large=3, p=3, n=1, sizes=(5, 5, 5))
    plain = TheoremInstance(d=3, k=2, m_large=2, p=3, n=1, sizes=(5, 5, 2))
    assert evaluate_bundle(upgraded)["promised_faces"] == 3
    assert evaluate_bundle(plain)["promised_faces"] == 2


# -- calculus invariants ----------------------------------------------------------------


def test_interesting_case_identity():
    # m exactly (d-k)(r-1) forces the join bound to equal (d+1)(r-1)
    for d, k, p, n in [(3, 2, 3, 1), (4, 3, 2, 2), (8, 7, 7, 1), (2, 2, 5, 1)]:
        r = p ** n
        m = (d - k) * (r - 1)
        if m > k + 1:
            continue
        sizes = tuple([2 * r - 1] * m + [max(2 * r - 4, 1)] * (k + 1 - m))
        ti = TheoremInstance(d=d, k=k, m_large=m, p=p, n=n, sizes=sizes)
        assert index_lower_bound_deleted_join(ti).lower == (d + 1) * (r - 1)


def test_bound_monotone_in_m():
    base = dict(d=8, k=7, p=7, n=1)
    previous = None
    for m in range(0, 9):
        sizes = tuple([13] * m + [10] * (8 - m))
        ti = TheoremInstance(m_large=m, sizes=sizes, **base)
        lower = index_lower_bound_deleted_join(ti).lower
        if previous is not None:
            assert lower == previous + 1
        previous = lower


def test_bound_depends_only_on_thresholds():
    fat = TheoremInstance(d=2, k=2, m_large=0, p=7, n=1, sizes=(50, 23, 10))
    thin = TheoremInstance(d=2, k=2, m_large=0, p=7, n=1, sizes=(10, 10, 10))
    assert (
        index_lower_bound_deleted_join(fat).lower
        == index_lower_bound_deleted_join(thin).lower
    )


def test_verdict_never_applicable_below_thresholds_or_m():
    bad_sizes = TheoremInstance(d=2, k=2, m_large=1, p=3, n=1, sizes=(4, 2, 2))
    assert not volovikov_condition(bad_sizes).applicable
    bad_m = TheoremInstance(d=4, k=2, m_large=2, p=3, n=1, sizes=(5, 5, 2))
    assert not volovikov_condition(bad_m).applicable


def test_homological_connectivity_meets_the_formula_bound():
    # smallest honest bundle: two classes of three points, two copies
    rainbow, _ = rainbow_complex([3, 3])
    dj = deleted_join(rainbow, 2, 2)
    predicted = conn_lower_bound_join((3, 3), 2, 2)
    h = hconn(dj, 2)
    value = h.value  # join of two hexagons is a 3-sphere
    assert value >= predicted
    assert betti_numbers(dj, 2).betti == (0, 0, 0, 1)


def test_connectedness_assumption_spot_check():
    # the verdict records connectedness of the deleted product as an
    # assumption; confirm it homologically on small instances
    for sizes in ([2, 2], [3, 3], [2, 2, 2]):
        rainbow, _ = rainbow_complex(sizes)
        dp = deleted_product(rainbow, 2, 2)
        assert betti_numbers(dp, 2).betti[0] == 0


def test_the_verdict_assumes_connectedness_where_the_product_is_disconnected():
    # at the small threshold 2r - 4 = 2 the verdict promises two faces, yet
    # the deleted product is a 2-regular graph on 24 vertices with two
    # components, two disjoint cycles; beta_0 counts components minus one
    # over every field, so this is exact, not a Z_p proxy
    ti = TheoremInstance(d=1, k=1, m_large=0, p=3, n=1, sizes=(2, 2))
    v = volovikov_condition(ti)
    assert v.applicable and evaluate_bundle(ti)["promised_faces"] == 2
    (connected,) = [c for c in v.conditions if c.name == "configuration-space-connected"]
    assert connected.passed and connected.assumed
    dp = deleted_product(rainbow_complex([2, 2])[0], 3)
    assert dp.f_vector == (24, 24)
    for p in (2, 3):
        assert betti_numbers(dp, p).betti == (1, 2)


def test_claimed_index_bounds_are_at_most_the_dimension_plus_one():
    # a free space has index at most dim + 1 (index >= conn + 2); the
    # deleted join of the rainbow complex has dimension sum(min(s_i, r)) - 1,
    # and its deleted product sum(min(s_i, r)) - r
    claims = tight = 0
    for ti in bundle_grid():
        r = ti.r
        top = sum(min(s, r) for s in ti.sizes)
        for bound, dim in ((index_lower_bound_deleted_join, top - 1),
                           (index_lower_bound_deleted_product, top - r)):
            try:
                lower = bound(ti).lower
            except (SizeThresholdError, InapplicableError):
                continue
            assert lower <= dim + 1, (ti, bound.__name__)
            claims += 1
            tight += lower == dim + 1
    assert (claims, tight) == (1216, 83)
    # both bounds are tight on (2, 2, 2) at r = 3, whose deleted join has
    # dimension 5 and deleted product dimension 3
    ti = TheoremInstance(d=2, k=2, m_large=0, p=3, n=1, sizes=(2, 2, 2))
    rainbow = rainbow_complex([2, 2, 2])[0]
    assert index_lower_bound_deleted_join(ti).lower == 6 == deleted_join(rainbow, 3).dim + 1
    assert index_lower_bound_deleted_product(ti).lower == 4 == deleted_product(rainbow, 3).dim + 1
