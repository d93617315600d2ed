"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 1 (the homological connectivity formula for board complexes over
both Z_2 and Z_3 on every board with sides at most 6) is checked exactly as
stated and is expected to FAIL on precisely three sub-cases where the
homological reading of the classical formula is mathematically false:
the 1x1 board is a point (acyclic, so no finite answer can equal -1), and
the bottom homology of the 5x5 board is pure 3-torsion, so its Z_2
connectivity is 2 rather than 1.  See the README for the computed tables.
"""

import itertools
import json
import random
import time

from tverlab.bounds import TheoremInstance, evaluate_bundle
from tverlab.cli import main as cli_main
from tverlab.complexes import (
    boundary_simplex,
    chessboard,
    decomposition_isomorphism,
    deleted_join,
    deleted_product,
    discrete_points,
    full_simplex,
    join,
    rainbow_complex,
    regular_embedding,
)
from tverlab.geometry import (
    ColoredConfiguration,
    hulls_intersect,
    verify_theorem_empirically,
)
from tverlab.homology import (
    betti,
    betti_numbers,
    cellular_chain_complex,
    chain_complex,
    hconn,
)
from tverlab.complexes import Coloring

from oracles import check_chain_complex, oracle_hulls_intersect_pair, random_rational_faces


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance {num}] {name}: {status}{suffix}")


def test_criterion_1_chessboard_connectivity_formula():
    t0 = time.time()
    mismatches = []
    for m in range(1, 7):
        for n in range(1, 7):
            expected = min(m, n, (m + n + 1) // 3) - 2
            for p in (2, 3):
                h = hconn(chessboard(m, n), p)
                if h.is_lower_bound or h.value != expected:
                    mismatches.append(
                        {"m": m, "n": n, "p": p, "computed": str(h), "formula": expected}
                    )
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 120
    _report(
        1,
        "chessboard connectivity formula, 36 boards x p in {2,3}",
        ok,
        f"{72 - len(mismatches)}/72 cases match in {elapsed:.1f}s"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds the 2 minute budget"
    assert not mismatches, f"connectivity formula mismatches: {mismatches}"


def test_criterion_1_fails_on_exactly_its_three_known_sub_cases():
    # criterion 1 reports any failure as one failed test, so a fourth
    # mismatch would hide behind the three expected ones without this check
    mismatches = []
    for m, n, p in itertools.product(range(1, 7), range(1, 7), (2, 3)):
        h = hconn(chessboard(m, n), p)
        expected = min(m, n, (m + n + 1) // 3) - 2
        if h.is_lower_bound or h.value != expected:
            mismatches.append((m, n, p, str(h), expected))
    assert mismatches == [(1, 1, 2, ">= 0", -1), (1, 1, 3, ">= 0", -1), (5, 5, 2, "2", 1)]


def test_criterion_2_decomposition_isomorphism():
    t0 = time.time()
    cases = 0
    for length in (1, 2, 3):
        for sizes in itertools.product((1, 2, 3), repeat=length):
            for r in (2, 3):
                witness = decomposition_isomorphism(list(sizes), r)
                assert witness.verified
                assert witness.left.f_vector == witness.right.f_vector
                cases += 1
    _report(
        2,
        "deleted join decomposes onto joins of board complexes",
        True,
        f"{cases} verified bijections in {time.time() - t0:.1f}s",
    )


def test_criterion_3_join_connectivity_and_kuenneth():
    pairs = [
        (boundary_simplex(1), boundary_simplex(1)),
        (boundary_simplex(2), boundary_simplex(1)),
        (boundary_simplex(2), boundary_simplex(2)),
        (boundary_simplex(3), boundary_simplex(1)),
        (discrete_points(3), discrete_points(2)),
        (discrete_points(4), discrete_points(4)),
        (chessboard(2, 2), boundary_simplex(2)),
        (chessboard(3, 3), discrete_points(2)),
        (chessboard(2, 3), boundary_simplex(1)),
        (chessboard(3, 4), discrete_points(2)),
        (chessboard(4, 4), discrete_points(2)),
        (chessboard(2, 4), boundary_simplex(2)),
    ]
    assert len(pairs) >= 10
    checked = 0
    for a, b in pairs:
        ha, hb = hconn(a, 2), hconn(b, 2)
        assert not ha.is_lower_bound and not hb.is_lower_bound
        j = join(a, b)
        hj = hconn(j, 2)
        lower = ha.value + hb.value + 2
        value_ok = hj.value >= lower
        assert value_ok, f"join connectivity {hj} < {lower}"

        ba, bb = betti_numbers(a, 2).betti, betti_numbers(b, 2).betti
        bj = betti_numbers(j, 2).betti
        for t in range(len(ba) + len(bb)):
            expected = sum(
                ba[i] * bb[t - 1 - i]
                for i in range(len(ba))
                if 0 <= t - 1 - i < len(bb)
            )
            actual = bj[t] if t < len(bj) else 0
            assert actual == expected, f"Kuenneth fails in degree {t}"
        checked += 1
    _report(
        3,
        "join connectivity additivity and exact Kuenneth over Z_2",
        True,
        f"{checked} pairs",
    )


def test_criterion_4_index_arithmetic_reproduces_worked_examples(capsys):
    large = TheoremInstance(d=8, k=7, m_large=6, p=7, n=1, sizes=(13,) * 6 + (10, 10))
    small = TheoremInstance(d=2, k=2, m_large=0, p=7, n=1, sizes=(10, 10, 10))
    rl = evaluate_bundle(large)
    rs = evaluate_bundle(small)
    assert rl["deleted_join_bound"]["lower"] == 54 == (8 + 1) * (7 - 1)
    assert rl["deleted_product_bound"]["lower"] == 48 == 8 * (7 - 1)
    assert rs["deleted_join_bound"]["lower"] == 18
    assert rs["deleted_product_bound"]["lower"] == 12

    for flags in (
        ["--d", "8", "--k", "7", "--m", "6", "--p", "7", "--n", "1",
         "--sizes", "13,13,13,13,13,13,10,10"],
        ["--d", "2", "--k", "2", "--m", "0", "--p", "7", "--n", "1",
         "--sizes", "10,10,10"],
    ):
        code = cli_main(["verify-theorem", *flags])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["result"]["verdict"]["applicable"] is True
        assert out["result"]["verdict"]["q"] == 6
    _report(4, "index arithmetic matches the worked parameter bundles", True,
            "54/48 and 18/12, both verdicts applicable with q=6")


def test_criterion_5_strict_inequality_upgrade():
    # equality bundle: m = (d-k)(r-1); strict bundle: one more large class
    d, k, p, n = 3, 2, 3, 1
    r = p ** n
    base_m = (d - k) * (r - 1)
    equality = TheoremInstance(
        d=d, k=k, m_large=base_m, p=p, n=n,
        sizes=tuple([2 * r - 1] * base_m + [2 * r - 4] * (k + 1 - base_m)),
    )
    strict = TheoremInstance(
        d=d, k=k, m_large=base_m + 1, p=p, n=n,
        sizes=tuple([2 * r - 1] * (base_m + 1) + [2 * r - 4] * (k - base_m)),
    )
    req = evaluate_bundle(equality)
    rsq = evaluate_bundle(strict)
    assert req["verdict"]["applicable"] and rsq["verdict"]["applicable"]
    assert req["upgrade"] is None
    assert req["promised_faces"] == r - 1
    assert rsq["upgrade"] is not None
    assert rsq["promised_faces"] == r
    _report(5, "strict large-class inequality upgrades the face count", True,
            f"{r - 1} faces at equality, {r} when strict")


def test_criterion_6_homology_engine_sanity():
    simplicial = [
        full_simplex(1), full_simplex(2), full_simplex(3), full_simplex(4),
        boundary_simplex(1), boundary_simplex(2), boundary_simplex(3),
        boundary_simplex(4), boundary_simplex(5),
        chessboard(2, 2), chessboard(3, 3), chessboard(3, 4), chessboard(4, 4),
        deleted_join(discrete_points(3), 2, 2),
        join(boundary_simplex(1), boundary_simplex(1)),
        rainbow_complex([2, 2, 2])[0],
    ]
    cellular = [
        deleted_product(discrete_points(2), 2, 2),
        deleted_product(full_simplex(1), 2, 2),
        deleted_product(boundary_simplex(2), 2, 2),
        deleted_product(boundary_simplex(3), 2, 2),
        deleted_product(rainbow_complex([2, 2])[0], 2, 2),
    ]
    checked = 0
    for p in (2, 3):
        for c in simplicial:
            cc = chain_complex(c, p)
            check_chain_complex(cc)
            profile = betti(cc)
            euler_cells = sum((-1) ** d * nd for d, nd in enumerate(cc.dims))
            euler_betti = 1 + sum((-1) ** d * b for d, b in enumerate(profile.betti))
            assert euler_cells == euler_betti
            checked += 1
        for c in cellular:
            cc = cellular_chain_complex(c, p)
            check_chain_complex(cc)
            profile = betti(cc)
            euler_cells = sum((-1) ** d * nd for d, nd in enumerate(cc.dims))
            euler_betti = 1 + sum((-1) ** d * b for d, b in enumerate(profile.betti))
            assert euler_cells == euler_betti
            checked += 1
        for dim in (1, 2, 3, 4):
            assert all(b == 0 for b in betti_numbers(full_simplex(dim), p).betti)
        for dim in (1, 2, 3, 4, 5):
            profile = betti_numbers(boundary_simplex(dim), p)
            assert list(profile.betti) == [0] * (dim - 1) + [1]
    _report(6, "boundary squared vanishes; spheres, simplices, Euler identity", True,
            f"{checked} chain complexes over both primes")


def test_criterion_7_lp_oracle_equivalence():
    rng = random.Random(20260809)
    disagreements = []
    feasible = 0
    for case in range(50):
        d = rng.choice([1, 2])
        fa, fb, pts = random_rational_faces(rng, d, 6)
        config = ColoredConfiguration(
            d, tuple(pts), Coloring((tuple(fa), tuple(fb)))
        )
        lp = hulls_intersect([tuple(fa), tuple(fb)], config)
        expected = oracle_hulls_intersect_pair(fa, fb, config.points, d)
        if (lp is not None) != expected:
            disagreements.append((case, d, fa, fb))
            continue
        if lp is not None:
            feasible += 1
            point, weights = lp
            for vs, ws in zip((fa, fb), weights):
                assert all(w >= 0 for w in ws)
                assert sum(ws) == 1
                for t in range(d):
                    assert sum(
                        w * config.points[v][t] for w, v in zip(ws, vs)
                    ) == point[t]
    _report(7, "exact LP agrees with the planar predicate oracle", not disagreements,
            f"50 instances, {feasible} feasible, {len(disagreements)} disagreements")
    assert not disagreements


def test_criterion_8_empirical_witness_search():
    t0 = time.time()
    zv = TheoremInstance(d=2, k=2, m_large=0, p=2, n=1, sizes=(3, 3, 3))
    zv_report = verify_theorem_empirically(zv, 100, seed=20260809, q=2)
    assert zv_report.counterexamples == (), (
        "exhaustive failure on the two-intersection case: "
        + json.dumps(zv_report.to_dict()["counterexamples"])
    )
    assert zv_report.successes == 100
    assert zv_report.budget_exhausted == 0

    quad = TheoremInstance(d=2, k=2, m_large=0, p=2, n=2, sizes=(4, 4, 4))
    quad_report = verify_theorem_empirically(
        quad, 100, seed=20260809, lp_budget=10 ** 6
    )
    assert quad_report.mode == "certified"
    assert quad_report.counterexamples == (), (
        "exhaustive failure on a certified bundle: "
        + json.dumps(quad_report.to_dict()["counterexamples"])
    )
    assert quad_report.successes == 100
    assert quad_report.budget_exhausted == 0

    for report in (zv_report, quad_report):
        for rec in report.trials:
            assert rec.status == "found"

    elapsed = time.time() - t0
    assert elapsed < 600, f"runtime {elapsed:.1f}s exceeds the 10 minute budget"
    queries = sum(t.hull_queries for t in zv_report.trials) + sum(
        t.hull_queries for t in quad_report.trials
    )
    _report(8, "witness search succeeds on 100+100 seeded trials", True,
            f"{queries} hull queries, {elapsed:.1f}s, all certificates exact")


def test_criterion_9_regular_embedding_group_properties():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        order = p ** n
        perms = regular_embedding(p, n)
        identity = tuple(range(order))
        assert len(set(perms)) == order
        assert identity in perms
        table = set(perms)
        for g in perms:
            for h in perms:
                assert tuple(g[h[i]] for i in range(order)) in table
            if g != identity:
                assert all(g[i] != i for i in range(order)), "action must be free"
                power = g
                for _ in range(p - 1):
                    power = tuple(g[power[i]] for i in range(order))
                assert power == identity, f"element order must divide {p}"
    _report(9, "translation embedding is a free p-torus of the right order", True,
            "(p,n) in {(2,1),(3,1),(2,2)}")
