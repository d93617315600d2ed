"""Arithmetic of cohomological index bounds for the colored configuration
spaces, and the applicability verdict of the partial-coincidence argument.

Exact index values are never computed; every number produced here is a bound
derived by a named calculus rule, and each derivation step cites exactly one
rule.  Two parameters that share a letter in the classical statements are
kept apart throughout: ``target_dim`` (the dimension of the target space)
and ``m_large`` (the number of color classes held to the larger size
threshold).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .complexes import is_prime


class SizeThresholdError(ValueError):
    """Some color class is below its size threshold; the connectivity bound
    is then not claimed."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        detail = ", ".join(map(self.describe, self.violations))
        super().__init__(f"size thresholds unmet: {detail}")

    @staticmethod
    def describe(v: dict) -> str:
        """One entry of ``threshold_violations`` as text."""
        return f"class {v['index']} has size {v['size']} < {v['required']}"


class InapplicableError(ValueError):
    """A bound's precondition fails for the given parameter bundle."""

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(message)


@dataclass(frozen=True)
class TheoremInstance:
    """Parameter bundle: maps into R^d, k+1 color classes, the first
    ``m_large`` of size at least 2r-1 and the rest at least 2r-4, where
    r = p**n is the prime-power number of copies and q = r - 1."""

    d: int
    k: int
    m_large: int
    p: int
    n: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if self.d < 1:
            raise ValueError("target dimension d must be at least 1")
        if not 1 <= self.k <= self.d:
            raise ValueError("need 1 <= k <= d")
        if not 0 <= self.m_large <= self.k + 1:
            raise ValueError("need 0 <= m_large <= k+1")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 1:
            raise ValueError("prime exponent n must be at least 1")
        # every number a report prints, such as (d+1)(r-1) + 1, is below
        # (d+1)r = (d+1)p**n, which has floor(log10(d+1) + n*log10(p)) + 1
        # digits; r is not computed here, and a report past the limit for
        # int-to-text conversion (3.10.7+) is rejected
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and math.log10(self.d + 1) + self.n * math.log10(self.p) >= limit:
            raise ValueError(f"r = {self.p}**{self.n} makes (d+1)r, the bound on the numbers "
                             f"a report prints, longer than {limit} digits")
        if len(self.sizes) != self.k + 1:
            raise ValueError(f"need exactly k+1 = {self.k + 1} color sizes")
        if any(s < 1 for s in self.sizes):
            raise ValueError("color classes must be nonempty")

    @property
    def r(self) -> int:
        return self.p ** self.n

    @property
    def q(self) -> int:
        return self.r - 1

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "m": self.m_large,
            "p": self.p,
            "n": self.n,
            "sizes": list(self.sizes),
            "r": self.r,
            "q": self.q,
        }


def threshold_violations(sizes, r: int, m_large: int) -> list[dict]:
    """Classes below their required size: 2r-1 for the first m_large
    classes, 2r-4 after."""
    required = [2 * r - 1] * m_large + [2 * r - 4] * (len(sizes) - m_large)
    return [
        {"index": i, "size": s, "required": req}
        for i, (s, req) in enumerate(zip(sizes, required))
        if s < req
    ]


def conn_lower_bound_join(sizes, r: int, m_large: int) -> int:
    """Connectivity lower bound for the r-fold pairwise deleted join of a
    rainbow complex whose classes meet the size thresholds.

    Each large class contributes a chessboard factor that is at least
    (r-2)-connected, each small class one that is at least (r-3)-connected,
    and joining k+1 factors adds 2k.
    """
    sizes = list(sizes)
    if not 0 <= m_large <= len(sizes):
        raise ValueError("m_large out of range")
    violations = threshold_violations(sizes, r, m_large)
    if violations:
        raise SizeThresholdError(violations)
    k = len(sizes) - 1
    return m_large * (r - 2) + (k + 1 - m_large) * (r - 3) + 2 * k


@dataclass(frozen=True)
class IndexBound:
    """A lower bound on the index of a symbolic space, with its derivation.

    Every provenance entry cites exactly one calculus rule.
    """

    space: str
    lower: int
    provenance: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "lower": self.lower,
            "provenance": [dict(step) for step in self.provenance],
        }


def _step(rule: str, statement: str) -> dict:
    return {"rule": rule, "statement": statement}


def index_lower_bound_deleted_join(ti: TheoremInstance) -> IndexBound:
    """Index lower bound (k+1)(r-1) + m_large for the r-fold pairwise deleted
    join of the rainbow complex, via connectivity."""
    r, k, m = ti.r, ti.k, ti.m_large
    conn = conn_lower_bound_join(ti.sizes, r, m)
    lower = conn + 2
    assert lower == (k + 1) * (r - 1) + m
    trace = [
        _step(
            "chessboard-connectivity",
            f"each of the {m} large color factors is at least {r - 2}-connected, "
            f"each of the {k + 1 - m} small ones at least {r - 3}-connected",
        ),
        _step(
            "join-connectivity",
            f"joining k+1 = {k + 1} factors: conn >= {m}*({r - 2}) + "
            f"{k + 1 - m}*({r - 3}) + 2*{k} = {conn}",
        ),
        _step(
            "index-from-connectivity",
            f"index >= conn + 2 = {lower} = (k+1)(r-1) + m_large",
        ),
    ]
    if m >= (ti.d - k) * (r - 1):
        trace.append(
            _step(
                "large-class-count",
                f"m_large = {m} >= (d-k)(r-1) = {(ti.d - k) * (r - 1)}, hence "
                f"index >= (d+1)(r-1) = {(ti.d + 1) * (r - 1)}",
            )
        )
    return IndexBound("deleted-join-of-rainbow", lower, tuple(trace))


def index_lower_bound_deleted_product(ti: TheoremInstance) -> IndexBound:
    """Index lower bound d(r-1) for the r-fold pairwise deleted product.

    Requires m_large >= (d-k)(r-1); derived by splitting the deleted join
    into the off-diagonal part (which maps to a sphere of coindex r-1) and
    the diagonal part, which is the deleted product.
    """
    r, d, k, m = ti.r, ti.d, ti.k, ti.m_large
    needed = (d - k) * (r - 1)
    if m < needed:
        raise InapplicableError(
            "large-class-count",
            f"m_large = {m} < (d-k)(r-1) = {needed}: the product bound is not claimed",
        )
    join_bound = index_lower_bound_deleted_join(ti)
    lower = d * (r - 1)
    trace = list(join_bound.provenance) + [
        _step(
            "free-sphere-index",
            f"the off-diagonal part maps equivariantly to a free "
            f"{r - 2}-sphere, so its splitting index is at most {r - 1}",
        ),
        _step(
            "union-splitting",
            f"index(join) <= splitting-index(off-diagonal) + index(product): "
            f"index(product) >= {(d + 1) * (r - 1)} - {r - 1} = {lower}",
        ),
    ]
    return IndexBound("pairwise-deleted-product-of-rainbow", lower, tuple(trace))


@dataclass(frozen=True)
class Condition:
    name: str
    passed: bool
    detail: str
    assumed: bool = False

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.assumed:
            out["assumed"] = True
        return out


@dataclass(frozen=True)
class Verdict:
    """Aggregate applicability check: applicable iff every condition passes."""

    applicable: bool
    q: int
    required_index: int
    achieved_lower_bound: int | None
    conditions: tuple[Condition, ...]

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "q": self.q,
            "required_index": self.required_index,
            "achieved_lower_bound": self.achieved_lower_bound,
            "conditions": [c.to_dict() for c in self.conditions],
        }


def volovikov_condition(ti: TheoremInstance) -> Verdict:
    """Decide whether the coincidence argument promises q = r - 1 pairwise
    disjoint rainbow faces with intersecting images for the bundle.

    Conditions are named and reported individually; the connectedness of the
    configuration space is recorded as an assumption (it can be spot-checked
    homologically at desk scale but is not verified at full scale).
    """
    r, q, d, k, m = ti.r, ti.q, ti.d, ti.k, ti.m_large
    violations = threshold_violations(ti.sizes, r, m)
    needed = (d - k) * (r - 1)
    required = (d - 1) * (r - 1) + q
    # the product bound d(r-1) is claimed exactly when these two hold
    achieved = d * (r - 1) if not violations and m >= needed else None

    conditions = (
        Condition(
            "size-thresholds",
            not violations,
            "all color classes meet their size thresholds"
            if not violations
            else "; ".join(map(SizeThresholdError.describe, violations)),
        ),
        Condition(
            "large-class-count",
            m >= needed,
            f"m_large = {m} vs (d-k)(r-1) = {needed}",
        ),
        Condition(
            "coincidence-count-in-range",
            2 <= q <= r,
            f"y = q = {q} must satisfy 2 <= y <= r = {r}",
        ),
        # y = q = 3 only at r = 4, which lies in the covered range 3, 4, 5
        Condition(
            "three-coincidences-exclusion",
            True,
            f"y = {q} != 3" if q != 3
            else f"y = 3 is admissible for r = {r} (covered for r in 3, 4, 5)",
        ),
        # q = r - 1, so a claimed product bound d(r-1) is exactly the required
        # (d-1)(r-1) + q
        Condition(
            "index-inequality",
            achieved is not None,
            f"achieved product index bound {achieved} = required "
            f"(target_dim-1)(r-1) + y = {required} "
            f"(target_dim = {d}, m_large = {m})"
            if achieved is not None
            else "no product index bound is claimed while earlier conditions fail",
        ),
        Condition(
            "configuration-space-connected",
            True,
            "connectedness of the deleted product is assumed; spot-check "
            "reduced Betti number 0 on small instances",
            assumed=True,
        ),
    )

    applicable = all(c.passed for c in conditions)
    return Verdict(applicable, q, required, achieved, conditions)


@dataclass(frozen=True)
class FaceCountUpgrade:
    """Strict inequality m_large > (d-k)(r-1) promotes the promised number of
    pairwise disjoint rainbow faces from q = r-1 to r."""

    promised_faces: int
    provenance: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "promised_faces": self.promised_faces,
            "provenance": [dict(step) for step in self.provenance],
        }


def strict_inequality_note(ti: TheoremInstance) -> FaceCountUpgrade | None:
    """Return the face-count upgrade when the classes meet their size
    thresholds and m_large strictly exceeds (d-k)(r-1); None otherwise."""
    r, d, k, m = ti.r, ti.d, ti.k, ti.m_large
    gap = m - (d - k) * (r - 1)
    if gap <= 0 or threshold_violations(ti.sizes, r, m):
        return None
    trace = [
        _step(
            "strict-large-class-count",
            f"m_large = {m} exceeds (d-k)(r-1) = {(d - k) * (r - 1)} by {gap}: "
            f"join index >= (d+1)(r-1) + 1 = {(d + 1) * (r - 1) + 1}",
        ),
        _step(
            "union-splitting",
            f"product index >= d(r-1) + 1 = {d * (r - 1) + 1}",
        ),
        _step(
            "partial-coincidence",
            f"apply the coincidence argument with y = r = {r}: "
            f"{r} pairwise disjoint rainbow faces are promised"
            + (" (y = 3 admissible since r = 3)" if r == 3 else ""),
        ),
    ]
    return FaceCountUpgrade(r, tuple(trace))


def promised_faces(verdict: Verdict, upgrade: FaceCountUpgrade | None) -> int | None:
    """Number of pairwise disjoint rainbow faces the bundle is promised: the
    upgrade's count when there is one, else q; None unless the verdict is
    applicable."""
    if not verdict.applicable:
        return None
    return upgrade.promised_faces if upgrade else verdict.q


def evaluate_bundle(ti: TheoremInstance) -> dict:
    """Full report for a parameter bundle: verdict, both index bounds where
    claimable, and the promised number of faces after any upgrade."""
    verdict = volovikov_condition(ti)
    report: dict = {"instance": ti.to_dict(), "verdict": verdict.to_dict()}

    try:
        report["deleted_join_bound"] = index_lower_bound_deleted_join(ti).to_dict()
    except SizeThresholdError as exc:
        report["deleted_join_bound"] = {"error": str(exc)}
    try:
        report["deleted_product_bound"] = index_lower_bound_deleted_product(ti).to_dict()
    except (SizeThresholdError, InapplicableError) as exc:
        report["deleted_product_bound"] = {"error": str(exc)}

    upgrade = strict_inequality_note(ti)
    report["upgrade"] = upgrade.to_dict() if upgrade else None
    report["promised_faces"] = promised_faces(verdict, upgrade)
    return report
