"""Answer checks whose expected values do not come from the code under test.

Betti profiles are a table, each entry also consistent with the Euler
identity against the complex's f-vector; the profiles of deleted joins come
from the join formula applied to small boards. Witnesses are re-checked in
plain ``Fraction`` arithmetic, and CLI reports are compared with fixed
fields, among them the chessboard connectivity formula. Every checker
returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Reduced Betti numbers of small chessboard complexes over any field, by
# degree: the 3x3 board is a wedge of four circles, the 2x3 board a hexagon.
BOARD_BETTI = {(3, 3): (0, 4, 0), (2, 3): (0, 1)}


def join_betti(a, b) -> tuple:
    """Reduced Betti numbers of a join over a field: degree i + j + 1 gets
    the product of degree i of ``a`` and degree j of ``b``."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j + 1] += x * y
    return tuple(out)


def deleted_join_betti(sizes, r: int) -> tuple:
    """The r-fold deleted join of the rainbow complex with these class
    sizes is the join of the boards s_i x r."""
    profile = BOARD_BETTI[(min(sizes[0], r), max(sizes[0], r))]
    for s in sizes[1:]:
        profile = join_betti(profile, BOARD_BETTI[(min(s, r), max(s, r))])
    return profile


# Reduced Betti numbers, degrees 0..top. Literature anchors: the 6x7 board
# has beta_4 = 1092 over Z_2, and the r = 3 deleted join of the rainbow
# complex of sizes (3, 3, 3) is the join of three 3x3 boards, a wedge of
# 4^3 = 64 spheres of dimension 5.
EXPECTED_BETTI = {
    ("chessboard(6,7)", 2): (0, 0, 0, 0, 1092, 1),
    ("deleted_product(chessboard(3,3),3)", 3): (0, 12, 41, 0, 0, 0, 0),
    ("deleted_join(rainbow([3,3,3]),3)", 2): (0, 0, 0, 0, 0, 64, 0, 0, 0),
    ("deleted_join(rainbow([3,2,2]),3)", 3): deleted_join_betti([3, 2, 2], 3),
}


def reduced_euler_from_f_vector(f_vector) -> int:
    return sum((-1) ** d * f for d, f in enumerate(f_vector)) - 1


def reduced_euler_from_betti(betti) -> int:
    return sum((-1) ** d * b for d, b in enumerate(betti))


def check_betti(label: str, p: int, f_vector, betti) -> list[str]:
    problems = []
    expected = EXPECTED_BETTI.get((label, p))
    if expected is None:
        problems.append(f"{label}/Z_{p}: no expected profile")
    elif tuple(betti) != expected:
        problems.append(f"{label}/Z_{p}: betti {tuple(betti)} != expected {expected}")
    if reduced_euler_from_betti(betti) != reduced_euler_from_f_vector(f_vector):
        problems.append(f"{label}/Z_{p}: betti {tuple(betti)} break the Euler identity "
                        f"for f-vector {tuple(f_vector)}")
    return problems


def nu(m: int, n: int) -> int:
    """Connectivity of the m-by-n chessboard complex."""
    return min(m, n, (m + n + 1) // 3) - 2


def _rational(x):
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"{x!r} is not an exact rational")
    return Fraction(x)


def check_witness(points, classes, q: int, faces, point, weights) -> list[str]:
    """Re-check a witness: q rainbow faces, pairwise disjoint, nonnegative
    weights summing to one whose weighted sums all reproduce the point.

    ``points`` are integer tuples, ``classes`` lists of point indices,
    ``faces`` vertex-index tuples aligned with ``weights``."""
    problems = []
    color = {v: c for c, block in enumerate(classes) for v in block}
    d = len(points[0])
    if len(faces) != q:
        problems.append(f"{len(faces)} faces, expected {q}")
    if len(weights) != len(faces):
        return problems + ["one weight vector per face required"]
    try:
        point = [_rational(c) for c in point]
        weights = [[_rational(w) for w in ws] for ws in weights]
    except TypeError as exc:
        return problems + [str(exc)]
    if len(point) != d:
        return problems + [f"point has {len(point)} coordinates, expected {d}"]
    seen = set()
    for face, ws in zip(faces, weights):
        if not face or any(v not in color for v in face):
            problems.append(f"face {face} is empty or uses unknown points")
            continue
        colors = [color[v] for v in face]
        if len(set(colors)) != len(colors):
            problems.append(f"face {face} is not rainbow")
        if seen & set(face):
            problems.append(f"face {face} meets an earlier face")
        seen.update(face)
        if len(ws) != len(face):
            problems.append(f"face {face} has {len(ws)} weights")
            continue
        if any(w < 0 for w in ws):
            problems.append(f"face {face} has a negative weight")
        if sum(ws) != 1:
            problems.append(f"weights of face {face} sum to {sum(ws)}")
        for t in range(d):
            if sum(w * points[v][t] for w, v in zip(ws, face)) != point[t]:
                problems.append(f"face {face} does not reproduce coordinate {t}")
    return problems


def check_witness_report(witness, points, classes, q: int) -> list[str]:
    """``check_witness`` on the JSON encoding the CLI prints."""
    if not witness:
        return ["no witness in the report"]
    try:
        point = [Fraction(c) for c in witness["point"]]
        weights = [[Fraction(w) for w in ws] for ws in witness["weights"]]
        faces = [tuple(f) for f in witness["faces"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed witness ({exc})"]
    return check_witness(points, classes, q, faces, point, weights)


def _field(doc, dotted: str):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


def check_cli(name: str, returncode: int, stdout: str, expected_code: int, fields: dict) -> tuple[list[str], dict | None]:
    """Exit code, exactly one JSON report on stdout, and fixed result fields
    (dotted paths into ``result``). Returns the problems and the report."""
    problems = []
    if returncode != expected_code:
        problems.append(f"{name}: exit code {returncode}, expected {expected_code}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"{name}: stdout is not one JSON document ({exc})"], None
    if not isinstance(report, dict) or not {"input_echo", "result", "timing_seconds", "version"} <= set(report):
        return problems + [f"{name}: report lacks the standard keys"], None
    for path, want in fields.items():
        try:
            got = _field(report["result"], path)
        except (KeyError, TypeError):
            problems.append(f"{name}: result has no field {path}")
            continue
        if got != want:
            problems.append(f"{name}: {path} = {got!r}, expected {want!r}")
    return problems, report
