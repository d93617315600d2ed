"""Independent oracles used to cross-check library results.

Everything here re-derives answers from first principles along a different
code path: brute-force predicate enumeration for board complexes, deleted
joins and deleted products, a plain dense row-reduction for ranks mod p, and
exact orientation predicates for planar hull intersection.  Beside them,
``mod_matrix`` builds a matrix for the rank engine from ``(row, value)``
columns.
"""

import itertools
from collections import Counter
from fractions import Fraction

from tverlab.homology import ModMatrix


# -- combinatorial oracles ----------------------------------------------------


def brute_force_chessboard_faces(m, n):
    """All non-attacking rook placements, found by testing every subset of
    cells against the distinct-rows/distinct-columns predicate."""
    cells = [(i, j) for i in range(m) for j in range(n)]
    faces = set()
    for size in range(1, min(m, n) + 1):
        for combo in itertools.combinations(cells, size):
            rows = [c[0] for c in combo]
            cols = [c[1] for c in combo]
            if len(set(rows)) == size and len(set(cols)) == size:
                faces.add(tuple(sorted(i * n + j for i, j in combo)))
    return faces


def deleted_join_by_product(base, n, k):
    """Faces of the n-fold k-wise deleted join, enumerated directly: one face
    of ``base`` or none per copy, each vertex in fewer than k of them."""
    nb = base.n_vertices
    faces = [
        tuple(c * nb + v for c, f in enumerate(combo) for v in f)
        for combo in itertools.product([(), *base.faces()], repeat=n)
        if max(Counter(itertools.chain(*combo)).values(), default=0) < k
    ]
    return sorted(filter(None, faces), key=lambda f: (len(f), f))


def deleted_product_by_product(base, n, k):
    """Cells of the n-fold k-wise deleted product, enumerated directly: one
    nonempty face of ``base`` per copy, each vertex in fewer than k of them."""
    cells = [
        combo for combo in itertools.product(list(base.faces()), repeat=n)
        if max(Counter(itertools.chain(*combo)).values()) < k
    ]
    return sorted(cells, key=lambda cell: (sum(map(len, cell)), cell))


def is_downward_closed(complex_):
    for f in complex_.faces():
        for size in range(1, len(f)):
            for sub in itertools.combinations(f, size):
                if not complex_.has_face(sub):
                    return False
    return True


# -- rank and homology oracles ------------------------------------------------


def oracle_rank_mod_p(rows, p):
    """Gaussian elimination on plain Python lists."""
    rows = [[v % p for v in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def oracle_betti(complex_, p):
    """Reduced Betti numbers rebuilt from scratch: dense boundary matrices
    with alternating signs, ranks by the plain elimination above."""
    top = complex_.dim
    if top < 0:
        return []
    graded = [list(complex_.faces_of_dim(d)) for d in range(top + 1)]
    index = [{f: i for i, f in enumerate(g)} for g in graded]
    ranks = [1 if graded[0] else 0]  # augmentation
    for d in range(1, top + 1):
        rows = [[0] * len(graded[d]) for _ in range(len(graded[d - 1]))]
        for j, f in enumerate(graded[d]):
            for t in range(len(f)):
                rows[index[d - 1][f[:t] + f[t + 1:]]][j] = (-1) ** t
        ranks.append(oracle_rank_mod_p(rows, p))
    ranks.append(0)
    return [len(graded[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]


def oracle_cellular_betti(product, p):
    """Reduced Betti numbers of a product-cell complex, with the boundary
    assembled independently by the graded Leibniz rule."""
    top = product.dim
    if top < 0:
        return []
    graded = [list(product.cells_of_dim(d)) for d in range(top + 1)]
    index = [{c: i for i, c in enumerate(g)} for g in graded]
    ranks = [1 if graded[0] else 0]
    for d in range(1, top + 1):
        rows = [[0] * len(graded[d]) for _ in range(len(graded[d - 1]))]
        for j, cell in enumerate(graded[d]):
            acc = 0  # total dimension of factors seen so far
            for i, factor in enumerate(cell):
                if len(factor) > 1:
                    for t in range(len(factor)):
                        child = cell[:i] + (factor[:t] + factor[t + 1:],) + cell[i + 1:]
                        rows[index[d - 1][child]][j] += (-1) ** (acc + t)
                acc += len(factor) - 1
        ranks.append(oracle_rank_mod_p(rows, p))
    ranks.append(0)
    return [len(graded[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1)]


def oracle_boundary_columns(complex_, p):
    """The boundary matrices of a simplicial or product-cell complex over
    Z_p, rebuilt one cell at a time by tuple slicing, with a simplex taken
    as the 1-factor cell ``(face,)``.  Per degree, per cell in storage
    order: the ``(row, value)`` pairs of its boundary, factor by factor
    and, within a factor, by the position of the dropped vertex; dropping
    position t of factor i has sign (-1) to t plus the dimension of the
    factors before i.  Degree 0 is the augmentation ``[(0, 1)]``."""
    if hasattr(complex_, "cells_of_dim"):
        graded = [list(complex_.cells_of_dim(d)) for d in range(complex_.dim + 1)]
    else:
        graded = [[(f,) for f in complex_.faces_of_dim(d)] for d in range(complex_.dim + 1)]
    columns = [[[(0, 1)] for _ in graded[0]]] if graded else []
    for d in range(1, len(graded)):
        rows = {c: i for i, c in enumerate(graded[d - 1])}
        degree = []
        for cell in graded[d]:
            column = []
            before = 0  # the dimension of the factors before factor i
            for i, f in enumerate(cell):
                for t in range(len(f) if len(f) > 1 else 0):
                    face = cell[:i] + (f[:t] + f[t + 1:],) + cell[i + 1:]
                    column.append((rows[face], (-1) ** (before + t) % p))
                before += len(f) - 1
            degree.append(column)
        columns.append(degree)
    return columns


def stored_columns(cc):
    """The boundary columns of an assembled chain complex in the form of
    :func:`oracle_boundary_columns`, entries in stored order."""
    return [[list(zip(*col)) for col in zip(mat.rows, mat.values)] for mat in cc.boundaries]


def mod_matrix(nrows, p, cols):
    """A ``ModMatrix`` over Z_p from columns given as ``(row, value)`` pairs
    in any order: the values of a repeated row are added up and reduced mod
    p, zeros are dropped, and the rows are stored lowest first."""
    rows, values = [], []
    for entries in cols:
        col = Counter()
        for i, v in entries:
            assert 0 <= i < nrows, f"row {i} out of range"
            col[i] += v
        low_first = sorted((i for i in col if col[i] % p), reverse=True)
        rows.append(tuple(low_first))
        values.append(tuple(col[i] % p for i in low_first))
    return ModMatrix(nrows, p, rows, values)


# -- planar hull-intersection oracle ------------------------------------------


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(p, a, b):
    if _orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_intersect(p1, p2, p3, p4):
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(p1, p3, p4):
        return True
    if d2 == 0 and _on_segment(p2, p3, p4):
        return True
    if d3 == 0 and _on_segment(p3, p1, p2):
        return True
    if d4 == 0 and _on_segment(p4, p1, p2):
        return True
    return False


def _point_in_triangle(p, a, b, c):
    d1, d2, d3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
    if d1 == 0 and d2 == 0 and d3 == 0:
        return _on_segment(p, a, b) or _on_segment(p, b, c) or _on_segment(p, c, a)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def point_in_hull_2d(p, pts):
    """Exact membership of p in the convex hull of pts (plane only):
    p lies in the hull iff it lies in some (possibly degenerate) triangle."""
    if len(pts) == 1:
        return tuple(p) == tuple(pts[0])
    if len(pts) == 2:
        return _on_segment(p, pts[0], pts[1])
    return any(_point_in_triangle(p, a, b, c) for a, b, c in itertools.combinations(pts, 3))


def oracle_hulls_intersect_pair(face_a, face_b, points, d):
    """Decide conv(A) meets conv(B) exactly, for d in (1, 2).

    In the plane two convex hulls intersect iff a vertex of one lies in the
    other or two vertex-pair segments cross; on the line it is an interval
    overlap test.  Decisive everywhere; no tolerance.
    """
    A = [points[v] for v in face_a]
    B = [points[v] for v in face_b]
    if d == 1:
        lo = max(min(x[0] for x in A), min(x[0] for x in B))
        hi = min(max(x[0] for x in A), max(x[0] for x in B))
        return lo <= hi
    if d != 2:
        raise ValueError("oracle only covers d = 1 and d = 2")
    if any(point_in_hull_2d(a, B) for a in A):
        return True
    if any(point_in_hull_2d(b, A) for b in B):
        return True
    for a1, a2 in itertools.combinations(A, 2):
        for b1, b2 in itertools.combinations(B, 2):
            if _segments_intersect(a1, a2, b1, b2):
                return True
    return False


def _line_crossing(a1, a2, b1, b2):
    """The common point of the lines a1a2 and b1b2, or None when they are
    parallel or a pair is a single point."""
    u = (a2[0] - a1[0], a2[1] - a1[1])
    v = (b2[0] - b1[0], b2[1] - b1[1])
    den = u[0] * v[1] - u[1] * v[0]
    if den == 0:
        return None
    w = (b1[0] - a1[0], b1[1] - a1[1])
    t = Fraction(w[0] * v[1] - w[1] * v[0]) / den
    return (a1[0] + t * u[0], a1[1] + t * u[1])


def oracle_hulls_meet_2d(faces, points):
    """Decide whether the planar convex hulls of any number of faces share
    a point, exactly.

    A nonempty intersection of convex polygons is a convex polygon (possibly
    a segment or a point).  Each of its corners is a vertex of one hull or
    the crossing of two edges of different hulls.  So it is enough to test
    every point of every face, and every crossing of two vertex-pair
    segments from different faces, against every hull.
    """
    hulls = [[points[v] for v in face] for face in faces]
    candidates = [p for hull in hulls for p in hull]
    for ha, hb in itertools.combinations(hulls, 2):
        for a1, a2 in itertools.combinations(ha, 2):
            for b1, b2 in itertools.combinations(hb, 2):
                x = _line_crossing(a1, a2, b1, b2)
                if x is not None:
                    candidates.append(x)
    return any(all(point_in_hull_2d(x, hull) for hull in hulls) for x in candidates)


def check_certificate(points, d, faces, point, weights):
    """Assert that ``weights`` are convex weights on each face that all
    reproduce ``point``."""
    assert len(weights) == len(faces)
    for vs, ws in zip(faces, weights):
        assert len(vs) == len(ws)
        assert all(w >= 0 for w in ws)
        assert sum(ws) == 1
        for t in range(d):
            assert sum(w * points[v][t] for w, v in zip(ws, vs)) == point[t]


def random_rational_faces(rng, d, max_points_per_face):
    """An instance for the LP-vs-predicates comparison: two disjoint faces
    over a shared small-coordinate point set (collisions and collinear
    triples arise naturally)."""
    na = rng.randint(1, max_points_per_face)
    nb = rng.randint(1, max_points_per_face)
    pts = [
        tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)) for _ in range(na + nb)
    ]
    return list(range(na)), list(range(na, na + nb)), pts
