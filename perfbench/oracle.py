"""Correctness oracle, kept apart from the program under test.

Exact hulls come from ``scipy.spatial.ConvexHull``; the one-sided hull
distance and the diameter are computed here with NumPy.  Nothing in this
module imports ``repro``, so a fault in the program's own geometry code
cannot hide a wrong answer.  Every ``check_*`` function returns a list
of human-readable errors (empty when the answer is right).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

Point = Tuple[float, float]


def exact_hull(points: np.ndarray) -> np.ndarray:
    """Vertices of the exact convex hull, CCW (degenerate inputs give
    their one point or the two extreme points of their segment)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) >= 3:
        try:
            return pts[ConvexHull(pts).vertices]
        except QhullError:
            pass  # all points coincide or are collinear
    pts = np.unique(pts, axis=0)
    if len(pts) <= 1:
        return pts
    d = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    i, j = np.unravel_index(int(np.argmax(d)), d.shape)
    return pts[[i, j]]


def diameter(vertices: np.ndarray) -> float:
    """Largest pairwise distance among ``vertices``."""
    v = np.asarray(vertices, dtype=np.float64)
    if len(v) < 2:
        return 0.0
    d = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
    return float(math.sqrt(d.max()))


def _segment_distances(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point of ``v`` to the nearest segment a[i]->b[i]."""
    ab = b - a
    denom = (ab**2).sum(axis=1)
    denom = np.where(denom > 0.0, denom, 1.0)
    t = ((v[:, None, :] - a[None]) * ab[None]).sum(axis=2) / denom[None]
    t = np.clip(t, 0.0, 1.0)
    proj = a[None] + t[:, :, None] * ab[None]
    return np.sqrt(((v[:, None, :] - proj) ** 2).sum(axis=2)).min(axis=1)


def hull_distance(exact: np.ndarray, approx: Sequence[Point]) -> float:
    """One-sided Hausdorff distance from the exact hull to ``approx``:
    the largest distance from an exact vertex to the approximate hull
    region (0 for vertices inside it)."""
    v = np.asarray(exact, dtype=np.float64).reshape(-1, 2)
    a = np.asarray(approx, dtype=np.float64).reshape(-1, 2)
    if len(v) == 0:
        return 0.0
    if len(a) == 0:
        return math.inf
    b = np.roll(a, -1, axis=0)
    dist = _segment_distances(v, a, b)
    if len(a) >= 3:
        e = b - a
        cross = e[None, :, 0] * (v[:, None, 1] - a[None, :, 1]) - e[
            None, :, 1
        ] * (v[:, None, 0] - a[None, :, 0])
        scale = np.abs(a).max() + np.abs(v).max() + 1.0
        inside = (cross >= -1e-12 * scale * scale).all(axis=1)
        dist = np.where(inside, 0.0, dist)
    return float(dist.max())


def theorem_bound(d: float, r: int) -> float:
    """Theorem 5.4: the adaptive hull's distance is at most 16*pi^2*D/r^2
    (as asserted in the repository's property suite)."""
    return 16.0 * math.pi**2 * d / (r * r)


def check_hull_shape(hull: Sequence[Point], inputs: set, what: str) -> List[str]:
    """Every vertex is bit-equal to an input record of its key, and the
    polygon is convex and counter-clockwise."""
    errors = []
    stray = [p for p in hull if (float(p[0]), float(p[1])) not in inputs]
    if stray:
        errors.append(f"{what}: vertex {stray[0]!r} is not an input record")
    if len(set(map(tuple, hull))) != len(hull):
        errors.append(f"{what}: repeated vertex")
    if len(hull) >= 3:
        h = np.asarray(hull, dtype=np.float64)
        e = np.roll(h, -1, axis=0) - h
        turn = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(
            e, -1, axis=0
        )[:, 0]
        area = float((h[:, 0] * np.roll(h[:, 1], -1) - np.roll(h[:, 0], -1) * h[:, 1]).sum())
        if area <= 0.0:
            errors.append(f"{what}: hull is not counter-clockwise")
        elif (turn < 0.0).any():
            errors.append(f"{what}: hull is not convex")
    return errors


def check_sample_budget(n_samples: int, r: int, what: str) -> List[str]:
    if n_samples > 2 * r + 1:
        return [f"{what}: {n_samples} samples exceed 2r+1 = {2 * r + 1}"]
    return []


def check_theorem(exact: np.ndarray, hull: Sequence[Point], r: int, what: str):
    """Returns ``(errors, distance / exact diameter)``."""
    d = diameter(exact)
    dist = hull_distance(exact, hull)
    errors = []
    if dist > theorem_bound(d, r) + 1e-12 * max(d, 1.0):
        errors.append(
            f"{what}: hull distance {dist:.3g} exceeds the Theorem 5.4 "
            f"bound {theorem_bound(d, r):.3g}"
        )
    return errors, (dist / d if d > 0.0 else 0.0)


def check_count(accepted: int, sent: int, what: str) -> List[str]:
    if accepted != sent:
        return [f"{what}: {accepted} records accepted, {sent} sent"]
    return []


def check_identical(a: Sequence[Point], b: Sequence[Point], what: str) -> List[str]:
    """Bit-identical vertex lists (order included)."""
    la = [(float(x), float(y)) for x, y in a]
    lb = [(float(x), float(y)) for x, y in b]
    if la != lb:
        return [f"{what}: hulls differ ({len(la)} vs {len(lb)} vertices)"]
    return []


def check_window_age(
    hull: Sequence[Point],
    index_of: Dict[Point, int],
    applied_lo: int,
    sent_hi: int,
    cover: int,
    what: str,
) -> List[str]:
    """No vertex is older than the window can still cover.

    ``index_of`` maps a key's record to its position in the key's
    stream; at least ``applied_lo`` and at most ``sent_hi`` of the key's
    records had reached the engine when the hull was served, and the
    window keeps at most ``cover`` of the newest ones.
    """
    for p in hull:
        i = index_of.get((float(p[0]), float(p[1])))
        if i is None:
            return [f"{what}: vertex {p!r} is not an input record"]
        if i < applied_lo - cover:
            return [
                f"{what}: vertex from record {i} served after record "
                f"{applied_lo - 1} was applied (window covers {cover})"
            ]
        if i >= sent_hi:
            return [f"{what}: vertex from record {i}, not yet sent"]
    return []


def window_cover(last_n: int, head_capacity: int) -> int:
    """Most records a count window keeps live: ``last_n`` plus the
    documented slack ``max(head_capacity, last_n // 4)``."""
    return last_n + max(head_capacity, last_n // 4)


def as_point_set(points: Iterable) -> set:
    return {(float(x), float(y)) for x, y in points}
