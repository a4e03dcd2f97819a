"""The benchmark's own tests: every oracle check passes the right answer
and fails a wrong one.

    PYTHONPATH=src python -m pytest perfbench -q

The oracle needs SciPy, which the program itself does not; where SciPy
is missing these tests are skipped.
"""

import math

import numpy as np
import pytest

pytest.importorskip("scipy")

import oracle  # noqa: E402
from tracing import Tracer, family_sum, has_family, parse_prometheus  # noqa: E402

R = 32


@pytest.fixture
def stream():
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 2.0 * math.pi, 4000)
    rad = np.sqrt(rng.uniform(0.0, 1.0, 4000))
    return np.column_stack((rad * np.cos(t), rad * np.sin(t)))


def test_exact_hull_is_ccw_and_made_of_inputs(stream):
    hull = oracle.exact_hull(stream)
    assert oracle.check_hull_shape(
        [tuple(p) for p in hull], oracle.as_point_set(stream), "exact"
    ) == []
    assert oracle.hull_distance(hull, hull) == 0.0
    assert 1.9 < oracle.diameter(hull) <= 2.0


def test_degenerate_inputs():
    assert len(oracle.exact_hull(np.array([[1.0, 1.0]] * 3))) == 1
    seg = oracle.exact_hull(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert sorted(map(tuple, seg)) == [(0.0, 0.0), (2.0, 2.0)]


def test_nudged_vertex_fails(stream):
    hull = [tuple(p) for p in oracle.exact_hull(stream)]
    x, y = hull[3]
    hull[3] = (float(np.nextafter(x, math.inf)), y)
    errors = oracle.check_hull_shape(hull, oracle.as_point_set(stream), "k")
    assert errors and "not an input record" in errors[0]


def test_clockwise_or_concave_hull_fails(stream):
    hull = [tuple(p) for p in oracle.exact_hull(stream)]
    inputs = oracle.as_point_set(stream)
    assert "counter-clockwise" in oracle.check_hull_shape(hull[::-1], inputs, "k")[0]
    inner = tuple(stream[np.argmin((stream**2).sum(axis=1))])
    dented = hull[:5] + [inner] + hull[5:]
    assert "not convex" in oracle.check_hull_shape(dented, inputs, "k")[0]


def test_vertex_dropped_beyond_theorem_bound_fails():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    spike = (2.0, 0.5)
    pts = np.array(square + [spike])
    exact = oracle.exact_hull(pts)
    errors, rel = oracle.check_theorem(exact, square, R, "k")
    assert errors and "Theorem 5.4" in errors[0]
    assert rel == pytest.approx(1.0 / oracle.diameter(exact))
    errors, rel = oracle.check_theorem(exact, [tuple(p) for p in exact], R, "k")
    assert errors == [] and rel == 0.0


def test_drop_within_bound_passes(stream):
    exact = oracle.exact_hull(stream)
    served = [tuple(p) for i, p in enumerate(exact) if i % 2 == 0]
    errors, rel = oracle.check_theorem(exact, served, R, "k")
    assert errors == [] and 0.0 < rel < 16 * math.pi**2 / R**2


def test_recovered_hull_that_differs_fails():
    hull = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert oracle.check_identical(hull, list(hull), "restart") == []
    moved = [(0.0, 0.0), (1.0, 0.0), (0.0, float(np.nextafter(1.0, 2.0)))]
    assert oracle.check_identical(hull, moved, "restart")
    assert oracle.check_identical(hull, hull[1:] + hull[:1], "restart")


def test_record_count_mismatch_fails():
    assert oracle.check_count(100, 100, "round") == []
    assert "99 records accepted, 100 sent" in oracle.check_count(99, 100, "r")[0]


def test_sample_budget():
    assert oracle.check_sample_budget(2 * R + 1, R, "k") == []
    assert oracle.check_sample_budget(2 * R + 2, R, "k")


def test_vertex_older_than_the_window_fails():
    index_of = {(float(i), 0.0): i for i in range(200)}
    cover = oracle.window_cover(64, 8)
    assert cover == 80
    ok = [(150.0, 0.0), (120.0, 0.0)]
    assert oracle.check_window_age(ok, index_of, 200, 200, cover, "r") == []
    stale = [(150.0, 0.0), (119.0, 0.0)]
    assert "window covers" in oracle.check_window_age(
        stale, index_of, 200, 200, cover, "r"
    )[0]
    future = [(150.0, 0.0)]
    assert oracle.check_window_age(future, index_of, 100, 150, cover, "r")


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.begin("engine.ingest_arrays")
    inner = tracer.begin("core.insert_many")
    tracer.end(inner)
    tracer.end(outer)
    table = tracer.layer_table()
    total = table["engine.ingest_arrays"]["total_s"]
    child = table["core.insert_many"]["total_s"]
    assert table["engine.ingest_arrays"]["self_s"] == pytest.approx(total - child)
    assert tracer.spans[1][3] == tracer.spans[0][5]  # parent id


def test_prometheus_families():
    page = parse_prometheus(
        "# HELP x\nrepro_x_total{verb=\"a\"} 2\nrepro_x_total{verb=\"b\"} 3\n"
        "repro_y 1.5\n"
    )
    assert family_sum(page, "repro_x_total") == 5.0
    assert family_sum(page, "repro_x_total", 'verb="b"') == 3.0
    assert family_sum(page, "repro_y") == 1.5
    assert has_family(page, "repro_x_total") and has_family(page, "repro_y")
    assert not has_family(page, "repro_x")
