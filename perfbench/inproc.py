"""The in-process workload, ``drift-zipf-1k``: a ``StreamEngine`` in
the benchmark's own process, fed one round's batches with a global
``diameter()`` query at the round's cadence."""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, List

import numpy as np

import oracle
from common import OUT, Ops, median, metric, pct, probe_setup, time_probes
from inputs import R, Round, zipf_round
from tracing import Tracer
from repro import AdaptiveHull, StreamEngine

#: Keys whose per-point ``insert`` replay is compared with the engine in
#: an untraced run (a traced run replays every key).
CHECKED_KEYS = 10

#: Fresh-process restores of the final engine timed per run for
#: ``recover_s``.
RESTORES = 5


def factory():
    return AdaptiveHull(R)


class RoundResult:
    def __init__(self):
        self.ingest: List[float] = []
        self.queries: List[float] = []
        self.answers: List[float] = []
        self.engine = None


def one_round(rnd: Round, ops: Ops, tracer: Tracer = None) -> RoundResult:
    res = RoundResult()
    engine = StreamEngine(factory)
    for b, (kb, pb) in enumerate(rnd.batches()):
        if tracer is not None:
            tracer.new_trace()
        ops.attempted += 1
        t0 = time.perf_counter()
        try:
            engine.ingest_arrays(kb, pb)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            ops.failed += 1
            ops.errors.append(f"ingest batch {b}: {type(exc).__name__}: {exc}")
            continue
        res.ingest.append(time.perf_counter() - t0)
        if (b + 1) % rnd.query_every == 0:
            ops.attempted += 1
            if tracer is not None:
                span = tracer.begin("engine.diameter")
            t0 = time.perf_counter()
            try:
                answer = engine.diameter()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                ops.failed += 1
                ops.errors.append(f"diameter after batch {b}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.end(span)
            res.queries.append(time.perf_counter() - t0)
            res.answers.append(answer)
    ops.check(oracle.check_count(engine.points_ingested, len(rnd), "round"))
    res.engine = engine
    return res


def check_queries(rnd: Round, answers: List[float]) -> List[str]:
    """Each global diameter lies between cos(pi/r) times the exact
    diameter of everything ingested so far and that diameter (the
    witnesses are input points)."""
    errors = []
    hull = np.empty((0, 2))
    answers = iter(answers)
    for b, (_, pb) in enumerate(rnd.batches()):
        hull = oracle.exact_hull(np.concatenate((hull, pb)))
        if (b + 1) % rnd.query_every:
            continue
        answer = next(answers, None)
        d = oracle.diameter(hull)
        if answer is None or not (
            d * math.cos(math.pi / R) - 1e-9 <= answer <= d * (1 + 1e-12)
        ):
            errors.append(f"diameter after batch {b}: {answer!r}, exact {d!r}")
    return errors


def check_engine(rnd: Round, engine) -> tuple:
    """Per-key checks against exact hulls; returns (errors, sample
    points, largest relative hull distance)."""
    errors = []
    samples = 0
    worst = 0.0
    per_key = rnd.per_key()
    if sorted(engine.keys()) != sorted(per_key):
        errors.append("engine keys differ from the keys sent")
    for key, pts in per_key.items():
        summary = engine.get(key)
        if summary is None:
            errors.append(f"key {key}: no summary")
            continue
        hull = summary.hull()
        what = f"key {key}"
        errors += oracle.check_hull_shape(hull, oracle.as_point_set(pts), what)
        errors += oracle.check_sample_budget(summary.sample_size, R, what)
        errs, rel = oracle.check_theorem(oracle.exact_hull(pts), hull, R, what)
        errors += errs
        errors += oracle.check_count(summary.points_seen, len(pts), what)
        samples += summary.sample_size
        worst = max(worst, rel)
    return errors, samples, worst


def replay(rnd: Round, keys, make=factory) -> tuple:
    """Per-key ``insert_many`` over the engine's batch slices and
    per-point ``insert`` over the same records, each on fresh summaries
    from ``make``; returns (errors, records, insert_many seconds, insert
    seconds)."""
    all_slices = rnd.batch_slices()
    errors = []
    n = 0
    t_many = t_seq = 0.0
    for key in keys:
        slices = all_slices[key]
        batched = make()
        t0 = time.perf_counter()
        for part in slices:
            batched.insert_many(part)
        t_many += time.perf_counter() - t0
        pts = np.concatenate(slices)
        seq = make()
        rows = [(float(x), float(y)) for x, y in pts]
        t0 = time.perf_counter()
        for p in rows:
            seq.insert(p)
        t_seq += time.perf_counter() - t0
        n += len(pts)
        errors += oracle.check_identical(
            seq.hull(), batched.hull(), f"key {key}: insert vs insert_many"
        )
        if seq.samples() != batched.samples():
            errors.append(f"key {key}: insert vs insert_many samples differ")
    return errors, n, t_many, t_seq


def checked_keys(rnd: Round, every: bool) -> List[str]:
    counts: Dict[str, int] = {}
    for k in rnd.keys:
        counts[k] = counts.get(k, 0) + 1
    ranked = sorted(counts, key=lambda k: (-counts[k], k))
    if every or len(ranked) <= CHECKED_KEYS:
        return ranked
    step = len(ranked) // CHECKED_KEYS
    return ranked[::step][:CHECKED_KEYS]


def time_restores(engine, tag: str, ops: Ops) -> List[float]:
    """Seconds from starting a fresh process on a snapshot of the final
    engine to its first served hull; every key must restore exactly."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"snapshot-{tag}-{os.getpid()}.json"
    try:
        engine.snapshot(path)
        restored = StreamEngine.restore(path, factory)
        for key in engine.keys():
            ops.check(oracle.check_identical(
                restored.hull(key), engine.hull(key), f"key {key}: restored"
            ))
        ops.attempted += RESTORES
        times, line = time_probes("restore", path, RESTORES)
    finally:
        path.unlink(missing_ok=True)
    first = engine.hull(sorted(engine.keys())[0])
    if not line.startswith("hull "):
        ops.failed += RESTORES
        ops.errors.append(f"restore probe answered {line[:80]!r}")
    else:
        ops.check(oracle.check_identical(
            json.loads(line[5:]), first, "restored in a fresh process"
        ))
    return times


def rounds_for(rnd: Round, seconds: float, ops: Ops) -> List[RoundResult]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        results.append(one_round(rnd, ops))
        if time.perf_counter() >= deadline:
            return results


def ingest_rate(rnd: Round, results: List[RoundResult]) -> float:
    """Median over rounds of records per second of ingest calls (a
    median, so one round slowed by a neighbour on the machine does not
    move the figure)."""
    return median([len(rnd) / sum(r.ingest) for r in results])


def core_layers(tracer: Tracer, rounds: int, replayed: tuple) -> dict:
    """Per-layer metrics of the core, engine and query layers, per round,
    from a traced phase of ``rounds`` rounds and the per-key replay."""
    _, n, t_many, t_seq = replayed
    per = 1.0 / rounds
    c = tracer.counters
    return {
        "core.insert_many_s": metric(tracer.totals["core.insert_many"] * per, "s"),
        "core.prefilter_s": metric(tracer.totals["core.prefilter"] * per, "s"),
        "core.survivor_s": metric(tracer.totals["core.survivor"] * per, "s"),
        "core.survivor_share": metric(c["points_processed"] / c["points_seen"], "ratio"),
        "core.nodes_visited_per_survivor": metric(
            c["nodes_visited"] / max(c["points_processed"], 1), "count"
        ),
        "core.refinements": metric(c["refinements"] * per, "count"),
        "core.unrefinements": metric(c["unrefinements"] * per, "count"),
        "core.ring_discards": metric(c["ring_discards"] * per, "count"),
        "core.sequential_rate": metric(n / t_seq, "records/s"),
        "core.batch_speedup": metric(t_seq / t_many, "x"),
        "engine.self_s": metric(tracer.self_totals["engine.ingest_arrays"] * per, "s"),
        "queries.merge_s": metric(tracer.totals["queries.merge"] * per, "s"),
        "queries.diameter_s": metric(tracer.totals["queries.diameter"] * per, "s"),
    }


def overhead(untraced_rate: float, traced_rate: float) -> dict:
    return metric(100.0 * (untraced_rate - traced_rate) / untraced_rate, "%")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rnd = zipf_round(seed)
    ops = Ops()
    if trace:
        # Untraced and traced rounds alternate, so both see the same
        # machine state; the gap between their rates is the overhead.
        tracer = Tracer()
        results, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            results.append(one_round(rnd, ops))
            tracer.instrument_engine()
            try:
                traced.append(one_round(rnd, ops, tracer))
            finally:
                tracer.unwrap()
            tracer.keep = False  # the file keeps the first traced round
            if time.perf_counter() >= deadline:
                break
    else:
        first_k, first_p = next(rnd.batches())
        setup = probe_setup(first_k, first_p, workload, ops)
        results = rounds_for(rnd, seconds, ops)
    first = results[0]
    ops.check(check_queries(rnd, first.answers))
    for later in results[1:]:
        if later.answers != first.answers:
            ops.errors.append("a later round answered differently")
    errors, samples, worst = check_engine(rnd, first.engine)
    ops.check(errors)
    replayed = replay(rnd, checked_keys(rnd, every=trace))
    ops.check(replayed[0])
    if not trace:
        restores = time_restores(first.engine, workload, ops)
        ingest = [t for r in results for t in r.ingest]
        queries = [t for r in results for t in r.queries]
        metrics = {
            "ingest_rate": metric(ingest_rate(rnd, results), "records/s"),
            "ingest_p50_ms": metric(1e3 * median(ingest), "ms"),
            "ingest_p95_ms": metric(1e3 * pct(ingest, 95), "ms"),
            "query_p50_ms": metric(1e3 * median(queries), "ms"),
            "query_p95_ms": metric(1e3 * pct(queries, 95), "ms"),
            "setup_s": metric(median(setup), "s"),
            "recover_s": metric(median(restores), "s"),
            "sample_points": metric(samples, "count"),
        }
        return {"ops": ops, "metrics": metrics}

    untraced_rate = ingest_rate(rnd, results)
    traced_rate = ingest_rate(rnd, traced)
    layers = core_layers(tracer, len(traced), replayed)
    layers["engine.keys_per_batch"] = metric(rnd.keys_per_batch(), "count")
    layers["quality.hull_distance_rel"] = metric(worst, "ratio")
    layers["trace.overhead_pct"] = overhead(untraced_rate, traced_rate)
    tracer.dump(
        OUT / f"trace-{workload}-seed{seed}.json",
        {
            "workload": workload,
            "seed": seed,
            "traced_rounds": len(traced),
            "untraced_ingest_rate": untraced_rate,
            "traced_ingest_rate": traced_rate,
            "summary_counters": dict(tracer.counters),
            "per_layer": layers,
        },
    )
    return {"ops": ops, "metrics": layers}
