"""The ``gateway-ring`` workload: the deployed stack in its own server
process (``python -m repro gateway`` with one shard worker, a WAL
directory and a ``--last-n`` count window), loaded from this process
over two keep-alive connections, both closed loops: one posts ``sync``
ingest batches, the other reads per-key hulls meanwhile.  Each round
starts a fresh server on a fresh WAL, feeds the round's records, kills
the server (process group, SIGKILL) and restarts it on the WAL."""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import sys
import time
from typing import Dict, List

import numpy as np

import oracle
from common import OUT, Ops, median, metric, pct, per_layer_units, program_env
from inproc import core_layers, factory, overhead, replay
from inputs import GW_LAST_N, GW_REFERENCE_BATCH, R, Round, gateway_round
from tracing import Tracer, family_sum, has_family, parse_prometheus
from repro import StreamEngine
from repro.gateway import GatewayClient
from repro.window import WindowConfig, windowed_factory

TOKEN = "bench-token"
#: The benchmark's tenant: no rate limit and no key quota, so a refusal
#: (401/403/429) is a failure of the program, not of the load.
TENANTS = {"tenants": [{"id": "bench", "token": TOKEN}]}
WINDOW = WindowConfig(last_n=GW_LAST_N)
START_TIMEOUT = 60.0
#: A server outlives its round by far less than this; should the
#: benchmark itself die, its servers exit on their own after it.
SERVER_LIFETIME = 300
_PORT = re.compile(r"^gateway\s*:\s*http://[^:]+:(\d+)")

#: ``/metrics`` families the traced run reads per round, and the one it
#: reads from the restarted server.  A page without one of them fails
#: the run: a renamed family must not read as a quiet 0.
ROUND_FAMILIES = (
    "repro_window_bucket_seals_total",
    "repro_window_bucket_merges_total",
    "repro_window_bucket_expiries_total",
    "repro_wal_appends_total",
    "repro_wal_bytes_total",
    "repro_wal_fsyncs_total",
    "repro_shard_partition_seconds_sum",
    "repro_shard_send_seconds_sum",
    "repro_shard_collect_seconds_sum",
    "repro_transport_bytes_total",
    "repro_serve_queue_wait_seconds_sum",
    "repro_serve_coalesced_records_count",
    "repro_gateway_request_seconds_sum",
    "repro_gateway_ingest_bytes_total",
)
RESTART_FAMILIES = ("repro_wal_replayed_records_total",)


def _group_running(pgid: int) -> bool:
    """Does any process of group ``pgid`` still run?"""
    try:
        pids = [p for p in os.listdir("/proc") if p.isdigit()]
    except OSError:  # no procfs: fall back to the signal probe
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        return True
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


class Server:
    """One ``python -m repro gateway`` process group."""

    def __init__(self, proc, port: int, drain):
        self.proc = proc
        self.port = port
        self._drain = drain

    @classmethod
    async def launch(cls, wal_dir, tenants) -> "Server":
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "gateway",
            "--workers", "1", "--wal-dir", str(wal_dir),
            "--last-n", str(GW_LAST_N), "--r", str(R),
            "--tenants", str(tenants), "--port", "0",
            "--duration", str(SERVER_LIFETIME),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=program_env(),
            start_new_session=True,
        )
        seen = []
        try:
            while True:
                line = await asyncio.wait_for(proc.stdout.readline(), START_TIMEOUT)
                if not line:
                    raise RuntimeError("gateway exited: " + "".join(seen)[-2000:])
                text = line.decode(errors="replace")
                seen.append(text)
                m = _PORT.match(text)
                if m:
                    break
        except BaseException:
            await cls._kill_group(proc)
            raise

        async def drain():
            while await proc.stdout.readline():
                pass

        return cls(proc, int(m.group(1)), asyncio.ensure_future(drain()))

    @staticmethod
    async def _kill_group(proc) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await proc.wait()
        # The shard worker is in the same group; wait until it has ended
        # (a zombie waiting for init to reap it has ended).
        for _ in range(1000):
            if not _group_running(proc.pid):
                return
            await asyncio.sleep(0.005)

    async def kill(self) -> None:
        await self._kill_group(self.proc)
        await self._drain


class KeyIndex:
    """Where each record sits in its key's stream, and how many of a
    key's records precede a global stream position."""

    def __init__(self, rnd: Round):
        self.positions = rnd.positions()
        self.index_of: Dict[str, Dict[tuple, int]] = {
            key: {
                (float(x), float(y)): i
                for i, (x, y) in enumerate(rnd.points[pos])
            }
            for key, pos in self.positions.items()
        }

    def count(self, key: str, upto: int) -> int:
        return int(np.searchsorted(self.positions[key], upto))


def reference(rnd: Round):
    """The in-process reference: same window, different batching."""
    engine = StreamEngine(factory, window=WINDOW)
    for s in range(0, len(rnd), GW_REFERENCE_BATCH):
        engine.ingest_arrays(
            rnd.keys[s : s + GW_REFERENCE_BATCH],
            rnd.points[s : s + GW_REFERENCE_BATCH],
        )
    return engine


def check_reference(rnd: Round, engine, ops: Ops) -> tuple:
    """Oracle checks on the reference engine's per-key windows; returns
    (sample points, largest relative hull distance)."""
    samples = 0
    worst = 0.0
    ops.check(oracle.check_count(engine.points_ingested, len(rnd), "reference"))
    for key, pts in rnd.per_key().items():
        summary = engine.get(key)
        hull = summary.hull()
        what = f"reference key {key}"
        ops.check(oracle.check_hull_shape(hull, oracle.as_point_set(pts), what))
        ops.check(oracle.check_sample_budget(summary.merged_view().sample_size, R, what))
        exact = oracle.exact_hull(pts[-GW_LAST_N:])
        d = oracle.diameter(exact)
        if d > 0.0:
            worst = max(worst, oracle.hull_distance(exact, hull) / d)
        samples += summary.sample_size
    return samples, worst


async def scrape(client: GatewayClient, ops: Ops) -> Dict[str, float]:
    status, text = await client.request("GET", "/metrics")
    if status != 200:
        ops.errors.append(f"/metrics answered {status}")
        return {}
    return parse_prometheus(text)


class RoundStats:
    def __init__(self):
        self.ingest: List[float] = []
        self.queries: List[float] = []
        self.records = 0
        self.setup = 0.0
        self.recover = 0.0
        self.layers: Dict[str, float] = {}


def check_reads(reads, idx: KeyIndex, ops: Ops) -> None:
    """Every hull read while ingest ran: made of the key's records,
    convex, within the sample budget, and no older than the window."""
    cover = oracle.window_cover(GW_LAST_N, WINDOW.effective_head_capacity)
    for key, hull, lo, hi in reads:
        what = f"read of {key}"
        ops.check(oracle.check_window_age(
            hull, idx.index_of[key], lo, hi, cover, what
        ))
        ops.check(oracle.check_hull_shape(hull, idx.index_of[key].keys(), what))
        ops.check(oracle.check_sample_budget(len(hull), R, what))


def layer_deltas(before, after, replayed, st: "RoundStats",
                 ops: Ops) -> Dict[str, float]:
    """Per-layer figures of one round from the server's ``/metrics``
    pages: after the first batch, after the last one, and after the
    restart."""
    for what, page, families in (
        ("after the first batch", before, ROUND_FAMILIES),
        ("after the last batch", after, ROUND_FAMILIES),
        ("after the restart", replayed, RESTART_FAMILIES),
    ):
        ops.check([
            f"/metrics {what} has no {family}"
            for family in families if not has_family(page, family)
        ])

    def delta(family, label=""):
        return family_sum(after, family, label) - family_sum(before, family, label)

    server_ingest = delta("repro_gateway_request_seconds_sum", 'verb="ingest"')
    server_hull = delta("repro_gateway_request_seconds_sum", 'verb="hull"')
    return {
        "window.bucket_seals": delta("repro_window_bucket_seals_total"),
        "window.bucket_merges": delta("repro_window_bucket_merges_total"),
        "window.bucket_expiries": delta("repro_window_bucket_expiries_total"),
        "wal.appends": delta("repro_wal_appends_total"),
        "wal.bytes": delta("repro_wal_bytes_total"),
        "wal.fsyncs": delta("repro_wal_fsyncs_total"),
        "wal.replayed_records": family_sum(
            replayed, "repro_wal_replayed_records_total"
        ),
        "shard.partition_s": delta("repro_shard_partition_seconds_sum"),
        "shard.send_s": delta("repro_shard_send_seconds_sum"),
        "shard.collect_s": delta("repro_shard_collect_seconds_sum"),
        "shard.bytes": delta("repro_transport_bytes_total"),
        "serve.queue_wait_s": delta("repro_serve_queue_wait_seconds_sum"),
        "serve.coalesced_batches": delta("repro_serve_coalesced_records_count"),
        "gateway.ingest_server_s": server_ingest,
        "gateway.hull_server_s": server_hull,
        "gateway.wire_s": sum(st.ingest) + sum(st.queries)
        - server_ingest - server_hull,
        "gateway.ingest_bytes": delta("repro_gateway_ingest_bytes_total"),
    }


async def one_round(rnd: Round, idx: KeyIndex, ref_hulls, ops: Ops, tag: str,
                    tracer: Tracer = None) -> RoundStats:
    work = OUT / f"gateway-{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return await _round_in(work, rnd, idx, ref_hulls, ops, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)


async def _round_in(work, rnd: Round, idx: KeyIndex, ref_hulls, ops: Ops,
                    tracer) -> RoundStats:
    st = RoundStats()
    keys = sorted(ref_hulls)
    bodies = [
        [[k, float(x), float(y)] for k, (x, y) in zip(kb, pb)]
        for kb, pb in rnd.batches()
    ]
    tenants = work / "tenants.json"
    tenants.write_text(json.dumps(TENANTS))
    wal = work / "wal"
    t0 = time.perf_counter()
    server = await Server.launch(wal, tenants)
    writer = GatewayClient("127.0.0.1", server.port, TOKEN)
    reader = GatewayClient("127.0.0.1", server.port, TOKEN)
    try:
        ops.attempted += 1
        status, doc = await writer.request(
            "POST", "/v1/ingest", {"records": bodies[0], "sync": True}
        )
        st.setup = time.perf_counter() - t0
        if status != 202:
            ops.failed += 1
            ops.errors.append(f"first ingest answered {status}")
        queued = doc["queued"] if status == 202 else 0
        acked = sent = len(bodies[0])
        before = await scrape(reader, ops) if tracer is not None else None
        done = False
        reads = []

        async def read_loop():
            i = 0
            while not done:
                key = keys[i % len(keys)]
                i += 1
                lo = idx.count(key, acked)
                if lo == 0:
                    continue
                ops.attempted += 1
                t1 = time.perf_counter()
                status, doc = await reader.request("GET", f"/v1/hull/{key}")
                t2 = time.perf_counter()
                if status != 200:
                    ops.failed += 1
                    continue
                st.queries.append(t2 - t1)
                if tracer is not None:
                    tracer.new_trace()
                    tracer.record("gateway.hull", t1, t2)
                reads.append((key, doc["hull"], lo, idx.count(key, sent)))

        task = asyncio.ensure_future(read_loop())
        try:
            for body in bodies[1:]:
                ops.attempted += 1
                sent += len(body)
                t1 = time.perf_counter()
                status, doc = await writer.request(
                    "POST", "/v1/ingest", {"records": body, "sync": True}
                )
                t2 = time.perf_counter()
                if status != 202:
                    ops.failed += 1
                    continue
                queued += doc["queued"]
                acked += len(body)
                st.ingest.append(t2 - t1)
                st.records += len(body)
                if tracer is not None:
                    tracer.new_trace()
                    tracer.record("gateway.ingest", t1, t2)
        finally:
            done = True
            await task
        # Records accepted equal records sent, as the gateway answered
        # them and as the engine tier behind it counts them.
        ops.check(oracle.check_count(queued, sent, "gateway ingest answers"))
        after = await scrape(reader, ops)
        admitted = family_sum(after, "repro_ingest_records_total", 'tier="shard"')
        ops.check(oracle.check_count(int(admitted), sent, "engine tier"))
        check_reads(reads, idx, ops)
        served = {}
        for key in keys:
            ops.attempted += 1
            status, doc = await reader.request("GET", f"/v1/hull/{key}")
            if status != 200:
                ops.failed += 1
                continue
            served[key] = doc["hull"]
            ops.check(oracle.check_identical(
                doc["hull"], ref_hulls[key], f"served {key} vs reference"
            ))
    finally:
        await writer.aclose()
        await reader.aclose()
        await server.kill()

    ops.attempted += 1  # the restart
    t0 = time.perf_counter()
    server = await Server.launch(wal, tenants)
    client = GatewayClient("127.0.0.1", server.port, TOKEN)
    try:
        status, doc = await client.request("GET", f"/v1/hull/{keys[0]}")
        st.recover = time.perf_counter() - t0
        if status != 200:
            ops.failed += 1
            ops.errors.append(f"first read after restart answered {status}")
        for key in keys:
            ops.attempted += 1
            status, doc = await client.request("GET", f"/v1/hull/{key}")
            if status != 200:
                ops.failed += 1
                continue
            ops.check(oracle.check_identical(
                doc["hull"], served.get(key, []), f"{key} after restart"
            ))
        if tracer is not None:
            replayed = await scrape(client, ops)
    finally:
        await client.aclose()
        await server.kill()

    if tracer is not None:
        st.layers = layer_deltas(before, after, replayed, st, ops)
    return st


def rate(rounds: List[RoundStats]) -> float:
    """Median over rounds of records per second of ingest calls."""
    return median([r.records / sum(r.ingest) for r in rounds])


async def _run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rnd = gateway_round(seed)
    ops = Ops()
    idx = KeyIndex(rnd)
    ref = reference(rnd)
    ref_hulls = {k: ref.hull(k) for k in sorted(ref.keys())}
    samples, worst = check_reference(rnd, ref, ops)
    tracer = Tracer() if trace else None
    rounds, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(await one_round(rnd, idx, ref_hulls, ops, f"r{len(rounds)}"))
        if trace:
            traced.append(await one_round(
                rnd, idx, ref_hulls, ops, f"t{len(traced)}", tracer
            ))
            tracer.keep = False  # the file keeps the first traced round
        if time.perf_counter() >= deadline:
            break
    if not trace:
        ingest = [t for r in rounds for t in r.ingest]
        queries = [t for r in rounds for t in r.queries]
        metrics = {
            "ingest_rate": metric(rate(rounds), "records/s"),
            "ingest_p50_ms": metric(1e3 * median(ingest), "ms"),
            "ingest_p95_ms": metric(1e3 * pct(ingest, 95), "ms"),
            "query_p50_ms": metric(1e3 * median(queries), "ms"),
            "query_p95_ms": metric(1e3 * pct(queries, 95), "ms"),
            "setup_s": metric(median([r.setup for r in rounds]), "s"),
            "recover_s": metric(median([r.recover for r in rounds]), "s"),
            "sample_points": metric(samples, "count"),
        }
        return {"ops": ops, "metrics": metrics}

    # Core figures: the reference engine fed the server's batching does
    # the ring worker's work, here under the tracer.
    core = Tracer(keep=False)
    core.instrument_engine()
    try:
        engine = StreamEngine(factory, window=WINDOW)
        for kb, pb in rnd.batches():
            engine.ingest_arrays(kb, pb)
    finally:
        core.unwrap()
    for key in ref_hulls:
        ops.check(oracle.check_identical(
            engine.hull(key), ref_hulls[key], f"traced reference {key}"
        ))
    replayed = replay(rnd, sorted(ref_hulls), windowed_factory(factory, WINDOW))
    ops.check(replayed[0])
    layers = core_layers(core, 1, replayed)
    layers["engine.keys_per_batch"] = metric(rnd.keys_per_batch(), "count")
    layers["quality.hull_distance_rel"] = metric(worst, "ratio")
    units = per_layer_units()
    for name in traced[0].layers:
        layers[name] = metric(
            float(np.mean([r.layers[name] for r in traced])), units[name]
        )
    untraced_rate = rate(rounds)
    traced_rate = rate(traced)
    layers["trace.overhead_pct"] = overhead(untraced_rate, traced_rate)
    tracer.dump(
        OUT / f"trace-{workload}-seed{seed}.json",
        {
            "workload": workload,
            "seed": seed,
            "traced_rounds": len(traced),
            "untraced_ingest_rate": untraced_rate,
            "traced_ingest_rate": traced_rate,
            "core_layers": core.layer_table(),
            "summary_counters": dict(core.counters),
            "per_layer": layers,
        },
    )
    return {"ops": ops, "metrics": layers}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return asyncio.run(_run(workload, seed, seconds, trace))
