"""Seeded input generation for the benchmark workloads.

Every workload is a fixed *round*: the same records, in the same order
and batching, fed to a fresh engine.  A run repeats whole rounds until
its time is up, so every round does identical work and the operation
counts per round never depend on machine speed.  The program under test
only ever sees the generated records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.streams.generators import drifting_clusters_stream

#: AdaptiveHull parameter used by every workload.
R = 32

# drift-zipf-1k: per-key drifting clusters, Zipf key popularity.
ZIPF_KEYS = 1000
ZIPF_EXPONENT = 1.0
ZIPF_RECORDS = 48_000
ZIPF_BATCH = 1000
ZIPF_QUERY_EVERY = 2  # global diameter() after every 2nd batch

# gateway-ring: a few dozen keys behind the HTTP gateway, count window.
GW_KEYS = 24
GW_PER_KEY = 400
GW_BATCH = 160
GW_LAST_N = 64
GW_REFERENCE_BATCH = 1000  # the reference engine's (different) batching


@dataclass
class Round:
    """One round's records in arrival order, cut into ingest batches."""

    keys: np.ndarray  # (n,) object array of str keys
    points: np.ndarray  # (n, 2) float64
    batch: int
    query_every: int

    def __len__(self) -> int:
        return len(self.points)

    def batches(self):
        for s in range(0, len(self.points), self.batch):
            yield self.keys[s : s + self.batch], self.points[s : s + self.batch]

    @property
    def n_batches(self) -> int:
        return -(-len(self.points) // self.batch)

    def positions(self) -> Dict[str, np.ndarray]:
        """Where each key's records sit in the round, in stream order."""
        out: Dict[str, List[int]] = {}
        for i, k in enumerate(self.keys):
            out.setdefault(k, []).append(i)
        return {k: np.asarray(idx) for k, idx in out.items()}

    def per_key(self) -> Dict[str, np.ndarray]:
        """Each key's records in stream order."""
        return {k: self.points[idx] for k, idx in self.positions().items()}

    def batch_slices(self) -> Dict[str, List[np.ndarray]]:
        """Each key's records cut at the round's batch boundaries — the
        slices the engine hands to one summary's ``insert_many``."""
        out: Dict[str, List[np.ndarray]] = {}
        for kb, pb in self.batches():
            groups: Dict[str, List[int]] = {}
            for i, k in enumerate(kb):
                groups.setdefault(k, []).append(i)
            for k, idx in groups.items():
                out.setdefault(k, []).append(pb[idx])
        return out

    def keys_per_batch(self) -> float:
        return float(np.mean([len(set(kb)) for kb, _ in self.batches()]))


def _interleave(
    streams: Dict[str, np.ndarray], rng: np.random.Generator
) -> tuple:
    """Merge per-key streams in a random arrival order that keeps each
    key's own records in order."""
    names = list(streams)
    labels = np.concatenate(
        [np.full(len(streams[k]), i) for i, k in enumerate(names)]
    )
    rng.shuffle(labels)
    points = np.empty((len(labels), 2))
    keys = np.empty(len(labels), dtype=object)
    for i, k in enumerate(names):
        slots = np.flatnonzero(labels == i)
        points[slots] = streams[k]
        keys[slots] = k
    return keys, points


def zipf_round(seed: int) -> Round:
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, ZIPF_KEYS + 1) ** ZIPF_EXPONENT
    counts = rng.multinomial(ZIPF_RECORDS, weights / weights.sum())
    streams = {}
    for rank, c in enumerate(counts):
        if c:
            streams[f"k{rank:04d}"] = drifting_clusters_stream(
                int(c), seed=int(rng.integers(1 << 31))
            )
    keys, pts = _interleave(streams, rng)
    return Round(keys, pts, ZIPF_BATCH, ZIPF_QUERY_EVERY)


def gateway_round(seed: int) -> Round:
    rng = np.random.default_rng(seed)
    streams = {
        f"g{k:02d}": drifting_clusters_stream(
            GW_PER_KEY, n_clusters=2, drift=0.1,
            seed=int(rng.integers(1 << 31)),
        )
        for k in range(GW_KEYS)
    }
    keys, pts = _interleave(streams, rng)
    return Round(keys, pts, GW_BATCH, 0)


