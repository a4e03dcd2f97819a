"""Paths, operation accounting and summary statistics shared by the
workload runners."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh processes started per run to time set-up; the median is reported.
SETUP_PROBES = 5


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric in ``BENCHMARK.json``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def program_env() -> Dict[str, str]:
    """Environment for child processes running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Ops:
    """Operations attempted and failed, with the errors of failed
    correctness checks kept apart (those fail the run)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, errors: Sequence[str]) -> None:
        self.errors.extend(errors)


def pct(values: Sequence[float], q: float) -> float:
    if not values:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return pct(values, 50.0)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def time_probes(mode: str, path: Path, count: int) -> Tuple[List[float], str]:
    """Seconds from starting ``probe.py <mode> <path>`` in a fresh
    interpreter to its one line of output, once per probe; returns the
    times and the last probe's line."""
    times = []
    line = ""
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), mode, str(path)],
            stdout=subprocess.PIPE,
            env=program_env(),
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"probe {mode} exited with {proc.returncode}")
        times.append(elapsed)
    return times, line.strip()


def probe_setup(first_keys, first_points, tag: str, ops: Ops) -> List[float]:
    """Seconds from starting a fresh interpreter to the first accepted
    batch.  The batch is written to a file first, so the probe does only
    what a user's process does: import the program, build the engine,
    ingest."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"first-batch-{tag}-{os.getpid()}.npz"
    np.savez(path, keys=np.asarray(first_keys, dtype=str), points=first_points)
    try:
        times, line = time_probes("ingest", path, SETUP_PROBES)
    finally:
        path.unlink(missing_ok=True)
    if line != f"accepted {len(first_points)}":
        ops.errors.append(f"set-up probe answered {line!r}")
    return times
