"""A fresh process that does what a user's process does first, timed
from the outside by ``common.time_probes``:

    probe.py ingest <batch.npz>       build an engine, ingest one batch
    probe.py restore <snapshot.json>  restore an engine, serve a hull

It prints one line: ``accepted <records>`` or ``hull <json vertices>``
(the first key in sorted order)."""

import json
import sys

import numpy as np

from inputs import R
from repro import AdaptiveHull, StreamEngine


def factory():
    return AdaptiveHull(R)


def main(mode: str, path: str) -> None:
    if mode == "ingest":
        with np.load(path) as doc:
            keys, points = doc["keys"], doc["points"]
        engine = StreamEngine(factory)
        engine.ingest_arrays(keys.astype(object), points)
        print(f"accepted {engine.points_ingested}", flush=True)
    elif mode == "restore":
        engine = StreamEngine.restore(path, factory)
        hull = engine.hull(sorted(engine.keys())[0])
        print("hull " + json.dumps(hull), flush=True)
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
