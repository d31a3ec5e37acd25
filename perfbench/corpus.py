"""Synthetic corpora for the benchmark workloads.

Each workload is a catalog of items in taxonomy groups plus time-stamped
sessions. A session browses items of one group (with occasional clicks
into other groups) and ends on an item of that group, which becomes the
ground truth. The first two history clicks are two distinct items other
than the ground truth, so every masked history has at least two graph
nodes.

Every item carries three attribute tokens: its group's kind token, one of
a few shared style tokens, and a token of its own, so the dense attribute
matrix grows as items x items, as it does for a real catalog with per-item
identifiers.

Train sessions end on days 0-2 and test sessions on days 9-10, so the
7-day holdout split of ``nirrec.ingest`` sends exactly the test sessions
to the test split.

Output depends on the workload and the seed only: the same pair writes
byte-identical files. Usage:

    python3 perfbench/corpus.py --workload wide-catalog --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DAY = 86_400


@dataclass(frozen=True)
class Shape:
    n_items: int
    n_groups: int
    n_styles: int
    n_train: int
    n_test: int
    min_events: int
    max_events: int
    mean_extra: float  # Poisson mean of the events beyond ``min_events``
    p_noise: float  # chance that a free history click leaves the group


SHAPES = {
    # The ROADMAP baseline shape: 2,000 items, 50 groups, about 5.5 events.
    "wide-catalog": Shape(2000, 50, 37, 799, 701, 3, 12, 2.5, 0.1),
    "long-sessions": Shape(200, 10, 8, 400, 200, 25, 60, 0.0, 0.1),
    # Wider than the 32 x 100 rows one sampled training batch draws.
    "sampled-wide": Shape(5000, 50, 40, 700, 100, 3, 12, 2.5, 0.1),
}
# A small fixed corpus for the probe request; always written with seed 0.
PROBE = Shape(300, 10, 5, 20, 10, 3, 12, 2.5, 0.1)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode("utf-8")), seed])


def catalog_rows(shape: Shape) -> list[dict]:
    """Catalog of ``shape``; item i belongs to group i mod n_groups."""
    rows = []
    for i in range(shape.n_items):
        g = i % shape.n_groups
        rows.append(
            {
                "item": f"item{i:05d}",
                "taxonomy": [f"dept{g // 10}", f"cat{g // 2}", f"grp{g}"],
                "attributes": [f"kind{g}", f"style{(i // shape.n_groups) % shape.n_styles}", f"sku{i}"],
            }
        )
    return rows


def session_rows(shape: Shape, rng: np.random.Generator) -> list[dict]:
    per_group = shape.n_items // shape.n_groups
    rows = []

    def make(sid: str, t0: int) -> dict:
        g = int(rng.integers(shape.n_groups))
        members = g + shape.n_groups * rng.permutation(per_group)
        gt, first, second = (int(x) for x in members[:3])
        if shape.mean_extra > 0:
            n = shape.min_events + int(rng.poisson(shape.mean_extra))
        else:
            n = int(rng.integers(shape.min_events, shape.max_events + 1))
        n = min(n, shape.max_events)
        clicks = [first, second]
        for _ in range(n - 3):
            if rng.random() < shape.p_noise:
                clicks.append(int(rng.integers(shape.n_items)))
            else:
                clicks.append(int(members[rng.integers(1, per_group)]))
        clicks.append(gt)
        return {
            "session_id": sid,
            "events": [{"item": f"item{it:05d}", "ts": t0 + 30 * k} for k, it in enumerate(clicks)],
        }

    for s in range(shape.n_train):
        rows.append(make(f"train{s:05d}", int(rng.integers(0, 2 * DAY))))
    for s in range(shape.n_test):
        rows.append(make(f"test{s:05d}", 9 * DAY + int(rng.integers(0, DAY))))
    return rows


def write_corpus(workload: str, seed: int, out_dir: str | Path) -> tuple[Path, Path]:
    """Write sessions.jsonl and catalog.jsonl for one workload and seed."""
    shape = PROBE if workload == "probe" else SHAPES[workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sessions_path = out / "sessions.jsonl"
    catalog_path = out / "catalog.jsonl"
    rng = _rng(workload, seed)
    sessions_path.write_text(
        "".join(json.dumps(r) + "\n" for r in session_rows(shape, rng)), encoding="utf-8"
    )
    catalog_path.write_text(
        "".join(json.dumps(r) + "\n" for r in catalog_rows(shape)), encoding="utf-8"
    )
    return sessions_path, catalog_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for path in write_corpus(args.workload, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
