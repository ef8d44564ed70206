"""The repo-root ``BENCH_*.json`` trajectory files the benchmarks write."""

from __future__ import annotations

import json
from pathlib import Path


def update_trajectory(path: Path, key: str, rows: list[dict] | dict) -> None:
    """Merge one section into a shared trajectory JSON.

    A ``BENCH_*.json`` file holds one section per benchmark that writes
    it (``BENCH_inference.json``: ``rows``, ``sparse``, ``online``, ...);
    merging instead of rewriting lets the benchmarks run in any order —
    or alone — without erasing each other's numbers.
    """
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        document = {}
    if not isinstance(document, dict):
        document = {}
    document[key] = rows
    path.write_text(json.dumps(document, indent=2) + "\n")
