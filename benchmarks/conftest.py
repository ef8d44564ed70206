"""Shared benchmark configuration.

Benchmarks regenerate every table and figure of the paper's §5.  Scale
is controlled by environment variables so CI can run a quick pass while
a full reproduction uses more seeds:

* ``REPRO_BENCH_SEEDS``  — runs averaged per experiment cell (default 3)
* ``REPRO_BENCH_N``      — images per class per run (default 40)

Rendered paper-vs-measured tables are printed and also appended to
``benchmarks/results.txt`` so they survive pytest's output capture.

``tests/`` is put on ``sys.path`` so a benchmark can time the test-only
reference kernels (``reference_affinity``) against the library's.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.eval.harness import ExperimentSettings

RESULTS_PATH = Path(__file__).parent / "results.txt"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return ExperimentSettings(
        n_per_class=int(os.environ.get("REPRO_BENCH_N", "40")),
        n_seeds=int(os.environ.get("REPRO_BENCH_SEEDS", "5")),
    )


@pytest.fixture(scope="session")
def record_result():
    """Print a rendered experiment block and append it to results.txt."""
    RESULTS_PATH.write_text("")

    def _record(text: str) -> None:
        print("\n" + text)
        with RESULTS_PATH.open("a") as handle:
            handle.write(text + "\n\n")

    return _record
