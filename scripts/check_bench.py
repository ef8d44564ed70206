#!/usr/bin/env python
"""Benchmark regression gate: freshly emitted trajectories vs baselines.

CI snapshots the *committed* repo-root ``BENCH_*.json`` trajectories
before the benchmark steps overwrite them, then runs this gate on the
pair.  Two classes of change fail the build:

* **wall-clock regression** — any ``*_seconds`` metric that grew by
  more than ``--max-regression`` (default 25%) over its baseline.
  Getting *faster* is always fine.  Metrics whose baseline is below
  ``--min-seconds`` (default 0.5s) are exempt from the wall-clock
  check: sub-second single-round timings are dominated by runner
  jitter, and a gate that flakes gets deleted — the bound bites on the
  multi-second pipeline metrics where a real regression shows.
  When the benchmark environment changes (new runner class, new
  BLAS), refresh the committed baselines from a green run's uploaded
  ``BENCH-trajectories`` artifact rather than from a laptop.
* **equality flag flip** — any boolean metric (``bit_identical``,
  ``features_bit_identical``, ...) that was ``true`` in the baseline
  and is no longer.  These flags encode bit-identity and agreement
  acceptance contracts; a flip means correctness, not performance,
  regressed.  Flips from ``false`` to ``true`` are improvements and
  pass.
* **speedup-ratio regression** — a ``speedup`` metric (e.g. the
  sparse-vs-dense ratio in the ``sparse`` section) that fell more than
  ``--max-regression`` below its baseline.  Ratios are jitter-robust
  (numerator and denominator ride the same runner), so no
  ``--min-seconds`` floor applies; growing is always fine.
* **tail-latency regression** — any ``*_p99_seconds`` metric (the
  serving load benchmark's tail percentiles) that grew by more than
  ``--max-regression``.  Tail latencies are legitimate sub-second
  signal, so they get their own much lower ``--min-latency-seconds``
  floor (default 0.05) instead of the generic ``--min-seconds`` one.
* **shed-rate increase** — a ``shed_rate`` metric (fraction of
  submissions shed with 429 at a fixed offered load) that rose more
  than ``--max-shed-increase`` (absolute, default 0.10) above its
  baseline: the service started refusing work it used to absorb.
* **accuracy drop** — any ``*_accuracy`` metric (labeling accuracy in
  percent, e.g. the ``accuracy`` section of ``BENCH_inference.json``)
  that fell more than ``MAX_ACCURACY_DROP`` (1 point) below its
  baseline.  Accuracy is deterministic at a fixed protocol, so the
  bound is absolute and has no jitter floor; a rise always passes.

Every rule is keyed by name, so a section gates without bespoke code:
a ``reconciled`` flag is covered by the equality-flip rule, a
``*_p99_seconds`` tail by the latency rule.

Structure is compared recursively; a fresh file may *add* keys or rows
(new metrics, new corpus sizes), but dropping a baseline key or row
fails — silently shrinking coverage must look like a regression, not a
pass.  Other scalars (row counts, iteration counts) are informational
and ignored: they legitimately change as the engine evolves.

Usage::

    python scripts/check_bench.py --baseline .bench-baseline --fresh . \
        BENCH_inference.json BENCH_serving.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MAX_ACCURACY_DROP = 1.0  # percentage points


def compare(
    baseline: object,
    fresh: object,
    path: str,
    max_regression: float,
    min_seconds: float,
    min_latency_seconds: float = 0.05,
    max_shed_increase: float = 0.10,
) -> list[str]:
    """All gate violations between one baseline/fresh subtree pair."""

    def recurse(base_node: object, fresh_node: object, sub_path: str) -> list[str]:
        return compare(
            base_node, fresh_node, sub_path,
            max_regression, min_seconds, min_latency_seconds, max_shed_increase,
        )

    issues: list[str] = []
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            return [f"{path}: baseline is a mapping, fresh is {type(fresh).__name__}"]
        for key, value in baseline.items():
            if key not in fresh:
                issues.append(f"{path}.{key}: present in baseline, missing from fresh run")
            else:
                issues.extend(recurse(value, fresh[key], f"{path}.{key}"))
        return issues
    if isinstance(baseline, list):
        if not isinstance(fresh, list):
            return [f"{path}: baseline is a list, fresh is {type(fresh).__name__}"]
        if len(fresh) < len(baseline):
            issues.append(f"{path}: coverage shrank from {len(baseline)} to {len(fresh)} rows")
        for index, (base_row, fresh_row) in enumerate(zip(baseline, fresh)):
            issues.extend(recurse(base_row, fresh_row, f"{path}[{index}]"))
        return issues
    # bool before int/float: Python booleans are ints.
    if isinstance(baseline, bool):
        if baseline and not fresh:
            issues.append(
                f"{path}: equality flag flipped true -> {json.dumps(fresh)} "
                "(bit-identity contract broken)"
            )
        return issues
    key = path.rsplit(".", 1)[-1]
    if isinstance(baseline, (int, float)) and key.endswith("_p99_seconds"):
        # Tail latency first: the generic _seconds rule's jitter floor
        # (0.5s) would exempt almost every real serving percentile.
        if not isinstance(fresh, (int, float)) or isinstance(fresh, bool):
            return [f"{path}: baseline is a number, fresh is {json.dumps(fresh)}"]
        if baseline < min_latency_seconds:
            return issues
        limit = baseline * (1.0 + max_regression)
        if fresh > limit:
            issues.append(
                f"{path}: p99 latency regressed {baseline:.4f}s -> {fresh:.4f}s "
                f"(+{100.0 * (fresh - baseline) / baseline:.1f}%, "
                f"limit +{100.0 * max_regression:.0f}%)"
            )
        return issues
    if isinstance(baseline, (int, float)) and key == "shed_rate":
        if not isinstance(fresh, (int, float)) or isinstance(fresh, bool):
            return [f"{path}: baseline is a number, fresh is {json.dumps(fresh)}"]
        limit = baseline + max_shed_increase
        if fresh > limit:
            issues.append(
                f"{path}: shed rate rose {baseline:.3f} -> {fresh:.3f} at the same "
                f"offered load (limit +{max_shed_increase:.2f} absolute)"
            )
        return issues
    if isinstance(baseline, (int, float)) and key.endswith("_accuracy"):
        if not isinstance(fresh, (int, float)) or isinstance(fresh, bool):
            return [f"{path}: baseline is a number, fresh is {json.dumps(fresh)}"]
        if fresh < baseline - MAX_ACCURACY_DROP:
            issues.append(
                f"{path}: labeling accuracy dropped {baseline:.2f} -> {fresh:.2f} "
                f"(-{baseline - fresh:.2f} points, limit -{MAX_ACCURACY_DROP:.0f})"
            )
        return issues
    if isinstance(baseline, (int, float)) and key.endswith("_seconds"):
        if not isinstance(fresh, (int, float)) or isinstance(fresh, bool):
            return [f"{path}: baseline is a number, fresh is {json.dumps(fresh)}"]
        if baseline < min_seconds:
            return issues  # sub-floor timings are runner jitter, not signal
        limit = baseline * (1.0 + max_regression)
        if fresh > limit:
            issues.append(
                f"{path}: wall clock regressed {baseline:.4f}s -> {fresh:.4f}s "
                f"(+{100.0 * (fresh - baseline) / baseline:.1f}%, "
                f"limit +{100.0 * max_regression:.0f}%)"
            )
        return issues
    if isinstance(baseline, (int, float)) and (key == "speedup" or key.endswith("_speedup")):
        if not isinstance(fresh, (int, float)) or isinstance(fresh, bool):
            return [f"{path}: baseline is a number, fresh is {json.dumps(fresh)}"]
        floor = baseline * (1.0 - max_regression)
        if fresh < floor:
            issues.append(
                f"{path}: speedup ratio regressed {baseline:.3f}x -> {fresh:.3f}x "
                f"(-{100.0 * (baseline - fresh) / baseline:.1f}%, "
                f"limit -{100.0 * max_regression:.0f}%)"
            )
        return issues
    return issues


def check_file(
    name: str,
    baseline_dir: Path,
    fresh_dir: Path,
    max_regression: float,
    min_seconds: float,
    min_latency_seconds: float = 0.05,
    max_shed_increase: float = 0.10,
) -> list[str]:
    baseline_path = baseline_dir / name
    fresh_path = fresh_dir / name
    if not baseline_path.exists():
        return [f"{name}: no committed baseline at {baseline_path}"]
    if not fresh_path.exists():
        return [f"{name}: benchmark step emitted no fresh trajectory at {fresh_path}"]
    try:
        baseline = json.loads(baseline_path.read_text())
    except ValueError as error:
        return [f"{name}: baseline is not valid JSON ({error})"]
    try:
        fresh = json.loads(fresh_path.read_text())
    except ValueError as error:
        return [f"{name}: fresh trajectory is not valid JSON ({error})"]
    return compare(
        baseline, fresh, name,
        max_regression, min_seconds, min_latency_seconds, max_shed_increase,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="trajectory file names present in both directories")
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="directory holding the committed baseline trajectories",
    )
    parser.add_argument(
        "--fresh", type=Path, default=Path("."),
        help="directory holding the freshly emitted trajectories (default: .)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="tolerated fractional wall-clock growth per metric (default 0.25)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.5,
        help="baselines below this are exempt from the wall-clock check "
        "(sub-second single-round timings are runner jitter; default 0.5)",
    )
    parser.add_argument(
        "--min-latency-seconds", type=float, default=0.05,
        help="*_p99_seconds baselines below this are exempt from the tail-latency "
        "check (default 0.05)",
    )
    parser.add_argument(
        "--max-shed-increase", type=float, default=0.10,
        help="tolerated absolute shed_rate growth at the same offered load (default 0.10)",
    )
    args = parser.parse_args(argv)
    if args.max_regression < 0:
        parser.error(f"--max-regression must be >= 0, got {args.max_regression}")
    if args.max_shed_increase < 0:
        parser.error(f"--max-shed-increase must be >= 0, got {args.max_shed_increase}")

    failures: list[str] = []
    for name in args.files:
        issues = check_file(
            name, args.baseline, args.fresh, args.max_regression, args.min_seconds,
            args.min_latency_seconds, args.max_shed_increase,
        )
        status = "FAIL" if issues else "ok"
        print(f"[{status}] {name}")
        for issue in issues:
            print(f"    {issue}")
        failures.extend(issues)
    if failures:
        print(f"\nbenchmark gate: {len(failures)} violation(s)")
        return 1
    print("\nbenchmark gate: all trajectories within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
