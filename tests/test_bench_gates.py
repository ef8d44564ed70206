"""Gates around the benchmark trajectories: check_bench + compare_bench_legs.

Loads the two scripts straight from ``scripts/`` (they are CLI tools,
not packages) and drives their ``main()`` on synthetic trajectory
files: the crossover-loss rule, the cross-interpreter equality-flag
comparison, and the failure modes that must not pass silently.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench = _load("check_bench")
compare_bench_legs = _load("compare_bench_legs")


def _run_gate(tmp_path: Path, baseline: dict, fresh: dict) -> int:
    (tmp_path / "base").mkdir(exist_ok=True)
    (tmp_path / "fresh").mkdir(exist_ok=True)
    (tmp_path / "base" / "BENCH_x.json").write_text(json.dumps(baseline))
    (tmp_path / "fresh" / "BENCH_x.json").write_text(json.dumps(fresh))
    return check_bench.main(
        ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"), "BENCH_x.json"]
    )


class TestCrossoverGate:
    def test_measured_crossover_going_null_fails(self, tmp_path, capsys):
        baseline = {"crossover": {"crossover_n": {"2": 320, "4": 160}}}
        fresh = {"crossover": {"crossover_n": {"2": 320, "4": None}}}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "crossover disappeared" in capsys.readouterr().out

    def test_null_staying_null_passes(self, tmp_path):
        document = {"crossover": {"crossover_n": {"2": None}}}
        assert _run_gate(tmp_path, document, document) == 0

    def test_crossover_moving_between_measured_ns_passes(self, tmp_path):
        # 160 -> 320 is coarse sweep granularity, not a gated regression.
        baseline = {"crossover": {"crossover_n": {"4": 160}}}
        fresh = {"crossover": {"crossover_n": {"4": 320}}}
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_null_gaining_a_measurement_passes(self, tmp_path):
        baseline = {"crossover": {"crossover_n": {"2": None}}}
        fresh = {"crossover": {"crossover_n": {"2": 160}}}
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_bit_identity_flip_still_fails(self, tmp_path, capsys):
        baseline = {"crossover": {"rows": [{"n": 80, "bit_identical": True}]}}
        fresh = {"crossover": {"rows": [{"n": 80, "bit_identical": False}]}}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "flipped" in capsys.readouterr().out


class TestSpeedupGate:
    def test_regressed_speedup_fails(self, tmp_path, capsys):
        baseline = {"sparse": [{"n": 80, "speedup": 1.4}]}
        fresh = {"sparse": [{"n": 80, "speedup": 1.0}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "speedup ratio regressed" in capsys.readouterr().out

    def test_dip_within_tolerance_passes(self, tmp_path):
        baseline = {"sparse": [{"n": 80, "speedup": 1.4}]}
        fresh = {"sparse": [{"n": 80, "speedup": 1.1}]}  # -21%, inside the 25% bound
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_faster_passes(self, tmp_path):
        baseline = {"sparse": [{"n": 80, "speedup": 1.2}]}
        fresh = {"sparse": [{"n": 80, "speedup": 2.5}]}
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_suffixed_key_is_gated_too(self, tmp_path, capsys):
        baseline = {"sparse": [{"warm_speedup": 3.0}]}
        fresh = {"sparse": [{"warm_speedup": 1.0}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "speedup ratio regressed" in capsys.readouterr().out

    def test_type_drift_fails(self, tmp_path, capsys):
        baseline = {"sparse": [{"speedup": 1.3}]}
        fresh = {"sparse": [{"speedup": None}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "baseline is a number" in capsys.readouterr().out

    def test_agreement_flag_flip_fails(self, tmp_path, capsys):
        baseline = {"sparse": [{"posterior_agreement_ok": True, "labels_exact": True}]}
        fresh = {"sparse": [{"posterior_agreement_ok": True, "labels_exact": False}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "flipped" in capsys.readouterr().out


class TestAccuracyGate:
    """The ``accuracy`` section of ``BENCH_inference.json``: GOGGLES'
    Table 1 accuracy per dataset, in percent, may not drop > 1 point."""

    @staticmethod
    def _section(*values: float) -> dict:
        datasets = ("cub", "gtsrb", "surface")
        return {"accuracy": [{"dataset": d, "goggles_accuracy": v} for d, v in zip(datasets, values)]}

    def test_drop_beyond_one_point_fails(self, tmp_path, capsys):
        baseline = self._section(94.3, 71.4, 94.3)
        fresh = self._section(94.3, 70.0, 94.3)
        assert _run_gate(tmp_path, baseline, fresh) == 1
        out = capsys.readouterr().out
        assert "labeling accuracy dropped" in out
        assert "accuracy[1].goggles_accuracy" in out

    def test_drop_within_one_point_passes(self, tmp_path):
        baseline = self._section(94.3, 71.4, 94.3)
        fresh = self._section(93.5, 71.4, 94.3)
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_rise_passes(self, tmp_path):
        assert _run_gate(tmp_path, self._section(70.0, 70.0, 70.0), self._section(90.0, 80.0, 75.0)) == 0

    def test_type_drift_fails(self, tmp_path, capsys):
        baseline = self._section(94.3)
        fresh = {"accuracy": [{"dataset": "cub", "goggles_accuracy": None}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "baseline is a number" in capsys.readouterr().out

    def test_dropped_dataset_row_fails(self, tmp_path, capsys):
        assert _run_gate(tmp_path, self._section(94.3, 71.4, 94.3), self._section(94.3, 71.4)) == 1
        assert "coverage shrank" in capsys.readouterr().out


class TestServingGates:
    def test_p99_regression_fails(self, tmp_path, capsys):
        baseline = {"load": [{"rps": 4, "submit_p99_seconds": 0.20, "shed_rate": 0.0}]}
        fresh = {"load": [{"rps": 4, "submit_p99_seconds": 0.30, "shed_rate": 0.0}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "p99 latency regressed" in capsys.readouterr().out

    def test_p99_below_latency_floor_is_exempt(self, tmp_path):
        # 10ms -> 40ms is x4 but under the 50ms floor: runner jitter.
        baseline = {"load": [{"submit_p99_seconds": 0.010}]}
        fresh = {"load": [{"submit_p99_seconds": 0.040}]}
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_p99_is_not_exempted_by_generic_seconds_floor(self, tmp_path, capsys):
        # 0.2s is below the generic 0.5s _seconds floor but above the
        # 0.05s latency floor — the dedicated tail rule must bite.
        baseline = {"load": [{"e2e_p99_seconds": 0.20}]}
        fresh = {"load": [{"e2e_p99_seconds": 0.40}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "p99 latency regressed" in capsys.readouterr().out

    def test_p99_improvement_passes(self, tmp_path):
        baseline = {"load": [{"submit_p99_seconds": 0.40}]}
        fresh = {"load": [{"submit_p99_seconds": 0.10}]}
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_shed_rate_increase_fails(self, tmp_path, capsys):
        baseline = {"load": [{"rps": 8, "shed_rate": 0.05}]}
        fresh = {"load": [{"rps": 8, "shed_rate": 0.30}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "shed rate rose" in capsys.readouterr().out

    def test_shed_rate_within_tolerance_passes(self, tmp_path):
        baseline = {"load": [{"shed_rate": 0.05}]}
        fresh = {"load": [{"shed_rate": 0.10}]}  # +0.05 absolute, inside +0.10
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_shed_rate_drop_passes(self, tmp_path):
        baseline = {"load": [{"shed_rate": 0.40}]}
        fresh = {"load": [{"shed_rate": 0.0}]}
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_reconciled_flag_flip_fails(self, tmp_path, capsys):
        baseline = {"load": [{"reconciled": True}]}
        fresh = {"load": [{"reconciled": False}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "flipped" in capsys.readouterr().out

    def test_p99_type_drift_fails(self, tmp_path, capsys):
        baseline = {"load": [{"submit_p99_seconds": 0.2}]}
        fresh = {"load": [{"submit_p99_seconds": None}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "baseline is a number" in capsys.readouterr().out


class TestTelemetryGates:
    """The distributed ``telemetry`` section rides the same
    key-name-driven rules: the exact-reconciliation flag is a
    correctness contract (bool-flip rule) and the shard queue-wait p99
    is gated like the serving tails."""

    def test_reconciliation_flip_fails(self, tmp_path, capsys):
        baseline = {"telemetry": {"reconciled": True, "shard_queue_wait_p99_seconds": 0.1}}
        fresh = {"telemetry": {"reconciled": False, "shard_queue_wait_p99_seconds": 0.1}}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "flipped" in capsys.readouterr().out

    def test_queue_wait_p99_regression_fails(self, tmp_path, capsys):
        baseline = {"telemetry": {"reconciled": True, "shard_queue_wait_p99_seconds": 0.2}}
        fresh = {"telemetry": {"reconciled": True, "shard_queue_wait_p99_seconds": 0.4}}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "p99 latency regressed" in capsys.readouterr().out

    def test_within_tolerance_passes(self, tmp_path):
        baseline = {
            "telemetry": {
                "reconciled": True,
                "shard_queue_wait_p99_seconds": 0.2,
                "shards_completed": 40,
                "stragglers": 0,
            }
        }
        fresh = {
            "telemetry": {
                "reconciled": True,
                "shard_queue_wait_p99_seconds": 0.22,
                "shards_completed": 52,  # informational, not gated
                "stragglers": 2,
            }
        }
        assert _run_gate(tmp_path, baseline, fresh) == 0

    def test_dropped_telemetry_section_fails(self, tmp_path, capsys):
        baseline = {"telemetry": {"reconciled": True}}
        fresh = {}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "missing from fresh run" in capsys.readouterr().out


class TestTenantGates:
    """The ``tenants`` section rides the same key-name-driven rules as
    ``load``/``smoke`` — per-tenant rows are gated on tail latency,
    shed rate, reconciliation, and coverage."""

    def test_tenant_shed_rate_increase_fails(self, tmp_path, capsys):
        baseline = {"tenants": [{"tenant": "surface", "shed_rate": 0.0, "reconciled": True}]}
        fresh = {"tenants": [{"tenant": "surface", "shed_rate": 0.5, "reconciled": True}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "shed rate rose" in capsys.readouterr().out

    def test_tenant_p99_regression_fails(self, tmp_path, capsys):
        baseline = {"tenants": [{"tenant": "cub", "e2e_p99_seconds": 0.20}]}
        fresh = {"tenants": [{"tenant": "cub", "e2e_p99_seconds": 0.60}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "p99 latency regressed" in capsys.readouterr().out

    def test_tenant_reconciled_flip_fails(self, tmp_path, capsys):
        baseline = {"tenants": [{"tenant": "cub", "reconciled": True}]}
        fresh = {"tenants": [{"tenant": "cub", "reconciled": False}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "flipped" in capsys.readouterr().out

    def test_dropped_tenant_row_fails(self, tmp_path, capsys):
        baseline = {"tenants": [
            {"tenant": "surface", "shed_rate": 0.0},
            {"tenant": "cub", "shed_rate": 0.0},
        ]}
        fresh = {"tenants": [{"tenant": "surface", "shed_rate": 0.0}]}
        assert _run_gate(tmp_path, baseline, fresh) == 1
        assert "coverage shrank" in capsys.readouterr().out

    def test_matching_tenant_rows_pass(self, tmp_path):
        document = {"tenants": [
            {"tenant": "surface", "shed_rate": 0.0, "e2e_p99_seconds": 0.3, "reconciled": True},
            {"tenant": "cub", "shed_rate": 0.0, "e2e_p99_seconds": 0.3, "reconciled": True},
        ]}
        assert _run_gate(tmp_path, document, document) == 0


def _write_leg(root: Path, label: str, document: dict) -> None:
    leg = root / f"BENCH-inference-{label}"
    leg.mkdir(parents=True)
    (leg / "BENCH_inference.json").write_text(json.dumps(document))


def _run_legs(root: Path, min_legs: int = 2) -> int:
    return compare_bench_legs.main(["--root", str(root), "--min-legs", str(min_legs)])


class TestCompareBenchLegs:
    DOCUMENT = {
        "online": [
            {"n": 80, "absorb_total_seconds": 0.05, "labels_exact": True,
             "posterior_agreement_ok": True},
        ]
    }

    def test_agreeing_legs_pass_and_print_table(self, tmp_path, capsys):
        for label in ("py3.10", "py3.11", "py3.12"):
            _write_leg(tmp_path, label, self.DOCUMENT)
        assert _run_legs(tmp_path, min_legs=3) == 0
        out = capsys.readouterr().out
        assert "absorb_total_seconds" in out  # merged latency table
        assert "py3.10" in out and "py3.12" in out
        assert "all equality flags agree" in out

    def test_flag_divergence_fails(self, tmp_path, capsys):
        _write_leg(tmp_path, "py3.10", self.DOCUMENT)
        diverged = json.loads(json.dumps(self.DOCUMENT))
        diverged["online"][0]["labels_exact"] = False
        _write_leg(tmp_path, "py3.12", diverged)
        assert _run_legs(tmp_path) == 1
        out = capsys.readouterr().out
        assert "labels_exact" in out
        assert "diverges across interpreters" in out

    def test_missing_leg_fails(self, tmp_path, capsys):
        _write_leg(tmp_path, "py3.12", self.DOCUMENT)
        assert _run_legs(tmp_path, min_legs=3) == 1
        assert "only 1 leg" in capsys.readouterr().out

    def test_flag_missing_on_one_leg_counts_as_divergence(self, tmp_path, capsys):
        _write_leg(tmp_path, "py3.10", self.DOCUMENT)
        shrunk = {"online": [{"n": 80, "absorb_total_seconds": 0.05}]}
        _write_leg(tmp_path, "py3.12", shrunk)
        assert _run_legs(tmp_path) == 1
        assert "diverges" in capsys.readouterr().out

    def test_latency_differences_are_informational(self, tmp_path):
        _write_leg(tmp_path, "py3.10", self.DOCUMENT)
        slower = json.loads(json.dumps(self.DOCUMENT))
        slower["online"][0]["absorb_total_seconds"] = 5.0  # 100x slower: still fine here
        _write_leg(tmp_path, "py3.12", slower)
        assert _run_legs(tmp_path) == 0

    SERVING = {"smoke": [{"rps": 4, "shed_rate": 0.0, "reconciled": True, "e2e_p99_seconds": 0.8}]}

    def _write_serving(self, root: Path, label: str, document: dict) -> None:
        (root / f"BENCH-inference-{label}" / "BENCH_serving.json").write_text(json.dumps(document))

    def _run_multi(self, root: Path) -> int:
        return compare_bench_legs.main(
            ["--root", str(root), "--min-legs", "2",
             "--file", "BENCH_inference.json", "--file", "BENCH_serving.json"]
        )

    def test_multi_file_legs_merge_and_agree(self, tmp_path, capsys):
        for label in ("py3.10", "py3.12"):
            _write_leg(tmp_path, label, self.DOCUMENT)
            self._write_serving(tmp_path, label, self.SERVING)
        assert self._run_multi(tmp_path) == 0
        out = capsys.readouterr().out
        # Both trajectories land in the merged table, scoped by stem.
        assert "BENCH_inference:online" in out
        assert "BENCH_serving:smoke" in out
        assert "e2e_p99_seconds" in out

    def test_multi_file_flag_divergence_fails(self, tmp_path, capsys):
        for label in ("py3.10", "py3.12"):
            _write_leg(tmp_path, label, self.DOCUMENT)
        self._write_serving(tmp_path, "py3.10", self.SERVING)
        diverged = json.loads(json.dumps(self.SERVING))
        diverged["smoke"][0]["reconciled"] = False
        self._write_serving(tmp_path, "py3.12", diverged)
        assert self._run_multi(tmp_path) == 1
        out = capsys.readouterr().out
        assert "BENCH_serving:smoke[0].reconciled" in out

    def test_serving_file_missing_everywhere_is_fine(self, tmp_path):
        # Legs that never ran the serving smoke still compare on inference.
        for label in ("py3.10", "py3.12"):
            _write_leg(tmp_path, label, self.DOCUMENT)
        assert self._run_multi(tmp_path) == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
