import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _run(ops_per_s, failed=0, exit_code=0, correct=None):
    return {
        "exit_code": exit_code,
        "correct": failed == 0 if correct is None else correct,
        "failed": failed,
        "attempted": 100,
        "metrics": {"setup_s": 0.3, "ops_per_s": ops_per_s, "op_p50_s": 1 / ops_per_s,
                    "peak_rss_mb": 69.0},
    }


def _pairs(**change_faults):
    """Ten pairs where the change runs 1.5x as many ops per second as the parent."""
    pairs = [{"seed": s, "parent": _run(20.0 + s), "change": _run(1.5 * (20.0 + s))}
             for s in range(10)]
    pairs[3]["change"] = _run(1.5 * 23.0, **change_faults)
    return pairs


def test_clear_gain_on_sound_runs_is_claimable():
    summary = bench_record.summarize(_pairs(), END_TO_END)
    assert summary["ops_per_s"]["change_wins"] == 10
    assert summary["ops_per_s"]["gain_claimable"]
    assert summary["op_p50_s"]["gain_claimable"]
    assert not summary["peak_rss_mb"]["gain_claimable"]


@pytest.mark.parametrize(
    "fault", [{"exit_code": 1}, {"correct": False}, {"failed": 1, "correct": True}]
)
def test_one_faulty_change_run_voids_every_gain(fault):
    pairs = _pairs(**fault)
    assert not bench_record.runs_sound(pairs)
    summary = bench_record.summarize(pairs, END_TO_END)
    assert not any(s["gain_claimable"] for s in summary.values())


def test_parent_spread_is_the_benchmark_spread():
    pairs = _pairs()
    parent = [p["parent"]["metrics"]["ops_per_s"] for p in pairs]
    summary = bench_record.summarize(pairs, END_TO_END)["ops_per_s"]
    assert summary["parent_spread"] == bench_record.spread(parent)
    assert summary["parent"]["median"] == bench_record.median(parent)
