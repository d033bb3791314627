import importlib.util
import json
import re
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


def test_gate_times_come_from_the_acceptance_lines():
    log = (
        ".\nACCEPTANCE c01 theta-sequence: PASS (0.034s) max identity residual 1.1e-16\n"
        ".\nACCEPTANCE c10 recovery (test 2): PASS (0.388s) \n"
        "F\nnot ACCEPTANCE c02 thm2 linear rate: PASS (0.1s)\n"
    )
    assert bench_record.gate_times(log) == {"c01 theta-sequence": 0.034,
                                            "c10 recovery (test 2)": 0.388}


def test_gate_times_match_the_acceptance_suite():
    # every gate of tests/test_acceptance.py prints a line gate_times reads
    text = (ROOT / "tests" / "test_acceptance.py").read_text()
    names = re.findall(r'_verdict\(\s*"([^"]+)"', text)
    assert len(names) == len(re.findall(r"^def test_c\d\d", text, re.MULTILINE))
    log = "".join(f"\nACCEPTANCE {n}: PASS (0.500s) detail" for n in names)
    assert bench_record.gate_times(log) == {n: 0.5 for n in names}


def _setup_pairs(parent, change):
    """Pairs whose runs differ only in ``setup_s``."""
    pairs = [{"seed": s, "parent": _run(20.0), "change": _run(20.0)} for s in range(len(parent))]
    for pair, p, c in zip(pairs, parent, change):
        pair["parent"]["metrics"]["setup_s"] = p
        pair["change"]["metrics"]["setup_s"] = c
    return pairs


def test_worse_marks_a_median_beyond_the_bound():
    parent = [0.30, 0.31, 0.29, 0.30, 0.30, 0.31, 0.29, 0.30, 0.30, 0.30]
    summary = bench_record.summarize(_setup_pairs(parent, [1.3 * p for p in parent]), END_TO_END)
    assert summary["setup_s"]["worse"] and not summary["setup_s"]["unresolved"]
    summary = bench_record.summarize(_setup_pairs(parent, [1.2 * p for p in parent]), END_TO_END)
    assert not summary["setup_s"]["worse"]
    assert not any(s["worse"] or s["unresolved"] for s in summary.values())


def test_unresolved_marks_a_parent_spread_beyond_the_bound():
    # quartiles 0.2 and 0.4 around a median of 0.3: spread 0.67 > bound 0.25
    parent = [0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4, 0.4, 0.5]
    summary = bench_record.summarize(_setup_pairs(parent, parent[::-1]), END_TO_END)["setup_s"]
    assert summary["parent_spread"] > summary["bound"]
    assert summary["unresolved"] and not summary["worse"]
    # unless every run of the change reads better than every run of the parent
    faster = bench_record.summarize(_setup_pairs(parent, [0.05] * 10), END_TO_END)["setup_s"]
    assert not faster["unresolved"] and faster["gain_claimable"]
