"""Self-test of the benchmark on tiny seeded workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from besovcalc import norms  # noqa: E402
from besovcalc.functions import parse_function_spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=300,
    ).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1])
    printed = {"items_per_s": "1/s", "item_p50_s": "s", "item_tail_s": "s", "failed_frac": "ratio"}
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)


def test_raising_item_and_missed_gate_count_as_failed():
    items = workloads.build("reproduce", 3, 2)
    items.append(
        workloads.Item(
            "nosuch()", "nosuch", lambda: parse_function_spec("nosuch()"), lambda r: workloads.Check(True)
        )
    )
    items.append(
        workloads.Item("gate", "gate", lambda: 1.0, lambda r: workloads._gate(r, 1e-5, 2.0))
    )
    summary = run.summarize(run.run_items(items))
    assert summary["failed_frac"] == pytest.approx(0.5)
    assert summary["pass_frac"] == pytest.approx(0.5)
    assert [o.name for o in summary["failed"]] == ["nosuch()", "gate"]
    assert summary["failed"][0].check.reason.startswith("UnknownSpec")
    assert summary["covered"] == 3 and summary["referenced"] == 3


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_is_span_minus_direct_children():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)
    rec.active = True
    inner = rec.wrap("inner", clock.spend)

    def body():
        clock.spend(1.0)
        inner(2.0)
        clock.spend(0.5)
        inner(4.0)

    rec.wrap("outer", body)()
    inner(8.0)
    # a call inside a span of the same layer is not a span of its own
    part = rec.wrap("f", clock.spend, nested_under={"f"})
    rec.wrap("f", lambda: (part(1.0), part(2.0)), nested_under={"f"})()
    rec.active = False
    inner(16.0)
    assert rec.self_s == {"outer": 1.5, "inner": 14.0, "f": 3.0}
    assert rec.calls == {"outer": 1, "inner": 3, "f": 1}


def test_work_counts_repeat_and_layers_stay_apart():
    original = norms.sup_on_vertical_line
    counts = {}
    for workload, n in (("suite", 2), ("reproduce", 3), ("calculus", 2)):
        runs = []
        for _ in range(2):
            outcomes, rec = run.traced_pass(workload, 5, n)
            assert all(o.passed for o in outcomes)
            runs.append(tracing.work_counts(tracing.layer_metrics(rec, {}, 0.0, 0.0)))
        differ = sorted(k for k in runs[0] if runs[0][k] != runs[1][k])
        assert not differ, f"{workload}: counters differ between runs: {differ}"
        counts[workload] = runs[0]
    assert norms.sup_on_vertical_line is original
    assert counts["suite"]["quadrature.sup.calls"] > 0
    assert counts["reproduce"]["quadrature.sup.calls"] == 0
    assert counts["calculus"]["quadrature.sup.calls"] == 0
    assert counts["reproduce"]["duality.pairing.calls"] == 3
    assert all(v == 0 for k, v in counts["reproduce"].items() if k.startswith("operators."))
    assert counts["calculus"]["operators.apply.calls"] == 2
    assert counts["calculus"]["operators.profile.hit_frac"] == 0.5
