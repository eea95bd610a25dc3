"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _record(wall: float, trace: bool) -> run.OpRecord:
    spans = [{"layers": {}, "rss_mb": {}, "intervals": [[0.0, wall / 2]]}]
    return run.OpRecord(op=run.Op("op", check=lambda r: True), exit_code=0,
                        stdout=b"out", files={}, setup_s=0.2, wall_s=wall,
                        cpu_s=wall, peak_rss_mb=50.0, window=(0.0, wall),
                        spans=spans if trace else None, ok=True)


def test_benchmark_json_names_the_emitted_metrics():
    spec = _spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["per_layer"]:
        assert m["unit"] == run.metric_unit(m["name"]), m["name"]

    plan = run.Plan(ops=[], digits=1000, sizes={})
    plain, _, tally = run.summarise(
        plan, [(False, [_record(1.0, False)]), (False, [_record(1.2, False)])],
        traced=False)
    assert set(plain) == set(run.END_TO_END)
    assert tally == {"attempted": 2, "failed": 0}
    traced, _, _ = run.summarise(
        plan, [(False, [_record(1.0, False)]), (True, [_record(1.1, True)])],
        traced=True)
    assert set(traced) == set(run.per_layer_names())
    assert traced["trace.overhead_s"] == pytest.approx(0.1)
    assert traced["trace.unattributed_frac"] == pytest.approx(0.5)


def test_corrupted_output_lowers_ok_frac(tmp_path):
    plan = run.plan_index(seed=3, work=tmp_path)
    (op,) = [op for op in plan.ops if op.name == "count_squarefree"]
    good = run.run_op(op, tmp_path)
    assert good.exit_code == 0 and good.ok
    bad = dataclasses.replace(good, stdout=good.stdout.replace(b"5", b"6"))
    bad.ok = run.check_op(op, bad)
    assert not bad.ok
    metrics, _, tally = run.summarise(plan, [(False, [good]), (False, [bad])],
                                      traced=False)
    assert tally == {"attempted": 2, "failed": 1}
    assert metrics["ok_frac"] == 0.5


def _attributes() -> dict:
    import cfnormal.cli  # noqa: F401
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "cfnormal" or name.startswith("cfnormal."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        seen[(name, attr, meth)] = fn
    return seen


def test_tracer_restores_the_original_functions(tmp_path):
    import cfnormal.census as census
    import cfnormal.cli as cli
    import cfnormal.streams as streams
    before = _attributes()
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert cli.digit_block is not before[("cfnormal.cli", "digit_block")]
        assert census.digit_matrix is not before[
            ("cfnormal.census", "digit_matrix")]
        assert streams.GrowthTracker.update_many is not before[
            ("cfnormal.streams", "GrowthTracker", "update_many")]
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_census_collects_worker_spans(tmp_path):
    # m = 2100 makes two denominator chunks, so the pool forks two workers
    op = run.Op("census", argv=["census", "--kind", "all", "-m", "2100",
                                "--eps", "0.25", "--threads", "2"],
                check=lambda r: json.loads(r.stdout)["total"] > 0)
    plain = run.run_op(op, tmp_path)
    traced = run.run_op(op, tmp_path, trace=True)
    assert plain.ok and traced.ok
    assert traced.stdout == plain.stdout
    layers = run.layer_metrics([traced])
    assert layers["census.classify.chunks"] == 2
    assert layers["census.classify.workers"] == 2
    assert layers["streams.euclid.useful_frac"] == 1.0
    assert 0.0 < layers["trace.unattributed_frac"] < 1.0


def test_operation_killed_at_the_deadline(tmp_path):
    op = run.Op("census", argv=["census", "--kind", "all", "-m", "2100",
                                "--eps", "0.25", "--threads", "2"],
                check=lambda r: True)
    rec = run.run_op(op, tmp_path, deadline=run.time.monotonic() + 0.8)
    assert rec.exit_code == -run.signal.SIGKILL and not rec.ok


def test_census_refuses_more_workers_than_cores(tmp_path, monkeypatch):
    monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(SystemExit):
        run.plan_census(seed=0, work=tmp_path)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
