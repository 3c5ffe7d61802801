"""Tests of the benchmark harness itself: smoke runs and failing checks.

Smoke runs shrink the sweeps through the workload module's constants so
the whole file stays within a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
for p in (str(BENCH), str(SRC)):
    if p not in sys.path:
        sys.path.insert(0, p)

import butlercad.cli as cli  # noqa: E402
import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "CIRCUIT_POINTS", 11)
    monkeypatch.setattr(workloads, "IDEAL_POINTS", 21)


def first_ops(workload, seed, workdir, n):
    gen = workloads.GENERATORS[workload](seed, workdir)
    return [next(gen) for _ in range(n)]


def test_spec_lists_the_workloads_and_metric_shapes():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload, small, tmp_path):
    result, lines = run.run(workload, 7, 0.3, False, tmp_path, SRC, setup_reps=1)
    assert result["correct"] is True
    assert result["attempted"] >= 2
    assert list(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert any(line.startswith("fail_ratio ") for line in lines)


def test_traced_run_reports_every_layer_and_adds_up(small, tmp_path):
    result, lines = run.run("point_mix", 3, 0.3, True, tmp_path, SRC, setup_reps=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(PER_LAYER)
    assert metrics["trace.missing_targets"] == 0
    assert metrics["cli.calls"] == result["attempted"]
    assert metrics["trace.self_sum_ms"] == pytest.approx(metrics["trace.wall_ms"], rel=0.01)
    for layer in ("microstrip.busy_ms", "antenna.busy_ms", "butler.build_ms",
                  "components.eval_self_ms", "network.interconnect_self_ms",
                  "beams.array_factor_ms", "report.busy_ms", "touchstone.write_ms"):
        assert metrics[layer] > 0, layer


def test_request_times_are_scaled_by_the_host_factor_around_them(small, tmp_path,
                                                                monkeypatch):
    factors = iter([1.0, 3.0, 5.0, 7.0, 9.0])
    monkeypatch.setattr(hostspeed.HostSpeed, "factor", lambda self: next(factors))
    monkeypatch.setattr(run, "HOST_EVERY_S", 0.0)
    monkeypatch.setattr(run, "HOST_SMOOTH_S", 0.0)
    ops = workloads.circuit_sweep(1, tmp_path)
    results, _ = run.closed_loop(cli, ops, 1, None, count=3, host=hostspeed.HostSpeed())
    assert [r.factor for r in results] == [2.0, 4.0, 6.0]
    s = run.summarize("circuit_sweep", results, 1.0)
    assert s["ops_per_s"] == pytest.approx(
        sorted(r.factor / r.latency_s for r in results)[1])


def test_host_factors_are_averaged_over_the_smoothing_window(small, tmp_path, monkeypatch):
    factors = iter([1.0, 3.0, 5.0, 7.0, 9.0])
    monkeypatch.setattr(hostspeed.HostSpeed, "factor", lambda self: next(factors))
    monkeypatch.setattr(run, "HOST_EVERY_S", 0.0)
    monkeypatch.setattr(run, "HOST_SMOOTH_S", 60.0)
    ops = workloads.circuit_sweep(1, tmp_path)
    results, _ = run.closed_loop(cli, ops, 1, None, count=3, host=hostspeed.HostSpeed())
    assert [r.factor for r in results] == [4.0, 4.0, 4.0]


def test_host_factor_is_a_positive_measurement():
    host = hostspeed.HostSpeed()
    assert host.factor() > 0 and len(host.measurements) == 1


def test_tracer_survives_a_missing_target_and_restores_bindings(monkeypatch):
    import butlercad.network as network

    monkeypatch.setitem(tracing.TARGETS, "network.gone", "butlercad.network:no_such_solver")
    original = network.interconnect
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert network.interconnect is not original
        assert cli.interconnect is network.interconnect
    finally:
        tracer.uninstall()
    assert tracer.missing == ["butlercad.network:no_such_solver"]
    assert network.interconnect is original and cli.interconnect is original


def test_same_seed_gives_the_same_requests(tmp_path):
    for workload in workloads.WORKLOADS:
        a = [op.argv for op in first_ops(workload, 5, tmp_path, 30)]
        b = [op.argv for op in first_ops(workload, 5, tmp_path, 30)]
        c = [op.argv for op in first_ops(workload, 6, tmp_path, 30)]
        assert a == b and a != c


def test_point_mix_blocks_and_malformed_kinds(tmp_path):
    ops = first_ops("point_mix", 11, tmp_path, 5 * len(workloads.BLOCK))
    block = [op.kind for op in ops[: len(workloads.BLOCK)]]
    assert sorted(block) == sorted(workloads.BLOCK)
    bad = [op for op in ops if op.kind == "malformed"]
    assert [op.facts["malformed"] for op in bad] == list(workloads.MALFORMED_KINDS) * 2
    steps = [op.argv[op.argv.index("--step") + 1] for op in bad
             if op.facts["malformed"] == "bad_step"]
    assert len(steps) == 2 and all(float(step) < 0 for step in steps)


def execute_and_verify(op):
    res = run.execute(cli, op)
    run.verify_all(cli, [res], 1, 1)
    return res


def test_perturbed_touchstone_value_is_a_failure(small, tmp_path):
    op = first_ops("ideal_sweep_io", 2, tmp_path, 1)[0]
    res = run.execute(cli, op)
    checks.verify(op, res.rc, res.stdout, res.stderr, res.escaped)
    ts = op.outdir / "butler_ideal.s8p"
    lines = ts.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line[:1] not in ("!", "#"))
    fields = lines[k].split()
    fields[3] = repr(float(fields[3]) + 1e-4)
    lines[k] = " ".join(fields)
    ts.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.verify(op, res.rc, res.stdout, res.stderr, res.escaped)


def test_changed_bytes_on_rerun_are_a_failure(small, tmp_path, monkeypatch):
    op = first_ops("circuit_sweep", 4, tmp_path, 1)[0]
    res = run.execute(cli, op)
    real_execute = run.execute

    def execute_then_touch(cli_module, again_op, tracer=None):
        out = real_execute(cli_module, again_op, tracer)
        (again_op.outdir / "stray.txt").write_text("x")
        return out

    monkeypatch.setattr(run, "execute", execute_then_touch)
    run.verify_all(cli, [res], 1, 1)
    assert res.failure == "re-running the same argv changed the files"
    assert res.incorrect


@pytest.mark.parametrize("stderr, escaped", [
    ("", None),
    ("butlercad: error: bad\nsecond line\n", None),
    ("", "ZeroDivisionError: float division by zero"),
])
def test_malformed_request_without_one_stderr_line_is_a_failure(tmp_path, stderr, escaped):
    op = next(op for op in first_ops("point_mix", 1, tmp_path, 60) if op.kind == "malformed")
    res = run.Result(op, None if escaped else 2, "", stderr, escaped, 0.001)
    run.verify_all(cli, [res], 1, 1)
    assert res.failure and not res.incorrect
    summary = run.summarize("point_mix", [res], 1.0)
    assert summary["failed"] == 1


def test_malformed_requests_exit_2_with_one_line(tmp_path):
    for op in first_ops("point_mix", 9, tmp_path, 8 * len(workloads.BLOCK)):
        if op.kind == "malformed":
            res = execute_and_verify(op)
            assert res.failure is None, (op.argv, res.failure)


def test_zero_step_probe_is_reported_apart_from_the_timed_requests(small, tmp_path):
    result, lines = run.run("point_mix", 2, 0.3, False, tmp_path, SRC, setup_reps=1)
    assert result["failed"] == 0
    probe = next(line for line in lines if line.startswith("known-defect probe"))
    assert "--step 0" in probe
    res = execute_and_verify(workloads.zero_step_probe(tmp_path / "probe"))
    assert (res.failure is None) == probe.endswith("fixed")


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "point_mix", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
