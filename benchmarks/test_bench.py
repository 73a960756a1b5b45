"""Tests of the benchmark itself: input determinism, span arithmetic,
patching, output checks and the metric list in BENCHMARK.json.

Run from the repository root with ``python -m pytest benchmarks -q``.
"""
import json
import os
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from eqnf import corpus, polymap  # noqa: E402


# ---------------------------------------------------------------------------
# inputs

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]

    def prints(seed, p):
        return [j.fingerprint for j in wl.jobs(seed, p, str(tmp_path))]

    first = prints(7, 0)
    assert prints(7, 0) == first
    assert prints(8, 0) != first
    assert prints(7, 1) != first
    assert wl.warmup(7, str(tmp_path)).fingerprint == wl.warmup(7, str(tmp_path)).fingerprint


# ---------------------------------------------------------------------------
# spans

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _nested_trace():
    """Root 5 s of its own, outer 1 + 3 + 4 s, two inner calls of 2 s."""
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.t += 2.0

    inner_w = tracer.wrap("m.inner", inner)

    def outer():
        clock.t += 1.0
        inner_w()
        clock.t += 3.0
        inner_w()
        clock.t += 4.0

    outer_w = tracer.wrap("m.outer", outer)
    with tracer.job_span(0, "job.synthetic"):
        clock.t += 5.0
        outer_w()
    outer_w()  # outside a job: not recorded
    return tracer


def test_self_time_arithmetic_on_nested_calls():
    tracer = _nested_trace()
    summary = tracer.summary()
    assert summary["m.inner"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert summary["m.outer"] == {"calls": 1, "self_s": 8.0, "total_s": 12.0}
    assert summary["job.synthetic"]["self_s"] == 5.0
    assert sum(tracer.self_times()) == 17.0
    assert tracer.check_jobs({0: 17.0}) == []


def test_trace_check_reports_a_child_outside_its_parent():
    tracer = _nested_trace()
    tracer.spans[1][2] += 1.0  # outer now ends after the root
    assert any("leaves its parent" in p for p in tracer.check_jobs({0: 17.0}))


def test_trace_check_reports_overlapping_children():
    tracer = spans.Tracer()
    # two children inside the root that overlap each other: the root's self
    # time is 10 - 8 - 8 < 0, while every span nests in its parent
    tracer.spans = [["job.x", 0.0, 10.0, -1, 0], ["m.a", 0.0, 8.0, 0, 0],
                    ["m.b", 2.0, 10.0, 0, 0]]
    problems = tracer.check_jobs({0: 10.0})
    assert len(problems) == 1 and "overlap" in problems[0]


def test_trace_check_reports_a_root_span_off_the_measured_job_time():
    tracer = _nested_trace()
    assert tracer.check_jobs({0: 17.0 * 1.005}) == []
    problems = tracer.check_jobs({0: 17.0 * 1.02})
    assert len(problems) == 1 and "measured" in problems[0]
    assert any("no root span" in p for p in tracer.check_jobs({0: 17.0, 1: 1.0}))


# ---------------------------------------------------------------------------
# host-speed probe

def test_scale_factor_states_a_time_for_the_nominal_probe_time():
    nominal = probe.NOMINAL_S
    assert probe.scale_factor([nominal, nominal]) == 1.0
    assert probe.scale_factor([2 * nominal, 2 * nominal]) == 0.5
    assert probe.scale_factor([nominal, 2 * nominal]) == 1.0 / 1.5


def test_speed_probe_records_readings_and_stops_its_thread():
    with probe.SpeedProbe(period=0.005) as sampler:
        deadline = time.perf_counter() + 5.0
        while len(sampler.readings) < 3 and time.perf_counter() < deadline:
            time.sleep(0.01)
    assert len(sampler.readings) >= 3
    assert all(c > 0 for _, c in sampler.readings)
    assert sampler.between(0.0, time.perf_counter()) == [c for _, c in sampler.readings]
    assert not sampler._thread.is_alive()


def test_passes_stop_on_scaled_time(tmp_path):
    # each pass takes 1 s while the probe reads twice the nominal time, so a
    # pass counts 0.5 s: 2 s of scaled time takes 4 passes, where 2 s of
    # unscaled time would have stopped at MIN_PASSES = 3
    class Sampler:
        readings = []

        def between(self, a, b):
            return [2 * probe.NOMINAL_S]

    class Wl:
        def jobs(self, seed, p, workdir):
            return [job]

    job = workloads.Job(kind="stub", run=None, check=None, sizes={}, fingerprint="")
    stub = types.SimpleNamespace(execute=lambda job, clock: (1.0, workloads.Outcome()))
    args = types.SimpleNamespace(seconds=2.0, seed=1)
    passes, factors, _ = run._timed(args, Wl(), stub, [job], tmp_path, run.Tally(),
                                    Sampler())
    assert passes == [1.0] * 4 and factors == [0.5] * 4


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import eqnf
    from eqnf import normalform

    original = polymap.log_map
    evaluate = polymap.TruncatedMap.__dict__["evaluate"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = polymap.log_map
        assert wrapped is not original
        assert normalform.log_map is wrapped and eqnf.log_map is wrapped
        cls_dict = polymap.TruncatedMap.__dict__
        assert cls_dict["evaluate"] is cls_dict["__call__"] is not evaluate
        F = polymap.TruncatedMap.identity(2, 2)
        with tracer.job_span(0, "job.synthetic"):
            normalform.log_map(F)
            F(np.zeros(2))
    finally:
        problems = tracer.restore()
    assert problems == []
    assert polymap.log_map is original and normalform.log_map is original
    assert polymap.TruncatedMap.__dict__["__call__"] is evaluate
    names = [s[0] for s in tracer.spans]
    assert names.count("polymap.log_map") == 1
    assert names.count("polymap.evaluate") == 1
    assert "polymap.exp_vf" in names  # reached from inside log_map


def test_restore_reports_a_rebound_attribute_and_a_stray_wrapper():
    from eqnf import corpus as corpus_mod

    original_rotation = corpus_mod.rotation
    tracer = spans.Tracer()
    tracer.install()
    try:
        corpus_mod.rotation = lambda theta: None  # rebound during the run
        corpus_mod._stray = polymap.compose  # a wrapper copied elsewhere
        problems = tracer.restore()
    finally:
        corpus_mod.rotation = original_rotation
        del corpus_mod._stray
    assert any("eqnf.corpus.rotation is not the original" in p for p in problems)
    assert any("eqnf.corpus._stray is still a wrapper" in p for p in problems)
    assert spans.Tracer().restore() == ["nothing was wrapped"]


# ---------------------------------------------------------------------------
# output checks

def _failed_fraction(job, corrupt):
    """Run a job whose output is corrupted before its check; return the
    run's fail fraction as the benchmark computes it."""
    run_once = job.run
    job.run = lambda: corrupt(run_once())
    tally = run.Tally()
    tally.add(job, *workloads.execute(job, lambda: 0.0), "timed")
    return tally.failed / tally.attempted, tally.records[0]["outcome"].problems


def test_nf_check_rejects_exponent_off_the_admissible_space():
    inst = corpus.instance_rot_reflect(3)
    rng = np.random.default_rng(3)
    family = corpus.equivariant_family(inst, 3, rng)
    job = workloads.nf_job(inst, family, 3, [[0.01]])
    frac, problems = _failed_fraction(job, lambda res: res)
    assert frac == 0.0 and problems == []

    def push_off(res):
        B = res.admissible[2]
        v = np.random.default_rng(0).standard_normal(B.shape[0])
        v -= B @ (B.T @ v)
        W = res.exponents[0]
        res.exponents[0] = W.with_layer(2, W.layer(2) + 1e-4 * v.reshape(W.layer(2).shape))
        return res

    job = workloads.nf_job(inst, family, 3, [[0.01]])
    frac, problems = _failed_fraction(job, push_off)
    assert frac == 1.0
    assert any("admissible" in p for p in problems)


def test_periodic_check_rejects_perturbed_residual():
    planted = corpus.planted_q1()
    job = workloads.periodic_job("planted-q1", planted.family, planted.inst, 1,
                                 [[0.02]], 0.3, 5, 0.6,
                                 predict=planted.predict_points)
    frac, problems = _failed_fraction(job, lambda pts: pts)
    assert frac == 0.0 and problems == []

    def perturb(pts):
        pts[0].residual_full += 1e-6
        return pts

    job = workloads.periodic_job("planted-q1", planted.family, planted.inst, 1,
                                 [[0.02]], 0.3, 5, 0.6,
                                 predict=planted.predict_points)
    frac, problems = _failed_fraction(job, perturb)
    assert frac == 1.0
    assert any("residual_full" in p for p in problems)


def test_library_error_fails_the_job():
    from eqnf.errors import NoConvergence

    def boom():
        raise NoConvergence("stalled")

    job = workloads.Job(kind="x", run=boom, check=None, sizes={}, fingerprint="")
    seconds, outcome = workloads.execute(job, lambda: 0.0)
    assert outcome.problems == ["NoConvergence: stalled"]


# ---------------------------------------------------------------------------
# BENCHMARK.json

def _spec():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_spec()
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_has_an_expectation():
    with open(HERE / "expectations.json", encoding="utf-8") as fh:
        covered = {m for entry in json.load(fh)["layers"] for m in entry["metrics"]}
    for metric in _spec()["per_layer"]:
        name = metric["name"]
        for suffix in (".calls", ".self_s", ".total_s"):
            if name.endswith(suffix):
                name = name[:-len(suffix)]
        assert name in covered, metric["name"]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "reduce", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""
    assert os.environ["OPENBLAS_NUM_THREADS"] == str(run.BLAS_THREADS)
