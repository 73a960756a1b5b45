"""The eqnf benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload nf-sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

One run builds the workload's inputs from ``--seed`` (pass 0 and an untimed
warm-up job), runs one warm-up job, then the timed passes, and checks every
job's certificate.  BLAS is pinned to ``BLAS_THREADS`` threads before numpy
loads.

``--trace 0`` (end to end, untraced) runs passes 0, 1, ... until the timed
job time, scaled as below, reaches ``--seconds`` and at least ``MIN_PASSES``
ran; later passes are generated between passes, outside the timing.  Scaled
time decides, so that a slow host does not change which passes a seed's
median is taken over.  It reports ``wall_adj_s``
(median pass time), ``setup_s`` (median over ``SETUP_SAMPLES`` set-ups, this
process's and those of fresh processes, of the time from process start until
the inputs are ready) and ``peak_rss_mb``.  Each pass time and each set-up
time is scaled by the speed probe of probe.py, which runs from process
start, to a host on which the probe takes 0.8 ms; the unscaled medians are
printed as ``wall_s`` and ``setup_raw_s``.  Every run is pinned to one CPU.

``--trace 1`` runs pass 0 with spans around the public eqnf functions (see
spans.py), replays each job untraced right after it for the overhead
reference, and reports the per-layer metrics.  Call counts repeat exactly
for one seed.

``--workload all`` runs every workload untraced and traced, each in its own
process, and prints everything.  The last line of every run is one JSON
object with the keys correct, attempted, failed and metrics; the full record
(machine, input sizes, per-job outcomes, spans) goes to benchmarks/out/.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402

# Pinned before numpy loads.  One thread keeps a run on one core, so it does
# not depend on whether a second core is free; on a 2-core Xeon VM two
# threads made the nf-wide job about 8% faster (6.6 s against 7.1 s).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# setup_s is the median of this many set-ups: this process and fresh ones.
# A set-up is mostly imports, whose time varies by a third from one process
# to the next, so one sample is not enough.
SETUP_SAMPLES = 5
# wall_adj_s is a median over at least MIN_PASSES passes, so one slow pass
# (an input on which log_map runs all its sweeps costs about 6x) cannot set
# it; no pass starts once MAX_MEASURED_S of (unscaled) job time is measured.
MIN_PASSES = 3
MAX_MEASURED_S = 90.0
DEFAULT_SECONDS = 20  # run_seconds in BENCHMARK.json
CHILD_TIMEOUT_S = 170

END_TO_END = (("wall_adj_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"))


def _fail(msg: str) -> int:
    print(f"benchmark error: {msg}", file=sys.stderr)
    return 2


def _median(values):
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# records

def machine_info(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "blas_vendor": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads_pinned": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed}


def inputs_info(jobs) -> dict:
    """Sizes of a pass: the distinct values of each size, totals of samples
    and seeds, and the largest layer and dense operator (bytes computed from
    the shape, not measured)."""
    sizes = [j.sizes for j in jobs]
    big = max(sizes, key=lambda s: s["largest_dense_operator_bytes_computed"])
    return {
        "jobs": [j.kind for j in jobs],
        **{key: sorted({s[key] for s in sizes})
           for key in ("n", "k", "q", "group_order", "dim_u")},
        "lambda_samples": sum(s["lambda_samples"] for s in sizes),
        "seeds": sum(s["seeds"] for s in sizes),
        "largest_layer_dim": max(s["largest_layer_dim"] for s in sizes),
        "largest_dense_operator": big["largest_dense_operator"],
        "largest_dense_operator_bytes_computed":
            big["largest_dense_operator_bytes_computed"],
    }


class Tally:
    """Per-job outcomes of a run."""

    def __init__(self):
        self.records = []

    def add(self, job, seconds, outcome, phase):
        self.records.append({"phase": phase, "kind": job.kind,
                             "seconds": seconds, "outcome": outcome, "job": job})

    def outcomes(self, phase=None):
        return [r["outcome"] for r in self.records
                if phase is None or r["phase"] == phase]

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for o in self.outcomes() if o.problems)

    def quality(self, phase) -> dict:
        outs = self.outcomes(phase)
        total = sum(o.recall_total for o in outs)
        return {"periodic_recall": (sum(o.recall_hits for o in outs) / total
                                    if total else 0.0),
                "planted_points": total,
                "trivial_copies": sum(o.trivial_copies for o in outs),
                "points": sum(o.points for o in outs),
                "seeds": sum(o.seeds for o in outs)}

    def dump(self):
        return [{"phase": r["phase"], "kind": r["kind"], "seconds": r["seconds"],
                 "problems": r["outcome"].problems, "points": r["outcome"].points}
                for r in self.records]


# ---------------------------------------------------------------------------
# per-layer metrics

def per_layer_spec():
    """(name, unit, better) of every per-layer metric in a traced run's
    result line: calls and self time of every wrapped callable (zero on a
    workload that never calls it), total time of the entry points, self
    time of each layer, and the ratios."""
    from spans import TARGETS, is_entry_point, layer_names
    spec = [(f"{name}.calls", "count", "lower") for name in layer_names()]
    spec += [(f"{name}.self_s", "s", "lower") for name in layer_names()]
    spec += [(f"{name}.total_s", "s", "lower") for name in layer_names()
             if is_entry_point(name)]
    spec += [(f"{module}.self_s", "s", "lower") for module in TARGETS]
    spec += [("normalform.log_map_per_degree_sample", "ratio", "lower"),
             ("reduction.vstar_evals_per_solve", "ratio", "lower"),
             ("reduction.seed_yield", "ratio", "higher"),
             ("reduction.periodic_recall", "ratio", "higher"),
             ("reduction.trivial_copies", "count", "lower"),
             ("trace_overhead_frac", "ratio", "lower")]
    return spec


def layer_metrics(tracer, tally, traced_s, untraced_s) -> dict:
    from spans import TARGETS, is_entry_point, layer_names
    summary = tracer.summary()
    out = {}
    for name in layer_names():
        rec = summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.self_s"] = (rec["self_s"], "s")
        if is_entry_point(name):
            out[f"{name}.total_s"] = (rec["total_s"], "s")
    for module in TARGETS:
        out[f"{module}.self_s"] = (sum(rec["self_s"] for name, rec in summary.items()
                                       if name.startswith(module + ".")), "s")
    nf_names = ("normalform.semisimple_nf", "normalform.nilpotent_nf")
    spans = tracer.spans
    nf_logs = sum(1 for s in spans if s[0] == "polymap.log_map" and s[3] >= 0
                  and spans[s[3]][0] in nf_names)
    deg_samples = sum(r["job"].degree_samples for r in tally.records
                      if r["phase"] == "traced")
    out["normalform.log_map_per_degree_sample"] = (
        nf_logs / deg_samples if deg_samples else 0.0, "ratio")
    q = tally.quality("traced")
    solves = summary.get("reduction.xi", {"calls": 0})["calls"] - q["points"]
    evals = summary.get("reduction.lifted_apply", {"calls": 0})["calls"]
    out["reduction.vstar_evals_per_solve"] = (evals / solves if solves > 0 else 0.0,
                                              "ratio")
    out["reduction.seed_yield"] = (q["points"] / q["seeds"] if q["seeds"] else 0.0,
                                   "ratio")
    out["reduction.periodic_recall"] = (q["periodic_recall"], "ratio")
    out["reduction.trivial_copies"] = (q["trivial_copies"], "count")
    out["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# one workload in this process

def _setup_children(args, count):
    """Set up ``count`` more times, each in a fresh process; each returns its
    set-up time, input fingerprint and probe readings during set-up."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"setup process exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_workload(args, sampler) -> int:
    """One workload in this process; ``sampler`` is the speed probe running
    since process start (None in a traced run)."""
    import workloads as wl_mod
    from spans import Tracer

    wl = wl_mod.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        warm = wl.warmup(args.seed, str(workdir))
        jobs = wl.jobs(args.seed, 0, str(workdir))
        ready = time.perf_counter()
        setup = {"setup_s": ready - _T0,
                 "fingerprint": wl_mod._digest(warm.fingerprint,
                                               *(j.fingerprint for j in jobs)),
                 "probe_s": sampler.between(_T0, ready) if sampler else []}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        return _measure(args, wl, wl_mod, Tracer, warm, jobs, workdir, setup,
                        sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed(args, wl, wl_mod, jobs, workdir, tally, sampler):
    """Passes until the scaled job time reaches --seconds and at least
    MIN_PASSES ran; returns each pass's time, its scale factor and the probe
    readings during it."""
    passes, factors, probes, measured, scaled, p = [], [], [], 0.0, 0.0, 0
    while True:
        pass_s = 0.0
        start = time.perf_counter()
        for job in jobs:
            seconds, outcome = wl_mod.execute(job, time.perf_counter)
            tally.add(job, seconds, outcome, "timed")
            pass_s += seconds
        # a pass no reading started in takes the mean of the run so far
        probes.append(sampler.between(start, time.perf_counter()))
        factors.append(probe.scale_factor(probes[-1]
                                          or [c for _, c in sampler.readings]))
        passes.append(pass_s)
        measured += pass_s
        scaled += pass_s * factors[-1]
        if measured >= MAX_MEASURED_S or (scaled >= args.seconds
                                          and len(passes) >= MIN_PASSES):
            return passes, factors, probes
        p += 1
        jobs = wl.jobs(args.seed, p, str(workdir))


def _end_to_end(passes, pass_f, setups, sampler):
    """Result-line metrics and report-only extras of an untraced run."""
    # a set-up no reading started in takes the mean of the whole run
    everything = [c for _, c in sampler.readings]
    setup_f = [probe.scale_factor(s["probe_s"] or everything) for s in setups]
    setup_raw = [s["setup_s"] for s in setups]
    metrics = {"wall_adj_s": (_median([t * f for t, f in zip(passes, pass_f)]), "s"),
               "setup_s": (_median([t * f for t, f in zip(setup_raw, setup_f)]), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               / 1024.0, "MB")}
    extra = {"wall_s": (_median(passes), "s"),
             "setup_raw_s": (_median(setup_raw), "s"),
             "pass_scale": (_median(pass_f), "ratio"),
             "setup_scale": (_median(setup_f), "ratio"),
             "probe_mean_ms": (1e3 * statistics.fmean(everything), "ms"),
             "probe_readings": (len(sampler.readings), "count"),
             "passes": (len(passes), "count"),
             "max_pass_s": (max(passes), "s")}
    details = {"passes_s": passes, "pass_scale": pass_f,
               "setup_samples_s": setup_raw, "setup_scale": setup_f,
               "setup_probe_s": [s["probe_s"] for s in setups]}
    return metrics, extra, details


def _traced(args, wl_mod, Tracer, jobs, tally, checks):
    """Pass 0 with spans, each job followed at once by an untraced replay as
    the overhead reference (adjacent, so both see the same machine load);
    returns the per-layer metrics."""
    tracer = Tracer()
    traced_s = untraced_s = 0.0
    job_seconds = {}
    for i, job in enumerate(jobs):
        tracer.install()
        try:
            seconds, outcome = wl_mod.execute(
                job, time.perf_counter,
                around=lambda: tracer.job_span(i, f"job.{job.kind}"))
        finally:
            checks += [f"job {i}: {p}" for p in tracer.restore()]
        tally.add(job, seconds, outcome, "traced")
        job_seconds[i] = seconds
        traced_s += seconds
        seconds, outcome = wl_mod.execute(job, time.perf_counter)
        tally.add(job, seconds, outcome, "replay")
        untraced_s += seconds
    checks += [f"trace: {p}" for p in tracer.check_jobs(job_seconds)]
    with open(OUT / f"spans_{args.workload}_seed{args.seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return (layer_metrics(tracer, tally, traced_s, untraced_s),
            {"traced_s": traced_s, "untraced_s": untraced_s})


def _measure(args, wl, wl_mod, Tracer, warm, jobs, workdir, setup, sampler):
    tally = Tally()
    checks = []
    record = {"workload": args.workload, "trace": args.trace,
              "machine": machine_info(args.seed),
              "inputs": {"pass0": inputs_info(jobs), "warmup": warm.kind}}

    # Set-up samples come from fresh processes started before and after the
    # timed passes, so that they span the run rather than one moment of it.
    before = (SETUP_SAMPLES - 1) // 2
    children = [] if args.trace else _setup_children(args, before)
    tally.add(warm, *wl_mod.execute(warm, time.perf_counter), "warmup")
    if args.trace:
        metrics, details = _traced(args, wl_mod, Tracer, jobs, tally, checks)
        extra = {}
        listed = [m[0] for m in per_layer_spec()]
    else:
        passes, pass_f, pass_probes = _timed(args, wl, wl_mod, jobs, workdir, tally,
                                             sampler)
        children += _setup_children(args, SETUP_SAMPLES - 1 - before)
        metrics, extra, details = _end_to_end(passes, pass_f, [setup] + children,
                                              sampler)
        details["pass_probe_s"] = pass_probes
        quality = tally.quality("timed")
        extra["periodic_recall"] = (quality["periodic_recall"], "ratio")
        extra["trivial_copies"] = (quality["trivial_copies"], "count")
        if any(c["fingerprint"] != setup["fingerprint"] for c in children):
            checks.append("inputs differ between set-ups of the same seed")
        listed = [m[0] for m in END_TO_END]
    extra["fail_frac"] = (tally.failed / tally.attempted, "ratio")
    extra["jobs_attempted"] = (tally.attempted, "count")

    for r in tally.records:
        if r["outcome"].problems:
            checks.append(f"{r['phase']} job {r['kind']}: "
                          + "; ".join(r["outcome"].problems))
    everything = {**metrics, **extra}
    record.update(details)
    record.update({"metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in everything.items()},
                   "checks_failed": checks, "jobs": tally.dump()})
    with open(OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    m = record["machine"]
    print(f"machine: nproc={m['nproc']} arch={m['machine']} blas={m['blas_vendor']} "
          f"{m['blas_version']} threads={m['blas_threads_pinned']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} seed={m['seed']}")
    print("inputs: " + json.dumps({k: v for k, v in record["inputs"]["pass0"].items()
                                   if k != "jobs"}))
    for problem in checks:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in everything.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not checks, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                  for k in listed}}))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in its own process

def run_all(args) -> int:
    import workloads as wl_mod
    results = {}
    for name in wl_mod.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return _fail(f"{name} trace={trace} exited {proc.returncode}")
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    with open(OUT / f"BENCH_all_seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key}/{m}": v for key, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eqnf benchmark")
    parser.add_argument("--workload", default="all",
                        help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    args = parser.parse_args(argv)
    if not (SRC / "eqnf" / "__init__.py").is_file():
        return _fail(f"no eqnf sources under {SRC}; run from a checkout of the "
                     "repository")
    sys.path.insert(0, str(SRC))
    probe.pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    # The speed probe runs from here to the end of an untraced run, so that
    # it also covers the set-up; a traced run has none, so that it adds no
    # time to the spans.
    with (contextlib.nullcontext() if args.trace else probe.SpeedProbe()) as sampler:
        import workloads
        if args.workload not in workloads.WORKLOADS:
            return _fail(f"unknown workload {args.workload!r}")
        return run_workload(args, sampler)


if __name__ == "__main__":
    sys.exit(main())
