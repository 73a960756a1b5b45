"""Scaling report: how the normal forms and the periodic search grow.

Not a workload and not gated.  It times ``semisimple_nf`` over
n in {2, 4, 6} x k in {2, 3, 4} on seed-drawn equivariant families (one
lambda sample each), and ``find_periodic`` over q in {3, 4, 5} x dim U in
{2, 4}, so a change can show the curve in n, k, q and dim U rather than one
point.  Usage, from the root of a checkout:

    python3 benchmarks/scaling.py --seed 1

It prints one line per case and writes benchmarks/out/BENCH_scaling_seed<S>.json.
Every case is also checked (normal-form certificate, point residuals); a
failed check is printed and recorded, not hidden.
"""
import argparse
import json
import sys
import time

import run  # pins BLAS threads before numpy loads

NF_GRID = ((2, (2, 3, 4)), (4, (2, 3, 4)), (6, (2, 3, 4)))
PERIODIC_QS = (3, 4, 5)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eqnf scaling report")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (run.SRC / "eqnf" / "__init__.py").is_file():
        return run._fail(f"no eqnf sources under {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import workloads
    from eqnf import corpus

    skeleton = {2: lambda: corpus.instance_rot_reflect(3),
                4: lambda: corpus.instance_block_swap(3),
                6: workloads.wide_instance}
    clock = time.perf_counter
    cases = []

    def record(case, job):
        seconds, outcome = workloads.execute(job, clock)
        case.update({"seconds": seconds, "problems": outcome.problems,
                     "points": outcome.points, "sizes": job.sizes})
        cases.append(case)
        print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in case.items() if k not in ("sizes", "problems"))
              + (f" FAILED {outcome.problems}" if outcome.problems else ""),
              flush=True)

    run.OUT.mkdir(exist_ok=True)
    for n, ks in NF_GRID:
        inst = skeleton[n]()
        for k in ks:
            rng = np.random.default_rng([args.seed, n, k])
            family = corpus.equivariant_family(inst, k, rng)
            job = workloads.nf_job(inst, family, k, [[0.02]])
            record({"case": "semisimple_nf", "n": n, "k": k}, job)

    for q in PERIODIC_QS:
        for inst in (corpus.instance_rot_reflect(q), corpus.instance_block_swap(q)):
            rng = np.random.default_rng([args.seed, q, inst.A0.shape[0]])
            family = corpus.equivariant_family(inst, 3, rng)
            job = workloads.periodic_job(inst.name, family, inst, q, [[0.01]],
                                         0.02, 3, 0.1)
            record({"case": "find_periodic", "q": q,
                    "dim_u": job.sizes["dim_u"]}, job)

    path = run.OUT / f"BENCH_scaling_seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": run.machine_info(args.seed), "cases": cases}, fh,
                  indent=1)
    print(f"wrote {path}")
    return 0 if all(not c["problems"] for c in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
