"""Seed-driven inputs, timed jobs and output checks of the benchmark workloads.

A workload is a list of passes; pass ``p`` of seed ``s`` draws its inputs
from ``numpy.random.default_rng([s, workload id, 0, p])`` through
``eqnf.corpus`` (nf-wide draws one family per seed and a lambda per pass), so
the same seed gives the same inputs and no two passes share a job.  Each job is one call into the library or the CLI; its check
turns the output into a list of problems (empty when the certificate holds).

Jobs call the library through module attributes (``normalform.semisimple_nf``
and so on) so that the spans of a traced run see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from eqnf import cli, corpus, normalform, reduction
from eqnf.errors import EqnfError
from eqnf.groups import GroupData, invariant_inner_product
from eqnf.polymap import hk_dim

NF_RESIDUAL_TOL = 1e-9
NF_DEFECT_TOL = 1e-8
NF_DEFECTS = ("transform_equivariance_defect", "exponent_kernel_defect",
              "exponent_chi_defect")
POINT_RESIDUAL_TOL = 1e-8
RECALL_TOL = 1e-8
TRIVIAL_FRACTION = 1e-4  # |u| <= this * search_box counts as the trivial point


@dataclass
class Outcome:
    """What a job's check found."""

    problems: list = field(default_factory=list)
    points: int = 0
    seeds: int = 0
    trivial_copies: int = 0
    recall_hits: int = 0
    recall_total: int = 0


@dataclass
class Job:
    """One timed call.  ``run`` returns the output that ``check`` certifies."""

    kind: str
    run: object
    check: object
    sizes: dict
    fingerprint: str
    degree_samples: int = 0  # (k - 1) * lambda samples of a normal form


def execute(job: Job, clock, around=contextlib.nullcontext) -> tuple[float, Outcome]:
    """Run one job and check it; a typed library error is a failed job.
    ``around()`` is a context manager entered for the run alone, inside the
    timing and outside the check."""
    t0 = clock()
    try:
        with around():
            out = job.run()
    except EqnfError as exc:
        return clock() - t0, Outcome(problems=[f"{type(exc).__name__}: {exc}"])
    elapsed = clock() - t0
    return elapsed, job.check(out)


# ---------------------------------------------------------------------------
# input bookkeeping

def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _family_digest(family, lambdas) -> str:
    return _digest(*(family.at(lam).flat() for lam in lambdas),
                   np.asarray(lambdas, dtype=float))


def _dim_u(S0, q: int) -> int:
    n = S0.shape[0]
    s = np.linalg.svd(np.linalg.matrix_power(S0, q) - np.eye(n), compute_uv=False)
    return int(np.sum(s <= 1e-9))


def _sizes(n, k, q, group_order, dim_u, lambdas, seeds, operator, op_dim):
    return {"n": n, "k": k, "q": q, "group_order": group_order, "dim_u": dim_u,
            "lambda_samples": lambdas, "seeds": seeds,
            "largest_layer_dim": hk_dim(n, k),
            "largest_dense_operator": operator,
            "largest_dense_operator_bytes_computed": op_dim * op_dim * 8}


def _nf_sizes(inst, k, lambdas):
    n = inst.A0.shape[0]
    return _sizes(n, k, inst.q, inst.gd.order, _dim_u(inst.S0, inst.q), lambdas,
                  0, "C_k augmented expm", 2 * hk_dim(n, k))


def _lift_sizes(n, k, q, gd, S0, lambdas, seeds):
    return _sizes(n, k, q, gd.order, _dim_u(S0, q), lambdas, seeds,
                  "lifted S0_hat - sigma", q * n)


def _terms(F) -> list:
    return [{"component": int(t["component"]),
             "exponents": [int(e) for e in t["exponents"]],
             "coefficient": float(t["coefficient"])} for t in F.to_terms(0.0)]


def _write(workdir: str, name: str, doc: dict) -> tuple[str, bytes]:
    data = json.dumps(doc, sort_keys=True).encode()
    path = os.path.join(workdir, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path, data


# ---------------------------------------------------------------------------
# checks

def check_nf(res, expected=None) -> list:
    """Residual, defect diagnostics, exponent in the admissible spaces, and
    (when the planted exponent is known) the exponent itself."""
    problems = []
    if not res.residual <= NF_RESIDUAL_TOL:
        problems.append(f"residual {res.residual:.3e} > {NF_RESIDUAL_TOL:.0e}")
    for key in NF_DEFECTS:
        val = res.diagnostics.get(key)
        if val is None or not val <= NF_DEFECT_TOL:
            problems.append(f"{key} {val!r} > {NF_DEFECT_TOL:.0e}")
    for i, W in enumerate(res.exponents):
        for j, B in res.admissible.items():
            v = W.layer(j).reshape(-1)
            off = float(np.max(np.abs(v - B @ (B.T @ v)), initial=0.0))
            if not off <= NF_DEFECT_TOL:
                problems.append(f"sample {i}: degree-{j} exponent leaves the "
                                f"admissible space by {off:.3e}")
        if expected is not None:
            gap = (W - expected(res.lambdas[i])).max_abs()
            if not gap <= NF_DEFECT_TOL:
                problems.append(f"sample {i}: exponent differs from the planted "
                                f"one by {gap:.3e}")
    return problems


def check_points(rows_by_lambda, box, predict=None, non_isolated=False) -> Outcome:
    """Certificates of periodic points given as {lambda: [(u, orbit,
    residual_full, isolated)]}: residuals, recall of planted points and
    copies of the trivial solution."""
    out = Outcome()
    for lam, pts in rows_by_lambda.items():
        out.points += len(pts)
        trivial = sum(1 for u, *_ in pts
                      if np.linalg.norm(u) <= TRIVIAL_FRACTION * box)
        out.trivial_copies += max(0, trivial - 1)
        for u, _, res_full, isolated in pts:
            if not res_full <= POINT_RESIDUAL_TOL:
                out.problems.append(f"lambda {lam}: residual_full {res_full:.3e}")
            if non_isolated and isolated:
                out.problems.append(f"lambda {lam}: point {u} on the fixed line "
                                    "reported isolated")
        if predict is not None:
            rows = (np.vstack([orbit for _, orbit, *_ in pts]) if pts
                    else np.zeros((0, 0)))
            for pred in predict(lam):
                out.recall_total += 1
                if rows.size and np.min(np.max(np.abs(rows - pred), axis=1)) <= RECALL_TOL:
                    out.recall_hits += 1
    return out


# ---------------------------------------------------------------------------
# job builders

def nf_job(inst, family, k, lambdas, expected=None) -> Job:
    mode = "nilpotent" if np.any(inst.N0) else "semisimple"

    def run():
        runner = getattr(normalform, f"{mode}_nf")
        return runner(family, inst.A0, inst.gd, inst.ip, k, lambdas=lambdas)

    return Job(kind=f"nf-{mode}:{inst.name}:k{k}", run=run,
               check=lambda res: Outcome(problems=check_nf(res, expected)),
               sizes=_nf_sizes(inst, k, len(lambdas)),
               fingerprint=_family_digest(family, lambdas) + inst.name,
               degree_samples=(k - 1) * len(lambdas))


def periodic_job(name, family, inst, q, lam_grid, box, seeds_per_axis, radius,
                 predict=None, non_isolated=False) -> Job:
    dim_u = _dim_u(inst.S0, q)
    seeds = seeds_per_axis ** dim_u * len(lam_grid)

    def run():
        ctx = reduction.build_lift(inst.A0, inst.S0, inst.gd, q, radius=radius)
        return reduction.find_periodic(family, ctx, lam_grid, box,
                                       seeds_per_axis=seeds_per_axis)

    def check(points):
        rows = {float(lam[0]): [] for lam in lam_grid}
        for p in points:
            rows[float(p.lam[0])].append((p.u, p.orbit, p.residual_full,
                                          p.isolated))
        out = check_points(rows, box, predict, non_isolated)
        out.seeds = seeds
        return out

    return Job(kind=f"periodic:{name}", run=run, check=check,
               sizes=_lift_sizes(inst.A0.shape[0], family.order, q, inst.gd,
                                 inst.S0, len(lam_grid), seeds),
               fingerprint=_family_digest(family, lam_grid) + _digest(box, q))


def consistency_job(inst, k, rng) -> Job:
    family, _ = corpus.nf_form_family(inst, k, rng, tail_amp=4.0)
    mode = "nilpotent" if np.any(inst.N0) else "semisimple"

    def run():
        res = getattr(normalform, f"{mode}_nf")(family, inst.A0, inst.gd,
                                                inst.ip, k, lambdas=[[0.0]])
        ctx = reduction.build_lift(inst.A0, inst.S0, inst.gd, inst.q)
        return res, reduction.nf_reduction_consistency(
            res, ctx, k, family=family, scales=np.logspace(-4.0, -2.0, 7))

    def check(out):
        res, rep = out
        problems = check_nf(res)
        slopes = [s for s in rep["slopes"] if s is not None]
        if not rep["passed"]:
            problems.append("consistency report did not pass")
        if not slopes:
            problems.append("deviation never rose above the noise floor")
        elif min(slopes) < k + 0.8:
            problems.append(f"slope {min(slopes):.3f} < {k + 0.8}")
        return Outcome(problems=problems)

    sizes = _nf_sizes(inst, k, 1)
    return Job(kind=f"consistency:{inst.name}:k{k}", run=run, check=check,
               sizes=sizes, fingerprint=_family_digest(family, [[0.0], [0.005]]),
               degree_samples=k - 1)


def cli_job(command, path, data, sizes, order=None, predict=None, box=None,
            lams=()) -> Job:
    out_path = path[:-len(".json")] + f".{command}.out.json"
    argv = [command, path, "--format", "machine", "--output", out_path]
    if order is not None:
        argv += ["--order", str(order)]

    def run():
        return cli.main(list(argv))

    def check(rc):
        if rc != 0:
            return Outcome(problems=[f"eqnf {command} exited {rc}"])
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return Outcome(problems=[f"eqnf {command} report unreadable: {exc}"])
        if doc.get("command") != command:
            return Outcome(problems=[f"eqnf {command} report names {doc.get('command')!r}"])
        if command == "normal-form":
            problems = [f"sample residual {s['residual']:.3e}"
                        for s in doc["samples"] if not s["residual"] <= NF_RESIDUAL_TOL]
            problems += [f"{key} {doc['diagnostics'].get(key)!r}" for key in NF_DEFECTS
                         if not doc["diagnostics"].get(key, math.inf) <= NF_DEFECT_TOL]
            return Outcome(problems=problems)
        if command == "periodic":
            rows = {lam: [] for lam in lams}
            for p in doc["points"]:
                rows.setdefault(p["lambda"][0], []).append(
                    (np.array(p["u"]), np.array(p["orbit"]), p["residual_full"],
                     p["isolated"]))
            out = check_points(rows, box, predict)
            out.seeds = seeds
            return out
        if command == "verify" and doc.get("all_pass") is not True:
            failed = [c["name"] for c in doc["checks"] if not c["pass"]]
            return Outcome(problems=[f"verify failed: {failed}"])
        return Outcome()

    seeds = 5 ** sizes["dim_u"] * sizes["lambda_samples"] if command == "periodic" else 0
    degree_samples = 0
    if command == "normal-form":
        degree_samples = (order - 1) * sizes["lambda_samples"]
    return Job(kind=f"cli:{command}", run=run, check=check,
               sizes=dict(sizes, seeds=seeds), fingerprint=_digest(data, order),
               degree_samples=degree_samples)


def planted_problem(workdir, name, planted, lam, box, radius):
    """Write a planted family as an affine problem file; return the path,
    its bytes and its sizes.  The CLI splits the linear part at the first
    grid entry, so the grid starts at lambda = 0 where S0 has U != 0."""
    fam, gd = planted.family, planted.inst.gd
    base = fam.at([0.0])
    slope = fam.at([1.0]) - base
    doc = {"dimension": fam.n, "order": fam.order, "q": planted.q,
           "map": {"terms": _terms(base), "parameter_slopes": [_terms(slope)]},
           "group": {"generators": [g.tolist() for g in gd.elements],
                     "characters": [float(c) for c in gd.char]},
           "lambda_grid": [[0.0], [lam]], "search_box": box, "radius": radius}
    path, data = _write(workdir, f"{name}.json", doc)
    sizes = _lift_sizes(fam.n, fam.order, planted.q, gd, planted.inst.S0, 2, 0)
    return path, data, sizes


def shear_problem(workdir, name, lam):
    doc = {"map": {"builtin": "binomial-shear"}, "order": 3, "q": 1,
           "lambda_grid": [[lam]], "search_box": 0.06}
    path, data = _write(workdir, f"{name}.json", doc)
    inst = corpus.instance_swap2()
    return path, data, _nf_sizes(inst, 4, 1)


# ---------------------------------------------------------------------------
# skeletons

def wide_instance() -> corpus.Instance:
    """n = 6 reversible skeleton: planar rotations by 2 pi/3, 2 pi/5 and 2.0,
    G generated by diag(1,-1,1,-1,1,-1) with chi = -1."""
    S0 = np.zeros((6, 6))
    for i, theta in enumerate((2 * math.pi / 3, 2 * math.pi / 5, 2.0)):
        S0[2 * i:2 * i + 2, 2 * i:2 * i + 2] = corpus.rotation(theta)
    gd = GroupData.from_generators([np.diag([1.0, -1.0] * 3)], [-1.0])
    ip = invariant_inner_product(S0, gd)
    return corpus.Instance(name="wide6", A0=S0.copy(), S0=S0, N0=np.zeros((6, 6)),
                           gd=gd, q=1, ip=ip)


SWEEP_SKELETONS = (lambda: corpus.instance_block_swap(3),
                   lambda: corpus.instance_nilpotent_kron(4),
                   corpus.instance_swap2,
                   lambda: corpus.instance_rot_reflect(3))

# criterion-8 parameter sets of the planted families, and their lambda ranges
PLANTED = (("q4", corpus.planted_q4, ((1.0, 0.5), (1.3, 0.7), (0.8, 0.45)), (-0.035, -0.02)),
           ("q2", corpus.planted_q2, ((1.0, 0.4), (1.2, 0.5), (0.9, 0.35)), (-0.035, -0.02)),
           ("q1", corpus.planted_q1, ((0.3,), (0.4,), (0.25,)), (0.01, 0.03)))
PLANTED_BOX, PLANTED_RADIUS = 0.3, 0.6


def _lams(rng, lo, hi, count):
    return [[float(v)] for v in rng.uniform(lo, hi, count)]


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Inputs of one workload: ``jobs(seed, p, workdir)`` builds pass p;
    ``warmup(seed, workdir)`` builds the untimed warm-up job."""

    name = ""
    wid = 0

    def rng(self, seed: int, p: int):
        return np.random.default_rng([seed, self.wid, 0, p])

    def warmup_rng(self, seed: int):
        return np.random.default_rng([seed, self.wid, 1])


class NfSweep(Workload):
    """Four n <= 4 skeletons normalized to k = 4 at four lambda samples,
    plus CLI decompose and normal-form on the binomial-shear builtin.  The
    builtin map does not depend on lambda, so those two jobs differ between
    passes only in their problem file (about 1% of a pass)."""

    name, wid = "nf-sweep", 1
    K = 4

    def jobs(self, seed, p, workdir):
        rng = self.rng(seed, p)
        jobs = []
        for make in SWEEP_SKELETONS:
            inst = make()
            family = corpus.equivariant_family(inst, self.K, rng)
            jobs.append(nf_job(inst, family, self.K, _lams(rng, -0.05, 0.05, 4)))
        lam = float(rng.uniform(-0.05, 0.05))
        path, data, sizes = shear_problem(workdir, f"sweep-p{p}-shear", lam)
        jobs.append(cli_job("decompose", path, data, sizes))
        jobs.append(cli_job("normal-form", path, data, sizes, order=self.K))
        return jobs

    def warmup(self, seed, workdir):
        rng = self.warmup_rng(seed)
        inst = corpus.instance_swap2()
        family = corpus.equivariant_family(inst, self.K, rng)
        return nf_job(inst, family, self.K, _lams(rng, -0.05, 0.05, 1))


class NfWide(Workload):
    """An already-normal n = 6 family normalized to k = 4 at one lambda.

    One family per seed, a new lambda per pass: generating the family costs
    seconds (admissible bases of 756-dimensional layers), while Newton takes
    no step, so the family hardly changes the work of a pass.
    """

    name, wid = "nf-wide", 2
    K = 4

    def __init__(self):
        self._inst = None
        self._families = {}

    def inst(self):
        if self._inst is None:
            self._inst = wide_instance()
        return self._inst

    def _job(self, family, field_fn, k, rng):
        lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.05))
        return nf_job(self.inst(), family, k, [[lam]], expected=field_fn)

    def jobs(self, seed, p, workdir):
        if seed not in self._families:
            rng = np.random.default_rng([seed, self.wid, 2])
            self._families[seed] = corpus.nf_form_family(self.inst(), self.K, rng,
                                                         with_tail=False)
        return [self._job(*self._families[seed], self.K, self.rng(seed, p))]

    def warmup(self, seed, workdir):
        # the same skeleton at k = 3 warms the code paths for a fraction of
        # the cost of a second k = 4 family
        rng = self.warmup_rng(seed)
        family, field_fn = corpus.nf_form_family(self.inst(), 3, rng,
                                                 with_tail=False)
        return self._job(family, field_fn, 3, rng)


class Reduce(Workload):
    """Periodic-orbit searches, one consistency case and the reduction CLI."""

    name, wid = "reduce", 3

    def jobs(self, seed, p, workdir):
        rng = self.rng(seed, p)
        jobs = []
        # one family per sign of lambda: the search's cost varies by family,
        # so two families per pass vary less than one searched twice
        inst = corpus.instance_block_swap(3)
        for lam in (0.01, -0.01):
            family = corpus.equivariant_family(inst, 3, rng)
            jobs.append(periodic_job("block-swap-q3", family, inst, 3, [[lam]],
                                     0.02, 3, 0.1))
        cli_inputs = []
        for tag, make, params, (lo, hi) in PLANTED:
            planted = make(*params[int(rng.integers(len(params)))])
            lams = _lams(rng, lo, hi, 2)
            jobs.append(periodic_job(f"planted-{tag}", planted.family, planted.inst,
                                     planted.q, lams, PLANTED_BOX, 5, PLANTED_RADIUS,
                                     predict=planted.predict_points))
            cli_inputs.append((tag, planted, lams[0][0]))
        fam = corpus.binomial_shear_family(3)
        shear = corpus.Instance(name="shear", A0=fam.at([0.0]).linear(),
                                S0=np.eye(2), N0=np.zeros((2, 2)),
                                gd=corpus.binomial_shear_group(), q=1, ip=None)
        jobs.append(periodic_job("shear-line", fam, shear, 1, [[0.0]],
                                 float(rng.uniform(0.05, 0.07)), 5, 0.1,
                                 non_isolated=True))
        jobs.append(consistency_job(corpus.instance_nilpotent_kron(4), 2, rng))
        for tag, planted, lam in cli_inputs:
            path, data, sizes = planted_problem(workdir, f"reduce-p{p}-{tag}",
                                                planted, lam, PLANTED_BOX,
                                                PLANTED_RADIUS)
            for command in ("reduce", "periodic", "verify"):
                jobs.append(cli_job(command, path, data, sizes,
                                    predict=planted.predict_points,
                                    box=PLANTED_BOX, lams=(0.0, lam)))
        return jobs

    def warmup(self, seed, workdir):
        rng = self.warmup_rng(seed)
        planted = corpus.planted_q4()
        return periodic_job("planted-q4", planted.family, planted.inst, 4,
                            _lams(rng, -0.035, -0.02, 1), PLANTED_BOX, 5,
                            PLANTED_RADIUS, predict=planted.predict_points)


WORKLOADS = {w.name: w for w in (NfSweep(), NfWide(), Reduce())}
