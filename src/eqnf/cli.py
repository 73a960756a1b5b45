"""Command-line front end.

Subcommands: decompose | normal-form | reduce | periodic | verify.
Problem files are JSON; closed-form maps are available as builtins only.
Exit codes: 0 success, 1 invariant failure, 2 parse error, 3 numerical
failure, a problem too large included.  Output is deterministic: no
timestamps, floats printed via repr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import corpus
from .errors import (EqnfError, InvariantViolation, NoConvergence,
                     NotEquivariant)
from .groups import (GroupData, invariant_inner_product,
                     is_chi_equivariant_linear, is_chi_equivariant_map,
                     validate_group)
from .linalg import su_decomposition
from .normalform import nilpotent_nf, semisimple_nf
from .polymap import AffineMapFamily, TruncatedMap, _require_dense_fits
from .reduction import (_ghat_defects, _reduced_jacobian, _vstar, build_lift,
                        find_periodic)

DEFAULT_TOL = 1e-9
TERM_CUTOFF = 1e-12  # reported map terms leave out smaller coefficients


class ParseFailure(Exception):
    """Problem-file or flag error; maps to exit code 2."""


@dataclass
class Problem:
    n: int
    order: int
    q: int
    family: object
    gd: GroupData
    lambda_grid: list
    search_box: float
    tol: float
    radius: float
    mode: str | None


def _field(name: str, convert, value):
    """convert(value); a conversion error is a ParseFailure naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ParseFailure(f"{name}: {exc}") from exc


def _count(value, low: int = 1) -> int:
    """int(value) for an integer >= low; booleans and fractions are refused."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()) or int(value) < low:
        raise ValueError(f"expected an integer >= {low}, got {value!r}")
    return int(value)


def _finite(value, low: float = -math.inf) -> float:
    """float(value), refusing inf, NaN and values below low."""
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {out!r}")
    if out < low:
        raise ValueError(f"expected a number >= {low}, got {out!r}")
    return out


def _positive(value) -> float:
    """_finite(value), refusing values that are not > 0."""
    out = _finite(value)
    if not out > 0:
        raise ValueError(f"expected a number > 0, got {out!r}")
    return out


def _terms_to_map(n: int, order: int, terms, name: str) -> TruncatedMap:
    """The map of the term records `terms`; errors name the field `name`."""
    terms = _field(name, list, terms)
    recs = []
    for i, t in enumerate(terms):
        try:
            recs.append({"component": _count(t["component"], 0),
                         "exponents": tuple(_count(e, 0) for e in t["exponents"]),
                         "coefficient": _finite(t["coefficient"])})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseFailure(f"{name}[{i}]: {exc}") from exc
    try:
        return TruncatedMap.from_terms(n, order, recs)
    except EqnfError as exc:
        raise ParseFailure(f"{name}: {exc}") from exc


def load_problem(path: str, args) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseFailure(f"{path}: top level must be an object")

    map_spec = doc.get("map")
    if map_spec is None:
        raise ParseFailure("missing field: map")
    if not isinstance(map_spec, dict):
        raise ParseFailure(f"map must be an object, got {map_spec!r}")

    order = _field("order", _count, args.order if args.order is not None
                   else doc.get("order", 3))

    builtin = map_spec.get("builtin")
    if builtin not in (None, "binomial-shear"):
        raise ParseFailure(f"unknown builtin map {builtin!r}")
    n = 2 if builtin else _field("dimension", _count, doc.get("dimension"))
    _require_dense_fits(n, order)  # before any layer is built
    if builtin:
        family = corpus.binomial_shear_family(order)
        gd = corpus.binomial_shear_group()
    else:
        base = _terms_to_map(n, order, map_spec.get("terms", []), "map.terms")
        slopes = _field("map.parameter_slopes", list,
                        map_spec.get("parameter_slopes", []))
        family = AffineMapFamily(base, [
            _terms_to_map(n, order, s, f"map.parameter_slopes[{j}]")
            for j, s in enumerate(slopes)])
        group_spec = doc.get("group")
        if not isinstance(group_spec, dict):
            raise ParseFailure("missing field: group")
        try:
            gens = [np.array(g, dtype=float) for g in group_spec["generators"]]
            chars = [_finite(c) for c in group_spec["characters"]]
            for g in gens:
                if g.shape != (n, n):
                    raise ParseFailure(
                        f"group generator shape {g.shape} != ({n}, {n})")
            gd = GroupData.from_generators(gens, chars)
        except (KeyError, TypeError, ValueError, EqnfError) as exc:
            raise ParseFailure(f"group: {exc}") from exc

    q = _field("q", _count, args.period if args.period is not None
               else doc.get("q", 1))

    if args.lambda_grid is not None:
        grid = parse_lambda_grid(args.lambda_grid)
    else:
        grid = _field("lambda_grid", lambda vs: [
            [_finite(x) for x in np.atleast_1d(np.asarray(v, dtype=float))]
            for v in vs], doc.get("lambda_grid", [[0.0]]))
    if not grid:
        raise ParseFailure("lambda_grid must have at least one entry")
    nparams = getattr(family, "nparams", 1)
    for g in grid:
        if len(g) != nparams:
            raise ParseFailure(
                f"lambda grid entry {g} has {len(g)} values, expected {nparams}")

    tol = _field("tol", lambda v: _finite(v, low=0.0),
                 args.tol if args.tol is not None else doc.get("tol", DEFAULT_TOL))
    radius = _field("radius", _positive, args.radius if args.radius is not None
                    else doc.get("radius", 0.1))
    box = _field("search_box", _positive, doc.get("search_box", 0.05))
    mode = doc.get("mode")
    if mode not in (None, "nilpotent", "semisimple"):
        raise ParseFailure(f"mode must be nilpotent or semisimple, got {mode!r}")
    return Problem(n=n, order=order, q=q, family=family, gd=gd,
                   lambda_grid=grid, search_box=box, tol=tol, radius=radius,
                   mode=mode)


def parse_lambda_grid(spec: str):
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            return [[_finite(v)] for v in np.linspace(
                _finite(start), _finite(stop), int(count))]
        return [[_finite(v)] for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise ParseFailure(f"--lambda-grid {spec!r}: {exc}") from exc


def _matrix_obj(M):
    return [[float(v) for v in row] for row in np.atleast_2d(M)]


def _emit(doc: dict, args) -> None:
    if args.format == "machine":
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = "\n".join(_render_lines(doc))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _render_lines(value, indent=""):
    lines = []
    if isinstance(value, dict):
        for key in value:
            v = value[key]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_scalar_str(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_render_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}- {_scalar_str(v)}")
    else:
        lines.append(f"{indent}{_scalar_str(value)}")
    return lines


def _scalar_str(v):
    return repr(float(v)) if isinstance(v, float) else str(v)


def _decomposition(problem: Problem):
    psi0 = problem.family.at(problem.lambda_grid[0])
    A = psi0.linear()
    return psi0, A, su_decomposition(A)


def cmd_decompose(problem: Problem, args) -> int:
    _, A, su = _decomposition(problem)
    S, N = su.S, A - su.S  # the Jordan-Chevalley split su_decomposition took
    res_sum = float(np.max(np.abs(A - S - N)))
    res_comm = float(np.max(np.abs(S @ N - N @ S)))
    import scipy.linalg as sla
    res_su = float(np.max(np.abs(A - su.S @ sla.expm(su.nil_log))))
    doc = {
        "command": "decompose",
        "A": _matrix_obj(A),
        "S": _matrix_obj(S),
        "N": _matrix_obj(N),
        "nil_log": _matrix_obj(su.nil_log),
        "residual_sum": res_sum,
        "residual_commute": res_comm,
        "residual_su": res_su,
    }
    _emit(doc, args)
    ok = max(res_sum, res_comm, res_su) <= max(problem.tol, 1e-10)
    return 0 if ok else 1


def _run_nf(problem: Problem):
    _, A, su = _decomposition(problem)
    ip = invariant_inner_product(su.S, problem.gd)
    mode = problem.mode
    if mode is None:
        mode = "semisimple" if np.max(np.abs(su.nil_log)) <= 1e-12 else "nilpotent"
    runner = semisimple_nf if mode == "semisimple" else nilpotent_nf
    try:
        result = runner(problem.family, A, problem.gd, ip, problem.order,
                        lambdas=problem.lambda_grid)
    except NoConvergence as exc:
        # a family that is not chi-equivariant at some lambda has no
        # equivariant normal form there: an invariant failure, not a stall
        for lam in problem.lambda_grid:
            if not is_chi_equivariant_map(problem.family.at(lam), problem.gd):
                raise NotEquivariant(f"the map is not chi-equivariant at "
                                     f"lambda = {lam}") from exc
        raise
    return result, mode


def cmd_normal_form(problem: Problem, args) -> int:
    result, mode = _run_nf(problem)
    samples = []
    for i, lam in enumerate(result.lambdas):
        W = result.exponents[i]
        adm_coords = {}
        for j, B in result.admissible.items():
            if B.shape[1]:
                coords = B.T @ W.layer(j).reshape(-1)
                adm_coords[str(j)] = [float(c) for c in coords]
            else:
                adm_coords[str(j)] = []
        samples.append({
            "lambda": [float(v) for v in lam],
            "residual": float(result.residuals[i]),
            "admissible_coords": adm_coords,
            "exponent_terms": W.to_terms(TERM_CUTOFF),
            "transform_terms": result.transforms[i].to_terms(TERM_CUTOFF),
        })
    doc = {
        "command": "normal-form",
        "mode": mode,
        "order": result.order,
        "S0": _matrix_obj(result.S0),
        "N0": _matrix_obj(result.N0),
        "admissible_dims": {str(j): int(B.shape[1])
                            for j, B in result.admissible.items()},
        "samples": samples,
        "diagnostics": _jsonable(result.diagnostics),
    }
    _emit(doc, args)
    return 0 if result.residual <= problem.tol else 1


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if value is None or isinstance(value, (str, bool)):
        return value
    return str(value)


def cmd_reduce(problem: Problem, args) -> int:
    psi0, A, su = _decomposition(problem)
    ctx = build_lift(A, su.S, problem.gd, problem.q, radius=problem.radius)
    m = ctx.dim_u
    v0, pr0 = _vstar(psi0, ctx, np.zeros(ctx.n), ctx.radius)
    Ub = ctx.U_basis
    J = _reduced_jacobian(psi0, ctx, np.zeros(ctx.n), v0)
    AU = Ub.T @ ctx.A0 @ Ub
    doc = {
        "command": "reduce",
        "q": ctx.q,
        "dim_U": m,
        "dim_complement": int(ctx.complement_basis.shape[1]),
        "vstar_at_zero": float(np.max(np.abs(v0), initial=0.0)),
        "reduced_at_zero": float(np.max(np.abs(pr0), initial=0.0)),
        "linearization_defect": float(np.max(np.abs(J - AU), initial=0.0)),
        "U_basis": _matrix_obj(ctx.U_basis) if m else [],
    }
    _emit(doc, args)
    ok = (doc["vstar_at_zero"] <= problem.tol
          and doc["reduced_at_zero"] <= problem.tol
          and doc["linearization_defect"] <= 1e-4)
    return 0 if ok else 1


def cmd_periodic(problem: Problem, args) -> int:
    _, A, su = _decomposition(problem)
    ctx = build_lift(A, su.S, problem.gd, problem.q, radius=problem.radius)
    points = find_periodic(problem.family, ctx, problem.lambda_grid,
                           problem.search_box)
    entries = []
    for p in points:
        entries.append({
            "lambda": [float(v) for v in p.lam],
            "u": [float(v) for v in p.u],
            "xstar": [float(v) for v in p.xstar],
            "orbit": _matrix_obj(p.orbit),
            "residual_reduced": float(p.residual_reduced),
            "residual_full": float(p.residual_full),
            "isolated": bool(p.isolated),
            "jacobian_smin": float(p.jacobian_smin),
        })
    doc = {
        "command": "periodic",
        "q": ctx.q,
        "count": len(entries),
        "non_isolated_families_detected": any(not e["isolated"] for e in entries),
        "points": entries,
    }
    _emit(doc, args)
    return 0


def cmd_verify(problem: Problem, args) -> int:
    checks = []

    def record(name, defect, tol):
        checks.append({"name": name, "defect": float(defect),
                       "tol": float(tol), "pass": bool(defect <= tol)})

    problems = validate_group(problem.gd)
    record("group closure/character", 0.0 if not problems else 1.0, 0.5)

    psi0, A, su = _decomposition(problem)
    S, N = su.S, A - su.S  # the Jordan-Chevalley split su_decomposition took
    record("jordan-chevalley sum", float(np.max(np.abs(A - S - N))), 1e-10)
    record("jordan-chevalley commute",
           float(np.max(np.abs(S @ N - N @ S))), 1e-10)
    record("linear equivariance",
           0.0 if is_chi_equivariant_linear(A, problem.gd) else 1.0, 0.5)
    record("map equivariance",
           0.0 if is_chi_equivariant_map(psi0, problem.gd) else 1.0, 0.5)

    ip = invariant_inner_product(su.S, problem.gd)
    Sstar = ip.adjoint(su.S)
    record("S0 normal wrt adapted product",
           float(np.max(np.abs(su.S @ Sstar - Sstar @ su.S))), 1e-10)

    try:
        ctx = build_lift(A, su.S, problem.gd, problem.q, radius=problem.radius)
        record("lift identities", 0.0, 0.5)
        rng = np.random.default_rng(0)
        U = []
        for _ in range(3):
            c = rng.standard_normal(ctx.dim_u)
            U.append(ctx.U_basis @ (1e-2 * c / max(1.0, np.linalg.norm(c))))
        U = np.array(U)
        # rows 0-2 at u, rows 3-5 at S0 u
        V, PR = _vstar(psi0, ctx, np.concatenate([U, U @ ctx.S0.T]), ctx.radius)
        record("reduced map S0-equivariance",
               float(np.max(np.abs(PR[3:] - PR[:3] @ ctx.S0.T))), 1e-8)
        record("vstar shift equivariance",
               float(np.max(np.abs(V[3:] - V[:3] @ ctx.sigma.T))), 1e-8)
        record("ghat vstar identity", float(np.max(_ghat_defects(
            psi0, ctx, U, V[:3], PR[:3]))), 1e-8)
    except InvariantViolation as exc:
        checks.append({"name": f"lift identities ({exc})", "defect": 1.0,
                       "tol": 0.5, "pass": False})

    doc = {
        "command": "verify",
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    _emit(doc, args)
    return 0 if doc["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqnf",
        description="Equivariant normal forms and Lyapunov-Schmidt reduction "
                    "for families of local diffeomorphisms.")
    parser.add_argument("command", choices=tuple(_DISPATCH), help="what to run")
    parser.add_argument("problem", help="problem file (JSON)")
    parser.add_argument("--order", type=int, default=None,
                        help="truncation order k")
    parser.add_argument("--period", type=int, default=None, help="period q")
    parser.add_argument("--tol", type=float, default=None,
                        help="acceptance tolerance")
    parser.add_argument("--radius", type=float, default=None,
                        help="trust radius for v* Newton")
    parser.add_argument("--lambda-grid", dest="lambda_grid", default=None,
                        help="comma list or start:stop:count")
    parser.add_argument("--output", default=None, help="write report to file")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text", help="report format")
    return parser


_DISPATCH = {
    "decompose": cmd_decompose,
    "normal-form": cmd_normal_form,
    "reduce": cmd_reduce,
    "periodic": cmd_periodic,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](load_problem(args.problem, args), args)
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, NotEquivariant) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except EqnfError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
