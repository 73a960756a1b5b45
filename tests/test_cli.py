"""End-to-end CLI tests: exit codes, report structure, determinism.

Everything runs in-process through cli.main so coverage tooling and
capsys see the output.  Problem files live in tmp_path.
"""
import json
import sys
import time

import numpy as np
import pytest

from eqnf import cli, corpus, linalg, reduction

SUBCOMMANDS = ("decompose", "normal-form", "reduce", "periodic", "verify")


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _builtin(tmp_path, **extra):
    doc = {"map": {"builtin": "binomial-shear"}, "order": 3, "q": 1,
           "lambda_grid": [[0.0]], "search_box": 0.06}
    doc.update(extra)
    return _write(tmp_path, doc)


def _linear_terms(A):
    n = A.shape[0]
    recs = []
    for i in range(n):
        for j in range(n):
            if A[i, j] != 0.0:
                exps = [0] * n
                exps[j] = 1
                recs.append({"component": i, "exponents": exps,
                             "coefficient": float(A[i, j])})
    return recs


def _swap_problem(terms=(1.0, 1.0), slope=0.0, character=1.0):
    """Fields of a diagonal linear map on R^2 with the swap group; `terms`
    are its two coefficients, `slope` its parameter slope on x_0 and
    `character` the swap's character value."""
    return {"dimension": 2, "order": 2,
            "map": {"terms": [{"component": i, "exponents": [1 - i, i],
                               "coefficient": c} for i, c in enumerate(terms)],
                    "parameter_slopes": [[{"component": 0, "exponents": [1, 0],
                                           "coefficient": slope}]]},
            "group": {"generators": [[[0.0, 1.0], [1.0, 0.0]]],
                      "characters": [character]}}


def _one_term_problem(component=0, exponents=(1, 0)):
    """Fields of a map on R^2 given by the one term record with these
    component and exponents."""
    return {"dimension": 2, "map": {"terms": [
        {"component": component, "exponents": list(exponents), "coefficient": 1.0}]}}


def _planted_q4_problem(tmp_path):
    """corpus.planted_q4 as an affine problem file on the grid 0, -0.03."""
    p = corpus.planted_q4()
    base = p.family.at([0.0])
    return _write(tmp_path, {
        "dimension": 2, "order": 3, "q": 4,
        "map": {"terms": base.to_terms(),
                "parameter_slopes": [(p.family.at([1.0]) - base).to_terms()]},
        "group": {"generators": [g.tolist() for g in p.inst.gd.elements],
                  "characters": [float(c) for c in p.inst.gd.char]},
        "lambda_grid": [[0.0], [-0.03]], "search_box": 0.3, "radius": 0.6},
        "planted_q4.json")


def test_all_subcommands_succeed_on_builtin(tmp_path, capsys):
    path = _builtin(tmp_path)
    for cmd in SUBCOMMANDS:
        rc = cli.main([cmd, path])
        captured = capsys.readouterr()
        assert rc == 0, (cmd, captured.err)
        assert captured.out.splitlines()[0] == f"command: {cmd}"


def test_decompose_machine_report(tmp_path, capsys):
    rc = cli.main(["decompose", _builtin(tmp_path), "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["A"] == [[3.0, -2.0], [2.0, -1.0]]
    assert doc["S"] == [[1.0, 0.0], [0.0, 1.0]]
    assert doc["N"] == [[2.0, -2.0], [2.0, -2.0]]
    # unipotent part: log(I + N) = N because N squares to zero
    assert np.max(np.abs(np.array(doc["nil_log"]) - np.array(doc["N"]))) < 1e-12
    for key in ("residual_sum", "residual_commute", "residual_su"):
        assert doc[key] <= 1e-12


def test_normal_form_machine_report(tmp_path, capsys):
    rc = cli.main(["normal-form", _builtin(tmp_path, order=2),
                   "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["mode"] == "nilpotent"
    assert doc["order"] == 2
    assert doc["admissible_dims"] == {"2": 1}
    sample = doc["samples"][0]
    assert sample["lambda"] == [0.0]
    assert sample["residual"] <= 1e-10
    # the quadratic normal form of the builtin has no admissible component
    assert abs(sample["admissible_coords"]["2"][0]) <= 1e-9
    for rec in sample["exponent_terms"]:
        assert set(rec) == {"component", "exponents", "coefficient"}
    keys = set(doc["diagnostics"])
    assert {"transform_equivariance_defect", "homological_smin"} <= keys
    assert doc["diagnostics"]["transform_equivariance_defect"] <= 1e-9


def test_order_flag_overrides_problem_file(tmp_path, capsys):
    path = _builtin(tmp_path)
    rc = cli.main(["normal-form", path, "--format", "machine"])
    full = json.loads(capsys.readouterr().out)
    assert rc == 0 and full["order"] == 3
    assert set(full["admissible_dims"]) == {"2", "3"}
    rc = cli.main(["normal-form", path, "--order", "2", "--format", "machine"])
    cut = json.loads(capsys.readouterr().out)
    assert rc == 0 and cut["order"] == 2
    assert set(cut["admissible_dims"]) == {"2"}


def test_reduce_machine_report(tmp_path, capsys):
    rc = cli.main(["reduce", _builtin(tmp_path), "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    # q = 1 and S0 = I: U is everything, the complement is trivial
    assert doc["q"] == 1
    assert doc["dim_U"] == 2
    assert doc["dim_complement"] == 0
    assert doc["vstar_at_zero"] == 0.0
    assert doc["reduced_at_zero"] <= 1e-12
    assert doc["linearization_defect"] <= 1e-8


@pytest.mark.parametrize("command, solves", [("reduce", 1), ("verify", 2)])
def test_reduction_commands_batch_their_vstar_solves(tmp_path, capsys,
                                                     monkeypatch, command, solves):
    # reduce takes v* and psi_r(0) from one solve; verify solves its u and
    # S0 u rows at once, and the ghat identity reuses the u rows and solves
    # their g-images in one more, where one solve per u took 2 and 36 calls
    calls = []
    core = reduction._vstar_core

    def counted(*args):
        calls.append(None)
        return core(*args)

    monkeypatch.setattr(reduction, "_vstar_core", counted)
    rc = cli.main([command, _planted_q4_problem(tmp_path), "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["command"] == command
    assert doc.get("all_pass", True) is True
    assert 1 <= len(calls) <= solves


def test_periodic_reports_nonisolated_line(tmp_path, capsys):
    rc = cli.main(["periodic", _builtin(tmp_path), "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["count"] >= 3
    assert doc["non_isolated_families_detected"] is True
    for point in doc["points"]:
        assert point["isolated"] is False
        assert point["residual_full"] <= 1e-8
        # fixed points of the builtin lie on the diagonal
        u = point["u"]
        assert abs(u[0] - u[1]) <= 1e-8
        assert len(point["orbit"]) == 1


def test_periodic_lambda_grid_flag(tmp_path, capsys):
    rc = cli.main(["periodic", _builtin(tmp_path),
                   "--lambda-grid=-0.03,0.0", "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    lams = {tuple(p["lambda"]) for p in doc["points"]}
    assert lams == {(-0.03,), (0.0,)}
    assert doc["count"] >= 6


def test_output_file_matches_stdout(tmp_path, capsys):
    path = _builtin(tmp_path)
    rc = cli.main(["decompose", path])
    stdout_text = capsys.readouterr().out
    assert rc == 0
    out_file = tmp_path / "report.txt"
    rc = cli.main(["decompose", path, "--output", str(out_file)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert out_file.read_text() == stdout_text


def test_reports_are_deterministic(tmp_path, capsys):
    path = _builtin(tmp_path)
    texts = []
    for _ in range(2):
        assert cli.main(["verify", path, "--format", "machine"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    texts = []
    for _ in range(2):
        assert cli.main(["periodic", path]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


def test_parse_failures_exit_2(tmp_path, capsys):
    cases = {
        "missing_map.json": {"order": 2},
        "unknown_builtin.json": {"map": {"builtin": "zeta"}},
        "bad_grid.json": {"map": {"builtin": "binomial-shear"},
                          "lambda_grid": [[0.0, 1.0]]},
        "bad_gen.json": {"dimension": 2, "map": {"terms": []},
                         "group": {"generators": [[[1.0, 0.0], [0.0, 1.0],
                                                   [0.0, 0.0]]],
                                   "characters": [1.0]}},
    }
    for name, doc in cases.items():
        rc = cli.main(["decompose", _write(tmp_path, doc, name)])
        captured = capsys.readouterr()
        assert rc == 2, name
        assert captured.err.startswith("parse error:"), name
    rc = cli.main(["decompose", str(tmp_path / "does_not_exist.json")])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err
    rc = cli.main(["periodic", _builtin(tmp_path), "--lambda-grid", "0:x:5"])
    assert rc == 2
    assert "--lambda-grid" in capsys.readouterr().err
    assert cli.main(["bogus", _builtin(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field, extra", [
    ("order", {"order": "x"}),
    ("q", {"q": "x"}),
    ("tol", {"tol": "x"}),
    ("search_box", {"search_box": "abc"}),
    ("radius", {"radius": None}),
    ("lambda_grid", {"lambda_grid": [["a"]]}),
    ("lambda_grid", {"lambda_grid": []}),
    ("map", {"map": [1, 2]}),
    ("map.terms", {"map": {"terms": 5}, "dimension": 2}),
    ("order", {"order": 2.5}),
    ("order", {"order": True}),
    ("q", {"q": 1.9}),
    ("search_box", {"search_box": -0.05}),
    ("search_box", {"search_box": float("inf")}),
    ("radius", {"radius": -0.1}),
    ("radius", {"radius": 0.0}),
    ("radius", {"radius": float("nan")}),
    ("dimension", {"map": {"terms": []}, "dimension": 2.5}),
    ("dimension", {"map": {"terms": []}, "dimension": 0}),
    ("map.terms", _swap_problem(terms=[float("nan"), 1.0])),
    ("map.terms", _swap_problem(terms=[1e400, 1.0])),
    ("map.parameter_slopes", _swap_problem(slope=float("nan"))),
    ("map.parameter_slopes", _swap_problem(slope=1e400)),
    ("lambda_grid", {"lambda_grid": [[float("inf")]]}),
    ("lambda_grid", {"lambda_grid": [[float("nan")]]}),
    ("tol", {"tol": float("nan")}),
    ("tol", {"tol": float("inf")}),
    ("group", _swap_problem(character=float("nan"))),
    ("map.terms", {"map": {"terms": [{"component": 0, "exponents": [1e400, 0],
                                      "coefficient": 1.0}]}, "dimension": 2}),
    ("tol", {"tol": -1}),
    ("map.terms", _one_term_problem(component=2)),
    ("map.terms", _one_term_problem(component=-1)),
    ("map.terms", _one_term_problem(component=1.5)),
    ("map.terms", _one_term_problem(component=True)),
    ("map.terms", _one_term_problem(exponents=[-1, 3])),
    ("map.terms", _one_term_problem(exponents=[1.5, 0.5])),
    ("map.terms", _one_term_problem(exponents=[True, 0])),
])
def test_malformed_field_is_a_parse_error(tmp_path, capsys, field, extra):
    rc = cli.main(["decompose", _builtin(tmp_path, **extra)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("parse error:") and field in err


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_non_finite_flag_is_a_parse_error(tmp_path, capsys, command):
    path = _builtin(tmp_path)
    for flags, name in ((["--lambda-grid", "inf"], "--lambda-grid"),
                        (["--lambda-grid", "0:inf:3"], "--lambda-grid"),
                        (["--lambda-grid", "nan,0"], "--lambda-grid"),
                        (["--tol", "nan"], "tol"),
                        (["--tol", "-1"], "tol")):
        rc = cli.main([command, path, *flags])
        err = capsys.readouterr().err
        assert rc == 2, flags
        assert err.startswith("parse error:") and name in err


def test_infinite_group_is_a_parse_error(tmp_path, capsys):
    doc = _swap_problem()
    doc["group"]["generators"] = [[[2.0, 0.0], [0.0, 1.0]]]
    rc = cli.main(["decompose", _write(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("parse error: group:") and "modulus 2;" in err


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_report_takes_one_jordan_chevalley_split(tmp_path, capsys, monkeypatch,
                                                 command):
    # the reported S and N are those of the split su_decomposition takes
    original, calls = linalg.jordan_chevalley, []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "eqnf" or name.startswith("eqnf."):
            for attr in [a for a, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, attr, counted)
    assert cli.main([command, _builtin(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "decompose" in capsys.readouterr().out


def test_verify_flags_nonequivariant_map(tmp_path, capsys):
    # linear part is swap-equivariant but the quadratic term is not
    doc = {
        "dimension": 2, "order": 3,
        "map": {"terms": _linear_terms(np.eye(2)) + [
            {"component": 0, "exponents": [2, 0], "coefficient": 1.0}],
            "parameter_slopes": [[]]},
        "group": {"generators": [[[0.0, 1.0], [1.0, 0.0]]],
                  "characters": [1.0]},
        "lambda_grid": [[0.0]],
    }
    rc = cli.main(["verify", _write(tmp_path, doc), "--format", "machine"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["all_pass"] is False
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failing == ["map equivariance"]


def test_nonequivariant_linear_part_exits_1(tmp_path, capsys):
    doc = {
        "dimension": 2, "order": 2,
        "map": {"terms": _linear_terms(np.diag([2.0, 3.0])),
                "parameter_slopes": [[]]},
        "group": {"generators": [[[0.0, 1.0], [1.0, 0.0]]],
                  "characters": [1.0]},
        "lambda_grid": [[0.0]],
    }
    rc = cli.main(["reduce", _write(tmp_path, doc)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("invariant failure:")


@pytest.mark.parametrize("grid, rc", [("0,0.02", 1), ("0", 0)])
def test_family_not_equivariant_at_some_lambda_exits_1(tmp_path, capsys, grid, rc):
    # D_4 (rotation by pi/2 with chi = +1, a reflection with chi = -1) around
    # R(2 pi/5): the map is reversible at lambda = 0, but its slope
    # x -> x + x^2 in component 0 is not, so the family leaves the
    # reversible maps at lambda = 0.02, where the normal form stalls
    doc = {
        "dimension": 2, "order": 3,
        "map": {"terms": _linear_terms(corpus.rotation(2 * np.pi / 5)),
                "parameter_slopes": [[
                    {"component": 0, "exponents": [1, 0], "coefficient": 1.0},
                    {"component": 0, "exponents": [2, 0], "coefficient": 1.0}]]},
        "group": {"generators": [[[0.0, -1.0], [1.0, 0.0]],
                                 [[1.0, 0.0], [0.0, -1.0]]],
                  "characters": [1.0, -1.0]},
    }
    assert cli.main(["normal-form", _write(tmp_path, doc),
                     "--lambda-grid", grid]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err.startswith("invariant failure:") and "0.02" in err
    else:
        assert err == ""


def test_trust_radius_failure_exits_3(tmp_path, capsys):
    # period 2 gives the builtin a nontrivial complement; a tiny trust
    # radius then aborts the v* Newton solve
    rc = cli.main(["verify", _builtin(tmp_path),
                   "--period", "2", "--radius", "1e-10"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("numerical failure:")
    assert "trust radius" in captured.err


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("extra", [{"order": 100000},
                                   {"map": {"terms": []}, "dimension": 10**9}])
def test_oversized_problem_exits_3_at_once(tmp_path, capsys, command, extra):
    start = time.perf_counter()
    rc = cli.main([command, _builtin(tmp_path, **extra)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numerical failure:") and "budget" in err
    assert elapsed < 1.0
