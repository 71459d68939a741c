import json
import os
import subprocess
import sys

import pytest

import sepdeut
from sepdeut import cli, wf_coordinate
from sepdeut.cli import main
from sepdeut.model import ModelParams, Region, region_of
from sepdeut.observables import solve_normalisation
from sepdeut.quadrature import QuadratureError
from sepdeut.wf_coordinate import uw_coordinate
from sepdeut.wf_momentum import form_factors, uw_momentum


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_test_dependency():
    # numpy is the one runtime dependency; scipy, mpmath, sympy and
    # hypothesis serve only tests and derivations
    src = os.path.dirname(os.path.dirname(sepdeut.__file__))
    code = (
        "import sys, sepdeut, sepdeut.cli; "
        "print(sorted({'scipy', 'mpmath', 'sympy', 'hypothesis'} & {m.split('.')[0] for m in sys.modules}))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_observables_json(capsys):
    code, out, _ = run(["observables"], capsys)
    assert code == 0
    payload = json.loads(out)
    obs = payload["observables"]
    assert payload["params"]["b1_fm"] == 1.475
    assert obs["P_S"] == pytest.approx(0.9622, abs=1e-3)
    assert obs["r_rms_fm"] == pytest.approx(2.0796, abs=1e-3)
    assert obs["Q_fm2"] == pytest.approx(0.2856, abs=1e-3)
    assert obs["probability_path"] == "closed"


def test_observables_table(capsys):
    code, out, _ = run(["observables", "--table"], capsys)
    assert code == 0
    assert "r_rms_fm" in out
    assert "{" not in out


def test_wavefunctions_default_grid(tmp_path, capsys):
    target = tmp_path / "wf.csv"
    code, _, _ = run(["wavefunctions", "--output", str(target)], capsys)
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "r_fm,u,w,region"
    assert len(lines) == 242  # header + r = 0 .. 12 in steps of 0.05
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "0.0" and first[2] == "0.0"
    # boundary row belongs to the middle region, next row to the outer
    by_r = {line.split(",")[0]: line.split(",")[3] for line in lines[1:]}
    assert by_r["2.95"] == "middle"
    assert by_r["3.0"] == "outer"


def test_wavefunctions_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["wavefunctions", "--output", str(a)], capsys)[0] == 0
    assert run(["wavefunctions", "--output", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_wavefunctions_overlay(tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    assert run(["wavefunctions", "--dr", "0.1", "--output", str(ref)], capsys)[0] == 0
    merged = tmp_path / "merged.csv"
    code, _, _ = run(
        ["wavefunctions", "--dr", "0.2", "--overlay", str(ref), "--output", str(merged)],
        capsys,
    )
    assert code == 0
    lines = merged.read_text().splitlines()
    assert lines[0] == "r_fm,u,w,region,ref_u,ref_w,ref_region"
    # grid points shared with the reference must match it exactly
    row = lines[3].split(",")
    assert row[1] == row[4] and row[2] == row[5]


@pytest.mark.parametrize(
    "bad, reason",
    [
        pytest.param("nan,b", "non-finite", id="nan"),
        pytest.param("inf,b", "non-finite", id="inf"),
        pytest.param("2.0", "not the header's 2 fields", id="missing-field"),
        pytest.param("2.0,b,x", "not the header's 2 fields", id="extra-field"),
        pytest.param(",b", "could not convert", id="empty-r"),
    ],
)
def test_overlay_rejects_nonfinite_r(bad, reason, tmp_path, capsys):
    # a NaN r_fm would win every nearest-row lookup and merge into all rows;
    # a missing field would be written as an empty ref_ column
    ref = tmp_path / "ref.csv"
    ref.write_text(f"r_fm,label\n0.0,a\n{bad}\n1.0,c\n")
    target = tmp_path / "merged.csv"
    code, out, err = run(["wavefunctions", "--overlay", str(ref), "--output", str(target)], capsys)
    assert code == 2
    assert f"{str(ref)!r}, data row 2: " in err and reason in err
    assert not target.exists()


def test_momentum_csv(capsys):
    code, out, _ = run(["momentum", "--dk", "0.5", "--k-max", "2.0"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k_inv_fm,g_C,g_T,u_k,w_k"
    assert len(lines) == 6
    k1 = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert float(k1["g_C"]) == pytest.approx(0.45543285331765678, rel=1e-12)
    assert float(k1["g_T"]) == pytest.approx(0.15420012727958567, rel=1e-12)


# (b1, b2, alpha, ratio): default, unequal, near the inner boundary, alpha*b = 0.4
GOLDEN_POINTS = {
    "default": (1.475, 1.475, 0.23165, 3.0),
    "unequal": (1.0, 2.0, 0.23165, 3.0),
    "near-boundary": (0.8613, 1.0119, 0.4415, 5.268),
    "alpha-b-0.4": (0.5, 0.5, 0.8, 3.0),
}


def _golden_params(point):
    b1, b2, alpha, ratio = point
    A, B = solve_normalisation(b1, alpha, ratio, b2)
    return ModelParams(b1=b1, b2=b2, alpha=alpha, A=A, B=B)


def _point_flags(point):
    b1, b2, alpha, ratio = point
    return ["--b1", repr(b1), "--b2", repr(b2), "--alpha", repr(alpha), "--ratio", repr(ratio)]


@pytest.mark.parametrize(
    "name, r_max, step",
    [("default", 6.0, 0.05), ("unequal", 6.0, 0.05), ("near-boundary", 3.0, 0.05),
     ("near-boundary", 0.3, 0.001), ("alpha-b-0.4", 6.0, 0.05)],
)
def test_wavefunctions_match_per_row_scalar_evaluation(name, r_max, step, capsys):
    # the byte contract: the whole-grid columns equal the row-by-row scalar calls
    point = GOLDEN_POINTS[name]
    p = _golden_params(point)
    lines = ["r_fm,u,w,region"]
    for i in range(round(r_max / step) + 1):
        r = i * step
        u, w = uw_coordinate(r, p).tolist()
        lines.append(f"{r!r},{u!r},{w!r},{region_of(r, p).value}")
    argv = ["wavefunctions", *_point_flags(point), "--r-max", repr(r_max), "--dr", repr(step)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "\n".join(lines) + "\n"
    if step == 0.001:  # the fine grid straddles r = b2 - b1
        assert {"inner", "middle"} <= {line.rsplit(",", 1)[1] for line in lines[1:]}


@pytest.mark.parametrize("name", sorted(GOLDEN_POINTS))
def test_momentum_matches_per_row_scalar_evaluation(name, capsys):
    point = GOLDEN_POINTS[name]
    p = _golden_params(point)
    lines = ["k_inv_fm,g_C,g_T,u_k,w_k"]
    for i in range(251):
        k = i * 0.02
        values = form_factors(k, p).tolist() + uw_momentum(k, p).tolist()
        lines.append(",".join(repr(v) for v in [k, *values]))
    code, out, _ = run(["momentum", *_point_flags(point)], capsys)
    assert code == 0
    assert out == "\n".join(lines) + "\n"


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(cli, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cli, name, counted)
    return calls


def test_each_column_is_one_evaluator_call(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, ["uw_coordinate"])
    assert run(["wavefunctions", "--b1", "1.0", "--b2", "2.0"], capsys)[0] == 0
    assert calls == {"uw_coordinate": 1}
    names = ["form_factors", "uw_momentum"]
    calls = _count_calls(monkeypatch, names)
    assert run(["momentum"], capsys)[0] == 0
    assert calls == dict.fromkeys(names, 1)


def test_failed_evaluation_writes_no_file(tmp_path, monkeypatch, capsys):
    def fail(r, p):
        raise QuadratureError("injected failure")

    monkeypatch.setattr(cli, "uw_coordinate", fail)
    target = tmp_path / "wf.csv"
    code, out, err = run(["wavefunctions", "--output", str(target)], capsys)
    assert code == 3
    assert "injected failure" in err
    assert not target.exists()
    assert run(["wavefunctions"], capsys)[1] == ""  # nor a header on stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["wavefunctions", "--dr", "0"],
        ["momentum", "--dk", "0"],
        ["wavefunctions", "--dr", "-0.1"],
        ["wavefunctions", "--dr", "nan"],
        ["momentum", "--k-max", "-1.0"],
    ],
)
def test_bad_grid_exits_2_and_writes_nothing(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "grid" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["wavefunctions", "--r-max", "1e12", "--dr", "1e-6"],  # 1e18 points: numpy cannot allocate them
        ["momentum", "--k-max", "1e300", "--dk", "1e-300"],  # the count overflows to inf
        ["wavefunctions", "--r-max", "1e200", "--dr", "1e-100"],  # past numpy's largest array
    ],
    ids=["unallocatable", "overflow", "past-max-size"],
)
def test_oversized_grid_exits_2_and_writes_no_file(argv, tmp_path, capsys):
    # exit 1 would read as a failed validate check
    target = tmp_path / "grid.csv"
    code, out, err = run(argv + ["--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert "too many points" in err
    assert not target.exists()


def test_grid_stops_at_its_end(capsys):
    code, out, _ = run(["wavefunctions", "--r-max", "1.0", "--dr", "0.6"], capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0.0", "0.6"]


def test_ranges_equal_within_eps_region_give_a_finite_origin(capsys):
    # b2 - b1 = 5e-10 < EPS_REGION: r = 0 is in the middle region, whose
    # coefficients must then use a zero gap too; r > 0 keeps the values
    # the nonzero gap gave
    argv = ["wavefunctions", "--b1", "1.0", "--b2", "1.0000000005", "--alpha", "0.3", "--ratio", "2",
            "--r-max", "0.1", "--dr", "0.05"]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[3] for row in rows] == ["middle"] * 3
    assert rows[0][1:3] == ["0.0", "0.0"]
    gap_values = [(0.037058762283207675, 0.00022104056110828571), (0.07287302225552296, 0.0008817769865390538)]
    for row, (u, w) in zip(rows[1:], gap_values):
        assert float(row[1]) == pytest.approx(u, rel=1e-12)
        assert float(row[2]) == pytest.approx(w, rel=1e-12)


def test_fit_command(capsys):
    # the second target's root has a large ratio, with another root close by in b
    for targets, b, ratio in [([], 1.476, 3.0), (["--target-rrms", "2.08", "--target-q", "0.76"], 1.783, 35.335)]:
        code, out, _ = run(["fit", *targets], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["b_fm"] == pytest.approx(b, abs=1e-3)
        assert payload["ratio"] == pytest.approx(ratio, abs=0.01)


def test_fit_infeasible_exit_code(capsys):
    code, out, err = run(["fit", "--target-rrms", "0.1"], capsys)
    assert code == 5
    assert json.loads(out)["converged"] is False
    assert "converge" in err


def test_fit_takes_no_start(capsys):
    # the fit needs no starting point, so the flags are gone
    assert run(["fit", "--start-b", "1.2"], capsys)[0] == 2
    assert run(["fit", "--start-ratio", "2.0"], capsys)[0] == 2


def test_validate_passes_clean(capsys):
    # the third point once failed "derivative w" by rounding noise of a
    # finite-difference slope (1.1e-8 against the 1e-8 tolerance); at the
    # last, a transform truncated at 1280 fm^-1 once missed its doubling gate
    found = (1.410922597420848, 1.410922597420848, 0.2053313638632265, 3.112640854372824)
    truncated = ["--b1", "0.8", "--alpha", "0.5", "--ratio", "6"]
    for extra in ([], ["--b1", "1.0", "--b2", "2.0"], _point_flags(found), truncated):
        code, out, _ = run(["validate"] + extra, capsys)
        assert code == 0
        assert "FAIL" not in out
        assert all(line.endswith(" PASS") or "skipped" in line for line in out.splitlines())


def test_validate_catches_injected_fault(monkeypatch, capsys):
    # the middle region's w, 1e-3 too large: `branch` and `uw_coordinate` both see it
    coefficients, profiles = wf_coordinate._REGIONS[Region.MIDDLE]

    def faulty(x, d, *coefs):
        u, w = profiles(x, d, *coefs)
        return u, (1.0 + 1e-3) * w

    monkeypatch.setitem(wf_coordinate._REGIONS, Region.MIDDLE, (coefficients, faulty))
    code, out, _ = run(["validate"], capsys)
    assert code == 1
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert any("continuity w" in line for line in failing)
    assert any("transform w" in line for line in failing)
    assert not any(line.startswith(("continuity u", "derivative u", "transform u")) for line in failing)


def test_params_json_with_flag_override(tmp_path, capsys):
    blob = {"b1_fm": 1.0, "b2_fm": 2.0, "alpha_inv_fm": 0.23165, "A": 0.9, "B": 1.5}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(blob))
    with pytest.warns(UserWarning, match="not normalised"):
        code, out, _ = run(["observables", "--params-json", str(path), "--b2", "2.5"], capsys)
    assert code == 0
    params = json.loads(out)["params"]
    assert params["b2_fm"] == 2.5          # the flag wins
    assert params["b1_fm"] == 1.0          # the file fills the rest
    assert params["A"] == 0.9              # explicit strengths survive


def test_params_json_ratio_resolves_strengths(tmp_path, capsys):
    blob = {"b1_fm": 1.475, "b2_fm": 1.475, "alpha_inv_fm": 0.23165, "A": 2.0, "B": 2.0}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(["observables", "--params-json", str(path), "--ratio", "3.0"], capsys)
    assert code == 0
    params = json.loads(out)["params"]
    assert params["A"] == pytest.approx(0.90495551732122255, rel=1e-10)


def test_bad_arguments_exit_2(capsys):
    assert run(["observables", "--no-such-flag"], capsys)[0] == 2
    assert run(["observables", "--A", "1.0"], capsys)[0] == 2       # missing --B
    assert run(["observables", "--b1", "-2.0"], capsys)[0] == 2
    assert run(["no-such-command"], capsys)[0] == 2


@pytest.mark.parametrize("command", ["observables", "wavefunctions", "momentum", "validate", "fit"])
def test_panel_order_is_not_an_option(command, capsys):
    # every quadrature runs at the one fixed panel order
    assert run([command, "--panel-order", "40"], capsys)[0] == 2


def test_malformed_params_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"b1_fm": 1.475}))
    code, _, err = run(["observables", "--params-json", str(path)], capsys)
    assert code == 2
    assert "missing" in err


def test_io_errors_exit_4(tmp_path, capsys):
    code, _, _ = run(["wavefunctions", "--output", str(tmp_path / "no" / "dir" / "x.csv")], capsys)
    assert code == 4
    code, _, _ = run(["wavefunctions", "--overlay", str(tmp_path / "absent.csv")], capsys)
    assert code == 4


def test_help_exits_zero(capsys):
    assert run(["--help"], capsys)[0] == 0
