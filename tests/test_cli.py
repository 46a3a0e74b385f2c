"""Command-line artifacts: correctness, round trips, exit codes, determinism."""
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bracketflow.cli import COMMANDS, _dump_json, _load_points, _parser, _write_json, main
from bracketflow.convex import ConvexBody, mackey_cauchy_diagnostic
from bracketflow.flows import CircleDiffeo, FlowWord, apply_word
from bracketflow.trig_fields import TrigPoly


def family_json():
    return {"fields": [
        {"label": "cos1", "field": TrigPoly.cosine(1).to_json_dict()},
        {"label": "sin1", "field": TrigPoly.sine(1).to_json_dict()},
        {"label": "cos2", "field": TrigPoly.cosine(2).to_json_dict()},
        {"label": "sin2", "field": TrigPoly.sine(2).to_json_dict()},
    ]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_bracket_command_round_trip(tmp_path):
    inp = write(tmp_path, "in.json", {"v": TrigPoly.sine(1).to_json_dict(),
                                      "w": TrigPoly.cosine(1).to_json_dict()})
    out = tmp_path / "out.json"
    assert main(["bracket", "--input", inp, "--output", str(out)]) == 0
    got = TrigPoly.from_json_dict(json.loads(out.read_text())["bracket"])
    assert got == TrigPoly.constant(1)


def test_closure_command_reports_spanning(tmp_path):
    inp = write(tmp_path, "family.json", family_json())
    out = tmp_path / "closure.json"
    assert main(["closure", "--input", inp, "--output", str(out),
                 "--cap", "3", "--depth", "4"]) == 0
    report = json.loads(out.read_text())
    assert report["spanning"] is True
    assert report["rank"] == 7
    assert report["spanned_modes"] == [0, 1, 2, 3]


def test_flow_command_zero_field_is_identity(tmp_path):
    for grid in (32, 32.0):  # an integral float reads as an int setting
        inp = write(tmp_path, "flow.json",
                    {"field": TrigPoly.zero().to_json_dict(), "t": 2.0, "grid": grid})
        out = tmp_path / "flow.csv"
        assert main(["flow", "--input", inp, "--output", str(out)]) == 0
        diffeo = CircleDiffeo.from_csv(out.read_text())
        assert np.allclose(diffeo.lift, CircleDiffeo.identity(32).lift)


def test_flow_command_through_dormand_prince_and_back(tmp_path):
    field = TrigPoly.from_coeffs(0, [0, 1], [1])  # two modes: Dormand-Prince on 64 samples
    inp = write(tmp_path, "flow.json", {"field": field.to_json_dict(), "t": 0.3, "grid": 64})
    out = tmp_path / "flow.csv"
    assert main(["flow", "--input", inp, "--output", str(out)]) == 0
    expected = apply_word(FlowWord.of([(field, 0.3)]), CircleDiffeo.identity(64))
    assert out.read_bytes() == expected.to_csv().encode()
    back_inp = write(tmp_path, "back.json", {"field": field.to_json_dict(), "t": -0.3,
                                             "diffeo": {"kind": "csv", "path": str(out)}})
    back = tmp_path / "back.csv"
    assert main(["flow", "--input", back_inp, "--output", str(back)]) == 0
    lift = CircleDiffeo.from_csv(back.read_text(encoding="utf-8")).lift
    assert np.max(np.abs(lift - CircleDiffeo.identity(64).lift)) <= 1e-9


def test_residual_command(tmp_path):
    inp = write(tmp_path, "res.json", {"x": TrigPoly.sine(1).to_json_dict(),
                                       "y": TrigPoly.cosine(1).to_json_dict(),
                                       "theta": 0.0, "t": 0.02})
    out = tmp_path / "res.json.out"
    assert main(["residual", "--input", inp, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["bracket_value"] == pytest.approx(1.0)
    assert data["residual"] == pytest.approx(1.0, abs=0.05)


def test_steer_command_and_trajectory(tmp_path):
    inp = write(tmp_path, "steer.json",
                {"target": {"kind": "rotation", "angle": 0.3}, "grid": 256})
    out, traj = tmp_path / "steer.json.out", tmp_path / "traj.csv"
    assert main(["steer", "--input", inp, "--output", str(out), "--trajectory", str(traj),
                 "--epsilon", "1e-2", "--budget", "400"]) == 0
    result = json.loads(out.read_text())
    assert result["converged"] is True
    assert result["achieved_error"] <= 1e-2
    rows = traj.read_text().strip().splitlines()
    assert rows[0] == "step,distance"
    assert len(rows) - 1 == len(result["word"])


def test_minkowski_separate_cone_mackey_commands(tmp_path):
    box = {"dim": 2, "halfspaces": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
    inp = write(tmp_path, "mink.json", {"body": box, "x": [2.0, 0.0]})
    out = tmp_path / "mink.out"
    assert main(["minkowski", "--input", inp, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(2.0)

    inp = write(tmp_path, "sep.json", {"A": [[2.0, 0.0]], "B": {"body": box}})
    out = tmp_path / "sep.out"
    assert main(["separate", "--input", inp, "--output", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["alpha"] < cert["beta"]

    inp = write(tmp_path, "cone.json",
                {"B": [[0.0, 0.0], [0.0, 0.5]], "a1": [0.0, 0.0],
                 "x0": [0.0, 1.0], "D": box})
    out = tmp_path / "cone.out"
    assert main(["cone", "--input", inp, "--output", str(out)]) == 0
    cone = json.loads(out.read_text())
    assert cone["vertex"] == pytest.approx([0.0, 0.5])

    prefix = [[2.0 ** -k, 0.0] for k in range(6)]
    inp = write(tmp_path, "mackey.json", {"prefix": prefix, "M": box})
    out = tmp_path / "mackey.out"
    assert main(["mackey", "--input", inp, "--output", str(out)]) == 0
    report = mackey_cauchy_diagnostic(np.array(prefix), ConvexBody.from_json_dict(box))
    expected = {"is_cauchy_prefix": report.is_cauchy_prefix, "mu": report.mu.tolist(),
                "tail_max": report.tail_max.tolist(), "rate": report.rate}
    assert out.read_text(encoding="utf-8") == reference_dump(expected)
    assert json.loads(out.read_text())["is_cauchy_prefix"] is True


def test_domain_errors_exit_two(tmp_path, capsys):
    box = {"dim": 2, "halfspaces": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
    inp = write(tmp_path, "sep.json", {"A": [[0.0, 0.0]], "B": {"body": box}})
    assert main(["separate", "--input", inp]) == 2

    fam2 = {"fields": [
        {"label": "cos2", "field": TrigPoly.cosine(2).to_json_dict()},
        {"label": "sin2", "field": TrigPoly.sine(2).to_json_dict()},
    ]}
    inp = write(tmp_path, "steer.json",
                {"target": {"kind": "word",
                            "steps": [{"field": TrigPoly.sine(1).to_json_dict(), "t": 0.4}]},
                 "family": fam2, "grid": 128, "epsilon": 1e-3})
    assert main(["steer", "--input", inp]) == 2

    inp = write(tmp_path, "flow.json",
                {"field": {"c0": "0", "cos": ["0"] * 7 + ["4"], "sin": []},
                 "t": 3.0, "grid": 256})
    assert main(["flow", "--input", inp]) == 2
    assert "IntegrationError: flow step broke lift monotonicity" in capsys.readouterr().err

    inp = write(tmp_path, "steer.json",
                {"target": {"kind": "word", "steps": [{"label": "cos1", "t": 0.4}]}})
    assert main(["steer", "--input", inp]) == 2
    assert "word step needs an inline field" in capsys.readouterr().err

    for seed in (TrigPoly.constant(1), TrigPoly.zero()):
        inp = write(tmp_path, "family.json",
                    {"fields": [{"label": "c", "field": seed.to_json_dict()}]})
        assert main(["closure", "--input", inp, "--cap", "-1"]) == 2
        assert "max_mode_cap must be >= 0" in capsys.readouterr().err

    for command, bad_spec in (("steer", {"target": "rotation"}),
                              ("flow", {"field": TrigPoly.zero().to_json_dict(), "t": 1.0,
                                        "diffeo": 3})):
        inp = write(tmp_path, "spec.json", bad_spec)
        assert main([command, "--input", inp]) == 2
        assert "ValueError: diffeo spec must be" in capsys.readouterr().err

    inp = write(tmp_path, "sep.json", {"A": [[]], "B": {"points": [[], []]}})
    assert main(["separate", "--input", inp]) == 2
    assert "points must have at least one coordinate" in capsys.readouterr().err

    # a body's dim follows the integer-setting rule: 3.0 reads as 3
    box3 = np.vstack([np.eye(3), -np.eye(3)]).tolist()
    for dim, halfspaces, x, code in ((3.7, box3, [0.5, 0.0, 0.0], 2),
                                     (True, [[1], [-1]], [0.5], 2),
                                     (3.0, box3, [0.5, 0.0, 0.0], 0)):
        inp = write(tmp_path, "mink.json", {"body": {"dim": dim, "halfspaces": halfspaces},
                                            "x": x})
        assert main(["minkowski", "--input", inp]) == code
        assert ("dim must be an integer" in capsys.readouterr().err) == bool(code)
    for halfspaces in ([[]], [[], []]):
        inp = write(tmp_path, "mink.json", {"body": {"dim": 0, "halfspaces": halfspaces},
                                            "x": []})
        assert main(["minkowski", "--input", inp]) == 2
        assert "normals must form a nonempty 2-d array" in capsys.readouterr().err

    # x_0 - x_1 overflows: no artifact, not a gauge of 0.0 for that pair
    inp = write(tmp_path, "mackey.json",
                {"prefix": [[1e308, 0, 0], [-1e308, 0, 0], [0, 0, 0]],
                 "M": {"dim": 3, "halfspaces": box3}})
    out = tmp_path / "mackey.out"
    assert main(["mackey", "--input", inp, "--output", str(out)]) == 2
    assert "ValueError: a gauge of a difference of prefix points overflows" \
        in capsys.readouterr().err
    assert not out.exists()

    # a JSON true/false inside an array of reals is not 1.0 or 0.0: read
    # as numbers, each of these inputs is valid
    box2 = {"dim": 2, "halfspaces": box["halfspaces"]}
    for command, payload in (
            ("minkowski", {"body": box2, "x": [True, 0]}),
            ("separate", {"A": [[True, False]], "B": {"points": [[3, 0], [3, 1]]}}),
            ("minkowski", {"body": {"dim": 2, "halfspaces": [[True, 0]] + box["halfspaces"]},
                           "x": [0.5, 0]}),
            ("cone", {"B": [[1.0, 0.0], [0.0, 0.1]], "a1": [True, 0], "x0": [3.0, 0.0],
                      "D": box2}),
            ("mackey", {"prefix": [[True, 0], [0.5, 0]], "M": box2})):
        inp = write(tmp_path, "bool.json", payload)
        assert main([command, "--input", inp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert "must hold numbers, not " in err


@pytest.mark.parametrize("command, setting, value", [
    ("steer", "budget", 2.7),
    ("steer", "budget", True),
    ("steer", "epsilon", True),
    ("flow", "grid", 64.9),
    ("flow", "tol", True),
    ("flow", "tol", 10 ** 400),  # float() would overflow
    ("closure", "cap", False),
])
def test_settings_reject_bools_and_fractional_integers(tmp_path, capsys, command, setting,
                                                      value):
    inputs = {"steer": {"target": {"kind": "rotation", "angle": 0.3}},
              "flow": {"field": TrigPoly.zero().to_json_dict(), "t": 2.0},
              "closure": family_json()}
    inp = write(tmp_path, "in.json", {**inputs[command], setting: value})
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--output", str(out)]) == 2
    assert f"ValueError: setting {setting!r} must be" in capsys.readouterr().err
    assert not out.exists()


SIN1, COS1 = TrigPoly.sine(1).to_json_dict(), TrigPoly.cosine(1).to_json_dict()


@pytest.mark.parametrize("command, payload, problem", [
    ("bracket", {"v": {"cos": "12"}, "w": {"sin": [1]}}, "TypeError: cos and sin must be lists"),
    ("bracket", {"v": {"cos": {"1": 2}}, "w": SIN1}, "TypeError: cos and sin must be lists"),
    ("bracket", {"v": {"cos": ["12"]}, "w": {"sin": [True]}}, "TypeError: expected int, str"),
    ("residual", {"x": SIN1, "y": COS1, "theta": True, "t": 0.02},
     "ValueError: 'theta' must be a number, not True"),
    ("flow", {"field": COS1, "t": True}, "ValueError: 't' must be a number, not True"),
    ("steer", {"target": {"kind": "rotation", "angle": True}},
     "ValueError: 'angle' must be a number, not True"),
    ("steer", {"target": {"kind": "word", "steps": [{"field": SIN1, "t": False}]}},
     "ValueError: word step duration must be a number, not False"),
])
def test_non_list_coefficients_and_bool_numbers_exit_two(tmp_path, capsys, command, payload,
                                                         problem):
    inp = write(tmp_path, "in.json", payload)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and problem in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, problem", [
    ("steer", "--epsilon", "nan", "epsilon must be finite"),
    ("steer", "--epsilon", "inf", "epsilon must be finite"),
    ("residual", "--tol", "nan", "rtol must be finite"),
    ("residual", "--tol", "-1", "rtol must be finite"),
    ("flow", "--tol", "inf", "rtol must be finite"),
])
def test_non_finite_or_negative_settings_exit_two(tmp_path, capsys, command, flag, value,
                                                  problem):
    # the residual and flow fields flow in closed form, which never reads the tolerance
    inputs = {"steer": {"target": {"kind": "rotation", "angle": 0.3}},
              "residual": {"x": TrigPoly.sine(1).to_json_dict(),
                           "y": TrigPoly.cosine(1).to_json_dict(), "theta": 0.3, "t": 0.05},
              "flow": {"field": TrigPoly.zero().to_json_dict(), "t": 2.0}}
    inp = write(tmp_path, "in.json", inputs[command])
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--output", str(out), flag, value]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


def test_residual_from_a_nan_angle_exits_two(tmp_path, capsys):
    x = TrigPoly.from_coeffs(0, [0, 1], [1])  # two modes: Dormand-Prince
    inp = write(tmp_path, "res.json", {"x": x.to_json_dict(), "y": x.to_json_dict(),
                                       "theta": math.nan, "t": 0.05})
    assert main(["residual", "--input", inp]) == 2
    assert "ValueError: theta must be finite" in capsys.readouterr().err


def test_a_primitive_depth_key_is_ignored_like_any_unknown_key(tmp_path):
    target = {"target": {"kind": "rotation", "angle": 0.3}}
    outs = []
    for extra in ({}, {"primitive_depth": 1}, {"no_such_setting": 1}):
        inp = write(tmp_path, "steer.json", {**target, **extra})
        outs.append(tmp_path / f"out{len(outs)}.json")
        assert main(["steer", "--input", inp, "--output", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_io_errors_exit_one(tmp_path):
    assert main(["bracket", "--input", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bracket", "--input", str(bad)]) == 1


def test_artifacts_are_byte_identical_across_runs(tmp_path):
    inp = write(tmp_path, "steer.json",
                {"target": {"kind": "rotation", "angle": 0.25}, "grid": 128,
                 "epsilon": 1e-2, "budget": 150})
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["steer", "--input", inp, "--output", str(out1)]) == 0
    assert main(["steer", "--input", inp, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    inp = write(tmp_path, "family.json", family_json())
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["closure", "--input", inp, "--output", str(out1),
                 "--cap", "4", "--depth", "6"]) == 0
    assert main(["closure", "--input", inp, "--output", str(out2),
                 "--cap", "4", "--depth", "6"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "bracketflow.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("bracket", "closure", "flow", "residual", "steer",
                 "minkowski", "separate", "cone", "mackey"):
        assert name in proc.stdout


COLD_START = """
import json, sys
import bracketflow
from bracketflow import cli, convex

def loaded(stack):
    return sorted(m for m in sys.modules if m == stack or m.startswith(stack + "."))

algebra, gauge, separation = map(json.loads, sys.argv[1:])
for argv in algebra:
    assert cli.main(argv) == 0, argv

solves = []
wrapped = convex.nnls
def counted(*args, **kwargs):
    solves.append(1)
    return wrapped(*args, **kwargs)
convex.nnls = counted
assert cli.main(gauge) == 0
assert solves == [1] and convex.nnls is counted, solves
assert not loaded("scipy.optimize") + loaded("scipy.spatial"), loaded("scipy")[:3]

assert cli.main(separation) == 0
assert loaded("scipy.spatial") and not loaded("scipy.optimize"), loaded("scipy.optimize")[:3]
"""


def test_scipy_spatial_loads_only_with_the_first_hull(tmp_path):
    # bracket, closure, steer and a gauge (whose body's boundedness solve,
    # the one counted call of convex.nnls, runs in the package) import
    # neither scipy's optimizer nor its qhull stack; a separation against a
    # body enumerates its vertices and loads qhull, still not the optimizer
    pair = write(tmp_path, "pair.json", {"v": TrigPoly.sine(1).to_json_dict(),
                                        "w": TrigPoly.cosine(1).to_json_dict()})
    family = write(tmp_path, "family.json", family_json())
    target = write(tmp_path, "steer.json", {"target": {"kind": "rotation", "angle": 0.25},
                                            "grid": 128, "budget": 150})
    box = {"dim": 2, "halfspaces": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
    gauge = write(tmp_path, "mink.json", {"body": box, "x": [2.0, 0.0]})
    apart = write(tmp_path, "sep.json", {"A": [[3.0, 0.0], [4.0, 1.0]], "B": {"body": box}})
    algebra = [["bracket", "--input", pair], ["closure", "--input", family, "--cap", "3"],
               ["steer", "--input", target, "--epsilon", "0.05"]]
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(algebra),
                           json.dumps(["minkowski", "--input", gauge]),
                           json.dumps(["separate", "--input", apart])],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_point_sets_load_from_csv(tmp_path):
    csv = tmp_path / "points.csv"
    csv.write_text("x,y\n0.0,0.0\n0.0,0.5\n")
    box = {"dim": 2, "halfspaces": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
    inp = write(tmp_path, "cone.json",
                {"B": {"csv": str(csv)}, "a1": [0.0, 0.0], "x0": [0.0, 1.0], "D": box})
    out = tmp_path / "cone.out"
    assert main(["cone", "--input", inp, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["vertex"] == pytest.approx([0.0, 0.5])


def test_tol_override_reaches_integrator(tmp_path):
    # x has two modes, so its steps go through Dormand-Prince and its tolerance
    x = TrigPoly.from_coeffs(0, [0, 1], [1])
    inp = write(tmp_path, "res.json", {"x": x.to_json_dict(),
                                       "y": TrigPoly.cosine(1).to_json_dict(),
                                       "theta": 0.3, "t": 0.05})
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["residual", "--input", inp, "--output", str(out1), "--tol", "1e-6"]) == 0
    assert main(["residual", "--input", inp, "--output", str(out2), "--tol", "1e-12"]) == 0
    r1 = json.loads(out1.read_text())["residual"]
    r2 = json.loads(out2.read_text())["residual"]
    assert r1 != r2  # different step control, visibly different rounding
    assert abs(r1 - r2) < 1e-4


@pytest.mark.parametrize("text, problem", [
    ("x,y\n0.0,0.0\ninf,1.0\n", "non-finite"),
    ("x,y\n0.0,0.0\nnan,1\n", "non-finite"),
    ("inf,1.0\n0.0,0.0\n", "non-finite"),  # a numeric first line is data, not a header
    ("x,y\n0.0,0.0\nx,y\n", "not a row of numbers"),  # only the first line may be a header
    ("0.0,0.0\nz,1\n", "not a row of numbers"),
])
def test_point_csv_rejects_bad_rows(tmp_path, capsys, text, problem):
    csv = tmp_path / "points.csv"
    csv.write_text(text)
    with pytest.raises(ValueError, match=problem):
        _load_points({"csv": str(csv)})
    box = {"dim": 2, "halfspaces": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
    inp = write(tmp_path, "cone.json",
                {"B": {"csv": str(csv)}, "a1": [0.0, 0.0], "x0": [0.0, 1.0], "D": box})
    assert main(["cone", "--input", inp, "--output", str(tmp_path / "cone.out")]) == 2
    assert problem in capsys.readouterr().err


def test_inline_point_sets_reject_non_finite_coordinates(tmp_path, capsys):
    box = {"dim": 2, "halfspaces": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
    inp = write(tmp_path, "mackey.json",
                {"prefix": [[1.0, 0.0], [math.nan, 0.0], [0.25, 0.0]], "M": box})
    assert main(["mackey", "--input", inp, "--output", str(tmp_path / "mackey.out")]) == 2
    assert "non-finite coordinate" in capsys.readouterr().err


def test_point_csv_header_is_optional(tmp_path):
    csv = tmp_path / "points.csv"
    csv.write_text("0.0,0.0\n1.0,0.5\n\n-2,3e-1\n")
    assert _load_points({"csv": str(csv)}).tolist() == [[0.0, 0.0], [1.0, 0.5], [-2.0, 0.3]]
    csv.write_text("x0,x1,x2\n1,2,3\n")
    assert _load_points({"csv": str(csv)}).tolist() == [[1.0, 2.0, 3.0]]


# ---------------------------------------------------------------------------
# the JSON writer against json's own indented encoder

def reference_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


json_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5, 5e-324]))
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), json_floats, st.text())
rectangular_rows = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(json_floats, min_size=width, max_size=width),
                           min_size=1, max_size=4))
mixed_rows = st.lists(st.lists(st.one_of(json_floats, st.integers()), max_size=4), max_size=4)
json_values = st.recursive(
    st.one_of(json_scalars, rectangular_rows, mixed_rows),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_writer_matches_indented_json(obj):
    assert _dump_json(obj) == reference_dump(obj)


def test_writer_matches_indented_json_on_a_gauge_matrix(tmp_path):
    """Float64 arrays, as lists or handed to the writer directly, give
    json's bytes for their lists, and the streamed file is ``_dump_json``."""
    rng = np.random.default_rng(9)
    mu = rng.standard_normal((400, 400))
    mu = mu + mu.T
    np.fill_diagonal(mu, 0.0)
    mu[rng.random(mu.shape) < 0.01] = -0.0
    special = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, -1e300])
    arrays = [mu, np.array([[0.25]]), special, special.reshape(2, 4), special.reshape(8, 1),
              np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0))]
    path = tmp_path / "artifact.json"
    for array in arrays:
        tail = np.abs(array).max(axis=-1) if array.size else array.reshape(-1)
        as_lists = {"is_cauchy_prefix": False, "mu": array.tolist(),
                    "tail_max": tail.tolist(), "rate": None}
        as_arrays = {**as_lists, "mu": array, "tail_max": tail}
        expected = reference_dump(as_lists).encode()
        assert _dump_json(array) == reference_dump(array.tolist())
        for obj in (as_lists, as_arrays):
            assert _dump_json(obj).encode() == expected
            _write_json(str(path), obj)
            assert path.read_bytes() == expected


finite_or_special = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


@st.composite
def near_symmetric_matrices(draw):
    """An n x n float64 matrix, 1 <= n <= 6, equal to its transpose bit for
    bit, then perhaps with entries set on one side only (±0.0, NaN, ±inf or
    any float) or with one bit of one off-diagonal entry flipped."""
    n = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(finite_or_special, min_size=n * n, max_size=n * n)),
                 dtype=np.float64).reshape(n, n)
    index = np.arange(n)
    a = np.where(index[:, None] <= index, a, a.T)  # copies the upper triangle's bits
    for i, j, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                               finite_or_special), max_size=3)):
        a[i, j] = value
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        a.view(np.int64)[i, j] ^= np.int64(1) << np.int64(draw(st.integers(0, 63)))
    return a


@settings(max_examples=300, deadline=None)
@given(near_symmetric_matrices())
def test_writer_matches_indented_json_on_near_symmetric_matrices(tmp_path_factory, a):
    """The symmetric row stream and the whole-row stream both give json's
    bytes, whichever side of a pair holds the NaN, inf or -0.0."""
    expected = reference_dump(a.tolist())
    assert _dump_json(a) == expected
    path = tmp_path_factory.getbasetemp() / "near-symmetric.json"
    _write_json(str(path), a)
    assert path.read_text(encoding="utf-8") == expected


def test_mackey_command_peak_memory_scales_with_the_gauge_matrix(tmp_path):
    """400 points give a 1.25 MiB gauge matrix and a 4 MiB artifact; one
    temporary over all 79 800 pairs, or the artifact built as one string,
    takes the traced peak above 20 MiB."""
    rng = np.random.default_rng(17)
    h = rng.normal(size=(6, 3))
    h /= np.linalg.norm(h, axis=1)[:, None]
    h = np.vstack([np.eye(3), h * rng.uniform(0.5, 1.5, size=(6, 1))])
    body = {"dim": 3, "halfspaces": np.vstack([h, -h]).tolist()}  # 18 normals, symmetric
    u = rng.normal(size=3)
    prefix = [(0.95 ** k * u).tolist() for k in range(400)]
    inp = write(tmp_path, "mackey.json", {"prefix": prefix, "M": body})
    argv = ["mackey", "--input", inp, "--output", str(tmp_path / "mackey.out")]
    assert main(argv) == 0  # imports scipy, outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_mackey_command_formats_each_gauge_once(tmp_path):
    """The 400-point gauge matrix equals its transpose, so the writer keeps
    the texts of at most about a quarter of its 160 000 entries at once;
    holding the texts of all its distinct values at once takes the traced
    peak to 10.8 MiB."""
    rng = np.random.default_rng(17)
    h = rng.normal(size=(6, 3))
    h /= np.linalg.norm(h, axis=1)[:, None]
    h = np.vstack([np.eye(3), h * rng.uniform(0.5, 1.5, size=(6, 1))])
    body = {"dim": 3, "halfspaces": np.vstack([h, -h]).tolist()}
    u = rng.normal(size=3)
    prefix = [(0.95 ** k * u).tolist() for k in range(400)]
    inp = write(tmp_path, "mackey.json", {"prefix": prefix, "M": body})
    out = tmp_path / "mackey.out"
    argv = ["mackey", "--input", inp, "--output", str(out)]
    assert main(argv) == 0  # imports scipy, outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
    report = mackey_cauchy_diagnostic(np.array(prefix), ConvexBody.from_json_dict(body))
    assert np.array_equal(report.mu, report.mu.T)
    assert out.read_text(encoding="utf-8") == reference_dump(
        {"is_cauchy_prefix": report.is_cauchy_prefix, "mu": report.mu.tolist(),
         "tail_max": report.tail_max.tolist(), "rate": report.rate})


# ---------------------------------------------------------------------------
# one argument parser per process

def test_reused_parser_writes_what_a_fresh_process_writes(tmp_path, capsys):
    family = write(tmp_path, "family.json", family_json())
    target = write(tmp_path, "steer.json",
                   {"target": {"kind": "rotation", "angle": 0.25}, "grid": 128,
                    "budget": 150})
    calls = [["closure", "--input", family, "--cap", "4"],
             ["closure", "--input", family],
             ["steer", "--input", target, "--epsilon", "0.05"]]
    for i, argv in enumerate(calls):
        fresh = tmp_path / f"fresh{i}.json"
        proc = subprocess.run([sys.executable, "-m", "bracketflow.cli", *argv,
                               "--output", str(fresh)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    assert _parser() is _parser()
    for i, argv in enumerate(calls):
        with pytest.raises(SystemExit) as usage:
            main(["closure", "--input", family, "--cap", "four"])
        assert usage.value.code == 2
        reused = tmp_path / f"reused{i}.json"
        assert main([*argv, "--output", str(reused)]) == 0
        assert reused.read_bytes() == (tmp_path / f"fresh{i}.json").read_bytes()

    capsys.readouterr()
    with pytest.raises(SystemExit) as shown:
        main(["--help"])
    assert shown.value.code == 0
    listing = capsys.readouterr().out
    assert all(name in listing for name in COMMANDS)


# ---------------------------------------------------------------------------
# each subcommand accepts only the flags it reads

READS = {  # subcommand: its flags besides --input and --output
    "bracket": set(), "closure": {"--cap", "--depth"}, "flow": {"--tol"},
    "residual": {"--tol"}, "steer": {"--epsilon", "--budget", "--trajectory"},
    "minkowski": set(), "separate": set(), "cone": set(), "mackey": set(),
}
SETTINGS = set().union(*READS.values())


@pytest.mark.parametrize("command", COMMANDS)
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, command):
    inp = write(tmp_path, "in.json", {})
    for flag in sorted(READS[command]):
        assert _parser().parse_args([command, "--input", inp, flag, "1"]).command == command
    for flag in sorted(SETTINGS - READS[command]):
        with pytest.raises(SystemExit) as usage:
            main([command, "--input", inp, flag, "1"])
        assert usage.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_exactly_the_flags_a_command_reads(capsys, command):
    with pytest.raises(SystemExit) as shown:
        main([command, "--help"])
    assert shown.value.code == 0
    listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert listed == {"--help", "--input", "--output"} | READS[command]


def test_entry_point_rejects_a_flag_its_command_does_not_read(tmp_path):
    inp = write(tmp_path, "steer.json", {"target": {"kind": "rotation", "angle": 0.3}})
    proc = subprocess.run([sys.executable, "-m", "bracketflow.cli", "steer",
                           "--input", inp, "--cap", "4"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "unrecognized arguments: --cap 4" in proc.stderr
