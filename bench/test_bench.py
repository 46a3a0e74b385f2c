"""The benchmark's own tests: the reference bracket, and that every check
rejects a deliberately corrupted artifact.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from bracketflow import cli  # noqa: E402


def run_op(op):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(op.argv()) == 0
    return op.artifact()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    ops = {}
    for name in wl.WORKLOADS:
        for op in wl.build(name, 7, root / name):
            ops[op.name] = op
    return ops


def rejects(op, artifact):
    """Write the corrupted artifact in place of the real one; the check must fail."""
    original = op.output.read_text(encoding="utf-8")
    op.output.write_text(json.dumps(artifact), encoding="utf-8")
    try:
        with pytest.raises(ref.CheckFailed):
            op.check(op)
    finally:
        op.output.write_text(original, encoding="utf-8")


# ---- reference bracket ----

def test_reference_bracket_follows_the_complex_mode_law():
    """The cases of test_complex_mode_law: with e_n = i e^{in theta} =
    -sin(n theta) + i cos(n theta), [e_n, e_m] = (m - n) e_{n+m}."""
    def parts(n):
        if n == 0:
            return (Fraction(0), (), ()), (Fraction(1), (), ())
        return wl._field_of(f"sin{n}", "-1"), wl._field_of(f"cos{n}")

    def combine(a, b, sign):
        return ref.field_from_json(ref.field_to_json((
            a[0] + sign * b[0],
            tuple(x + sign * y for x, y in zip(a[1] + (0,) * 8, b[1] + (0,) * 8)),
            tuple(x + sign * y for x, y in zip(a[2] + (0,) * 8, b[2] + (0,) * 8)))))

    def scaled(f, c):
        return ref.field_from_json(ref.field_to_json(
            (c * f[0], tuple(c * x for x in f[1]), tuple(c * x for x in f[2]))))

    for n in range(5):
        for m in range(5):
            vr, vi = parts(n)
            wr, wi = parts(m)
            er, ei = parts(m + n)
            got_re = combine(ref.mode_law_bracket(vr, wr), ref.mode_law_bracket(vi, wi), -1)
            got_im = combine(ref.mode_law_bracket(vr, wi), ref.mode_law_bracket(vi, wr), 1)
            assert got_re == scaled(er, m - n)
            assert got_im == scaled(ei, m - n)


def test_reference_bracket_pinned_examples():
    sin1, cos1, cos2 = wl._field_of("sin1"), wl._field_of("cos1"), wl._field_of("cos2")
    assert ref.mode_law_bracket(sin1, cos1) == (Fraction(1), (), ())
    assert ref.mode_law_bracket(cos1, cos2) == ref.field_from_json(
        {"c0": "0", "cos": ["0", "0", "0"], "sin": ["3/2", "0", "1/2"]})


def test_closed_form_flow_matches_the_reference_integrator():
    lift = ref.TWO_PI * np.arange(64) / 64
    for label, c, t in (("cos3", "1/2", 0.7), ("sin1", "1", -1.3), ("sin2", "3/4", 2.0)):
        field = wl._field_of(label, c)
        assert np.max(np.abs(ref.flow(field, t, lift) - ref._flow_ivp(field, t, lift))) < 1e-9


# ---- every check rejects a corrupted artifact ----

def test_bracket_check(built):
    op = built["bracket.m2.0"]
    art = run_op(op)
    op.check(op)
    bad = copy.deepcopy(art)
    bad["bracket"]["c0"] = str(Fraction(bad["bracket"]["c0"]) + Fraction(1, 7))
    rejects(op, bad)


def test_closure_check(built):
    op = built["closure.default.8"]
    art = run_op(op)
    op.check(op)
    dropped = copy.deepcopy(art)
    dropped["generated"].pop()
    dropped["rank"] -= 1
    rejects(op, dropped)
    altered = copy.deepcopy(art)
    altered["generated"][-1]["field"]["c0"] = "1/3"
    rejects(op, altered)
    modes = copy.deepcopy(art)
    modes["spanned_modes"] = modes["spanned_modes"][:-1]
    rejects(op, modes)
    unfinished = copy.deepcopy(art)
    unfinished["fixed_point"] = False
    rejects(op, unfinished)


def test_closure_check_requires_the_expected_rank(built):
    op = built["closure.cossin3"]
    art = run_op(op)
    op.check(op)
    with pytest.raises(ref.CheckFailed):
        ref.check_closure(art, ("cos3", "sin3"), (wl._unit("cos", 3), wl._unit("sin", 3)), 6, 5)


def test_residual_check(built):
    for name in ("residual.0.t0.1", "residual.0.t0.0125"):
        op = built[name]
        art = run_op(op)
        op.check(op)
        for delta in (1e-4, 0.5):
            bad = dict(art, residual=art["residual"] + delta * max(1.0, abs(art["bracket_value"])))
            rejects(op, bad)
        rejects(op, dict(art, bracket_value=art["bracket_value"] * (1 + 1e-9)))


def test_steer_check(built):
    op = built["steer.word2"]
    art = run_op(op)
    assert op.check(op) is True
    bad = copy.deepcopy(art)
    bad["word"][0]["t"] += 1e-3
    rejects(op, bad)
    rejects(op, dict(art, achieved_error=art["achieved_error"] + 1e-4))
    rejects(op, dict(art, converged=False))
    rejects(op, dict(art, trace=art["trace"][:-1]))


def test_kept_steer_target_fails_without_converging(built):
    op = built["steer.kept.quarter-cos4"]
    art = run_op(op)
    assert op.kept and op.check(op) is False
    assert len(art["word"]) < wl.BUDGET
    rejects(op, dict(art, converged=True))


def test_minkowski_check(built):
    op = built["minkowski.n3.0"]
    art = run_op(op)
    op.check(op)
    rejects(op, dict(art, value=art["value"] * (1 + 1e-6)))


def test_separate_check(built):
    for name in ("separate.clouds.300", "separate.body.n3"):
        op = built[name]
        art = run_op(op)
        op.check(op)
        rejects(op, dict(art, alpha=art["beta"], beta=art["alpha"]))
        rejects(op, dict(art, beta=art["beta"] + 1e-3))
    # a functional that separates but is not the minimum-distance one
    op = built["separate.clouds.300"]
    art = op.artifact()
    a, b = op.check.__defaults__
    ell = np.array(art["functional"])
    tilted = ell + 0.2 * np.linalg.norm(ell) * np.eye(ell.size)[np.argmin(np.abs(ell))]
    assert np.max(a @ tilted) < np.min(b @ tilted)
    rejects(op, dict(art, functional=tilted.tolist(), alpha=float(np.max(a @ tilted)),
                     beta=float(np.min(b @ tilted))))


def test_cone_check(built):
    op = built["cone.200"]
    art = run_op(op)
    op.check(op)
    rejects(op, dict(art, alpha=art["alpha"] * 1.01))
    rejects(op, dict(art, vertex=(np.array(art["vertex"]) + 1e-3).tolist()))
    b, a1, x0, d = op.check.__defaults__
    # a point of B just off the vertex toward x0 sits in its cone and neighborhood
    vertex = np.array(art["vertex"])
    intruder = vertex + 1e-6 * (x0 - a1)
    with pytest.raises(ref.CheckFailed, match="another point of B"):
        ref.check_cone(art, np.vstack([b, intruder]), a1, x0, d)


def test_mackey_check(built):
    for name in ("mackey.alternating", "mackey.geometric"):
        op = built[name]
        art = run_op(op)
        op.check(op)
        rejects(op, dict(art, is_cauchy_prefix=not art["is_cauchy_prefix"]))
        mu = np.array(art["mu"])
        mu[1, 2] = mu[2, 1] = mu[1, 2] * 1.5
        rejects(op, dict(art, mu=mu.tolist()))


# ---- tracing and the runner ----

def test_tracer_restores_the_package_and_nests_spans(built):
    op = built["closure.cossin1"]
    originals = (cli.bracket, cli.closure, sys.modules["bracketflow.flows"].flow_states)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        index = tracer.begin("cli.op")
        run_op(op)
        tracer.end(index)
    finally:
        tracer.uninstall()
    assert (cli.bracket, cli.closure, sys.modules["bracketflow.flows"].flow_states) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.op" and "closure.closure" in names
    closure_index = names.index("closure.closure")
    brackets = [s for s in tracer.spans if s[0] == "trig_fields.bracket"]
    assert brackets and all(s[3] == closure_index for s in brackets)
    values = tracing.layer_metrics(tracer, 0)
    assert values["trig_fields.bracket_calls"] == len(brackets)
    assert 0 < values["closure.eliminate_s"] < values["closure.closure_s"]


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "algebra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
