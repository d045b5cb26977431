"""Tests of the benchmark itself: input generation, span accounting and the
cli-cold references.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calib  # noqa: E402
import cli_cases  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from akzeta import cli, identities  # noqa: E402


def _key(case):
    cid, params = case
    return cid, tuple(sorted((k, str(v)) for k, v in params.items()))


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", ["catalog-core", "bell-series"])
def test_same_seed_same_catalog_inputs(workload):
    a = workloads.catalog_cases(identities, workload, 7)
    b = workloads.catalog_cases(identities, workload, 7)
    assert [_key(c) for c in a] == [_key(c) for c in b]
    n, families = workloads.expected_shape(workload)
    assert len(a) == n and len({cid for cid, _ in a}) == families


def test_other_seed_reorders_the_same_core_set():
    a = [_key(c) for c in workloads.catalog_cases(identities, "catalog-core", 1)]
    b = [_key(c) for c in workloads.catalog_cases(identities, "catalog-core", 2)]
    assert a != b
    assert sorted(a) == sorted(b)
    assert "PROP2" not in {cid for cid, _ in a}


def test_each_pass_order_is_seeded():
    """Pass k of a run has its own order of the same case set, the same
    for every run with that seed."""
    a = [_key(c) for c in workloads.catalog_cases(identities, "catalog-core", 5, 0)]
    b = [_key(c) for c in workloads.catalog_cases(identities, "catalog-core", 5, 1)]
    c = [_key(c) for c in workloads.catalog_cases(identities, "catalog-core", 5, 1)]
    assert a != b and b == c and sorted(a) == sorted(b)


def test_same_seed_same_cli_requests():
    def mix(seed):
        return [(r.template, r.args, r.precision) for r in cli_cases.requests(seed)]
    assert mix(3) == mix(3)
    assert mix(3) != mix(4)
    assert [(r.template, r.precision) for r in cli_cases.requests(3, 1)] != \
        [(t, p) for t, _, p in mix(3)]
    # every template at every precision, whatever the seed
    assert sorted((t, p) for t, _, p in mix(3)) == sorted((t, p) for t, _, p in mix(4))
    assert len(mix(3)) == len(cli_cases.TEMPLATES) * len(cli_cases.PRECISIONS)


# ------------------------------------------------------------------ spans

def _span(name, start, end, parent, extra=None):
    return [name, start, end, parent, 0, extra]


def test_self_time_on_synthetic_tree():
    tree = [
        _span("identities.verify", 0.0, 10.0, -1),
        _span("evaluator.eval_hurwitz_mzv", 1.0, 4.0, 0),
        _span("evaluator._dp_nested", 2.0, 3.0, 1, extra=300),
        _span("evaluator.eval_hurwitz_mzv", 5.0, 7.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    m = spans.layer_metrics([tree])
    assert m["identities.verify.self_s"] == pytest.approx(5.0)
    assert m["evaluator.eval_hurwitz_mzv.self_s"] == pytest.approx(4.0)
    assert m["evaluator.eval_hurwitz_mzv.calls"] == 2
    assert m["evaluator.mzv_cache.hit_ratio"] == pytest.approx(0.5)
    assert m["evaluator._dp_nested.elements"] == 300
    # self times add up to the root span
    assert m["trace.self_sum_s"] == pytest.approx(10.0)


def test_self_time_clips_overlapping_children():
    tree = [_span("cli.main", 0.0, 4.0, -1),
            _span("identities.verify", 1.0, 3.0, 0),
            _span("identities.verify", 2.0, 5.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_install_rebinds_every_namespace():
    rec = spans.Recorder()
    saved = {name: dict(vars(m)) for name, m in sys.modules.items()
             if name == "akzeta" or name.startswith("akzeta.")}
    try:
        assert spans.install(rec) > len(spans.SPAN_NAMES)
        identities.verify("DUAL", {"alpha": (1, 2)})
        names = {s[0] for s in rec.spans}
        assert {"identities.verify", "evaluator.eval_hurwitz_mzv",
                "combinatorics.dual"} <= names
    finally:
        for name, ns in saved.items():
            vars(sys.modules[name]).update(ns)


def test_quantile():
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.quantile([0.0, 10.0], 0.9) == pytest.approx(9.0)


def test_sampler_takes_one_sample_per_interval():
    sampler = calib.Sampler()
    first, _ = sampler.take()
    assert len(first) == 1 and first[0] > 0
    assert sampler.take() == ([], 0.0)
    sampler.last -= 3.5 * sampler.every_s
    assert len(sampler.take()[0]) == 3


def test_times_scale_to_reference_speed():
    """A host running at half the reference speed doubles every time the
    kernel sees; the gated times are halved back."""
    k = 2 * calib.REFERENCE_S
    ops = [dict(ok=True, s=t, cpu=t, bound=1e-12) for t in (1.0, 2.0, 3.0)]
    passes = [dict(wall=6.0, cpu=6.0, cal=[k, k, 3 * k], ops=ops),
              dict(wall=6.0, cpu=6.0, cal=[k / 2], ops=ops)]   # at full speed
    for p in passes:
        p["cal_ref"] = calib.REFERENCE_S
    m = run.end_to_end([0.2], passes)
    assert m["cpu_ref_s"][0] == pytest.approx(4.5)                 # of 3 and 6
    assert m["op_cpu_ref_p50_s"][0] == pytest.approx(1.25)   # of .5, 1, 1, 1.5, 2, 3
    assert m["setup_s"][0] == 0.2
    assert run.as_measured(passes)["cpu_s"] == 6.0


def test_line_reader_times_out():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"],
                            stdout=subprocess.PIPE)
    try:
        assert run.LineReader(proc.stdout).readline(0.2) is None
    finally:
        run._stop(proc)
    assert proc.returncode is not None


# ------------------------------------------------------------- references

def test_dual_reference():
    assert cli_cases.dual_reference((1, 2)) == (3,)
    assert cli_cases.dual_reference((1, 1, 2)) == (4,)
    assert cli_cases.dual_reference((2, 3)) == (1, 2, 2)
    for parts in cli_cases.TEMPLATES["dual"][1]:
        assert cli_cases.dual_reference(cli_cases.dual_reference(parts)) == parts


def test_bernoulli_reference():
    assert cli_cases.bernoulli_poly_reference(2) == [Fraction(1, 6), -1, 1]
    assert cli_cases.format_poly(cli_cases.bernoulli_poly_reference(3)) == \
        "x^3 - 3/2*x^2 + 1/2*x"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_templates_agree_with_reference(seed):
    """Each request's answer is within its bound of the independent
    reference, unless its template is a listed seed failure."""
    unexpected = []
    for req in cli_cases.requests(seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(req.argv())
        ok, _, msg = req.check(buf.getvalue()) if rc == 0 else (False, None, f"exit {rc}")
        if not ok and req.template not in cli_cases.KNOWN_SEED_FAILURES:
            unexpected.append(f"{req.template} @{req.precision} {req.args}: {msg}")
    assert not unexpected
