import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

import akzeta
from akzeta.cli import main
from akzeta.combinatorics import Composition
from akzeta.powerseries import ak_bernoulli_polys


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_rejects_low_precision(capsys):
    for digits in ("10", "400"):
        code, _, err = run(capsys, "--precision", digits, "eval", "zeta", "2")
        assert code == 2
        assert "error" in err


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "1,2")
    assert code == 0
    assert "dual(1,2) = 3" in out


def test_dual_json(capsys):
    code, out, _ = run(capsys, "--json", "dual", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["dual"] == "1,2"
    assert rec["weight"] == 3


def test_dual_non_admissible_exits_2(capsys):
    code, _, err = run(capsys, "dual", "1,1")
    assert code == 2
    assert "error" in err


def test_eval_zeta(capsys):
    # a 2.0e-16 bound on 1.64... supports 15 significant digits
    code, out, _ = run(capsys, "eval", "zeta", "2", "--x", "0")
    assert code == 0
    assert out.splitlines()[0] == "value      = 1.64493406684823"


def test_eval_ignores_mpmath_global_precision(capsys):
    ref = run(capsys, "eval", "zeta", "2")
    dps, mp.mp.dps = mp.mp.dps, 5
    try:
        low = run(capsys, "eval", "zeta", "2")
    finally:
        mp.mp.dps = dps
    assert low == ref


def test_eval_t(capsys):
    # a 9.6e-17 bound on 1.23... supports 16 significant digits
    code, out, _ = run(capsys, "eval", "t", "2")
    assert code == 0
    assert out.splitlines()[0] == "value      = 1.233700550136170"


# argv of an eval command and its value to 60 digits, computed without akzeta
_REFERENCES = [
    (("eval", "zeta", "3"), lambda: mp.zeta(3)),
    (("eval", "zeta", "4", "--x", "-0.5"), lambda: mp.zeta(4, 0.5)),
    (("eval", "t", "2"), lambda: mp.pi**2 / 8),
    (("eval", "li", "2", "--z", "0.5"), lambda: mp.polylog(2, 0.5)),
    # Theorem 3 at c = (1, 3): 6 zeta(1,5) + 3 zeta(2,4) + zeta(3,3), by the
    # weight-6 double zeta closed forms zeta(3)^2 / 2
    (("eval", "ak", "--v", "1,2", "--p", "1", "--m", "2"), lambda: mp.zeta(3)**2 / 2),
]


@pytest.mark.parametrize("cap", [(), ("--cutoff", "64")], ids=["default", "cutoff64"])
@pytest.mark.parametrize("argv, reference", _REFERENCES, ids=[" ".join(a) for a, _ in _REFERENCES])
def test_printed_values_within_bound_of_reference(capsys, cap, argv, reference):
    # JSON prints the exact value rounded to the nearest float with the exact
    # value's bound; text prints the digits that bound supports, rounded to nearest
    code, out, _ = run(capsys, *cap, "--json", *argv)
    assert code == 0
    rec = json.loads(out)
    value, bound = rec["value"], rec["bound"]
    code, out, _ = run(capsys, *cap, *argv)
    assert code == 0
    printed = out.splitlines()[0].split("value      = ")[1]
    with mp.workdps(60):
        ref = reference()
        assert abs(mp.mpf(value) - ref) <= mp.mpf(bound) + mp.mpf(math.ulp(value)) / 2
        half_unit = mp.mpf(10) ** Decimal(printed).as_tuple().exponent / 2
        assert abs(mp.mpf(printed) - ref) <= mp.mpf(bound) + half_unit


def test_eval_prints_working_precision_digits(capsys):
    # the p = 4, s = 1, x = -1/2 transform is pi^2/18; an mpf value keeps its digits
    code, out, _ = run(capsys, "--precision", "40", "eval", "euler", "--p", "4",
                       "--s", "1", "--x", "-0.5")
    assert code == 0
    printed = out.split("value      = ")[1].split()[0]
    with mp.workdps(50):
        exact = mp.pi**2 / 18
        assert abs(mp.mpf(printed) - exact) <= 5e-38 * exact


def test_eval_prints_300_digits(capsys):
    # the exact Fraction value is printed at the working precision
    code, out, _ = run(capsys, "--precision", "300", "eval", "euler", "--p", "4",
                       "--s", "1", "--x", "-0.5")
    assert code == 0
    printed = out.split("value      = ")[1].split()[0]
    assert len(printed) >= 300
    with mp.workdps(320):
        exact = mp.pi**2 / 18
        assert abs(mp.mpf(printed) - exact) <= 5e-298 * exact


def test_eval_ak_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--json", "eval", "ak", "--v", "1", "--p", "4",
                       "--m", "0", "--x", "-0.5")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["value"] - 0.5483113556160755) < 1e-12
    assert rec["bound"] > 0
    assert rec["bound_kind"] in ("rigorous", "estimated")


def test_eval_missing_composition_exits_2(capsys):
    code, _, err = run(capsys, "eval", "zeta")
    assert code == 2


def test_eval_divergent_exits_2(capsys):
    code, _, err = run(capsys, "eval", "zeta", "1,1")
    assert code == 2
    code, _, err = run(capsys, "eval", "euler", "--p", "nan")
    assert code == 2


def test_eval_non_finite_p_exits_2(capsys):
    for argv in (("--json", "eval", "ak", "--v", "2", "--p", "inf"),
                 ("--json", "eval", "euler", "--p", "inf", "--s", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "finite p" in err


def test_eval_shift_at_the_cap_exits_2(capsys):
    # the p = 1 Bell tail model expands in x/n and diverges at every rung N <= x
    for x in ("1e6", "1e300"):
        code, out, err = run(capsys, "eval", "ak", "--v", "2", "--m", "1", "--x", x)
        assert code == 2 and out == ""
        assert "cutoff cap" in err


def test_eval_zeta_at_any_shift(capsys):
    # a shifted zeta takes its tail at N + x: a shift past the cutoff cap
    # stops at the first rung, within its bound
    for e, x in (("2", "1e6"), ("1,2", "1e300")):
        code, out, _ = run(capsys, "--json", "eval", "zeta", e, "--x", x)
        assert code == 0
        rec = json.loads(out)
        assert rec["cutoff"] == 32 and rec["bound"] < 1e-16
        if e == "2":
            with mp.workdps(30):
                assert abs(rec["value"] - mp.zeta(2, 1 + mp.mpf(x))) <= rec["bound"]


def test_eval_ak_overflowing_tail_model_exits_2(capsys):
    # below the cap, but Gamma(1+x) in the p = 1 tail model overflows a float
    for x in ("150", "200"):
        code, out, err = run(capsys, "--json", "eval", "ak", "--v", "1", "--p", "1", "--x", x)
        assert code == 2 and out == ""
        assert f"x = {float(x)}" in err


def test_eval_ak_overflowing_majorant_exits_2(capsys):
    # at p > 1 the tail majorant of P_m overflows a float from m = 19 at x = -0.9
    code, out, err = run(capsys, "--json", "eval", "ak", "--v", "1", "--p", "2",
                         "--m", "40", "--x", "-0.9")
    assert code == 2 and out == ""
    assert "m = 40, x = -0.9" in err and "Traceback" not in err


def test_eval_sum_past_the_float_range_exits_2(capsys):
    # (n - 0.9)^-400 is 10^400 at n = 1: an error line, not an OverflowError
    code, out, err = run(capsys, "--json", "eval", "zeta", "400", "--x", "-0.9")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "leaves the float range" in err
    assert "Traceback" not in err


def test_bpoly(capsys):
    code, out, _ = run(capsys, "bpoly", "--v", "1", "--p", "1", "--m", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("1")
    assert lines[1].endswith("x - 1/2")
    code, _, err = run(capsys, "bpoly", "--v", "1", "--p", "0")
    assert code == 2
    assert "p must be >= 1" in err
    # p is any rational >= 1
    code, out, _ = run(capsys, "bpoly", "--v", "1", "--p", "5/2", "--m", "3")
    assert code == 0
    polys = ak_bernoulli_polys(Composition.of(1), Fraction(5, 2), 3)
    assert out.strip().splitlines() == [f"B_{m}(x) = {poly}" for m, poly in enumerate(polys)]
    code, _, err = run(capsys, "bpoly", "--v", "1", "--p", "1/2")
    assert code == 2
    assert "p must be >= 1" in err
    with pytest.raises(SystemExit) as exc:  # argparse rejects a non-rational p
        run(capsys, "bpoly", "--v", "1", "--p", "abc")
    assert exc.value.code == 2


def test_bpoly_zero_denominator_exits_2(capsys):
    # a usage error, not a failed verification with a traceback
    with pytest.raises(SystemExit) as exc:
        run(capsys, "bpoly", "--v", "1", "--p", "1/0")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --p: invalid rational value: '1/0'" in err
    assert "Traceback" not in err


def test_eval_has_no_alpha_alias(capsys):
    # the composition of the ak kind is given by --v only
    with pytest.raises(SystemExit) as exc:
        run(capsys, "eval", "ak", "--alpha", "1")
    assert exc.value.code == 2


def test_verify_single_id(capsys):
    code, out, _ = run(capsys, "--cutoff", "20000", "verify", "APERY")
    assert code == 0
    assert "pass" in out


def test_verify_json_records(capsys):
    code, out, _ = run(capsys, "--cutoff", "20000", "--json", "verify", "ARCSIN")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 5
    assert all(r["pass"] for r in recs)


def test_verify_unknown_exits_2(capsys):
    code, _, err = run(capsys, "verify", "BOGUS")
    assert code == 2


def test_verify_requires_id_or_all(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def _fresh_python(code, *argv):
    src = os.path.dirname(os.path.dirname(akzeta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, check=True, env=env).stdout


_FOOTPRINT = """
import json, sys
import akzeta.cli
code = akzeta.cli.main(sys.argv[1:])
print(json.dumps([code] + [m in sys.modules for m in ("numpy", "mpmath", "akzeta.identities",
                                                       "dataclasses", "inspect")]))
"""


def test_import_leaves_numpy_out():
    # the runtime has no dependency: a one-off CLI call must not pay for numpy
    out = _fresh_python("import akzeta.cli, sys; print('numpy' in sys.modules)")
    assert out.strip() == "False"
    # the package exports lazily: importing it loads no submodule
    out = _fresh_python("import akzeta, sys; print(sorted(m for m in sys.modules "
                        "if m.startswith('akzeta.')))")
    assert out.strip() == "[]"
    # the tail models are a leaf under the evaluator: building the Bell
    # series, zeta constants and all, loads no evaluator
    out = _fresh_python("import akzeta.logasym, sys; akzeta.logasym.bell_p_models(3, 0.5); "
                        "print('akzeta.evaluator' in sys.modules)")
    assert out.strip() == "False"
    # eval, dual and bpoly with JSON output load neither mpmath nor the catalog
    for argv in (["eval", "zeta", "1,2"], ["dual", "1,2"],
                 ["bpoly", "--v", "1,2", "--p", "5/2", "--m", "3"],
                 ["eval", "ak", "--v", "1", "--p", "4", "--m", "0", "--x", "-0.5"],
                 ["eval", "ak", "--v", "1", "--p", "1", "--m", "1", "--x", "-0.5"],
                 ["eval", "ak", "--v", "1,1", "--p", "1", "--m", "2", "--x", "0.5"],
                 ["eval", "euler", "--p", "2", "--s", "1", "--x", "-0.5"],
                 ["eval", "euler", "--p", "4", "--s", "1", "--x", "-0.5"]):
        last = _fresh_python(_FOOTPRINT, "--json", *argv).splitlines()[-1]
        assert json.loads(last) == [0, False, False, False, False, False], argv  # exit code, loaded?
    # the catalog's closed forms (zeta values, Clausen functions, the
    # generating function) work in decimal: verify loads no mpmath either
    for family in ("DUAL", "COR2", "CLAUSEN_M1", "GENFUN_B"):
        last = _fresh_python(_FOOTPRINT, "--json", "verify", family).splitlines()[-1]
        assert json.loads(last) == [0, False, False, True, False, False], family
    # text output formats through decimal: it loads no mpmath either
    for argv in (["eval", "zeta", "3"],
                 ["eval", "euler", "--p", "4", "--s", "1", "--x", "-0.5"]):
        last = _fresh_python(_FOOTPRINT, *argv).splitlines()[-1]
        assert json.loads(last) == [0, False, False, False, False, False], argv
