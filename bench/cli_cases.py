"""The cli-cold request mix: command templates, independent references and
output checks.

Every ``eval`` template has a reference computed without akzeta (mpmath or
a closed form from the paper); ``dual`` and ``bpoly`` have exact expected
output computed here from first principles.  A numeric answer passes when
|value - reference| <= bound + half an ulp of the printed float64, so the
only slack beyond the engine's own bound is the rounding that JSON printing
adds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

import workloads

PRECISIONS = (50, 30, 15)

# Templates on which the seed engine disagrees with the reference.  They stay
# in the mix and count as failures; they are listed so that a report names
# them and does not mark the run as broken.
#   euler-arcsin-p2: the accelerated p = 2 transform is about 3e-16 off
#   pi^2/8 while its estimated bound claims 6e-17.
KNOWN_SEED_FAILURES: frozenset[str] = frozenset({"euler-arcsin-p2"})


@dataclass(frozen=True)
class Request:
    template: str
    args: tuple[str, ...]
    precision: int
    check: Callable[[str], tuple[bool, float | None, str]]

    def argv(self) -> list[str]:
        return ["--json", "--precision", str(self.precision), *self.args]


# ------------------------------------------------------------ references

def ref_hurwitz(s: int, x: float) -> mp.mpf:
    """sum_{n>=1} (n+x)^-s = zeta(s, 1+x)."""
    return mp.zeta(s, 1 + mp.mpf(x))


def ref_t(s: int) -> mp.mpf:
    """sum over odd n of n^-s = (1 - 2^-s) zeta(s)."""
    return (1 - mp.mpf(2) ** (-s)) * mp.zeta(s)


def ref_li(s: int, z: float) -> mp.mpf:
    return mp.polylog(s, mp.mpf(z))


def ref_li11(z: float) -> mp.mpf:
    """Li_{1,1}(z) = sum_{n1<n2} z^n2 / (n1 n2) = log(1-z)^2 / 2."""
    return mp.log(1 - mp.mpf(z)) ** 2 / 2


def ref_zeta_ones(k: int) -> mp.mpf:
    """zeta({1}^k, 2) = zeta(k+2) (duality)."""
    return mp.zeta(k + 2)


def ref_cor2(r: int, m: int) -> mp.mpf:
    """COR2: the x = -1/2 sum with alpha = {1}^r equals
    C(r+m, m) (2^{r+m+1} - 1) zeta(r+m+1)."""
    return math.comb(r + m, m) * (mp.mpf(2) ** (r + m + 1) - 1) * mp.zeta(r + m + 1)


def ref_cor3(m: int) -> mp.mpf:
    """COR3: the x = -1/2 sum with alpha = (1, 1) equals
    (m+1)(m+2)(2^{m+3} - 1) zeta(m+3) / 2."""
    return (m + 1) * (m + 2) * (mp.mpf(2) ** (m + 3) - 1) * mp.zeta(m + 3) / 2


def ref_arcsin(denom: int) -> mp.mpf:
    """ARCSIN: the alternating odd-harmonic transform equals 2 pi^2 / denom."""
    return 2 * mp.pi**2 / denom


def dual_reference(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Duality by blocks: ({1}^a_1, b_1+2, .., {1}^a_k, b_k+2) maps to
    ({1}^b_k, a_k+2, .., {1}^b_1, a_1+2)."""
    blocks, ones = [], 0
    for p in parts:
        if p == 1:
            ones += 1
        else:
            blocks.append((ones, p - 2))
            ones = 0
    if ones or not blocks:
        raise ValueError(f"not admissible: {parts}")
    out: list[int] = []
    for a, b in reversed(blocks):
        out.extend([1] * b)
        out.append(a + 2)
    return tuple(out)


def bernoulli_poly_reference(m: int) -> list[Fraction]:
    """Coefficients (low degree first) of the classical B_m(x) =
    sum_k C(m,k) B_k x^{m-k}, with B_1 = -1/2."""
    B = [Fraction(1)]
    for n in range(1, m + 1):
        B.append(-sum(math.comb(n + 1, k) * B[k] for k in range(n)) / (n + 1))
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        coeffs[m - k] = math.comb(m, k) * B[k]
    return coeffs


def format_poly(coeffs: list[Fraction]) -> str:
    """Highest degree first, as in ``B_m(x) = x^2 - x + 1/6``."""
    pieces = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        mag = abs(c)
        if deg == 0:
            body = f"{mag}"
        else:
            var = "x" if deg == 1 else f"x^{deg}"
            body = var if mag == 1 else f"{mag}*{var}"
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {s} {b}" for s, b in pieces[1:])


# ---------------------------------------------------------------- checks

def half_ulp(v: float) -> float:
    return math.ulp(v) / 2


def check_numeric(reference: mp.mpf) -> Callable[[str], tuple[bool, float | None, str]]:
    def check(stdout: str):
        rec = json.loads(stdout.strip().splitlines()[-1])
        value, bound = float(rec["value"]), float(rec["bound"])
        with mp.workdps(60):
            err = abs(mp.mpf(value) - reference)
            ok = err <= mp.mpf(bound) + mp.mpf(half_ulp(value)) and math.isfinite(bound)
        return bool(ok), bound, f"|err|={mp.nstr(err, 3)} bound={bound:.3e}"
    return check


def check_dual(parts: tuple[int, ...]):
    want = ",".join(map(str, dual_reference(parts)))

    def check(stdout: str):
        rec = json.loads(stdout.strip())
        ok = rec["dual"] == want and rec["weight"] == sum(parts)
        return ok, None, f"dual={rec['dual']} want={want}"
    return check


def check_bpoly(m_max: int):
    want = [format_poly(bernoulli_poly_reference(m)) for m in range(m_max + 1)]

    def check(stdout: str):
        got = [json.loads(line)["poly"] for line in stdout.strip().splitlines()]
        return got == want, None, f"got {len(got)} polys"
    return check


# ------------------------------------------------------------- templates
# A template maps its parameters to (CLI arguments, output check).  Each
# template runs once at every precision, with the parameters listed for that
# precision, so a pass's cost and its bounds do not depend on the seed; the
# seed draws the order of the calls.

def _hurwitz(s, x):
    return ("eval", "zeta", str(s), "--x", repr(x)), check_numeric(ref_hurwitz(s, x))


def _zeta_ones(k):
    return ("eval", "zeta", ",".join(["1"] * k + ["2"])), check_numeric(ref_zeta_ones(k))


def _t(s):
    return ("eval", "t", str(s)), check_numeric(ref_t(s))


def _li(s, z):
    return ("eval", "li", str(s), "--z", repr(z)), check_numeric(ref_li(s, z))


def _li11(z):
    return ("eval", "li", "1,1", "--z", repr(z)), check_numeric(ref_li11(z))


def _ak(v: str, m: int, p: str = "1"):
    return ("eval", "ak", "--v", v, "--p", p, "--m", str(m), "--x", "-0.5")


def _apery():
    return _ak("1", 1), check_numeric(14 * mp.zeta(3))


def _cor2(r, m):
    return _ak(",".join(["1"] * r), m), check_numeric(ref_cor2(r, m))


def _cor3(m):
    return _ak("1,1", m), check_numeric(ref_cor3(m))


def _eq63():
    return _ak("1", 0, p="4"), check_numeric(mp.pi**2 / 18)


def _euler(p, denom):
    return (("eval", "euler", "--p", str(p), "--s", "1", "--x", "-0.5"),
            check_numeric(ref_arcsin(denom)))


def _dual(*parts):
    return ("dual", ",".join(map(str, parts))), check_dual(parts)


def _bpoly(m):
    return ("bpoly", "--v", "1", "--p", "1", "--m", str(m)), check_bpoly(m)


# name -> (template, parameters at precision 50, 30, 15)
TEMPLATES: dict[str, tuple[Callable, tuple[tuple, ...]]] = {
    "zeta-hurwitz": (_hurwitz, ((2, 0.0), (3, 0.5), (4, -0.5))),
    "zeta-ones": (_zeta_ones, ((1,), (2,), (3,))),
    "t": (_t, ((2,), (3,), (4,))),
    "li": (_li, ((2, 0.5), (3, -0.5), (1, 0.25))),
    "li-1-1": (_li11, ((0.5,), (-0.5,), (0.25,))),
    "ak-apery": (_apery, ((), (), ())),
    "ak-cor2-m0": (_cor2, ((1, 0), (3, 0), (1, 0))),
    "ak-cor2-m1": (_cor2, ((1, 1), (2, 1), (2, 1))),
    "ak-cor2-m2": (_cor2, ((1, 2), (1, 2), (1, 2))),
    "ak-cor3": (_cor3, ((1,), (0,), (1,))),
    "ak-eq63": (_eq63, ((), (), ())),
    "euler-arcsin-p2": (_euler, ((2, 16),) * 3),
    "euler-arcsin-p4": (_euler, ((4, 36),) * 3),
    "dual": (_dual, ((1, 2), (1, 1, 3, 2), (3, 1, 2))),
    "bpoly": (_bpoly, ((5,), (6,), (7,))),
}

def requests(seed: int, order: int = 0) -> list[Request]:
    """One pass: every template at every precision, in the seed's
    ``order``-th order."""
    out = []
    with mp.workdps(60):
        for name, (make, params) in TEMPLATES.items():
            for prec, p in zip(PRECISIONS, params):
                args, check = make(*p)
                out.append(Request(name, args, prec, check))
    return workloads.shuffled(out, seed, order)
