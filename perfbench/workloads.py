"""Seeded instances and checks for the three benchmark workloads.

A check is one call into a public function of wehrl_lab on one seeded
instance together with this file's own test of the result.  Each check is a
closure that returns on a correct result and raises otherwise; the caller
times it, counts a raise as a failure, and may call it again (``run.py``
runs every check once per pass).

Inputs come only from the workload seed and the round index, through
``numpy.random.default_rng([seed, round])``, so a round can be rebuilt
exactly.  Building a round calls only constructors of wehrl_lab value
types, never a traced function.

The references here are written independently of wehrl_lab: monomial norms
through running products, polynomial powers through exact convolution, Gamma
values at integers and half-integers through factorials, and the Bloch
polynomial form of the SU(2) top-component mass.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from wehrl_lab import compact as cp
from wehrl_lab import disc as dc
from wehrl_lab import selberg as sb
from wehrl_lab import suite
from wehrl_lab.domains import PRESETS, DomainParams
from wehrl_lab.reports import SuiteConfig

# Size ladders.  The frontier metrics report the largest rung whose median
# check time is at most one second.
DEGREE_LADDER = tuple(range(4, 17))
DIM_LADDER = ((2, 2), (2, 3), (3, 3), (3, 4), (7, 3), (4, 4), (2, 6), (8, 3),
              (9, 3), (3, 5), (5, 4), (10, 3), (11, 3), (2, 7), (4, 5), (3, 6))
WEIGHT_PAIRS = ((Fraction(2), Fraction(2)), (Fraction(2), Fraction(3)),
                (Fraction(5, 2), Fraction(7, 2)))
MC_SIGMAS = 5  # a 3-sigma gate on varying seeds fails about 0.3% of the time


class Mismatch(Exception):
    """A program result outside its reference or tolerance."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass(frozen=True)
class Check:
    kind: str
    call: Callable[[], None]
    rung: Optional[str] = None


# ---------------------------------------------------------------------------
# Independent references.

def ref_norm2(cs, nu: Fraction) -> Fraction:
    """sum |c_m|^2 m!/(nu)_m for rational c_m, by a running product."""
    total, w = Fraction(0), Fraction(1)
    for m, c in enumerate(cs):
        total += c * c * w
        w = w * (m + 1) / (nu + m)
    return total


def ref_product(xs, ys) -> list:
    out = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        if a:
            for j, b in enumerate(ys):
                out[i + j] += a * b
    return out


def ref_power(cs, n: int) -> list:
    out = [Fraction(1)]
    for _ in range(n):
        out = ref_product(out, cs)
    return out


def rising(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


def ref_norm2_float(c: np.ndarray, nu: float) -> float:
    w = np.ones(len(c))
    for m in range(1, len(c)):
        w[m] = w[m - 1] * m / (nu + m - 1)
    return float(np.sum(np.abs(c) ** 2 * w))


def ref_power_float(c: np.ndarray, n: int) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for _ in range(n):
        out = np.convolve(out, c)
    return out


def gamma_exact(x: Fraction) -> tuple[Fraction, int]:
    """Gamma(x) = q * sqrt(pi)^h for a positive integer or half-integer x."""
    if x <= 0 or x.denominator not in (1, 2):
        raise ValueError(f"no exact Gamma at {x}")
    if x.denominator == 1:
        return Fraction(math.factorial(int(x) - 1)), 0
    k = int(x - Fraction(1, 2))
    return Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k)), 1


def gamma_product(nums, dens) -> tuple[Fraction, int]:
    q, h = Fraction(1), 0
    for x in nums:
        gq, gh = gamma_exact(Fraction(x))
        q, h = q * gq, h + gh
    for y in dens:
        gq, gh = gamma_exact(Fraction(y))
        q, h = q / gq, h - gh
    return q, h


def ref_selberg(r: int, a, b, g) -> tuple[Fraction, int]:
    """Selberg's closed form as q * sqrt(pi)^h."""
    a, b, g = Fraction(a), Fraction(b), Fraction(g)
    nums, dens = [], []
    for j in range(1, r + 1):
        nums += [b + 1 + (j - 1) * a / 2, g + 1 + (j - 1) * a / 2,
                 1 + j * a / 2]
        dens += [g + b + 2 + (r + j - 2) * a / 2, 1 + a / 2]
    return gamma_product(nums, dens)


def ref_formal_degree(d: DomainParams, lam: Fraction) -> Fraction:
    """Coefficient of pi^-N in d_lambda, from the Gamma-product formula."""
    shift = Fraction(d.N, d.r)
    nums = [lam - Fraction(d.a * (j - 1), 2) for j in range(1, d.r + 1)]
    q, h = gamma_product(nums, [x - shift for x in nums])
    if h != 0:
        raise ValueError("formal degree is not a rational multiple of pi^-N")
    return q


def bloch_mass(v: np.ndarray, m: int, n: int) -> float:
    """||P_{nm}(v^{(x) n})||^2 = sum_k |[p_v^n]_k|^2 / binom(nm, k) with
    p_v(z) = sum_i v_i binom(m, i)^{1/2} z^i."""
    p = np.array([v[i] * math.sqrt(math.comb(m, i)) for i in range(m + 1)])
    q = ref_power_float(p, n)
    return float(sum(abs(q[k]) ** 2 / math.comb(n * m, k)
                     for k in range(n * m + 1)))


# ---------------------------------------------------------------------------
# Seeded inputs.

def rand_rationals(rng: np.random.Generator, count: int, span: int = 4):
    """p/q with |p| <= span and 1 <= q <= span; not all zero."""
    cs = [Fraction(int(rng.integers(-span, span + 1)),
                   int(rng.integers(1, span + 1))) for _ in range(count)]
    if all(c == 0 for c in cs):
        cs[0] = Fraction(1)
    return cs


def rand_complex(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.normal(size=count) + 1j * rng.normal(size=count)


def rand_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rand_complex(rng, dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# exact_tensor: the Fraction/QC core of disc and exactnum.

def _completeness(f, g, fc, gc) -> Callable[[], None]:
    def call():
        rep = dc.completeness_check(f, g)
        ref = ref_norm2(fc, f.nu) * ref_norm2(gc, g.nu)
        expect(rep.passed and rep.total == ref,
               f"completeness total {rep.total} != {ref}")
    return call


def _completeness_paper(f, g, fc, gc) -> Callable[[], None]:
    """The alternative constant must fail: same k = 0 mass, smaller total."""
    def call():
        paper = dc.completeness_check(f, g, convention="paper_plus_one")
        expect(not paper.passed and paper.total < paper.expected,
               "paper_plus_one completeness did not fail as expected")
        expect(paper.per_k[0] == ref_norm2(ref_product(fc, gc), f.nu + g.nu),
               "paper_plus_one changed the k = 0 mass")
    return call


def _q1(f, n) -> Callable[[], None]:
    def call():
        norm2 = dc.q1_iterated(f, n).norm2()
        expect(norm2 == 0, f"q1 norm {norm2} != 0 at n={n}")
    return call


def _improved(f, fc, n, convention) -> Callable[[], None]:
    def call():
        rep = dc.improved_check(f, n, convention)
        lhs = ref_norm2(ref_power(fc, n), n * f.nu)
        expect(rep.passed and rep.exact_slack is not None
               and rep.exact_slack >= 0,
               f"improved slack {rep.exact_slack} under {convention}")
        expect(rep.lhs == float(lhs), f"improved lhs {rep.lhs} != {lhs}")
    return call


def _wehrl_exact(f, fc, n) -> Callable[[], None]:
    def call():
        lhs, rhs, slack = dc.wehrl_check(f, n)
        ref_lhs = ref_norm2(ref_power(fc, n), n * f.nu)
        ref_rhs = ref_norm2(fc, f.nu) ** n
        expect(slack == float(ref_rhs - ref_lhs) and slack >= 0,
               f"wehrl slack {slack} != {float(ref_rhs - ref_lhs)}")
    return call


def _ode(nu, c, degree) -> Callable[[], None]:
    def call():
        sol = dc.ode_solve(nu, c, degree)
        kern = dc.KernelFun(nu, c / nu, degree).to_polyfun()
        ref = [rising(nu, m) / math.factorial(m) * (c / nu) ** m
               for m in range(degree + 1)]
        expect(sol.coeffs == kern.coeffs, "ODE series != KernelFun series")
        expect([x.re for x in sol.coeffs] == ref
               and all(x.im == 0 for x in sol.coeffs),
               "ODE series != (nu)_m/m! (c/nu)^m")
    return call


def exact_tensor_round(rng: np.random.Generator, r: int,
                       tiny: bool) -> list[Check]:
    """Completeness once per ladder rung and once more on the rungs up to
    degree 10 (weight pairs rotating); improved_check under sharp and paper
    on two polynomials of each degree from 5 to 11; q1_iterated and
    wehrl_check on four degree-4 polynomials; four degree-8 ode_solve
    series; and the paper_plus_one case.  61 checks.

    By cost, the ode_solve, q1_iterated and wehrl_check checks (1 to 10 ms)
    lie below the 28 improved checks (10 to 55 ms), which rise smoothly
    with the degree and hold p50; the two degree-4 completeness checks fall
    among them.  The other completeness checks lie above, and p75, the tail
    percentile at 61 checks, falls on the degree-5 and degree-6 rungs."""
    ladder = DEGREE_LADDER[:2] if tiny else DEGREE_LADDER + DEGREE_LADDER[:7]
    checks = []

    def poly(deg: int, nu: Fraction):
        cs = rand_rationals(rng, deg + 1)
        return dc.PolyFun(nu, tuple(cs)), cs

    for i, deg in enumerate(ladder):
        mu, nu = WEIGHT_PAIRS[(i + r) % len(WEIGHT_PAIRS)]
        (f, fc), (g, gc) = poly(deg, mu), poly(deg, nu)
        checks.append(Check("completeness_check", _completeness(f, g, fc, gc),
                            rung=f"deg{deg:02d}"))
    weights = sorted({w for pair in WEIGHT_PAIRS for w in pair})
    for i, deg in enumerate((5, 6) if tiny else 2 * tuple(range(5, 12))):
        f, fc = poly(deg, weights[(i + r) % len(weights)])
        checks += [Check("improved_check", _improved(f, fc, 3, "sharp")),
                   Check("improved_check", _improved(f, fc, 3, "paper"))]
    for i in range(1 if tiny else 4):
        nu = weights[(i + r) % len(weights)]
        f, fc = poly(4, nu)
        checks += [Check("q1_iterated", _q1(f, 2 + (i + r) % 3)),
                   Check("wehrl_check", _wehrl_exact(f, fc, 3))]
        while True:
            c = rand_rationals(rng, 1, span=3)[0]
            if abs(c) < nu:
                break
        checks.append(Check("ode_solve", _ode(nu, c, 8)))
    fc, gc = rand_rationals(rng, 5), rand_rationals(rng, 5)
    fc[1] = gc[1] = Fraction(1)  # a k >= 1 component, so the constant matters
    mu, nu = WEIGHT_PAIRS[0]
    checks.append(Check("completeness_paper_plus_one", _completeness_paper(
        dc.PolyFun(mu, tuple(fc)), dc.PolyFun(nu, tuple(gc)), fc, gc)))
    return checks


# ---------------------------------------------------------------------------
# quadrature_oracles: selberg, degrees and domains.

def _verify(d: DomainParams, lam: Fraction) -> Callable[[], None]:
    def call():
        rep = sb.verify_degree_integral(d, lam, budget=160)
        expect(rep["deviation"] < 1e-10,
               f"{d.family_label} lambda={lam}: deviation {rep['deviation']}")
        ref = ref_formal_degree(d, lam)
        got = Fraction(int(rep["d_lambda"]["num"]), int(rep["d_lambda"]["den"]))
        expect(got == ref and rep["d_lambda"]["pi_power"] == -d.N,
               f"d_lambda {got} != {ref}")
    return call


def _ref_value(q: Fraction, h: int) -> float:
    return float(q) * math.pi ** (h / 2)


def _gauss_jacobi(spec: sb.SelbergSpec) -> Callable[[], None]:
    def call():
        est = sb.selberg_numeric(spec, "gauss_jacobi", 60)
        ref = _ref_value(*ref_selberg(spec.r, spec.a, spec.b, spec.gamma))
        expect(abs(est.value - ref) <= 1e-10 * abs(ref),
               f"Gauss-Jacobi {est.value} vs {ref} for {spec}")
    return call


def _monte_carlo(spec: sb.SelbergSpec, budget: int,
                 seed: int) -> Callable[[], None]:
    def call():
        est = sb.selberg_numeric(spec, "monte_carlo", budget, seed)
        ref = _ref_value(*ref_selberg(spec.r, spec.a, spec.b, spec.gamma))
        expect(abs(est.value - ref) <= MC_SIGMAS * est.stderr,
               f"Monte Carlo {est.value} vs {ref}, stderr {est.stderr}")
    return call


def _closed(spec: sb.SelbergSpec) -> Callable[[], None]:
    def call():
        got = sb.selberg_closed(spec)
        q, h = ref_selberg(spec.r, spec.a, spec.b, spec.gamma)
        if h == 0:
            expect(isinstance(got, Fraction) and got == q,
                   f"closed form {got!r} != {q} for {spec}")
        else:
            ref = _ref_value(q, h)
            expect(isinstance(got, float)
                   and abs(got - ref) <= 1e-12 * abs(ref),
                   f"closed form {got!r} != {ref} for {spec}")
    return call


def _table(names, lams, ns) -> Callable[[], None]:
    def call():
        rows = list(csv.DictReader(io.StringIO(
            suite.emit_constants_table(names, lams, ns))))
        want = [(PRESETS[name], lam, n) for name in names for lam in lams
                for n in ns if lam > PRESETS[name].p - 1
                and n * lam > PRESETS[name].p - 1]
        expect(len(rows) == len(want), f"{len(rows)} rows != {len(want)}")
        for row, (d, lam, n) in zip(rows, want):
            dl = ref_formal_degree(d, lam)
            w = dl ** n / ref_formal_degree(d, n * lam)
            expect(row["lambda"] == str(lam) and row["n"] == str(n)
                   and row["d_lambda_coeff"] == str(dl)
                   and row["d_lambda_pi_power"] == str(-d.N)
                   and row["wehrl_coeff"] == str(w)
                   and row["wehrl_pi_power"] == str(-d.N * (n - 1)),
                   f"table row {row} != ({dl}, {w})")
            for col, q, power in (("d_lambda_float", dl, -d.N),
                                  ("wehrl_float", w, -d.N * (n - 1))):
                ref = float(q) * math.pi ** power
                expect(abs(float(row[col]) - ref) <= 1e-12 * abs(ref),
                       f"table {col} {row[col]} != {ref}")
    return call


_HALF = Fraction(1, 2)
# (rank, a) of the Gauss-Jacobi checks, a fixed mix of costs: rank 1 and 2
# at about 1 ms, rank 3 at about 25 ms, and rank 3 with a = 4 at 150 ms.
_GAUSS_JACOBI = ([(1 + i % 2, 2 * (i % 3)) for i in range(9)]
                 + [(3, 2 * (i % 2)) for i in range(23)] + [(3, 4)] * 6)


def quadrature_round(rng: np.random.Generator, r: int,
                     tiny: bool) -> list[Check]:
    """Every preset at lambda in {p, p+1/2, p+1, p+5} (E7 at one seeded
    lambda), Gauss-Jacobi, Monte Carlo, closed forms and the constants
    table.  103 checks, so one round has the 100 that p90 needs.  By cost,
    42 checks (the closed forms, the rank-1 and rank-2 Gauss-Jacobi checks
    and the cheaper verifications, up to 7 ms) lie below the 19 costliest
    rank-2 verifications (about 10 to 13 ms), among which p50 falls, and 42
    (the rank-3 Gauss-Jacobi checks and everything heavier) lie above them.
    p90 falls among the six Monte Carlo checks, below the table, Sp(3,R) and
    E7."""
    names = ["disc", "Sp(2,R)"] if tiny else list(PRESETS)
    checks = []
    for name in names:
        d = PRESETS[name]
        lams = [d.p + s for s in (Fraction(0), _HALF, Fraction(1),
                                  Fraction(5))]
        if name == "E7":  # about 3 s and 400 MB per lambda on the tensor grid
            lams = [lams[int(rng.integers(len(lams)))]]
        checks += [Check("verify_degree_integral", _verify(d, lam))
                   for lam in lams]
    halves = (Fraction(0), _HALF, Fraction(1), Fraction(2))
    for rank, a in _GAUSS_JACOBI[:1] if tiny else _GAUSS_JACOBI:
        spec = sb.SelbergSpec(rank, Fraction(a), halves[int(rng.integers(4))],
                              halves[int(rng.integers(4))])
        checks.append(Check("selberg_numeric.gauss_jacobi",
                            _gauss_jacobi(spec)))
    for i in range(1 if tiny else 6):  # Beta(1, 1) proposals: equal cost
        spec = sb.SelbergSpec(2, 1 + i % 2, 0, 0)
        checks.append(Check("selberg_numeric.monte_carlo", _monte_carlo(
            spec, 10 ** 4 if tiny else 10 ** 6, int(rng.integers(2 ** 31)))))
    for i in range(1 if tiny else 9):  # (rank, a) cycle, like Gauss-Jacobi
        spec = sb.SelbergSpec(1 + i % 3, Fraction(2 * i % 5),
                              halves[int(rng.integers(4))],
                              halves[int(rng.integers(4))])
        checks.append(Check("selberg_closed", _closed(spec)))
    lams = [Fraction(k, 2) for k in range(2, 12 if tiny else 22)]
    checks.append(Check("emit_constants_table", _table(names, lams, (2, 3))))
    return checks


# ---------------------------------------------------------------------------
# float_oracles: the dense SU(2) projector, the Haar oracle, complex disc.

def _compact(v: np.ndarray, m: int, n: int) -> Callable[[], None]:
    def call():
        rep = cp.wehrl_compact_check(v, m, n)
        gap = abs(rep.integral_numeric - rep.integral_exact)
        ref = bloch_mass(v, m, n) / (n * m + 1)
        expect(rep.slack >= -1e-10 and gap < 1e-6,
               f"compact (m={m}, n={n}): slack {rep.slack}, route gap {gap}")
        expect(abs(rep.integral_exact - ref) < 1e-10,
               f"compact (m={m}, n={n}): {rep.integral_exact} != {ref}")
    return call


def _translate_equality(m: int, n: int, angles) -> Callable[[], None]:
    def call():
        t = cp.translate_vector(m, *angles)
        rep = cp.wehrl_compact_check(t, m, n)
        expect(abs(rep.slack) < 1e-10, f"translate slack {rep.slack}")
    return call


def _casimir(m: int, angles) -> Callable[[], None]:
    def call():
        rep = cp.casimir_tensor_check(cp.translate_vector(m, *angles), m)
        expect(rep.equality and rep.residual < 1e-12
               and abs(rep.top_mass - 1.0) < 1e-10
               and abs(rep.casimir_constant - rep.casimir_expected) < 1e-12,
               f"Casimir residual {rep.residual}, top mass {rep.top_mass}")
    return call


def _fit(m: int, angles) -> Callable[[], None]:
    def call():
        dist = cp.translate_fit_distance(cp.translate_vector(m, *angles), m)
        expect(dist < 1e-6, f"fit distance {dist}")
    return call


def _reduction(v: np.ndarray, m: int, n: int) -> Callable[[], None]:
    def call():
        gap = cp.reduction_consistency(v, m, n)
        expect(gap < 1e-12, f"reduction gap {gap}")
    return call


def _wehrl_float(f, c: np.ndarray, n: int) -> Callable[[], None]:
    def call():
        lhs, rhs, slack = dc.wehrl_check(f, n)
        ref = ref_norm2_float(ref_power_float(c, n), n * float(f.nu))
        expect(slack >= -1e-12 and abs(rhs - 1.0) < 1e-12,
               f"complex Wehrl slack {slack}, rhs {rhs}")
        expect(abs(lhs - ref) <= 1e-10 * ref, f"complex lhs {lhs} != {ref}")
    return call


def _matrix_coeff(f, c: np.ndarray, n: int) -> Callable[[], None]:
    def call():
        got = dc.matrix_coeff_lp(f, n)
        nnu = n * float(f.nu)
        ref = ref_norm2_float(ref_power_float(c, n), nnu) / (nnu - 1)
        expect(abs(got - ref) <= 1e-8 * ref, f"L^2n integral {got} != {ref}")
    return call


def _norm_p(f) -> Callable[[], None]:
    def call():
        got, ref = dc.norm_p_numeric(f, 2), dc.norm2_exact(f)
        expect(abs(got - ref) <= 1e-10 * ref, f"L^2 quadrature {got} != {ref}")
    return call


def _angles(rng: np.random.Generator):
    return (float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.2, 2.9)),
            float(rng.uniform(-math.pi, math.pi)))


# Vectors per rung.  By cost, the checks up to the (3, 4) rung, the Casimir
# checks, the complex disc routes and the degrees battery lie below the
# numpy-bound projections from 10 to 120 ms (the rungs (7, 3) to (11, 3),
# the translate and the reduction), which rise smoothly over the rungs: p50
# falls on the (9, 3) rung and p75, the tail percentile at 80 checks, on the
# (11, 3) rung.  Above lie the translate fits, the run_suite calls other than
# degrees, and the (2, 7), (4, 5) and (3, 6) projections.
_DIM_COPIES = {(7, 3): 4, (4, 4): 4, (2, 6): 4, (8, 3): 4, (9, 3): 4,
               (3, 5): 4, (5, 4): 4, (10, 3): 4, (11, 3): 6, (2, 7): 3,
               (4, 5): 4, (3, 6): 1}
_BATTERIES = ("degrees", "compact", "selberg", "disc")


def float_round(rng: np.random.Generator, r: int, tiny: bool) -> list[Check]:
    """The projector ladder, the coherent-translate checks, a reduction, the
    complex-coefficient disc routes, and the run_suite calls users make:
    every battery under corrected and disc under paper.  Every pass after
    the first repeats each run_suite call, whose stream must come back
    byte-identical.  80 checks."""
    checks = []
    for m, n in DIM_LADDER[:2] if tiny else DIM_LADDER:
        checks += [Check("wehrl_compact_check",
                         _compact(rand_unit(rng, m + 1), m, n),
                         rung=f"m{m}n{n}")
                   for _ in range(_DIM_COPIES.get((m, n), 2))]
    for m in (2,) if tiny else (2, 3, 4):
        checks += [Check("translate_fit_distance", _fit(m, _angles(rng))),
                   Check("casimir_tensor_check", _casimir(m, _angles(rng))),
                   Check("casimir_tensor_check", _casimir(m, _angles(rng)))]
    m = 2 if tiny else 4
    checks += [Check("wehrl_compact_check.translate",
                     _translate_equality(m, 4, _angles(rng))),
               Check("reduction_consistency",
                     _reduction(rand_unit(rng, m + 1), m, 4))]
    nus = (Fraction(2), Fraction(5, 2), Fraction(3))
    for i, length in enumerate((13, 14) if tiny else range(10, 14)):
        nu = nus[(r + i) % 3]
        c = rand_complex(rng, length)
        c = c / math.sqrt(ref_norm2_float(c, float(nu)))
        checks.append(Check("disc.wehrl_check",
                            _wehrl_float(dc.PolyFun(nu, tuple(c)), c, 3)))
    for i in range(1 if tiny else 3):
        nu = nus[(r + i) % 3]
        c = rand_complex(rng, 13 + 8 * i)
        checks += [Check("matrix_coeff_lp", _matrix_coeff(
                       dc.PolyFun(nu, tuple(c)), c, 2 + (r + i) % 2)),
                   Check("norm_p_numeric", _norm_p(dc.PolyFun(nu, tuple(c))))]
    # The batteries at the default seed, as `wehrl-lab suite` runs them.
    # maximize_wehrl takes about 17k iterations there, as on most seeds, and
    # about 20 on the rest, which would move a run's totals by a fifth.
    seed = SuiteConfig().seed
    checks += [Check(f"run_suite.{b}", _suite(b, "corrected", seed))
               for b in _BATTERIES]
    checks.append(Check("run_suite.disc.paper", _suite("disc", "paper", seed)))
    return checks


# ---------------------------------------------------------------------------
# In-process run_suite calls, as `wehrl-lab suite` makes them.

def _mc_excursion(report) -> bool:
    """A 3-sigma Monte Carlo FAIL that is still inside the 5-sigma gate."""
    out = report.outputs
    return (report.verdict == "FAIL"
            and report.command == "selberg.monte_carlo_3sigma"
            and out["deviation"] <= MC_SIGMAS * out["stderr"])


def _suite(battery: str, convention: str, seed: int) -> Callable[[], None]:
    """The first call keeps the report stream; every later call must give
    the same bytes."""
    first: list = []

    def call():
        code, reports = suite.run_suite(
            battery, SuiteConfig(seed=seed, convention=convention))
        stream = "".join(rep.to_json() + "\n" for rep in reports)
        bad = [rep.command for rep in reports
               if rep.verdict != "PASS" and not _mc_excursion(rep)]
        want = ["disc.completeness"] if convention == "paper" else []
        expect(bad == want, f"{battery} ({convention}) seed {seed}: "
               f"not PASS {bad}, expected {want}")
        # Exit code 1 for the expected paper FAIL and for a Monte Carlo FAIL
        # inside the 5-sigma gate; 0 otherwise.
        want_code = int(convention == "paper"
                        or any(_mc_excursion(rep) for rep in reports))
        expect(code == want_code,
               f"{battery} seed {seed}: exit code {code} != {want_code}")
        if first:
            expect(stream == first[0],
                   f"{battery} seed {seed}: stream differs on repeat")
        else:
            first.append(stream)
    return call


_ROUNDS = {
    "exact_tensor": exact_tensor_round,
    "quadrature_oracles": quadrature_round,
    "float_oracles": float_round,
}


def build_round(workload: str, seed: int, r: int,
                tiny: bool = False) -> list[Check]:
    """The checks of round r of a workload; the same (seed, r) gives the
    same inputs."""
    return _ROUNDS[workload](np.random.default_rng([seed, r]), r, tiny)
