import gc
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamma_reference import gamma_factorial
from wehrl_lab.degrees import (NonTelescoping, gamma_ratio_product,
                               scalar_formal_degree)
from wehrl_lab.domains import PRESETS, DomainParams, NotAdmissible
from wehrl_lab import selberg as sb
from wehrl_lab.selberg import (FloatRangeExceeded, MethodUnsupported,
                               NonIntegrable, SelbergSpec,
                               _gauss_jacobi_tensor, laguerre_constant_C,
                               selberg_closed, selberg_closed_hp,
                               selberg_numeric, verify_degree_integral)
from wehrl_lab.exactnum import PiScaledRational, beta_mass, gauss_jacobi


def test_closed_form_rank_one_is_beta():
    # r = 1 reduces to the Beta integral B(b+1, gamma+1).
    assert selberg_closed(SelbergSpec(1, 0, 0, 2)) == Fraction(1, 3)
    assert selberg_closed(SelbergSpec(1, 0, 2, 3)) == Fraction(1, 60)


def test_closed_form_rank_two_values():
    assert selberg_closed(SelbergSpec(2, 1, 0, 0)) == Fraction(1, 3)
    v = selberg_closed(SelbergSpec(2, 2, 0, 1))
    assert isinstance(v, Fraction)


def test_closed_form_high_precision_agrees():
    spec = SelbergSpec(2, 3, 1, Fraction(5, 2))
    assert float(selberg_closed_hp(spec, dps=30)) \
        == pytest.approx(float(selberg_closed(spec)), rel=1e-12)


def test_zero_interaction_factorizes_into_beta_product():
    # a = 0 decouples the coordinates into r one-dimensional Beta integrals.
    for r in (2, 3):
        b, g = Fraction(1), Fraction(3, 2)
        beta = selberg_closed(SelbergSpec(1, 0, b, g))
        assert selberg_closed(SelbergSpec(r, 0, b, g)) == beta ** r


def _selberg_reference(r, a, b, g) -> tuple[Fraction, int]:
    """Selberg's Gamma product S = q pi^{h/2}, one factorial per factor."""
    q, half = Fraction(1), 0
    for j in range(1, r + 1):
        for x, sign in ((b + 1 + (j - 1) * a / 2, 1),
                        (g + 1 + (j - 1) * a / 2, 1), (1 + j * a / 2, 1),
                        (g + b + 2 + (r + j - 2) * a / 2, -1), (1 + a / 2, -1)):
            f, h = gamma_factorial(x)
            q, half = q * f ** sign, half + sign * h
    return q, half


def test_closed_form_matches_factorial_reference():
    halves = [Fraction(k, 2) for k in range(5)]
    for r in (1, 2, 3):
        for a in range(6):
            for b in halves:
                for g in halves:
                    got = selberg_closed(SelbergSpec(r, a, b, g))
                    q, half = _selberg_reference(r, Fraction(a), b, g)
                    if half == 0:
                        assert type(got) is Fraction and got == q
                    else:
                        assert type(got) is float
                        assert got == pytest.approx(
                            float(q) * math.pi ** (half / 2), rel=1e-14)


def _fraction_gamma_args(r, a, b, g) -> tuple[list, list]:
    """Selberg's Gamma arguments as Fractions, S = prod Gamma(nums) /
    prod Gamma(dens)."""
    half_a, nums, dens = Fraction(a) / 2, [], []
    for j in range(1, r + 1):
        nums += [b + 1 + (j - 1) * half_a, g + 1 + (j - 1) * half_a,
                 1 + j * half_a]
        dens += [g + b + 2 + (r + j - 2) * half_a, 1 + half_a]
    return nums, dens


def test_closed_form_is_the_fraction_gamma_product_bit_for_bit():
    # selberg_closed builds its arguments as integers over one denominator;
    # the values are those of gamma_ratio_product on the Fraction arguments,
    # or, where the product does not telescope, the float of
    # mpmath.gammaprod on them at 35 digits.
    exps = [Fraction(k, 6) for k in (0, 2, 3, 4, 6, 9, 12, 14)]
    nontelescoping = 0
    for r in (1, 2, 3, 4):
        for a in (0, 1, 2, 3, Fraction(1, 2), Fraction(7, 3), Fraction(4, 3)):
            for b in exps:
                for g in exps:
                    got = selberg_closed(SelbergSpec(r, a, b, g))
                    nums, dens = _fraction_gamma_args(r, a, b, g)
                    try:
                        want = gamma_ratio_product(nums, dens)
                    except NonTelescoping:
                        nontelescoping += 1
                        with mpmath.workdps(35):
                            want = float(mpmath.gammaprod(
                                *([mpmath.mpf(x.numerator) / x.denominator
                                   for x in xs] for xs in (nums, dens))))
                    assert type(got) is type(want) and got == want, \
                        (r, a, b, g)
    assert nontelescoping > 500  # a = 7/3, b = 1/3, gamma = 2/3 among them


def test_closed_form_takes_each_pochhammer_product_without_a_prefix_list():
    # Each paired Gamma ratio was the last entry of a rising_ints list of
    # every prefix product: at gamma = 2*10^4 the traced peak was 334.5 MB
    # (0.3 MB now), and at gamma = 10^5 the call ran out of memory.
    spec = SelbergSpec(1, 1, Fraction(1, 2), 20000)
    tracemalloc.start()
    try:
        value = selberg_closed(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 21, peak
    with mpmath.workdps(30):  # rank one: B(b + 1, gamma + 1)
        assert float(value) == pytest.approx(
            float(mpmath.beta(mpmath.mpf(3) / 2, 20001)), rel=1e-14)


def test_closed_form_without_telescoping_is_mpmath_float():
    spec = SelbergSpec(2, 2, Fraction(1, 2), Fraction(1, 3))
    assert selberg_closed(spec) == 0.02737263054012127
    assert abs(selberg_closed_hp(spec, dps=40)
               - selberg_closed_hp(spec, dps=60)) < 1e-38


def test_non_integrable_exponents():
    with pytest.raises(NonIntegrable):
        SelbergSpec(2, 1, 0, Fraction(-3, 2))
    with pytest.raises(NonIntegrable):
        SelbergSpec(2, 1, -1, 0)


def test_rank_must_be_an_int():
    # A float or Fraction rank would pass r >= 1 and then fail in range()
    # inside selberg_closed and selberg_numeric with a bare TypeError.
    for r in (2.5, 2.0, Fraction(2), 0, -1):
        with pytest.raises(ValueError, match=re.escape(f"got r={r!r}")):
            SelbergSpec(r, 1, 0, 0)
    assert SelbergSpec(np.int64(2), 1, 0, 0).r == 2


def test_gauss_jacobi_even_a_matches_closed_form():
    spec = SelbergSpec(2, 2, 0, 1)
    est = selberg_numeric(spec, "gauss_jacobi", 60)
    assert est.value == pytest.approx(float(selberg_closed(spec)), rel=1e-12)
    assert est.abs_err_bound < 1e-10


def test_gauss_jacobi_rejects_odd_a():
    with pytest.raises(MethodUnsupported):
        selberg_numeric(SelbergSpec(2, 1, 0, 0), "gauss_jacobi", 40)
    with pytest.raises(MethodUnsupported):
        selberg_numeric(SelbergSpec(2, 1, 0, 0), "simpson", 40)


def test_ordered_sector_handles_odd_a():
    for case in ((2, 1, 0, 0), (2, 3, 0, Fraction(1, 2)), (3, 1, 0, 2)):
        spec = SelbergSpec(*case)
        got = _at(sb._sector_sum, spec, _sector_nodes(*case[:3]))
        assert got == pytest.approx(float(selberg_closed(spec)), rel=1e-11)


def test_monte_carlo_within_three_sigma_and_scaling():
    spec = SelbergSpec(2, 1, 0, 2)
    est = selberg_numeric(spec, "monte_carlo", 200_000, seed=11)
    truth = float(selberg_closed(spec))
    assert abs(est.value - truth) <= 3 * est.stderr
    est2 = selberg_numeric(spec, "monte_carlo", 400_000, seed=11)
    # doubling the budget shrinks the standard error by about sqrt(2)
    assert 1.3 <= est.stderr / est2.stderr <= 1.5


def test_monte_carlo_deterministic_in_seed():
    spec = SelbergSpec(2, 1, 0, 0)
    a = selberg_numeric(spec, "monte_carlo", 50_000, seed=3)
    b = selberg_numeric(spec, "monte_carlo", 50_000, seed=3)
    assert a.value == b.value and a.stderr == b.stderr


def test_monte_carlo_matches_closed_form_across_proposals():
    # Closed-form draws (b = 0 or gamma = 0, including the reflected
    # 1 - s at b = 0) and rng.beta draws (both shapes != 1) alike.
    third, half = Fraction(1, 3), Fraction(1, 2)
    specs = [(2, 1, 0, 0), (2, 1, 0, half), (2, 1, half, 0),
             (2, 1, 0, -half), (2, 1, -half, 0), (3, 1, 0, 2), (2, 2, 0, 20),
             (2, 1, half, third),
             (2, 1, Fraction(-99, 100), Fraction(-99, 100))]
    estimates = {}
    for r, a, b, g in specs:
        spec = SelbergSpec(r, a, b, g)
        est = selberg_numeric(spec, "monte_carlo", 200_000, seed=4)
        truth = float(selberg_closed(spec))
        assert math.isfinite(est.value) and math.isfinite(est.stderr)
        assert abs(est.value - truth) <= 5 * est.stderr, (spec, est, truth)
        estimates[r, a, b, g] = est.value
    # s -> 1 - s swaps b and gamma and leaves the importance weight alone.
    assert estimates[2, 1, 0, half] == estimates[2, 1, half, 0]


def test_laguerre_constant_values():
    assert laguerre_constant_C(PRESETS["disc"]) \
        == PiScaledRational(Fraction(1), 1)
    assert laguerre_constant_C(PRESETS["SU(2,1)"]) \
        == PiScaledRational(Fraction(1), 2)
    assert laguerre_constant_C(PRESETS["Sp(2,R)"]) \
        == PiScaledRational(Fraction(1), 3)


def test_laguerre_constant_is_exact_for_integer_multiplicities():
    # C * S(r, a, b, lambda - p) = 1 / d_lambda holds exactly.
    from wehrl_lab.degrees import scalar_formal_degree
    for r in range(1, 6):
        for a in range(10):
            for b in range(6):
                d = DomainParams("custom", r, a, b)
                C = laguerre_constant_C(d)
                assert isinstance(C, PiScaledRational) and C.pi_power == d.N
                S = selberg_closed(SelbergSpec(r, a, b, 1))
                assert C * S * scalar_formal_degree(d, d.p + 1) == 1


def test_laguerre_constant_is_the_fraction_gamma_product():
    # C's integer arguments over 2 give the product of gamma_ratio_product
    # on the Fraction arguments of its definition.
    domains = list(PRESETS.values()) + [
        DomainParams("custom", r, a, b)
        for r in range(1, 9) for a in range(9) for b in range(7)]
    for d in domains:
        half_a = Fraction(d.a, 2)
        dens = [y for j in range(1, d.r + 1)
                for y in (d.b + 1 + (j - 1) * half_a, 1 + j * half_a)]
        want = gamma_ratio_product([1 + half_a] * d.r, dens)
        assert laguerre_constant_C(d) == PiScaledRational(want, d.N), d


def test_spec_keeps_fractions_and_converts_the_rest():
    third = Fraction(1, 3)
    spec = SelbergSpec(2, 1, 0.5, third)
    assert spec.gamma is third
    assert (spec.a, spec.b) == (1, Fraction(1, 2))
    assert all(type(x) is Fraction for x in (spec.a, spec.b, spec.gamma))


def test_laguerre_constant_consistency_with_degree():
    # 1/d_lambda = C * S(r, a, b, lambda - p) numerically.
    from wehrl_lab.degrees import scalar_formal_degree
    d = PRESETS["SU(2,2)"]
    lam = Fraction(6)
    S = float(selberg_closed(SelbergSpec(d.r, d.a, d.b, lam - d.p)))
    C = float(laguerre_constant_C(d))
    assert C * S == pytest.approx(1.0 / float(scalar_formal_degree(d, lam)),
                                  rel=1e-12)


def test_verify_degree_integral_quadrature():
    rep = verify_degree_integral(PRESETS["Sp(2,R)"], Fraction(9, 2))
    assert rep["deviation"] < 1e-10
    assert rep["method"] == "ordered_quadrature"
    rep = verify_degree_integral(PRESETS["SU(2,2)"], 5)
    assert rep["deviation"] < 1e-10
    assert rep["method"] == "gauss_jacobi"


@pytest.mark.parametrize("name, lam", [
    ("disc", Fraction(3)), ("Sp(2,R)", Fraction(9, 2)),
    ("SO(2,3)", Fraction(7, 2))])
def test_verify_degree_integral_reports_its_error_bound(name, lam):
    # The suite's three cases: the rule's distance to the smaller rule,
    # scaled as the product is, stays at rounding level.
    rep = verify_degree_integral(PRESETS[name], lam)
    assert 0 <= rep["error_bound"] <= 1e-12


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_verify_degree_integral_deviation_within_its_error_bound(name):
    # error_bound is the suite's tolerance, so it must bound the deviation
    d = PRESETS[name]
    for lam in (d.p, d.p + Fraction(1, 2), d.p + 1, d.p + 5):
        rep = verify_degree_integral(d, lam)
        assert 0 < rep["error_bound"] < 1e-10
        assert rep["deviation"] <= rep["error_bound"], (name, lam)


def test_gauss_jacobi_error_within_its_bound():
    # against float(closed), which rounds the exact value by half an ulp
    halves = (0, Fraction(1, 2), 1, 2)
    for args in itertools.product(range(1, 5), range(0, 9, 2), halves, halves):
        spec = SelbergSpec(*args)
        est = selberg_numeric(spec, "gauss_jacobi", 60)
        ref = float(selberg_closed(spec))
        bound = est.abs_err_bound + math.ulp(ref) / 2
        assert abs(est.value - ref) <= bound, spec


def test_verify_degree_integral_monte_carlo_consistent():
    # The Monte Carlo oracle of the same integral, composed as
    # verify_degree_integral composes its quadrature: d_lambda C S = 1.
    d, lam = PRESETS["Sp(2,R)"], Fraction(4)
    est = selberg_numeric(SelbergSpec(d.r, d.a, d.b, lam - d.p),
                          "monte_carlo", 400_000, seed=5)
    scale = float(scalar_formal_degree(d, lam)) * float(laguerre_constant_C(d))
    assert abs(scale * est.value - 1) <= 3 * scale * est.stderr + 1e-12


def test_verify_degree_integral_inadmissible():
    with pytest.raises(NotAdmissible):
        verify_degree_integral(PRESETS["Sp(2,R)"], 2)


# Nodes per axis that make each rule exact, from the degree of its
# polynomial integrand: a(r-1) in each s_i for the tensor rule, and
# b m + a (m(m-1)/2 + (k-1) m), m = r-k+1, in v_k for the sector rule.
def _tensor_nodes(r, a):
    return a * (r - 1) // 2 + 1


def _sector_nodes(r, a, b):
    return max(b * (r - k + 1) + a * ((r - k + 1) * (r - k) // 2
                                      + (k - 1) * (r - k + 1))
               for k in range(1, r + 1)) // 2 + 1


def _at(rule, spec, nodes):
    """rule's sum at `nodes` per axis, on the grid of its plan's axes."""
    plan = sb._sector_plan if rule is sb._sector_sum else sb._tensor_plan
    return rule(spec, *sb._tensor_rule(nodes, plan(spec)[1]))


def _rel_miss(value, spec):
    exact = float(selberg_closed_hp(spec, 40))
    return abs(value - exact) / exact


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 8), st.integers(0, 4),
       st.fractions(-1, 6, max_denominator=12).filter(lambda g: g > -1))
def test_degree_sized_rules_are_exact(r, a, b, g):
    spec = SelbergSpec(r, a, b, g)
    sector = _at(sb._sector_sum, spec, _sector_nodes(r, a, b))
    assert _rel_miss(sector, spec) < 1e-12
    if a % 2 == 0:
        tensor = _at(_gauss_jacobi_tensor, spec, _tensor_nodes(r, a))
        assert _rel_miss(tensor, spec) < 1e-12


@pytest.mark.parametrize("rule, nodes, case", [
    (_gauss_jacobi_tensor, _tensor_nodes(3, 8), (3, 8, 0, Fraction(1, 2))),
    (_gauss_jacobi_tensor, _tensor_nodes(2, 6), (2, 6, 4, 0)),
    (_gauss_jacobi_tensor, _tensor_nodes(3, 4), (3, 4, 2, Fraction(5, 2))),
    (sb._sector_sum, _sector_nodes(3, 1, 0), (3, 1, 0, Fraction(1, 3))),
    (sb._sector_sum, _sector_nodes(2, 3, 0), (2, 3, 0, Fraction(-1, 2))),
    (sb._sector_sum, _sector_nodes(4, 1, 0), (4, 1, 0, Fraction(1, 2))),
])
def test_degree_sized_rules_are_tight(rule, nodes, case):
    # One node fewer than the degree count must miss: an off-by-one in
    # either degree formula fails here.
    spec = SelbergSpec(*case)
    assert _rel_miss(_at(rule, spec, nodes), spec) < 1e-12
    assert _rel_miss(_at(rule, spec, nodes - 1), spec) > 1e-9


@pytest.mark.parametrize("r, a", [(2, 169), (3, 61)])
def test_verify_degree_integral_beyond_float_range_raises_typed(r, a):
    # At lambda = 2p, d_lambda is about 2^1081 and 2^1091, past the float
    # range; at p + 1/2 it is about 2^747 and 2^749, inside it (see
    # test_verify_degree_integral_converts_every_degree_in_range).
    d = DomainParams("custom", r, a, 0)
    lam = 2 * d.p
    with pytest.raises(FloatRangeExceeded) as err:
        verify_degree_integral(d, lam)
    assert isinstance(err.value, ValueError)
    msg = str(err.value)
    assert f"({r}, {a}, 0)" in msg and f"lambda = {lam}" in msg
    assert "float limit 1.8e308" in msg


@pytest.mark.parametrize("r, a", [(2, 169), (3, 61)])
def test_verify_degree_integral_converts_every_degree_in_range(r, a):
    # d_lambda = q pi^-N with q past 2^1024 and N = 171 or 186: the value
    # lies in the float range though q and pi^N do not.
    d = DomainParams("custom", r, a, 0)
    rep = verify_degree_integral(d, d.p + Fraction(1, 2))
    assert 1e200 < rep["d_lambda"]["float"] < 1e308
    assert rep["deviation"] < 1e-12 and rep["error_bound"] < 1e-12


def test_verify_degree_integral_node_counts():
    # Nodes per axis of the one rule: the degree count that makes it exact
    # (tensor or sector), whatever the budget above the count.
    table = {"disc": 1, "SU(2,2)": 2, "Sp(2,R)": 1, "Sp(3,R)": 2,
             "SO(2,5)": 2, "SO*(8)": 3, "E6": 4, "E7": 9}
    for name, nodes in table.items():
        d = PRESETS[name]
        rep = verify_degree_integral(d, d.p + Fraction(1, 2), budget=160)
        assert rep["samples_or_nodes"] == nodes, name
        assert rep["deviation"] < 1e-12, name


def _assert_within_bound(est, spec):
    with mpmath.workdps(40):
        miss = abs(mpmath.mpf(est.value) - selberg_closed_hp(spec, 40))
    assert est.stderr == 0 and 0 < est.abs_err_bound
    assert miss <= est.abs_err_bound, (spec, float(miss), est)


# The one exact rule's abs_err_bound covers its whole float error; at
# gamma up to 60 the Gauss weights' own error (mu_0's) is most of it.
gammas = st.fractions(-1, 60, max_denominator=12).filter(lambda g: g > -1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4),
       st.fractions(0, 4, max_denominator=2), gammas)
def test_tensor_rule_stays_within_its_rounding_bound(r, half_a, b, g):
    spec = SelbergSpec(r, 2 * half_a, b, g)
    est = selberg_numeric(spec, "gauss_jacobi", 100)
    assert est.samples_or_nodes == _tensor_nodes(r, 2 * half_a)
    _assert_within_bound(est, spec)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 4), gammas)
def test_sector_rule_stays_within_its_rounding_bound(r, a, b, g):
    spec, nodes = SelbergSpec(r, a, b, g), _sector_nodes(r, a, b)
    _assert_within_bound(sb._exact_rule(sb._sector_sum, sb._sector_plan,
                                        spec, nodes, "ordered_quadrature"),
                         spec)


@pytest.mark.parametrize("rule, plan, case", [
    (_gauss_jacobi_tensor, sb._tensor_plan, (3, 4, 2, Fraction(5, 2))),
    (sb._sector_sum, sb._sector_plan, (3, 1, 0, Fraction(1, 2)))])
def test_rounding_bound_reads_the_rules_own_axes(monkeypatch, rule, plan,
                                                 case):
    # The bound's |ln Gamma| terms are those of the Gauss-Jacobi rules the
    # grid is built from: record each rule's (alpha, beta) and recompute.
    # They are summed from the last axis to the first, an order that fixes
    # the bound's last bit at this sector case.
    calls = []

    def spy(n, alpha, beta):
        calls.append((alpha, beta))
        return gauss_jacobi(n, alpha, beta)

    spec = SelbergSpec(*case)
    monkeypatch.setattr(sb, "gauss_jacobi", spy)
    est = sb._exact_rule(rule, plan, spec, 100, "method")
    r, nodes = spec.r, est.samples_or_nodes
    axes = calls * r if len(calls) == 1 else calls  # one per (alpha, beta)
    assert len(axes) == r and len(set(axes)) == len(calls)
    steps = ((nodes ** r).bit_length() + 17 + r * (float(spec.b) + 18
                                                     + 4 * nodes)
             + r * (r - 1) / 2 * (float(spec.a) + 3)
             + sum(abs(math.lgamma(x)) for al, be in axes[::-1]
                   for x in (al + 1, be + 1, al + be + 2)))
    assert est.abs_err_bound == steps * 2.0 ** -52 * abs(est.value)


@pytest.mark.parametrize("plan, call", [
    pytest.param("_tensor_plan", lambda: selberg_numeric(
        SelbergSpec(3, 4, 2, Fraction(5, 2)), "gauss_jacobi", 60),
        id="selberg_numeric"),
    pytest.param("_tensor_plan", lambda: verify_degree_integral(
        PRESETS["E6"], 12), id="verify_tensor"),
    pytest.param("_sector_plan", lambda: verify_degree_integral(
        PRESETS["SO(2,5)"], 6), id="verify_sector")])
def test_each_rule_is_planned_and_built_once(monkeypatch, plan, call):
    # _exact_rule sizes the rule and builds its grid once, and the sum runs
    # on that grid: planning again inside the rule cost 2.5-6.6% of a
    # verify_degree_integral call.
    calls = []

    def spy(name):
        original = getattr(sb, name)
        monkeypatch.setattr(sb, name, lambda *args: calls.append(name)
                            or original(*args))

    spy(plan)
    spy("_tensor_rule")
    call()
    assert calls == [plan, "_tensor_rule"]


def test_sector_rule_defaults_to_its_exact_count():
    # The rule is the 2-node exact rule at (3, 1, 0, 0), not a guessed
    # 120^3-point grid (a 55 MB traced peak), whatever the budget above it;
    # without an exact count (a or b not an integer >= 0) it is refused.
    spec = SelbergSpec(3, 1, 0, 0)
    tracemalloc.start()
    try:
        est = sb._exact_rule(sb._sector_sum, sb._sector_plan, spec, 200,
                             "ordered_quadrature")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert est.samples_or_nodes == _sector_nodes(3, 1, 0) == 2
    assert est.value == pytest.approx(float(selberg_closed(spec)), rel=1e-15)
    assert est.value == _at(sb._sector_sum, spec, 2)
    for case, text in (((2, Fraction(1, 2), 0, 0), "a=1/2, b=0"),
                       ((2, 1, Fraction(1, 2), 0), "a=1, b=1/2")):
        with pytest.raises(MethodUnsupported,
                           match=f"^the sector rule has no exact node count "
                                 f"at {text}$"):
            sb._sector_plan(SelbergSpec(*case))


@pytest.mark.parametrize("r, a, b, nodes", [
    (6, 2, 2, 6), (7, 2, 1, 7), (6, 4, 0, 11), (5, 4, 2, 9)])
def test_verify_degree_integral_at_the_rank_frontier(r, a, b, nodes):
    # Past the parent's frontier (a = 2 and a = 4 stopped at rank 5): one
    # exact rule of nodes^r points where a second rule would not fit.
    d = DomainParams("custom", r, a, b)
    rep = verify_degree_integral(d, d.p + Fraction(1, 2))
    assert rep["samples_or_nodes"] == nodes
    assert rep["deviation"] < 1e-12 and 0 < rep["error_bound"] < 1e-12


def test_budget_below_the_exact_count_raises():
    # The budget never tops up a coarser rule: below the exact count both
    # routes refuse, naming the count they need and the budget they got.
    with pytest.raises(MethodUnsupported,
                       match=r"needs 9 nodes per axis .* budget is 3"):
        selberg_numeric(SelbergSpec(3, 8, 0, Fraction(1, 2)), "gauss_jacobi",
                        3)
    assert selberg_numeric(SelbergSpec(3, 8, 0, Fraction(1, 2)),
                           "gauss_jacobi", 9).samples_or_nodes == 9
    d = DomainParams("custom", 2, 129, 0)  # D = 129: 65 sector nodes
    with pytest.raises(MethodUnsupported,
                       match=r"needs 65 nodes per axis .* budget is 10"):
        verify_degree_integral(d, d.p + Fraction(1, 2), budget=10)
    assert verify_degree_integral(d, d.p + Fraction(1, 2),
                                  budget=65)["samples_or_nodes"] == 65
    # On the tensor route too the budget is the cap, not raised to a floor.
    with pytest.raises(MethodUnsupported,
                       match=r"needs 4 nodes per axis .* budget is 3"):
        verify_degree_integral(PRESETS["E6"], 12, budget=3)
    assert verify_degree_integral(PRESETS["E6"], 12,
                                  budget=4)["samples_or_nodes"] == 4


def test_verify_degree_integral_with_c_beyond_float_range_raises_typed():
    # At (30, 2, 10), lambda = 200, C underflows to 0 and d_lambda
    # overflows; converting either is typed and names the instance.
    d = DomainParams("custom", 30, 2, 10)
    with pytest.raises(FloatRangeExceeded,
                       match=r"custom \(30, 2, 10\) at lambda = 200: .*"
                             r"float limit 1.8e308"):
        verify_degree_integral(d, 200)


def test_selberg_numeric_reads_no_a_at_r_1():
    # At r = 1 the a-term r(r - 1)/2 (a + 3) of the rounding bound is 0, and
    # reading a in floats raised FloatRangeExceeded at a = 10^400; a is now
    # read only where there is a pair, and the estimate and bound are the
    # a = 0 ones, bit for bit.
    at_zero = selberg_numeric(SelbergSpec(1, 0, 0, 0), "gauss_jacobi", 10)
    for a in (2, 10 ** 400):
        assert selberg_numeric(SelbergSpec(1, a, 0, 0), "gauss_jacobi",
                               10) == at_zero


def test_budget_below_one_is_rejected():
    for method, spec in (("monte_carlo", SelbergSpec(2, 1, 0, 0)),
                         ("gauss_jacobi", SelbergSpec(2, 2, 0, 0))):
        with pytest.raises(ValueError, match="budget=0"):
            selberg_numeric(spec, method, 0)


@pytest.mark.parametrize("name, budget, seed, message", [
    ("budget", True, 0, "budget=True"), ("budget", 2.5, 0, "budget=2.5"),
    ("seed", 10, -1, "seed=-1"), ("seed", 10, 1.5, "seed=1.5"),
    ("seed", 10, True, "seed=True")])
def test_bad_budget_or_seed_is_named_before_any_draw(monkeypatch, name,
                                                     budget, seed, message):
    draws = []
    monkeypatch.setattr(sb, "_monte_carlo",
                        lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=f"^{name} must be >= [01] and an "
                                         f"int, got {re.escape(message)}$"):
        selberg_numeric(SelbergSpec(2, 1, 0, 0), "monte_carlo", budget, seed)
    assert draws == []


@pytest.mark.parametrize("shape, text", [
    ((2, 1, 400, 400), "(2, 1, 400, 400)"),
    ((1, 0, 1000, 1000), "(1, 0, 1000, 1000)"),
    ((700, 0, Fraction(-1, 2), Fraction(-1, 2)), "(700, 0, -1/2, -1/2)")])
def test_monte_carlo_scale_outside_the_normal_floats_raises(shape, text):
    # B(b+1, gamma+1)^r underflows in the first two: the estimate would read
    # 0 +- 0, whose deviation from a closed form near 0 passes any gate.
    # pi^700 overflows in the third.
    with pytest.raises(FloatRangeExceeded,
                       match=re.escape(f"(r, a, b, gamma) = {text}: ")):
        selberg_numeric(SelbergSpec(*shape), "monte_carlo", 1000)


def test_grid_over_the_limit_raises_before_allocating():
    # Each rule is exact at its degree count: 23 sector nodes at (6, 3, 0)
    # and 8 tensor nodes at r = 8, a = 2, both over MAX_GRID_POINTS.  One
    # coordinate or weight array of such a grid takes 16 MB or more, and a
    # refused call traces less than 1 MB at its peak.
    tracemalloc.start()
    try:
        d = DomainParams("custom", 6, 3, 0)
        with pytest.raises(MethodUnsupported,
                           match=r"r=6 with 23 nodes .* limit of 2097152"):
            verify_degree_integral(d, d.p + Fraction(1, 2))
        d = DomainParams("custom", 8, 2, 0)
        with pytest.raises(MethodUnsupported,
                           match=r"r=8 with 8 nodes .* limit of 2097152"):
            verify_degree_integral(d, d.p + Fraction(1, 2))
        with pytest.raises(MethodUnsupported, match=r"r=8 with 8 nodes"):
            selberg_numeric(SelbergSpec(8, 2, 0, 0), "gauss_jacobi", 100)
        with pytest.raises(MethodUnsupported, match=r"r=4 with 120 nodes"):
            sb._tensor_rule(120, sb._sector_plan(SelbergSpec(4, 1, 0, 0))[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _monte_carlo_reference(spec, budget, seed):
    """The Monte Carlo leaf loop with fresh arrays: a new draw array, pair
    product and squares per 2^14-row leaf, summed in draw order, and U ** 1.0
    at c = 1, |s_i - s_j| ** 1.0 at a = 1."""
    rng = np.random.default_rng(seed)
    scale = beta_mass(float(spec.gamma), float(spec.b)) ** spec.r
    a = float(spec.a)
    total = total_sq = 0.0
    n_done = 0
    while n_done < budget:
        n = min(1 << 14, budget - n_done)
        if spec.b == 0 or spec.gamma == 0:
            s = rng.random((n, spec.r))
            s **= 1.0 / float((spec.b + 1) * (spec.gamma + 1))
        else:
            s = rng.beta(float(spec.b) + 1.0, float(spec.gamma) + 1.0,
                         size=(n, spec.r))
        vals = np.ones(n)
        for i in range(spec.r):
            for j in range(i + 1, spec.r):
                vals *= np.abs(s[:, i] - s[:, j]) ** a
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        n_done += n
    mean = total / budget
    var = max(total_sq / budget - mean ** 2, 0.0)
    return scale * mean, scale * math.sqrt(var / budget)


@pytest.mark.parametrize("shape", [
    (1, 0, Fraction(5, 2), 0), (2, 1, 0, 0), (2, 2, 0, 0),
    (3, Fraction(1, 2), 0, Fraction(1, 2)),
    (2, 1, Fraction(1, 2), Fraction(1, 3)), (5, Fraction(7, 3), 0, 0)])
def test_monte_carlo_is_bit_identical_to_the_allocating_loop(shape):
    # r = 1 (no pairs), c = 1 and a = 1 (no powers), c != 1, the rng.beta
    # path; one sample, whole 2^14-row leaves, a last leaf of one sample,
    # and three budgets whose last leaf is short.
    spec = SelbergSpec(*shape)
    for budget in (1, 1 << 18, (1 << 18) + 1, 300_001, 3 * (1 << 14) + 5,
                   (1 << 18) - 1):
        for seed in (1, 7):
            est = selberg_numeric(spec, "monte_carlo", budget, seed)
            assert (est.value, est.stderr) \
                == _monte_carlo_reference(spec, budget, seed), (budget, seed)


def test_monte_carlo_works_in_cache_sized_leaves():
    # One leaf of draws and weights, not a chunk of 2^18 rows: the arrays
    # of a 10^6-sample call peak at about 0.5 MB (10 MB for whole chunks).
    tracemalloc.start()
    try:
        selberg_numeric(SelbergSpec(2, 1, 0, 0), "monte_carlo", 10 ** 6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_monte_carlo_frees_its_buffers_without_the_gc():
    # The leaf buffers (0.5 MB at 10^6 samples) go when the call returns,
    # not when the cyclic gc next runs: no reference cycle holds them.
    spec = SelbergSpec(2, 1, 0, 0)
    selberg_numeric(spec, "monte_carlo", 10 ** 4, 1)  # first-call caches
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        selberg_numeric(spec, "monte_carlo", 10 ** 6, 1)
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert left < 64 << 10, left


# (value, stderr) of selberg_numeric(..., "monte_carlo", budget, seed) for
# budget in (1, 129, 10^5 + 3, 10^6) and seed in (0, 7), in that order, as
# the loop that sums 2^14-row leaves in draw order, with the scale from
# beta_mass, computes them.  Each lies within 2e-15 (relative) of the value
# that summing along numpy's pairwise tree over 2^18-row chunks, with the
# scale as exp of lgamma sums, gave.
_MC_BUDGETS, _MC_SEEDS = (1, 129, 10 ** 5 + 3, 10 ** 6), (0, 7)
_MC_PINNED = {
    (2, 1, 0, 0): [
        (0.367174973557584, 0.0),
        (0.2721183343649085, 0.0),
        (0.3816066068189221, 0.021821609244564635),
        (0.34489887350369797, 0.019892938734109897),
        (0.33218684528392833, 0.0007454718509169021),
        (0.33243971652890536, 0.0007439236959966821),
        (0.3332405856746726, 0.00023584820423039405),
        (0.3329906134117171, 0.00023559180567335304),
    ],
    (2, 2, 0, 0): [
        (0.13481746120701252, 0.0),
        (0.07404838789753215, 0.0),
        (0.20705116164074988, 0.019103790991582995),
        (0.17000427542491728, 0.015861566933846258),
        (0.16592259541547727, 0.0006230259658955744),
        (0.16586007193975175, 0.0006221022935577353),
        (0.16667366337950046, 0.00019726604339376664),
        (0.16638624752074258, 0.00019704119479406406),
    ],
    (3, 1, 0, 0): [
        (0.050071633800067565, 0.0),
        (0.004980022772093827, 0.0),
        (0.03589203580265768, 0.00334236879671821),
        (0.03574765068972754, 0.003547807802237335),
        (0.03347293622427772, 0.00012945069806790099),
        (0.0333764497466925, 0.00012865947486410793),
        (0.03336484005122999, 4.0853470198310094e-05),
        (0.033271368557832144, 4.074607021691995e-05),
    ],
    (2, 1, Fraction(1, 2), 0): [
        (0.14345731010939206, 0.0),
        (0.08851823403343648, 0.0),
        (0.14973381025804963, 0.009105984967732178),
        (0.13831552324978194, 0.00826055770875859),
        (0.13293757526607344, 0.00030529711021330295),
        (0.13289200189314623, 0.00030439984207247724),
        (0.13329427332803861, 9.656574785922945e-05),
        (0.1332102461752868, 9.647218075235748e-05),
    ],
    (2, 1, 1, 1): [
        (0.0055246168019848375, 0.0),
        (0.00441007298767622, 0.0),
        (0.005886851101726196, 0.0003819392067806259),
        (0.006976564473330752, 0.00043529169591525536),
        (0.007139314027074546, 1.616083581062017e-05),
        (0.007140685048764223, 1.6145665360226542e-05),
        (0.007129689949639688, 5.110842624536604e-06),
        (0.007137096143307861, 5.114183158913247e-06),
    ],
    (1, 0, 0, 0): [
        (1.0, 0.0),
        (1.0, 0.0),
        (1.0, 0.0),
        (1.0, 0.0),
        (1.0, 0.0),
        (1.0, 0.0),
        (1.0, 0.0),
        (1.0, 0.0),
    ],
}


@pytest.mark.parametrize("shape", list(_MC_PINNED))
def test_monte_carlo_outputs_are_pinned(shape):
    spec = SelbergSpec(*shape)
    got = [(est.value, est.stderr) for est in (
        selberg_numeric(spec, "monte_carlo", budget, seed)
        for budget in _MC_BUDGETS for seed in _MC_SEEDS)]
    assert got == _MC_PINNED[shape]
