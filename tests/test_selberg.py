import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamma_reference import gamma_factorial
from wehrl_lab.degrees import scalar_formal_degree
from wehrl_lab.domains import PRESETS, DomainParams, NotAdmissible
from wehrl_lab import selberg as sb
from wehrl_lab.selberg import (FloatRangeExceeded, MethodUnsupported,
                               NonIntegrable, SelbergSpec,
                               _gauss_jacobi_tensor, laguerre_constant_C,
                               ordered_sector_quadrature, selberg_closed,
                               selberg_closed_hp, selberg_numeric,
                               verify_degree_integral)
from wehrl_lab.exactnum import PiScaledRational


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
    for spec in (SelbergSpec(2, 1, 0, 0), SelbergSpec(2, 3, 0, Fraction(1, 2)),
                 SelbergSpec(3, 1, 0, 2)):
        got = ordered_sector_quadrature(spec, 90)
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


def _rel_miss(value, spec):
    exact = float(selberg_closed_hp(spec, 40))
    return abs(value - exact) / exact


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 8), st.integers(0, 4),
       st.fractions(-1, 6, max_denominator=12).filter(lambda g: g > -1))
def test_degree_sized_rules_are_exact(r, a, b, g):
    spec = SelbergSpec(r, a, b, g)
    sector = ordered_sector_quadrature(spec, _sector_nodes(r, a, b))
    assert _rel_miss(sector, spec) < 1e-12
    if a % 2 == 0:
        tensor = _gauss_jacobi_tensor(spec, _tensor_nodes(r, a))
        assert _rel_miss(tensor, spec) < 1e-12


@pytest.mark.parametrize("rule, nodes, case", [
    (_gauss_jacobi_tensor, _tensor_nodes(3, 8), (3, 8, 0, Fraction(1, 2))),
    (_gauss_jacobi_tensor, _tensor_nodes(2, 6), (2, 6, 4, 0)),
    (_gauss_jacobi_tensor, _tensor_nodes(3, 4), (3, 4, 2, Fraction(5, 2))),
    (ordered_sector_quadrature, _sector_nodes(3, 1, 0),
     (3, 1, 0, Fraction(1, 3))),
    (ordered_sector_quadrature, _sector_nodes(2, 3, 0),
     (2, 3, 0, Fraction(-1, 2))),
    (ordered_sector_quadrature, _sector_nodes(4, 1, 0),
     (4, 1, 0, Fraction(1, 2))),
])
def test_degree_sized_rules_are_tight(rule, nodes, case):
    # One node fewer than the degree count must miss: an off-by-one in
    # either degree formula fails here.
    spec = SelbergSpec(*case)
    assert _rel_miss(rule(spec, nodes), spec) < 1e-12
    assert _rel_miss(rule(spec, nodes - 1), spec) > 1e-9


@pytest.mark.parametrize("r, a", [(2, 169), (3, 61)])
def test_verify_degree_integral_beyond_float_range_raises_typed(r, a):
    d = DomainParams("custom", r, a, 0)
    lam = d.p + Fraction(1, 2)
    with pytest.raises(FloatRangeExceeded) as err:
        verify_degree_integral(d, lam)
    assert isinstance(err.value, ValueError)
    msg = str(err.value)
    assert f"({r}, {a}, 0)" in msg and f"lambda = {lam}" in msg
    assert "float limit 1.8e308" in msg


def test_verify_degree_integral_node_counts():
    # Nodes per axis of the larger rule: the degree count plus 8 (tensor)
    # or 12 (sector), whatever the budget above the count.
    table = {"disc": 9, "SU(2,2)": 10, "Sp(2,R)": 13, "Sp(3,R)": 14,
             "SO(2,5)": 14, "SO*(8)": 11, "E6": 12, "E7": 17}
    for name, nodes in table.items():
        d = PRESETS[name]
        rep = verify_degree_integral(d, d.p + Fraction(1, 2), budget=160)
        assert rep["samples_or_nodes"] == nodes, name
        assert rep["deviation"] < 1e-12, name


def test_budget_below_one_is_rejected():
    for method, spec in (("monte_carlo", SelbergSpec(2, 1, 0, 0)),
                         ("gauss_jacobi", SelbergSpec(2, 2, 0, 0))):
        with pytest.raises(ValueError, match="budget=0"):
            selberg_numeric(spec, method, 0)


def test_grid_over_the_limit_raises_before_allocating(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated")
    monkeypatch.setattr(sb.np, "meshgrid", no_grid)
    d = DomainParams("custom", 6, 1, 0)
    with pytest.raises(MethodUnsupported,
                       match=r"r=6 with 20 nodes .* limit of 2097152"):
        verify_degree_integral(d, d.p + Fraction(1, 2))
    with pytest.raises(MethodUnsupported, match=r"r=8 with 16 nodes"):
        selberg_numeric(SelbergSpec(8, 2, 0, 0), "gauss_jacobi", 100)
    with pytest.raises(MethodUnsupported, match=r"r=4 with 120 nodes"):
        ordered_sector_quadrature(SelbergSpec(4, 1, 0, 0))


def _monte_carlo_reference(spec, budget, seed):
    """The Monte Carlo chunk loop with fresh arrays: a new draw array, pair
    product and squares per chunk, and U ** 1.0 at c = 1, |s_i - s_j| ** 1.0
    at a = 1."""
    rng = np.random.default_rng(seed)
    bconst = math.exp(math.lgamma(float(spec.b) + 1.0)
                      + math.lgamma(float(spec.gamma) + 1.0)
                      - math.lgamma(float(spec.b) + float(spec.gamma) + 2.0))
    scale = bconst ** spec.r
    a = float(spec.a)
    total = total_sq = 0.0
    n_done = 0
    while n_done < budget:
        n = min(1 << 18, budget - n_done)
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
    # path; one chunk, a full chunk, a chunk plus one sample, and a budget
    # whose last chunk is short.
    spec = SelbergSpec(*shape)
    for budget in (1, 1 << 18, (1 << 18) + 1, 300_001):
        for seed in (1, 7):
            est = selberg_numeric(spec, "monte_carlo", budget, seed)
            assert (est.value, est.stderr) \
                == _monte_carlo_reference(spec, budget, seed), (budget, seed)


def test_monte_carlo_keeps_the_chunk_sums_at_the_suite_budget():
    # At 10^6 samples a chunk of 2^17 in place of 2^18 groups the sums
    # differently and moves (2, 2, 0, 0) and (2, 1/2, 0, 0) in the last bits.
    for shape in ((2, 1, 0, 0), (2, 2, 0, 0), (2, Fraction(1, 2), 0, 0)):
        spec = SelbergSpec(*shape)
        for seed in (1, 7):
            est = selberg_numeric(spec, "monte_carlo", 10 ** 6, seed)
            assert (est.value, est.stderr) \
                == _monte_carlo_reference(spec, 10 ** 6, seed), (shape, seed)
