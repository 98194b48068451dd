import csv
import io
import math
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from gamma_reference import gamma_factorial
from wehrl_lab import degrees as dg
from wehrl_lab.degrees import (ROOT_SYSTEM_PRESETS, GammaPole, NonTelescoping,
                               c_G, gamma_ratio_product,
                               hc_degree_root_product, hc_degree_scalar,
                               partial_isometry_constant, scalar_formal_degree,
                               wehrl_constant)
from wehrl_lab.domains import PRESETS, DomainParams, NotAdmissible, get_domain
from wehrl_lab.exactnum import PiScaledRational
from wehrl_lab.suite import emit_constants_table


def test_gamma_ratio_integer_shift():
    # Gamma(7)/Gamma(4) = 4*5*6
    assert gamma_ratio_product([7], [4]) == 120
    assert gamma_ratio_product([4], [7]) == Fraction(1, 120)


def test_gamma_ratio_half_integer_pairs():
    # Gamma(7/2)/Gamma(3/2) = (3/2)(5/2)
    assert gamma_ratio_product([Fraction(7, 2)], [Fraction(3, 2)]) \
        == Fraction(15, 4)


def test_gamma_ratio_mixed_groups():
    val = gamma_ratio_product([5, Fraction(9, 2)], [3, Fraction(5, 2)])
    assert val == 12 * Fraction(5, 2) * Fraction(7, 2)


def test_gamma_ratio_nonmatching_raises():
    with pytest.raises(NonTelescoping):
        gamma_ratio_product([Fraction(1, 3)], [1])


@given(st.fractions(min_value=Fraction(1), max_value=Fraction(30),
                    max_denominator=6),
       st.integers(min_value=0, max_value=10))
def test_gamma_ratio_is_pochhammer(y, k):
    from wehrl_lab.exactnum import pochhammer
    assert gamma_ratio_product([y + k], [y]) == pochhammer(y, k)


def test_gamma_ratio_unpaired_integers_are_factorials():
    # Gamma(5) Gamma(1/2) / (Gamma(3) Gamma(4) Gamma(5/2)) = 24 / (2 * 6 * 3/4)
    assert gamma_ratio_product([5, Fraction(1, 2)],
                               [3, 4, Fraction(5, 2)]) == Fraction(8, 3)
    assert gamma_ratio_product([4, 6], [2]) == 6 * 120
    assert gamma_ratio_product([], [1, 1, 7]) == Fraction(1, 720)


def test_gamma_ratio_unpaired_pole_raises():
    with pytest.raises(GammaPole, match=r"Gamma\(0\)"):
        gamma_ratio_product([3, 0], [2])
    with pytest.raises(GammaPole, match=r"Gamma\(-2\)"):
        gamma_ratio_product([Fraction(1, 2)], [Fraction(3, 2), -2])
    # A pole inside a paired group raises too, before any pairing.
    for nums, dens in (([-1], [1]), ([0], [2]), ([1], [0])):
        with pytest.raises(GammaPole):
            gamma_ratio_product(nums, dens)
    # An unpaired non-integer argument still does not telescope.
    with pytest.raises(NonTelescoping):
        gamma_ratio_product([Fraction(1, 2), 3], [2])


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


@st.composite
def _gamma_lists(draw):
    """Paired groups of non-integer arguments, negative ones included, plus
    unpaired positive integers on either side."""
    nums, dens = [], []
    for _ in range(draw(st.integers(0, 4))):
        f = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3),
                                  Fraction(2, 3), Fraction(1, 4),
                                  Fraction(5, 6)]))
        nums.append(f + draw(st.integers(-5, 8)))
        dens.append(f + draw(st.integers(-5, 8)))
    nums += draw(st.lists(st.integers(1, 15), max_size=4))
    dens += draw(st.lists(st.integers(1, 15), max_size=4))
    return nums, dens


@given(_gamma_lists())
def test_gamma_ratio_matches_mpmath_gammaprod(lists):
    nums, dens = lists
    got = gamma_ratio_product(nums, dens)
    with mpmath.workdps(40):
        want = mpmath.gammaprod([_mp(Fraction(x)) for x in nums],
                                [_mp(Fraction(y)) for y in dens])
        assert abs(_mp(got) - want) <= mpmath.mpf(10) ** -35 * abs(want)


def _degree_reference(d, lam) -> tuple[Fraction, int]:
    """d_lambda = q pi^e from the Gamma product of the formal degree."""
    q, half = Fraction(1), 0
    for j in range(d.r):
        x = lam - Fraction(d.a * j, 2)
        for arg, sign in ((x, 1), (x - Fraction(d.N, d.r), -1)):
            g, h = gamma_factorial(arg)
            q, half = q * g ** sign, half + sign * h
    assert half % 2 == 0
    return q, half // 2 - d.N


def _c_G_reference(name, d) -> Fraction:
    """c_G's coefficient in factorial form; its pi power is -N."""
    f = math.factorial
    if name.startswith("Sp("):
        return Fraction(math.prod(Fraction(f(2 * i + 1), f(i + 1))
                                  for i in range(1, d.r)) * f(d.r),
                        2 ** (d.r * (d.r - 1) // 2))
    if name.startswith("SO(2,") and d.a % 2:
        return Fraction(d.a + 2, 2) * f(d.a + 1)
    return math.prod(Fraction(f(d.a * j // 2 + d.N // d.r), f(d.a * j // 2))
                     for j in range(d.r))


def _check_table_row(row, name, d):
    lam, n = Fraction(row["lambda"]), int(row["n"])
    q, e = _degree_reference(d, lam)
    qn, en = _degree_reference(d, n * lam)
    cg = _c_G_reference(name, d)
    assert (Fraction(row["d_lambda_coeff"]),
            int(row["d_lambda_pi_power"])) == (q, e), row
    assert (Fraction(row["c_G_coeff"]), int(row["c_G_pi_power"])) \
        == (cg, -d.N), row
    assert Fraction(row["d_H"]) == q / cg, row
    assert (Fraction(row["wehrl_coeff"]), int(row["wehrl_pi_power"])) \
        == (q ** n / qn, n * e - en), row
    # The float columns are float(coeff) * pi^power of the same reference.
    for col, coeff, power in (("d_lambda_float", q, e), ("c_G_float", cg, -d.N),
                              ("wehrl_float", q ** n / qn, n * e - en)):
        assert float(row[col]) == float(coeff) * math.pi ** power, (col, row)


def test_constants_table_exact_columns_match_factorial_reference():
    # The grid lies below p - 1 for E6 and E7, so every preset also gets
    # lambda = p and p + 1/2.
    for name, d in PRESETS.items():
        lams = [Fraction(k, 2) for k in range(2, 22)]
        lams += [Fraction(d.p), d.p + Fraction(1, 2)]
        rows = list(csv.DictReader(io.StringIO(
            emit_constants_table([name], lams, [2, 3]))))
        assert rows, name
        # One row per admissible (lambda, n), in grid order.
        assert [(Fraction(row["lambda"]), int(row["n"])) for row in rows] \
            == [(lam, n) for lam in lams for n in (2, 3)
                if lam > d.p - 1 and n * lam > d.p - 1], name
        for row in rows:
            _check_table_row(row, name, d)
    # Several domains give their rows one domain after another.
    lams = [Fraction(k, 2) for k in range(2, 22)]
    both = list(csv.DictReader(io.StringIO(
        emit_constants_table(["Sp(2,R)", "disc"], lams, [3, 2]))))
    assert both == [row for name in ("Sp(2,R)", "disc")
                    for row in csv.DictReader(io.StringIO(
                        emit_constants_table([name], lams, [3, 2])))]
    assert [r["n"] for r in both[:2]] == ["3", "2"]


def test_formal_degree_disc():
    d = PRESETS["disc"]
    # d_lambda = (lambda - 1)/pi on the disc
    for lam in (2, 3, Fraction(7, 2), 10):
        assert scalar_formal_degree(d, lam) \
            == PiScaledRational(Fraction(lam) - 1, -1)


def test_formal_degree_sp2():
    got = scalar_formal_degree(PRESETS["Sp(2,R)"], 4)
    # (l-1)(l-2)(l-3/2) at l=4 gives 3*2*5/2 = 15
    assert got == PiScaledRational(Fraction(15), -3)


def test_formal_degree_su21():
    # r=1, a=2, b=1: d = (l-1)(l-2)/pi^2
    assert scalar_formal_degree(PRESETS["SU(2,1)"], 5) \
        == PiScaledRational(Fraction(12), -2)


def test_formal_degree_inadmissible():
    with pytest.raises(NotAdmissible):
        scalar_formal_degree(PRESETS["Sp(2,R)"], 2)


def test_c_G_sp2_equals_so23():
    assert c_G(PRESETS["Sp(2,R)"]) == c_G(PRESETS["SO(2,3)"]) \
        == PiScaledRational(Fraction(3), -3)


def test_c_G_statement_variant_differs_by_power_of_two():
    d = PRESETS["Sp(3,R)"]
    ratio = c_G(d, sp_statement_formula=True) / c_G(d)
    assert ratio == PiScaledRational(Fraction(8), 0)


def test_c_G_even_case():
    assert c_G(PRESETS["SU(2,1)"]) == PiScaledRational(Fraction(2), -2)
    assert c_G(PRESETS["disc"]) == PiScaledRational(Fraction(1), -1)


def test_c_G_custom_parameters_dispatch():
    assert c_G(get_domain("2,1,0")) == c_G(PRESETS["Sp(2,R)"])
    assert c_G(get_domain("2,3,0")) == c_G(PRESETS["SO(2,5)"])


def test_hc_degree_cross_check_root_products():
    cases = [("A1", "disc"), ("A2", "SU(2,1)"), ("C2", "Sp(2,R)")]
    for rs_name, dom_name in cases:
        d = PRESETS[dom_name]
        for lam in (Fraction(d.p), Fraction(2 * d.p + 1, 2), Fraction(d.p + 4)):
            assert hc_degree_root_product(ROOT_SYSTEM_PRESETS[rs_name], lam) \
                == hc_degree_scalar(d, lam), (rs_name, lam)


def test_strongly_orthogonal_counts_match_rank():
    for name in ("A1", "A2", "C2"):
        rs = ROOT_SYSTEM_PRESETS[name]
        assert sum(so for _, _, so in rs.positive_roots) == rs.rank, name


def test_wehrl_constant_disc():
    assert wehrl_constant(PRESETS["disc"], 2, 2) \
        == PiScaledRational(Fraction(1, 3), -1)
    assert wehrl_constant(PRESETS["disc"], 2, 3) \
        == PiScaledRational(Fraction(1, 5), -2)


def test_wehrl_constant_internal_consistency_higher_rank():
    # d_lambda^n / d_{n lambda} through the Harish-Chandra normalization:
    # c_G^{n-1} (d^H_lambda)^n / d^H_{n lambda}.
    for name in ("Sp(2,R)", "SU(2,1)", "SO(2,5)", "SU(2,2)"):
        d = PRESETS[name]
        lam = Fraction(d.p + 1)
        via_hc = c_G(d) * PiScaledRational(
            hc_degree_scalar(d, lam) ** 2 / hc_degree_scalar(d, 2 * lam))
        assert wehrl_constant(d, lam, 2) == via_hc, name


def test_partial_isometry_constant_disc():
    assert partial_isometry_constant(PRESETS["disc"], 2, 3) \
        == PiScaledRational(Fraction(1, 2), -1)
    # symmetric in the two weights
    assert partial_isometry_constant(PRESETS["disc"], 3, 2) \
        == partial_isometry_constant(PRESETS["disc"], 2, 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 4),
       st.integers(1, 6), st.integers(1, 60))
def test_formal_degree_equals_the_fraction_argument_route(r, a, b, den, k):
    # scalar_formal_degree builds integer numerators over one denominator;
    # the reference passes each Gamma argument as a Fraction.
    d = DomainParams("custom", r, a, b)
    lam = d.p - 1 + Fraction(k, den)
    nums = [lam - Fraction(a * j, 2) for j in range(r)]
    dens = [x - Fraction(d.N, r) for x in nums]
    try:
        want = PiScaledRational(gamma_ratio_product(nums, dens), -d.N)
    except NonTelescoping as exc:
        with pytest.raises(NonTelescoping) as got:
            scalar_formal_degree(d, lam)
        assert str(got.value) == str(exc)
    else:
        got = scalar_formal_degree(d, lam)
        assert (got.coeff, got.pi_power) == (want.coeff, want.pi_power)


# The lambda grid of the CI table step, over every preset at n = 2, 3.
_CI_LAMBDAS = [Fraction(x) for x in (
    "1,3/2,2,5/2,3,7/2,4,9/2,5,11/2,6,13/2,7,15/2,8,17/2,9,19/2,10,21/2,"
    "12,18,20").split(",")]


def test_constants_table_computes_each_degree_once_per_domain(monkeypatch):
    calls = Counter()
    degree = dg.scalar_formal_degree

    def counted(d, lam):
        calls[d, Fraction(lam)] += 1
        return degree(d, lam)

    monkeypatch.setattr(dg, "scalar_formal_degree", counted)
    emit_constants_table(list(PRESETS), _CI_LAMBDAS, [2, 3])
    admissible = [(d, lam) for d in PRESETS.values() for lam in _CI_LAMBDAS
                  if lam > d.p - 1]
    want = {(d, lam) for d, lam in admissible} | {
        (d, n * lam) for d, lam in admissible for n in (2, 3)
        if n * lam > d.p - 1}
    assert set(calls) == want
    assert set(calls.values()) == {1}


def test_constants_table_wehrl_columns_are_wehrl_constant():
    for name, d in PRESETS.items():
        rows = list(csv.DictReader(io.StringIO(
            emit_constants_table([name], _CI_LAMBDAS, [1, 2, 3, 4, 7]))))
        assert rows, name
        for row in rows:
            w = wehrl_constant(d, Fraction(row["lambda"]), int(row["n"]))
            assert (row["wehrl_coeff"], row["wehrl_pi_power"],
                    row["wehrl_float"]) \
                == (str(w.coeff), str(w.pi_power), str(float(w))), row
