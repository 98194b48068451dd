import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from test_disc import _cmul
from wehrl_lab.disc import PolyFun, norm2_exact
from wehrl_lab.exactnum import PiScaledRational, QC, pochhammer

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20)


def test_pochhammer_basics():
    assert pochhammer(3, 0) == 1
    assert pochhammer(2, 3) == Fraction(24)
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        pochhammer(1, -1)


@given(rationals, st.integers(min_value=0, max_value=8))
def test_pochhammer_recurrence(x, k):
    assert pochhammer(x, k + 1) == pochhammer(x, k) * (x + k)


def _running_product(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out = out * (x + i)
    return out


@given(rationals, st.integers(min_value=0, max_value=40))
def test_pochhammer_matches_running_fraction_product(x, k):
    got = pochhammer(x, k)
    assert isinstance(got, Fraction) and got == _running_product(x, k)


def test_pochhammer_zero_crossings_and_negative_arguments():
    # At an integer x <= 0 the product reaches the factor 0 once k > -x.
    assert pochhammer(-3, 3) == -6 and pochhammer(-3, 4) == 0
    assert pochhammer(-3, 5) == 0 and pochhammer(0, 1) == 0
    assert pochhammer(0, 0) == 1
    assert pochhammer(-50, 40) == _running_product(Fraction(-50), 40) != 0
    assert pochhammer(-50, 51) == 0
    # (-7/2)_6 = (-7/2)(-5/2)(-3/2)(-1/2)(1/2)(3/2)
    assert pochhammer(Fraction(-7, 2), 6) == Fraction(315, 64)
    for x in (Fraction(-7, 2), Fraction(-49, 3), Fraction(50),
              Fraction(-1, 20)):
        for k in range(41):
            assert pochhammer(x, k) == _running_product(x, k), (x, k)


def test_pi_scaled_arithmetic():
    a = PiScaledRational(Fraction(3), -1)
    b = PiScaledRational(Fraction(1, 2), 2)
    assert a * b == PiScaledRational(Fraction(3, 2), 1)
    assert (a / b) == PiScaledRational(Fraction(6), -3)
    assert a ** 2 == PiScaledRational(Fraction(9), -2)
    assert a + a == PiScaledRational(Fraction(6), -1)
    with pytest.raises(ValueError):
        a + b
    assert float(a) == pytest.approx(3 / math.pi)


def test_pi_scaled_zero_and_rational():
    z = PiScaledRational(Fraction(0), 5)
    assert z == PiScaledRational(Fraction(0), -2)
    assert (z + PiScaledRational(Fraction(2), 1)).coeff == 2
    assert PiScaledRational(Fraction(7)).as_rational() == 7
    with pytest.raises(ValueError):
        PiScaledRational(Fraction(1), 1).as_rational()


def test_pi_scaled_json_roundtrip_fields():
    v = PiScaledRational(Fraction(-15, 4), -3)
    j = v.to_json()
    assert (j["num"], j["den"], j["pi_power"]) == ("-15", "4", -3)
    assert j["float"] == pytest.approx(float(v))


@given(rationals, rationals, rationals, rationals)
def test_qc_field_axioms(a, b, c, d):
    # QC is a value pair; its arithmetic runs on the disc's lanes, so the
    # field axioms are checked on degree-0 polynomials.
    x, y = PolyFun(2, (QC(a, b),)), PolyFun(2, (QC(c, d),))
    xy = (x * y).coeffs[0]
    assert (xy.re, xy.im) == _cmul((a, b), (c, d))
    conj = (PolyFun(2, (QC(a, -b),)) * PolyFun(2, (QC(c, -d),))).coeffs[0]
    assert conj == QC(xy.re, -xy.im)
    assert ((x + y) + y.scale(-1)).coeffs == x.coeffs
    assert norm2_exact(x * y) == norm2_exact(x) * norm2_exact(y) \
        == (a * a + b * b) * (c * c + d * d)


def test_qc_complex_rendition():
    x = QC(Fraction(1, 2), Fraction(-3))
    assert complex(x) == 0.5 - 3j
    assert QC.of(x) is x and QC.of(2) == QC(Fraction(2))
    assert not x.is_zero() and QC(Fraction(0)).is_zero()
    with pytest.raises(TypeError):
        QC.of(1.5j)
