import contextlib
import hashlib
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_disc import _cmul
from wehrl_lab.degrees import scalar_formal_degree
from wehrl_lab.disc import (KernelFun, PolyFun, completeness_check,
                            norm2_exact, ode_solve)
from wehrl_lab.domains import PRESETS
from wehrl_lab import compact, disc, exactnum, selberg as sb
from wehrl_lab.exactnum import (FloatRangeExceeded, PiScaledRational, QC,
                                _rule, gauss_jacobi, rising_ints)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20)


def _pochhammer(x, k: int) -> Fraction:
    """(x)_k read off rising_ints: its last entry over b^k at x = a/b."""
    x = Fraction(x)
    return Fraction(rising_ints(x.numerator, x.denominator, k)[-1],
                    x.denominator ** k)


def test_pochhammer_basics():
    assert rising_ints(3, 1, 0) == [1] and _pochhammer(3, 0) == 1
    assert rising_ints(2, 1, 3) == [1, 2, 6, 24]
    assert _pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert rising_ints(1, 2, 2) == [1, 1, 3]  # (1/2)_m 2^m


@given(rationals, st.integers(min_value=0, max_value=8))
def test_pochhammer_recurrence(x, k):
    a, b = x.numerator, x.denominator
    assert rising_ints(a, b, k + 1)[k + 1] == rising_ints(a, b, k)[k] \
        * (a + k * b)
    assert _pochhammer(x, k + 1) == _pochhammer(x, k) * (x + k)


def _running_product(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out = out * (x + i)
    return out


@given(rationals, st.integers(min_value=0, max_value=40))
def test_pochhammer_matches_running_fraction_product(x, k):
    got = rising_ints(x.numerator, x.denominator, k)
    assert all(isinstance(r, int) for r in got)
    assert got == [_running_product(x, m) * x.denominator ** m
                   for m in range(k + 1)]


def test_pochhammer_zero_crossings_and_negative_arguments():
    # At an integer x <= 0 the product reaches the factor 0 once k > -x.
    assert _pochhammer(-3, 3) == -6 and _pochhammer(-3, 4) == 0
    assert _pochhammer(-3, 5) == 0 and _pochhammer(0, 1) == 0
    assert _pochhammer(0, 0) == 1
    assert _pochhammer(-50, 40) == _running_product(Fraction(-50), 40) != 0
    assert _pochhammer(-50, 51) == 0
    assert rising_ints(-3, 1, 5) == [1, -3, 6, -6, 0, 0]
    # (-7/2)_6 = (-7/2)(-5/2)(-3/2)(-1/2)(1/2)(3/2)
    assert _pochhammer(Fraction(-7, 2), 6) == Fraction(315, 64)
    for x in (Fraction(-7, 2), Fraction(-49, 3), Fraction(50),
              Fraction(-1, 20)):
        for k in range(41):
            assert _pochhammer(x, k) == _running_product(x, k), (x, k)


def test_pi_scaled_arithmetic():
    a = PiScaledRational(Fraction(3), -1)
    b = PiScaledRational(Fraction(1, 2), 2)
    assert a * b == PiScaledRational(Fraction(3, 2), 1)
    assert (a / b) == PiScaledRational(Fraction(6), -3)
    assert a ** 2 == PiScaledRational(Fraction(9), -2)
    assert float(a) == pytest.approx(3 / math.pi)


def test_pi_scaled_zero_and_rational():
    z = PiScaledRational(Fraction(0), 5)
    assert z == PiScaledRational(Fraction(0), -2)
    assert hash(z) == hash(PiScaledRational(Fraction(0), -2)) == hash(0)
    assert PiScaledRational(Fraction(7)).as_rational() == 7
    with pytest.raises(ValueError):
        PiScaledRational(Fraction(1), 1).as_rational()
    assert PiScaledRational(Fraction(7)) != "7"  # no number: NotImplemented
    assert repr(PiScaledRational(Fraction(-15, 4), -3)) == "-15/4*pi^-3"
    assert repr(PiScaledRational(Fraction(7))) == "7"


@pytest.mark.parametrize("coeff, pi_power", [
    (Fraction(1, 10 ** 300), 700), (Fraction(10 ** 400), -400),
    (Fraction(-1, 10 ** 400), 300), (Fraction(7, 10 ** 20), 640),
    (Fraction(10 ** 320, 3), -40)])
def test_pi_scaled_float_in_range_with_a_factor_outside_it(coeff, pi_power):
    # pi^700 and 10^400 overflow a float and 10^-400 underflows it, but the
    # values, 1.01e48 down to -1.40e-251, lie in the float range.
    with mpmath.workdps(40):
        want = (mpmath.mpf(coeff.numerator) / coeff.denominator
                * mpmath.pi ** pi_power)
    assert float(PiScaledRational(coeff, pi_power)) == pytest.approx(
        float(want), rel=1e-13)
    assert float(PiScaledRational(Fraction(1, 10 ** 300), 700)) \
        == pytest.approx(1.0113719067206947e48, rel=1e-13)


def test_pi_scaled_float_keeps_values_within_the_range_bit_for_bit():
    for coeff, pi_power in ((Fraction(3, 7), 27), (Fraction(-2, 9), -54),
                            (Fraction(10 ** 200, 7), 100)):
        got = float(PiScaledRational(coeff, pi_power))
        assert got == float(coeff) * math.pi ** pi_power
    assert float(PiScaledRational(Fraction(0), 900)) == 0.0


@pytest.mark.parametrize("coeff, pi_power", [
    (Fraction(10 ** 300), 100), (Fraction(-1), 700),
    (Fraction(10 ** 400), 0)])
def test_pi_scaled_float_past_the_float_range_raises_typed(coeff, pi_power):
    with pytest.raises(FloatRangeExceeded, match="float limit 1.8e308"):
        float(PiScaledRational(coeff, pi_power))


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
    assert norm2_exact(x * y) == norm2_exact(x) * norm2_exact(y) \
        == (a * a + b * b) * (c * c + d * d)


def test_qc_complex_rendition():
    x = QC(Fraction(1, 2), Fraction(-3))
    assert complex(x) == 0.5 - 3j
    assert x != QC(0) and QC(Fraction(0)) == QC(0, 0)
    assert (repr(x), repr(QC(2, Fraction(1, 3)))) == ("(1/2-3j)", "(2+1/3j)")


def _mp(x) -> mpmath.mpf:
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _gauss_jacobi_reference(nodes, n: int, alpha, beta) -> tuple:
    """40-digit nodes and weights on [0, 1] of the n-point rule near the
    given float nodes: on x = 2s - 1, a Newton step on the monic Jacobi
    recurrence, then the Christoffel sum w = mu_0 / sum_{k<n} P_k^2 / h_k
    with h_k = ||P_k||^2 / mu_0 and mu_0 = B(alpha + 1, beta + 1)."""
    with mpmath.workdps(40):
        al, be = _mp(alpha), _mp(beta)
        ab = al + be
        a = [(be - al) / (ab + 2)] + [(be * be - al * al)
                                      / ((2 * k + ab) * (2 * k + ab + 2))
                                      for k in range(1, n)]
        c = [0, 4 * (1 + al) * (1 + be) / ((2 + ab) ** 2 * (3 + ab))] + [
            4 * k * (k + al) * (k + be) * (k + ab)
            / ((2 * k + ab) ** 2 * ((2 * k + ab) ** 2 - 1))
            for k in range(2, n)]
        h = [mpmath.mpf(1)]
        for k in range(1, n):
            h.append(h[-1] * c[k])
        xs, ws = [], []
        for s0 in nodes:
            x = 2 * mpmath.mpf(float(s0)) - 1
            for newton in (True, False):
                p0, p1, d0, d1 = mpmath.mpf(0), mpmath.mpf(1), 0, 0
                total = mpmath.mpf(1)
                for k in range(n):
                    p0, p1, d0, d1 = (p1, (x - a[k]) * p1 - c[k] * p0, d1,
                                      (x - a[k]) * d1 + p1 - c[k] * d0)
                    if k < n - 1:
                        total += p1 * p1 / h[k + 1]
                if newton:
                    x -= p1 / d1
            xs.append(float((1 + x) / 2))
            ws.append(float(mpmath.beta(al + 1, be + 1) / total))
        return np.array(xs), np.array(ws)


@pytest.mark.parametrize("beta", [0, Fraction(1, 2), Fraction(5, 2)])
@pytest.mark.parametrize("alpha", [0, Fraction(1, 2), 7, 100])
@pytest.mark.parametrize("n", [1, 2, 17, 32, 33, 101, 251])
def test_gauss_jacobi_matches_a_40_digit_reference(n, alpha, beta):
    s, w = gauss_jacobi(n, float(alpha), float(beta))
    assert np.all(np.diff(s) > 0) and 0 < s[0] and s[-1] < 1
    # Every node of the short rules; both ends and every tenth of the long.
    pick = sorted(set(range(0, n, max(1, n // 10)))
                  | {i % n for i in (0, 1, 2, -3, -2, -1)})
    ref_s, ref_w = _gauss_jacobi_reference(s[pick], n, alpha, beta)
    assert np.abs(s[pick] - ref_s).max() <= 2.3e-16
    assert np.abs(w[pick] / ref_w - 1).max() <= 1e-12
    # Exact up to degree 2n - 1: the moments of s^j are B(alpha + 1,
    # beta + 1 + j), by the Beta recurrence.
    with mpmath.workdps(40):
        al, be = _mp(alpha), _mp(beta)
        moment = mpmath.beta(al + 1, be + 1)
        for j in range(2 * n):
            got = math.fsum(w * s ** j)
            assert abs(got - float(moment)) <= 1e-12 * float(moment), j
            moment *= (be + 1 + j) / (al + be + 2 + j)


def test_gauss_jacobi_refuses_bad_sizes_and_weights():
    for n in (0, -2, 3.0, True, Fraction(3), None):
        with pytest.raises(ValueError, match=f"^n must be >= 1 and an int, "
                                             f"got n={re.escape(repr(n))}$"):
            gauss_jacobi(n, 0.0, 0.0)
    for args in ((3, -1.0, 0.0), (3, 0.0, -1.0), (3, -2.5, 0.5),
                 (5, math.nan, 0.0), (5, 0.0, math.inf),
                 (5, -math.inf, 0.0)):
        with pytest.raises(ValueError, match="needs alpha, beta > -1"):
            gauss_jacobi(*args)
    # True ran as alpha = 1 and np.False_ as beta = 0, and a str, complex
    # or None raised a bare TypeError, as did a one-element array; a
    # two-element one raised numpy's "truth value ... is ambiguous".  Each is
    # refused naming the argument.
    for bad in (True, False, np.True_, np.False_, "0.5", 1j, None,
                np.array([0.5]), np.array([0.5, 0.7])):
        for name, args in (("alpha", (2, bad, 0.0)), ("beta", (2, 0.0, bad))):
            with pytest.raises(ValueError, match=(
                    f"^Gauss-Jacobi needs alpha, beta > -1 finite; got "
                    f"{name}={re.escape(repr(bad))}$")):
                gauss_jacobi(*args)
    # A numpy integer is a size like any other, and every real weight is
    # its float: -0.0 stays apart from 0.0.
    for got, want in zip(gauss_jacobi(np.int64(3), 0.5, 0.0),
                         gauss_jacobi(3, 0.5, 0.0)):
        assert got.tobytes() == want.tobytes()
    for one in (1, np.int64(1), Fraction(1), np.float32(1.0), Decimal(1),
                np.array(1.0)):
        for got, want in zip(gauss_jacobi(2, one, -0.0),
                             gauss_jacobi(2, 1.0, -0.0)):
            assert got.tobytes() == want.tobytes()
    assert gauss_jacobi(3, -0.0, -0.0)[1].tobytes() != gauss_jacobi(
        3, 0.0, 0.0)[1].tobytes()


# (n, alpha, beta) of the Gauss rule tests below: rules whose weights fall
# below the float range, refusals and their neighbours, at 1 to 300 nodes
_ARRAY_CASES = [
    (1, 0.0, 0.0), (2, 0.5, 1.0), (31, 7.0, 0.5), (32, 1000.0, 1000.0),
    (33, 0.0, 2.5), (64, 100.0, 0.0), (300, 1000.0, 0.0),
    (1, -0.999999, 1e20), (2, -0.999999, 1e20), (2, 1e100, 0.0)]
_REFUSED_CASES = [
    (32, 1000.0, 1000.0, "mu_0 = 0.0"), (1, -0.999999, 1e20, "sum to 0.0"),
    (2, -0.999999, 1e20, "sum to 0.0"), (2, 1e100, 0.0, "overflows"),
    (3, 1e154, 1e154, "overflows"), (9, 1e12, -0.999999, "not mu_0"),
    (16, 1e15, -0.9999999, "not mu_0")]
_FLOAT_SIZES = [1, 2, 9, 17, 32]
_FLOAT_WEIGHTS = [
    (0.0, 0.0), (0.5, 1.0), (7.0, 0.5), (100.0, 68.0), (100.0, 69.0),
    (300.0, 1000.0), (30000.0, 100.0), (1000.0, 1000.0), (-0.999999, 1e20)]
_RULE_CASES = sorted({*_ARRAY_CASES, *(case[:3] for case in _REFUSED_CASES),
                      *((n, alpha, beta) for n in _FLOAT_SIZES
                        for alpha, beta in _FLOAT_WEIGHTS)})


def test_every_rule_is_read_only_or_refused_and_keeps_its_bytes():
    # With every warning an error, each case raises FloatRangeExceeded or
    # returns C-contiguous, read-only arrays.  The SHA-256 over the rules'
    # bytes and the refusals' text, in _RULE_CASES order, is the one taken
    # when the rules of up to 32 nodes still ran node by node on floats.
    digest, refused = hashlib.sha256(), 0
    exactnum._gauss_rule.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, alpha, beta in _RULE_CASES:
            try:
                s, w = gauss_jacobi(n, alpha, beta)
            except FloatRangeExceeded as exc:
                digest.update(str(exc).encode())
                refused += 1
            else:
                assert all(a.flags.c_contiguous and not a.flags.writeable
                           for a in (s, w))
                digest.update(s.tobytes() + w.tobytes())
    assert (len(_RULE_CASES), refused) == (53, 14)
    assert digest.hexdigest() == (
        "2831bdd779caedda2ea9c1779786b03f5f59f75f03779997f8e8d04bc82951dd")


def test_gauss_jacobi_weights_below_the_float_range_are_zero():
    # At alpha = 1000 and 300 nodes the last 16 weights fall below the
    # float range, where the recurrence overflows; the rule stays finite
    # and keeps its mass B(1001, 1) = 1/1001.
    s, w = gauss_jacobi(300, 1000.0, 0.0)
    assert np.all(np.isfinite(s)) and np.all(np.diff(s) > 0)
    assert np.all(w[:-16] > 0) and np.all(w[-16:] == 0)
    assert math.fsum(w) == pytest.approx(1 / 1001, rel=1e-11)


@pytest.mark.parametrize("n, alpha, beta, cause", _REFUSED_CASES)
def test_gauss_jacobi_beyond_the_float_range_raises_typed(n, alpha, beta,
                                                          cause):
    # mu_0 = B(1001, 1001) underflows; at beta = 1e20 the nodes round to
    # x = 1, where no weight survives; past alpha + beta = 1e77 the
    # recurrence's (2k + alpha + beta)^4 overflows (a bare OverflowError at
    # 1e154); at alpha ~ 1e12 and beta near -1 a node rounds to x = +-1 with
    # a nonzero Newton numerator, which divides by zero.  Each raises
    # without warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FloatRangeExceeded, match=cause):
            gauss_jacobi(n, alpha, beta)


@pytest.mark.parametrize("n", [4, 32, 33, 40])
def test_gauss_jacobi_takes_a_fraction_weight_at_every_size(n):
    # A Fraction runs as its float at every size.
    for got, want in zip(gauss_jacobi(n, Fraction(1, 2), Fraction(3)),
                         gauss_jacobi(n, 0.5, 3.0)):
        assert got.tobytes() == want.tobytes()


def _spied_rule(monkeypatch, n, alpha, beta):
    """The arguments and result of the one _rule pass behind a fresh
    gauss_jacobi(n, alpha, beta), which must return or raise
    FloatRangeExceeded without a warning; None if no pass ran."""
    seen = []

    def spy(*args):
        seen.append((args, _rule(*args)))
        return seen[-1][1]

    monkeypatch.setattr(exactnum, "_rule", spy)
    exactnum._gauss_rule.cache_clear()  # build, not read a kept rule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.suppress(FloatRangeExceeded):
            gauss_jacobi(n, alpha, beta)
    assert len(seen) <= 1
    return seen[0] if seen else None


@pytest.mark.parametrize("n, alpha, beta", _ARRAY_CASES)
def test_rule_is_bit_identical_node_by_node_and_on_the_array(
        monkeypatch, n, alpha, beta):
    # The one pass is elementwise: each node's (s, w) on the whole node
    # array is the pair _rule gives that node alone.  At (300, 1000, 0) the
    # recurrence overflows to inf and nan at the nodes nearest s = 1, whose
    # weights are lost, and no other node's.  At alpha = 1e100 the
    # recurrence would overflow: the rule is refused before any pass.
    spied = _spied_rule(monkeypatch, n, alpha, beta)
    if alpha == 1e100:
        assert spied is None
        return
    (x, *args), on_array = spied
    with np.errstate(all="ignore"):
        by_node = np.array([_rule(x[i:i + 1], *args) for i in range(n)])
    for got, want in zip(on_array, by_node[:, :, 0].T):
        assert got.tobytes() == want.tobytes()


def _float_pass(x: float, steps, alpha, beta, mu0):
    """_rule at one node on Python floats, the reference of its array
    pass; None where a float step divides by zero (x = +-1)."""
    with contextlib.suppress(ZeroDivisionError):
        p0, p1, total = 0.0, 1.0, 1.0
        for a, b0, b1 in steps:
            p0, p1 = p1, ((x - a) * p1 - b0 * p0) / b1
            total += p1 * p1
        dx = float(np.nan_to_num(-b1 * p1 * p0 / total))
        total *= 1 + dx * ((alpha + beta + 2) * x + alpha - beta) / (1 - x * x)
        return (1 + x + dx) / 2, mu0 / total
    return None


@pytest.mark.parametrize("alpha, beta", _FLOAT_WEIGHTS)
@pytest.mark.parametrize("n", _FLOAT_SIZES)
def test_float_path_matches_the_array_path(monkeypatch, n, alpha, beta):
    # The pass on the node array gives, at each node, the bits of the same
    # IEEE steps on Python floats, where no float step divides by zero.
    # At n = 32 (300, 1000) loses 4 weights and (30000, 100) one below the
    # float range; mu_0 = B(1001, 1001) underflows; at beta = 1e20 every
    # node rounds to x = 1, where a float divides by zero and the rule is
    # refused.
    (x, *args), on_array = _spied_rule(monkeypatch, n, alpha, beta)
    by_float = [_float_pass(t, *args) for t in x.tolist()]
    assert (None in by_float) == (beta == 1e20)
    for i, pair in enumerate(by_float):  # a lost weight read as 0
        if pair is not None:
            assert np.nan_to_num(pair).tobytes() == np.nan_to_num(
                [v[i] for v in on_array]).tobytes()


_uncached_rule = exactnum._gauss_rule.__wrapped__


def _built(n, alpha, beta) -> bytes:
    """The bytes of the rule gauss_jacobi keeps at (n, alpha, beta), built
    afresh by its uncached core."""
    return b"".join(a.tobytes() for a in _uncached_rule(
        n, float(alpha).hex(), float(beta).hex()))


def test_a_kept_rule_is_the_rule_built_whatever_came_before():
    # gauss_jacobi keeps its rules keyed on n and the bits of the floats:
    # -0.0 gives other nodes and weights than 0.0 at 77 of the sizes 1-79,
    # so neither may be served for the other, in either order.  A Fraction
    # and an int weight are their floats, a numpy int size is its int.
    sizes = (3, 17, 33, 40)
    assert all(_built(n, 0.0, 0.0) != _built(n, -0.0, -0.0) for n in sizes)
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        exactnum._gauss_rule.cache_clear()
        for n in sizes:
            for z in (first, second, first):
                s, w = gauss_jacobi(n, z, z)
                assert s.tobytes() + w.tobytes() == _built(n, z, z)
    rng = np.random.default_rng(52)
    calls = [(n, z, z) for n in sizes for z in (0.0, -0.0)] + [
        (9, Fraction(1, 2), 3), (9, 0.5, 3.0), (np.int64(9), 0.5, 3.0),
        (np.int64(33), -0.0, Fraction(1, 2)), (33, 0.0, 0.5)] + [
        (int(rng.integers(1, 80)), *map(float, rng.uniform(-1, 20, 2)))
        for _ in range(40)]
    for _ in range(2):  # two shuffled orders, each run through twice
        exactnum._gauss_rule.cache_clear()
        order = rng.permutation(len(calls))
        for n, alpha, beta in (calls[i] for i in (*order, *order)):
            s, w = gauss_jacobi(n, alpha, beta)
            assert s.tobytes() + w.tobytes() == _built(n, alpha, beta)
    assert exactnum._gauss_rule.cache_info().hits >= len(calls)


def test_a_kept_rule_cannot_be_written():
    # Every caller gets the same two arrays, so none may write to them.
    s, w = gauss_jacobi(5, 0.5, 1.0)
    assert all(a is b for a, b in zip(gauss_jacobi(5, 0.5, 1.0), (s, w)))
    for a in (s, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2


def test_gauss_jacobi_keeps_no_refusal():
    # A refusal raises on every call: the out-of-range rule is built again
    # each time, and the gate refuses alpha = -1 before any rule.
    exactnum._gauss_rule.cache_clear()
    for _ in range(3):
        with pytest.raises(FloatRangeExceeded, match="mu_0 = 0.0"):
            gauss_jacobi(32, 1000.0, 1000.0)
        with pytest.raises(ValueError, match="needs alpha, beta > -1"):
            gauss_jacobi(4, -1.0, 0.0)
    info = exactnum._gauss_rule.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 3)


def test_gauss_jacobi_keeps_at_most_128_rules():
    exactnum._gauss_rule.cache_clear()
    for k in range(129):  # 129 distinct rules
        gauss_jacobi(k % 5 + 1, float(k), 0.0)
    info = exactnum._gauss_rule.cache_info()
    assert info.maxsize == 128 and info.currsize <= 128
    assert info.misses == 129


@pytest.mark.parametrize("name, call", [
    ("disc quadrature", lambda: disc.matrix_coeff_lp(
        PolyFun(Fraction(5, 2), (1, 0.5j, -0.25)), 3)),
    ("Haar oracle", lambda: compact.wehrl_integral_numeric(
        [0.6, 0.8j, 0.0], 2, 3)),
    ("haar_moment", lambda: compact.haar_moment(3, 2)),
    *((f"tensor rule r={r}", lambda r=r: sb.selberg_numeric(
        sb.SelbergSpec(r, 2, 1, Fraction(1, 2)), "gauss_jacobi", 100))
      for r in (1, 2, 3)),
    *((f"sector rule r={r}", lambda r=r: sb._exact_rule(
        sb._sector_sum, sb._sector_plan,
        sb.SelbergSpec(r, 1, 1, Fraction(1, 3)), 100, "ordered_quadrature"))
      for r in (1, 2, 3))])
def test_every_caller_runs_on_kept_read_only_rules(monkeypatch, name, call):
    # Each caller reads its rules without writing to them, warns nowhere,
    # and gives the same result on the rules it built (cold) and on the
    # kept ones (warm), which are still the rules built afresh.
    kept, handed = exactnum._gauss_rule, []

    def spy(*key):
        handed.append((key, rule := kept(*key)))
        return rule

    monkeypatch.setattr(exactnum, "_gauss_rule", spy)
    kept.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cold, warm = call(), call()
    assert cold == warm
    info = kept.cache_info()
    assert handed and info.hits == info.misses == len(handed) // 2
    for key, (s, w) in handed:
        assert not (s.flags.writeable or w.flags.writeable)
        assert s.tobytes() + w.tobytes() == _built(
            key[0], *map(float.fromhex, key[1:]))


def test_the_one_axis_tensor_rule_passes_on_the_kept_weights():
    # At r = 1 the product of the axes' weights is a view of the one kept
    # array, read-only as it is.
    x, w = sb._tensor_rule(4, [(0.5, 1.0)])
    assert w.base is gauss_jacobi(4, 0.5, 1.0)[1] and not w.flags.writeable


def test_mu0_is_the_beta_function_to_a_few_eps_past_gamma_overflow():
    # Past alpha + beta = 169, where Gamma(alpha + beta + 2) overflows, the
    # one-node weight mu_0 = B(alpha + 1, beta + 1) stays within 8 eps of
    # 40 digits (exp of an lgamma sum was off by up to 5032 eps).
    rng = np.random.default_rng(22)
    pairs = [(300.0, 300.0), (-0.999999, 300.0), (300.0, -0.5),
             (169.0, 0.0), (84.5, 84.5), (240.0, 290.0)]
    while len(pairs) < 400:
        alpha, beta = rng.uniform(-1, 300, 2)
        if alpha + beta >= 169 and min(alpha, beta) > -1:
            pairs.append((float(alpha), float(beta)))
    for alpha, beta in pairs:
        w = gauss_jacobi(1, alpha, beta)[1][0]
        with mpmath.workdps(40):
            ref = mpmath.beta(_mp(alpha) + 1, _mp(beta) + 1)
            assert abs(w / ref - 1) <= 8 * 2.0 ** -52, (alpha, beta)


def _count_entry_points():
    from wehrl_lab import compact, degrees, disc, domains, selberg, suite
    f, disc_domain = PolyFun(2, (1, 1)), domains.PRESETS["disc"]
    return {
        "maximize_wehrl": lambda x: disc.maximize_wehrl(2, 2, x),
        "maximize_wehrl.seed": lambda x: disc.maximize_wehrl(2, 2, 8, x),
        "wehrl_check": lambda x: disc.wehrl_check(f, x),
        "improved_check": lambda x: disc.improved_check(f, x),
        "q1_iterated": lambda x: disc.q1_iterated(f, x),
        "PolyFun.power": lambda x: f.power(x),
        "KernelFun.to_polyfun": lambda x: disc.KernelFun(
            2, Fraction(1, 2), x).to_polyfun(),
        "ode_solve": lambda x: disc.ode_solve(2, Fraction(1, 2), x),
        "wehrl_compact_check.n": lambda x: compact.wehrl_compact_check(
            [1.0, 0.0, 0.0], 2, x),
        "wehrl_compact_check.m": lambda x: compact.wehrl_compact_check(
            [1.0, 0.0, 0.0], x, 2),
        "translate_vector": lambda x: compact.translate_vector(
            x, 0.1, 0.2, 0.3),
        "SelbergSpec": lambda x: selberg.SelbergSpec(x, 1, 0, 0),
        "selberg_numeric": lambda x: selberg.selberg_numeric(
            selberg.SelbergSpec(2, 2, 0, 0), "gauss_jacobi", x),
        "verify_degree_integral": lambda x: selberg.verify_degree_integral(
            disc_domain, 3, x),
        "selberg_closed_hp": lambda x: selberg.selberg_closed_hp(
            selberg.SelbergSpec(2, 1, Fraction(1, 3), 0), x),
        "ProjectionSpec": lambda x: disc.ProjectionSpec(2, 2, x),
        "matrix_coeff_lp": lambda x: disc.matrix_coeff_lp(f, x),
        "norm_p_numeric": lambda x: disc.norm_p_numeric(f, x),
        "wehrl_integral_numeric.n": lambda x: compact.wehrl_integral_numeric(
            [1.0, 0.0, 0.0, 0.0], 3, x),
        "wehrl_integral_numeric.m": lambda x: compact.wehrl_integral_numeric(
            [1.0, 0.0, 0.0], x, 2),
        "translate_fit_distance": lambda x: compact.translate_fit_distance(
            [1.0, 0.0], x),
        "reduction_consistency.n": lambda x: compact.reduction_consistency(
            [1.0, 0.0, 0.0], 2, x),
        "reduction_consistency.m": lambda x: compact.reduction_consistency(
            [1.0, 0.0, 0.0], x, 2),
        "haar_moment.p": lambda x: compact.haar_moment(x, 0),
        "haar_moment.q": lambda x: compact.haar_moment(0, x),
        "random_unit_vector": lambda x: compact.random_unit_vector(
            x, np.random.default_rng(0)),
        "wehrl_constant": lambda x: degrees.wehrl_constant(disc_domain, 2, x),
        "DomainParams.r": lambda x: domains.DomainParams("custom", x, 0, 0),
        "DomainParams.a": lambda x: domains.DomainParams("custom", 2, x, 0),
        "DomainParams.b": lambda x: domains.DomainParams("custom", 1, 0, x),
        "su_pq.p": lambda x: domains.su_pq(x, 1),
        "su_pq.q": lambda x: domains.su_pq(2, x),
        "sp_r": lambda x: domains.sp_r(x),
        "so_2n": lambda x: domains.so_2n(x),
        "so_star": lambda x: domains.so_star(x),
        "gauss_jacobi": lambda x: exactnum.gauss_jacobi(x, 0.0, 0.0),
        "PiScaledRational": lambda x: PiScaledRational(Fraction(2), x),
        "emit_constants_table": lambda x: suite.emit_constants_table(
            ["disc"], [2], [2, x]),
    }


@pytest.mark.parametrize("entry, name, least, good", [
    ("maximize_wehrl", "degree", 4, 8), ("maximize_wehrl.seed", "seed", 0, 1),
    ("wehrl_check", "n", 1, 2),
    ("improved_check", "n", 2, 2), ("q1_iterated", "n", 2, 2),
    ("PolyFun.power", "n", 1, 2), ("KernelFun.to_polyfun", "degree", 0, 4),
    ("ode_solve", "degree", 0, 4), ("wehrl_compact_check.n", "n", 1, 2),
    ("wehrl_compact_check.m", "m", 0, 2), ("translate_vector", "m", 0, 2),
    ("SelbergSpec", "r", 1, 2), ("selberg_numeric", "budget", 1, 60),
    ("verify_degree_integral", "budget", 1, 60),
    ("selberg_closed_hp", "dps", 1, 20),
    ("ProjectionSpec", "k", 0, 2), ("matrix_coeff_lp", "n", 0, 2),
    ("norm_p_numeric", "p", 2, 4), ("wehrl_integral_numeric.n", "n", 0, 2),
    ("wehrl_integral_numeric.m", "m", 0, 2),
    ("translate_fit_distance", "m", 0, 1),
    ("reduction_consistency.n", "n", 2, 3),
    ("reduction_consistency.m", "m", 0, 2), ("haar_moment.p", "p", 0, 1),
    ("haar_moment.q", "q", 0, 1), ("random_unit_vector", "m", 0, 2),
    ("wehrl_constant", "n", 1, 2), ("DomainParams.r", "r", 1, 2),
    ("DomainParams.a", "a", 0, 1), ("DomainParams.b", "b", 0, 1),
    ("su_pq.p", "p", 1, 2), ("su_pq.q", "q", 1, 1), ("sp_r", "r", 1, 2),
    ("so_2n", "n", 3, 4), ("so_star", "n", 2, 4),
    ("gauss_jacobi", "n", 1, 3),
    ("PiScaledRational", "pi_power", -math.inf, 1),
    ("emit_constants_table", "n_grid", 1, 3)])
def test_count_arguments_are_gated_by_name(entry, name, least, good):
    # A float or None count failed deep inside with a bare TypeError naming
    # no argument, or ran as a silent wrong answer, and True ran as 1; the
    # gate names the argument, and so does the value one below `least`.
    call = _count_entry_points()[entry]
    for bad in (float(good), Fraction(good), True, np.True_, None, least - 1):
        with pytest.raises(ValueError, match=f"^{name} must be >= {least} "
                                             f"and an int, got {name}="
                                             f"{re.escape(repr(bad))}$"):
            call(bad)
    call(good)
    call(np.int64(good))


def test_silent_answers_and_bare_errors_are_refused_by_name():
    # Each call returned a wrong value, raised a bare TypeError, or failed
    # inside gauss_jacobi naming a node count it was never passed.
    from wehrl_lab import compact, degrees, disc, domains, selberg
    f, v = PolyFun(2, (1, 1)), [1.0, 0.0, 0.0, 0.0]
    spec = selberg.SelbergSpec(2, 1, Fraction(1, 3), 0)  # S = 27/154
    cases = [
        (lambda: degrees.wehrl_constant(domains.PRESETS["disc"], 2, 1.5),
         "n", 1, 1.5),  # 1/2: a factor pi^(-1/2) dropped
        (lambda: degrees.wehrl_constant(domains.PRESETS["disc"], 2, True),
         "n", 1, True),  # 1
        (lambda: compact.haar_moment(True, 0), "p", 0, True),  # 0.5
        (lambda: compact.wehrl_integral_numeric(v, 3, True), "n", 0, True),
        (lambda: compact.translate_fit_distance([1, 0], True), "m", 0, True),
        (lambda: domains.so_2n(3.5), "n", 3, 3.5),  # a = 1.5
        (lambda: domains.DomainParams("custom", True, 0, 0), "r", 1, True),
        (lambda: compact.reduction_consistency(v, 3, 2.0), "n", 2, 2.0),
        (lambda: disc.KernelFun(2, 0.5, None), "degree", 0, None),
        (lambda: compact.haar_moment(1.5, 0), "p", 0, 1.5),
        (lambda: disc.matrix_coeff_lp(f, 1.5), "n", 0, 1.5),
        (lambda: disc.norm_p_numeric(f, 4.0), "p", 2, 4.0),
        (lambda: selberg.selberg_closed_hp(spec, -3), "dps", 1, -3),  # 1.0
        (lambda: selberg.selberg_closed_hp(spec, 2.5), "dps", 1, 2.5),
        # 2*pi^1 and 6.283...: the pi power was truncated, and True read as 1
        (lambda: PiScaledRational(Fraction(2), 1.5), "pi_power", -math.inf,
         1.5),
        (lambda: PiScaledRational(Fraction(2), True), "pi_power", -math.inf,
         True)]
    for call, name, least, bad in cases:
        with pytest.raises(ValueError, match=f"^{name} must be >= {least} "
                                             f"and an int, got {name}="
                                             f"{re.escape(repr(bad))}$"):
            call()


def test_count_gate_names_the_first_bad_argument():
    exactnum.check_counts(("a", 0, 0), ("b", np.int32(3), 1))
    with pytest.raises(ValueError, match=r"^b must be >= 1 and an int, got "
                                         r"b=0$"):
        exactnum.check_counts(("a", 0, 0), ("b", 0, 1), ("c", 0.5, 0))


def _weight_entry_points():
    """(call, argument) per weight argument of a public entry point; each
    call returns a value to compare across the types of one weight."""
    from wehrl_lab import degrees, disc, domains, reports, selberg, suite
    f, d = PolyFun(2, (1, 1)), domains.PRESETS["disc"]
    half = Fraction(1, 2)
    return {
        "PolyFun": (lambda x: norm2_exact(PolyFun(x, (1, 1))), "nu"),
        "TensorPoly.mu": (lambda x: disc.TensorPoly(
            x, 3, [[1, 2], [3, 4]]).norm2(), "mu"),
        "TensorPoly.nu": (lambda x: disc.TensorPoly(
            3, x, [[1, 2], [3, 4]]).norm2(), "nu"),
        "ProjectionSpec.mu": (lambda x: disc.ProjectionSpec(
            x, 3, 2).c_squared(), "mu"),
        "ProjectionSpec.nu": (lambda x: disc.ProjectionSpec(
            3, x, 2).c_squared(), "nu"),
        "product_norm2": (lambda x: disc.product_norm2([f, f], x), "nu"),
        "KernelFun": (lambda x: disc.KernelFun(
            x, half, 3).to_polyfun().coeffs, "nu"),
        "ode_solve": (lambda x: disc.ode_solve(x, half, 3).coeffs, "nu"),
        "maximize_wehrl": (lambda x: disc.maximize_wehrl(x, 2, 4), "nu"),
        "scalar_formal_degree": (
            lambda x: degrees.scalar_formal_degree(d, x), "lam"),
        "wehrl_constant": (lambda x: degrees.wehrl_constant(d, x, 2), "lam"),
        "partial_isometry_constant.lam": (
            lambda x: degrees.partial_isometry_constant(d, x, 4), "lam"),
        "partial_isometry_constant.lam2": (
            lambda x: degrees.partial_isometry_constant(d, 4, x), "lam2"),
        "hc_degree_scalar": (lambda x: degrees.hc_degree_scalar(d, x), "lam"),
        "hc_degree_root_product": (lambda x: degrees.hc_degree_root_product(
            degrees.ROOT_SYSTEM_PRESETS["C2"], x), "lam"),
        "gamma_ratio_product.numerators": (
            lambda x: degrees.gamma_ratio_product((x, half), (half,)),
            "numerators"),
        "gamma_ratio_product.denominators": (
            lambda x: degrees.gamma_ratio_product((half,), (x, half)),
            "denominators"),
        "hc_admissible": (lambda x: domains.hc_admissible(d, x), "lam"),
        "SelbergSpec.a": (lambda x: selberg.selberg_closed(
            selberg.SelbergSpec(2, x, 0, 0)), "a"),
        "SelbergSpec.b": (lambda x: selberg.selberg_closed(
            selberg.SelbergSpec(2, 1, x, 0)), "b"),
        "SelbergSpec.gamma": (lambda x: selberg.selberg_closed(
            selberg.SelbergSpec(2, 1, 0, x)), "gamma"),
        "verify_degree_integral": (
            lambda x: selberg.verify_degree_integral(d, x, 60), "lam"),
        "PiScaledRational": (lambda x: repr(PiScaledRational(x, 1)), "coeff"),
        "QC.re": (lambda x: QC(x, 1), "re"),
        "QC.im": (lambda x: QC(1, x), "im"),
        "exact_json": (reports.exact_json, "value"),
        "emit_constants_table": (lambda x: suite.emit_constants_table(
            ["disc", "Sp(2,R)"], [2, x], [2, 3]), "lam_grid"),
    }


@pytest.mark.parametrize("entry", list(_weight_entry_points()))
def test_weight_arguments_are_gated_by_name(entry):
    # Infinity escaped as a bare OverflowError, NaN as a ValueError naming no
    # argument, None and complex values as bare TypeErrors, and True ran as
    # 1; each is now one ValueError naming the argument.
    call, name = _weight_entry_points()[entry]
    for bad in (math.inf, -math.inf, math.nan, np.float64("nan"), True,
                np.True_, None, 1 + 0j, "x"):
        with pytest.raises(ValueError, match=f"^{name} must be a finite "
                                             f"rational number, got {name}="
                                             f"{re.escape(repr(bad))}$"):
            call(bad)
    want = call(Fraction(3))
    for good in (3, 3.0, np.int64(3), np.float64(3.0), np.float32(3.0)):
        assert call(good) == want, good


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.integers(),
                 st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                 st.fractions()))
def test_weight_gate_is_fraction_of_every_finite_rational(x):
    # Fraction(np.int64(3)) keeps the numpy int as its numerator, whose
    # arithmetic wraps; the gate's Fraction holds Python ints.
    got = exactnum.check_weight("x", x)
    assert type(got) is Fraction and got == Fraction(x)
    assert type(got.numerator) is int and type(got.denominator) is int


def test_weight_gate_keeps_a_fraction_and_a_zero_denominator():
    x = Fraction(7, 3)
    assert exactnum.check_weight("nu", x) is x
    with pytest.raises(ZeroDivisionError):
        exactnum.check_weight("nu", "1/0")


def _float_read_entry_points():
    """(call, domain) per public entry point and argument that it reads in
    floats: the call takes the value in that argument, and domain matches
    "<error type>: <message>" of the entry point's own refusals of it."""
    from wehrl_lab import compact, selberg
    v = lambda x: [1, x, 0]  # an SU(2) vector of V_2
    nu_gate = "^ValueError: weight nu must exceed 1"
    numeric = lambda r, a, b, gamma, method: selberg.selberg_numeric(
        selberg.SelbergSpec(r, a, b, gamma), method, 10)
    return {
        "PolyFun": (lambda x: PolyFun(2, (x, 1j)), None),
        "TensorPoly": (lambda x: disc.TensorPoly(2, 3, [[1j], [2, x]]), None),
        "KernelFun.w": (lambda x: KernelFun(2, x, 3), "^OutsideBergman: "),
        "KernelFun.tail_bound.nu": (
            lambda x: KernelFun(x, 0.5, 3).tail_bound(), None),
        "ode_solve.c": (lambda x: ode_solve(2, x, 3), "^OutsideBergman: "),
        "ode_solve.nu": (lambda x: ode_solve(x, 0.5, 3), "^OutsideBergman: "),
        "matrix_coeff_lp.nu": (lambda x: disc.matrix_coeff_lp(
            PolyFun(x, (1, 1j)), 2), nu_gate),
        "matrix_coeff_lp.coeffs": (lambda x: disc.matrix_coeff_lp(
            PolyFun(2, (1, x)), 2), None),
        "norm_p_numeric.nu": (lambda x: disc.norm_p_numeric(
            PolyFun(x, (1, 1j)), 4), nu_gate),
        "norm_p_numeric.coeffs": (lambda x: disc.norm_p_numeric(
            PolyFun(2, (1, x)), 4), None),
        "translate_vector.alpha": (lambda x: compact.translate_vector(
            2, x, 0.2, 0.3), None),
        "translate_vector.beta": (lambda x: compact.translate_vector(
            2, 0.1, x, 0.3), None),
        "translate_vector.gamma": (lambda x: compact.translate_vector(
            2, 0.1, 0.2, x), None),
        "wehrl_compact_check": (lambda x: compact.wehrl_compact_check(
            v(x), 2, 2), None),
        "casimir_tensor_check": (lambda x: compact.casimir_tensor_check(
            v(x), 2), None),
        "translate_fit_distance": (lambda x: compact.translate_fit_distance(
            v(x), 2), None),
        "reduction_consistency": (lambda x: compact.reduction_consistency(
            v(x), 2, 2), None),
        "wehrl_integral_numeric": (lambda x: compact.wehrl_integral_numeric(
            v(x), 2, 2), None),
        # r = 1: one node whatever a is, and no pair, so the rule and its
        # rounding bound never read a (test_selberg_numeric_reads_no_a_at_r_1)
        "selberg_numeric.a": (
            lambda x: numeric(1, x, 0, 0, "gauss_jacobi"),
            "^(ValueError: a must be >= 0|MethodUnsupported: gauss_jacobi "
            "needs even integer a)"),
        "selberg_numeric.b": (
            lambda x: numeric(2, 2, x, 0, "gauss_jacobi"), "^NonIntegrable: "),
        "selberg_numeric.gamma": (
            lambda x: numeric(2, 2, 0, x, "gauss_jacobi"), "^NonIntegrable: "),
        "selberg_numeric.monte_carlo.a": (
            lambda x: numeric(2, x, 0, 0, "monte_carlo"),
            "^ValueError: a must be >= 0"),
        "gauss_jacobi.alpha": (lambda x: gauss_jacobi(3, x, 0.0),
                               "^ValueError: Gauss-Jacobi needs alpha, beta"),
        "gauss_jacobi.beta": (lambda x: gauss_jacobi(3, 0.0, x),
                              "^ValueError: Gauss-Jacobi needs alpha, beta"),
    }


# the entry points above whose route is exact in the argument swept, or does
# not read it, so they may return; every other one reads it in floats and
# must refuse 10**400
_EXACT_ROUTES = frozenset({"ode_solve.nu", "selberg_numeric.a"})


@pytest.mark.parametrize("entry", list(_float_read_entry_points()))
def test_no_entry_point_lets_a_bare_overflow_error_out(entry):
    # Each raised a bare OverflowError ("int too large to convert to float"
    # or "integer division result too large for a float") on one of these
    # exact values; each now returns, where its route is exact, or raises
    # FloatRangeExceeded or its own refusal.  A float route that returned
    # would have read 10**400 as inf or NaN.
    call, domain = _float_read_entry_points()[entry]
    for big in (10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)):
        try:
            call(big)
        except FloatRangeExceeded:
            continue
        except ValueError as exc:
            assert domain and re.match(domain, f"{type(exc).__name__}: "
                                               f"{exc}"), (big, exc)
            continue
        assert entry in _EXACT_ROUTES, (big, "returned on a float route")


def test_domain_checks_are_exact_on_exact_input():
    # float(abs(w)) and abs(complex(c)) overflowed on these; a comparison
    # that is exact where it can overflow refuses them, and at nu = 10^400
    # the series is exact.  An exact w that rounds to |w| = 1.0 is refused
    # as before: tail_bound reads |w| in floats, and at 1.0 its sum never
    # ends.
    big = 10 ** 400
    for bad in (big, -big, Fraction(big, 3), complex(1e308, 1e308),
                Fraction(2 ** 60 - 1, 2 ** 60)):
        with pytest.raises(disc.OutsideBergman):
            KernelFun(2, bad, 3)
    for bad in (big, Fraction(big, 3), 2):
        with pytest.raises(disc.OutsideBergman, match=">= nu = 2$"):
            ode_solve(2, bad, 3)
    f = ode_solve(big, 1, 3)
    assert f.exact and f.coeffs == KernelFun(
        big, Fraction(1, big), 3).to_polyfun().coeffs
    assert f.coeffs[2] == QC(Fraction(big + 1, 2 * big))


def _number_entry_points():
    """(call, argument) per public entry point that reads a number which may
    be complex: a coefficient, slope, kernel parameter or SU(2) entry, and
    the angles of translate_vector, which are weights read as floats."""
    from wehrl_lab import compact
    return {
        "PolyFun": (lambda x: PolyFun(2, (1, x)), "coeffs"),
        "TensorPoly": (lambda x: disc.TensorPoly(2, 3, [[1], [2, x]]),
                       "coeffs"),
        "ode_solve": (lambda x: ode_solve(2, x, 3), "c"),
        "KernelFun": (lambda x: KernelFun(2, x, 3), "w"),
        "wehrl_compact_check": (lambda x: compact.wehrl_compact_check(
            [1, x, 0], 2, 2), "v"),
        "casimir_tensor_check": (lambda x: compact.casimir_tensor_check(
            [1, x, 0], 2), "v"),
        "translate_fit_distance": (lambda x: compact.translate_fit_distance(
            [1, x, 0], 2), "v"),
        "translate_vector.alpha": (lambda x: compact.translate_vector(
            2, x, 0.2, 0.3), "alpha"),
        "translate_vector.beta": (lambda x: compact.translate_vector(
            2, 0.1, x, 0.3), "beta"),
        "translate_vector.gamma": (lambda x: compact.translate_vector(
            2, 0.1, 0.2, x), "gamma"),
    }


@pytest.mark.parametrize("entry", list(_number_entry_points()))
def test_number_arguments_are_read_by_one_rule(entry):
    # np.True_ ran as 1 (a slope, a coefficient, e_top's entry), False as a
    # kernel at w = 0, a NaN angle gave a vector of NaNs, and None or "x"
    # raised bare errors; each is now one ValueError naming the argument,
    # in the weight gate's words where no float is read at all.
    call, name = _number_entry_points()[entry]
    weight = entry.startswith("translate_vector")
    for bad in (np.True_, True, None, math.nan, math.inf, -math.inf,
                complex(1, math.inf), "x"):
        rational = weight or isinstance(bad, (bool, np.bool_)) or bad is None
        with pytest.raises(ValueError, match=(
                f"^{name} must be a finite {'rational ' * rational}number, "
                f"got {name}={re.escape(repr(bad))}$")):
            call(bad)
    complex_zeros = () if weight else (0j, np.complex64(0), "0j")
    for good in (0, 0.0, Fraction(0), np.int64(0), np.float64(0), "0",
                 "0.0", *complex_zeros):
        call(good)


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.complex_numbers(allow_nan=False, allow_infinity=False),
                 st.floats(width=32, allow_nan=False,
                           allow_infinity=False).map(np.float32)))
def test_number_rule_reads_a_float_as_its_complex(x):
    got = exactnum.check_number("x", x)
    assert type(got) is complex and got == complex(x)


@given(st.one_of(st.integers(), st.fractions(),
                 st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)))
def test_number_rule_reads_a_rational_as_the_weight_gate(x):
    # exactly, as a Fraction of Python ints; a Python int as it is
    got = exactnum.check_number("x", x)
    assert got == exactnum.check_weight("x", x)
    assert _types(got) == (int if type(x) is int else _types(
        Fraction(int(x.numerator), int(x.denominator))))


def test_number_rule_reads_a_str_as_the_cli_does():
    # "1/2" raised a bare "complex() arg is a malformed string", and "1"
    # and "0.5" were read in floats; a str is now a Fraction where that
    # parses, else a finite complex, as the CLI reads its options.
    assert PolyFun(2, ("1/2", "1")).coeffs == PolyFun(
        2, (Fraction(1, 2), 1)).coeffs
    assert PolyFun(2, ("1", "0.5")).exact
    assert KernelFun(2, "0.5", 3).w == Fraction(1, 2)
    assert ode_solve(2, "1/3", 4).coeffs == ode_solve(2, Fraction(1, 3),
                                                      4).coeffs
    p = PolyFun(2, ("1+2j", 1))
    assert not p.exact and p.coeffs == (1 + 2j, 1 + 0j)
    assert exactnum.check_number("x", " 1e-3 ") == Fraction(1, 1000)
    with pytest.raises(ZeroDivisionError):
        exactnum.check_number("x", "1/0")


def _types(value):
    """value's types to the leaves: a Fraction's parts, a QC's and a
    PiScaledRational's, a sequence's items; numpy ints inside a Fraction
    wrap, where Python ints do not."""
    if isinstance(value, Fraction):
        return Fraction, type(value.numerator), type(value.denominator)
    if isinstance(value, (QC, PiScaledRational)):
        return type(value), *map(_types, vars(value).values())
    if isinstance(value, (tuple, list)):
        return tuple(map(_types, value))
    return type(value)


def _read(p):
    """How a PolyFun or TensorPoly is read: its exact flag, coefficients
    and squared norm."""
    return p.exact, p.coeffs, (p.norm2() if hasattr(p, "norm2")
                               else norm2_exact(p))


def _exact_entry_points():
    """(call, argument, values) per public entry point that reads a number
    exactly: the values, Python ints and Fractions of them, that each call
    takes; every weight of _weight_entry_points takes 3, and 7/2 where its
    Gamma arguments still pair off."""
    third, big = Fraction(1, 3), Fraction(3000000007, 7)
    psr = PiScaledRational(Fraction(2, 3), 1)
    entries = {
        "PolyFun.coeffs": (lambda x: _read(PolyFun(2, (x, 1, x))), "coeffs",
                           (3, 2 ** 62 + 1, big)),
        "TensorPoly.coeffs": (lambda x: _read(disc.TensorPoly(
            3, Fraction(5, 2), [[x, 1], [2, x]])), "coeffs",
            (3, 2 ** 62 + 1, big)),
        "QC.re": (lambda x: QC(x, 1), "re", (3, big)),
        "QC.im": (lambda x: QC(1, x), "im", (3, big)),
        "ode_solve.c": (lambda x: _read(disc.ode_solve(
            Fraction(5, 2), x, 6)), "c", (1, third)),
        "KernelFun.w": (lambda x: _read(disc.KernelFun(
            2, x, 6).to_polyfun()), "w", (0, third)),
        "PiScaledRational.mul": (lambda x: psr * x, "other", (3, big)),
        "PiScaledRational.truediv": (lambda x: psr / x, "other", (3, big)),
    }
    for entry, (call, name) in _weight_entry_points().items():
        entries[f"weight {entry}"] = (call, name, (3,) if entry.startswith(
            "gamma_ratio_product") else (3, Fraction(7, 2)))
    return entries


def _numpy_twins(value) -> list:
    """value as Fraction(np.int64, np.int64) and, for an int, as np.int64
    and as np.int32 where it fits."""
    n, d = value.numerator, value.denominator
    twins = [Fraction(np.int64(n), np.int64(d))]
    if d == 1:
        twins += [np.int64(n)] + ([np.int32(n)] if abs(n) < 2 ** 31 else [])
    return twins


@pytest.mark.parametrize("entry", list(_exact_entry_points()))
def test_exact_inputs_read_numpy_integers_as_python_ints(entry):
    # A numpy int read exactly kept its int64 lanes, which wrap; a Fraction
    # of numpy ints passed the weight gate as it was.  Each twin now gives
    # the Python int's result to the types of its leaves, and a bool is
    # refused by the gate, naming the argument.
    call, name, values = _exact_entry_points()[entry]
    for value in values:
        want = call(value)
        for twin in _numpy_twins(value):
            got = call(twin)
            assert got == want and _types(got) == _types(want), (value, twin)
    with pytest.raises(ValueError, match=f"^{name} must be a finite rational "
                                         f"number, got {name}=True$"):
        call(True)


def _completeness(f):
    report = completeness_check(f, f)
    return report.per_k, report.total, report.passed


@pytest.mark.parametrize("numpy_call, python_call", [
    # norm^2 -4783943391187127173/294, completeness failed: int64 lanes wrap
    (lambda: _completeness(PolyFun(2, (
        Fraction(np.int64(3000000007), np.int64(7)), 1,
        Fraction(np.int64(3000000007))))),
     lambda: _completeness(PolyFun(2, (Fraction(3000000007, 7), 1,
                                       Fraction(3000000007))))),
    # read in floats as 4.611686018427388e18
    (lambda: _read(PolyFun(2, (np.int64(2 ** 62 + 1),))),
     lambda: _read(PolyFun(2, (2 ** 62 + 1,)))),
    # bare OverflowError
    (lambda: _read(KernelFun(2, Fraction(np.int64(1), np.int64(3)),
                             60).to_polyfun()),
     lambda: _read(KernelFun(2, Fraction(1, 3), 60).to_polyfun())),
    # bare OverflowError
    (lambda: _read(ode_solve(5 / 2, Fraction(np.int64(1), np.int64(3)), 20)),
     lambda: _read(ode_solve(5 / 2, Fraction(1, 3), 20))),
    # bare TypeError from the Gamma products
    (lambda: scalar_formal_degree(PRESETS["disc"], Fraction(np.int64(3))),
     lambda: scalar_formal_degree(PRESETS["disc"], 3))],
    ids=["wrapped_lanes", "past_2_62", "kernel_w", "ode_slope",
         "formal_degree"])
def test_numpy_integer_repros_give_their_python_twins_results(numpy_call,
                                                             python_call):
    got, want = numpy_call(), python_call()
    assert got == want and _types(got) == _types(want)


def test_a_bool_coefficient_is_refused_on_both_routes():
    # True read as 1, exactly or, beside a float, as 1.0
    for coeffs in ((True, 1), (1, False), (True, 0.5), (0.5, 1j, False)):
        with pytest.raises(ValueError, match=r"^coeffs must be a finite "
                                             r"rational number, got coeffs="
                                             r"(True|False)$"):
            PolyFun(2, coeffs)


def test_a_comparison_with_a_bool_is_false_and_never_raises():
    assert PiScaledRational(Fraction(1)) != True  # noqa: E712
    assert PiScaledRational(Fraction(0)) != False  # noqa: E712
    assert PiScaledRational(Fraction(3)) == np.int64(3)
    assert PiScaledRational(Fraction(1, 3)) == Fraction(np.int64(1),
                                                        np.int64(3))


_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(_INT64, min_size=1, max_size=5).map(
           lambda xs: np.array(xs, dtype=np.int64)),
       st.sampled_from([Fraction(2), Fraction(5, 2), Fraction(7, 3)]))
@example(np.array([2 ** 62 + 1, -(2 ** 63), 3, 2 ** 63 - 1], dtype=np.int64),
         Fraction(5, 2))
def test_numpy_integer_arrays_are_read_as_their_python_lists(arr, nu):
    # Products of such entries pass int64, where numpy's wrap; a numpy int
    # array used to be read in floats.
    f, g = PolyFun(nu, arr), PolyFun(nu, arr.tolist())
    assert f.exact and g.exact
    assert norm2_exact(f) == norm2_exact(g)
    assert _completeness(f) == _completeness(g)
    assert disc.wehrl_check(f, 3) == disc.wehrl_check(g, 3)
    assert disc.improved_check(f, 2) == disc.improved_check(g, 2)
