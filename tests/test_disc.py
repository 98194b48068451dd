import itertools
import math
import operator
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wehrl_lab import disc, exactnum, selberg
from wehrl_lab.disc import (KernelFun, NoConvergence,
                            OutsideBergman, PolyFun, ProjectionSpec,
                            TensorPoly, completeness_check, improved_check,
                            matrix_coeff_lp, maximize_wehrl,
                            norm2_exact, norm_p_numeric, ode_solve,
                            product_norm2, q1_iterated, qk_project,
                            wehrl_check)
from wehrl_lab.exactnum import QC, FloatRangeExceeded

NU2 = Fraction(2)

small_fractions = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                               max_denominator=4)


def poly(nu, *coeffs):
    return PolyFun(Fraction(nu), tuple(coeffs))


def test_monomial_norms():
    # <z^m, z^m> = m!/(nu)_m
    assert norm2_exact(poly(NU2, 1)) == 1
    assert norm2_exact(poly(NU2, 0, 1)) == Fraction(1, 2)
    assert norm2_exact(poly(Fraction(5, 2), 0, 0, 1)) == Fraction(2 * 4, 5 * 7)


def test_norm2_exact_vs_quadrature():
    f = poly(Fraction(5, 2), 1, Fraction(-2, 3), 0, Fraction(1, 5))
    assert norm_p_numeric(f, 2) == pytest.approx(float(norm2_exact(f)),
                                                 rel=1e-12)


def test_norm_p_matches_doubled_weight_norm():
    f = poly(NU2, 1, 1)
    target = float(product_norm2([f, f], 4))
    assert norm_p_numeric(f, 4) == pytest.approx(target, rel=1e-10)


def test_norm_p_rejects_odd_exponents():
    with pytest.raises(ValueError):
        norm_p_numeric(poly(NU2, 1), 3)


def test_weight_must_exceed_one():
    with pytest.raises(ValueError):
        poly(1, 1)


def test_empty_coefficient_list_is_rejected():
    for coeffs in ((), [], np.array([])):
        with pytest.raises(ValueError, match="the empty coefficient list"):
            PolyFun(NU2, coeffs)
    for rows in ((), ((),), ((), ())):
        with pytest.raises(ValueError, match="TensorPoly got no coefficients"):
            TensorPoly(NU2, NU2, rows)


@given(st.lists(small_fractions, min_size=1, max_size=5),
       st.lists(small_fractions, min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_product_norm_is_tensor_norm_of_leading_component(fc, gc):
    # ||fg||_{mu+nu} <= ||f||_mu ||g||_nu via the completeness identity.
    f = PolyFun(NU2, tuple(fc))
    g = PolyFun(Fraction(3), tuple(gc))
    prod_norm = product_norm2([f, g], 5)
    assert prod_norm <= norm2_exact(f) * norm2_exact(g)


def test_projection_constant_conventions():
    spec_c = ProjectionSpec(NU2, NU2, 1, "corrected_minus_one")
    spec_p = ProjectionSpec(NU2, NU2, 1, "paper_plus_one")
    assert spec_c.c_squared() == Fraction(1)
    assert spec_p.c_squared() == Fraction(2, 3)
    # the running products behind C^2, against the closed form from k = 0
    # to 200 at fractional weights, and at k = 3000 on a 3 x 2 tensor, far
    # past its top degree, where the core vanishes
    for mu, nu in ((Fraction(5, 2), Fraction(7, 3)),
                   (Fraction(7, 3), Fraction(11, 4))):
        nums = {k: _rising(mu, k) * _rising(nu, k) for k in (*range(201),
                                                              3000)}
        F = TensorPoly(mu, nu, [[1, Fraction(1, 2)], [Fraction(-2, 3), 3],
                                [QC(1, 1), -1]])
        for conv, shift in zip(_CONVENTIONS, (-1, 1)):
            closed = {k: num / (math.factorial(k)
                                * _rising(mu + nu + k + shift, k))
                      for k, num in nums.items()}
            assert [ProjectionSpec(mu, nu, k, conv).c_squared()
                    for k in range(201)] == [closed[k] for k in range(201)]
            proj = qk_project(F, 3000, conv)
            assert proj.core.coeffs == (QC(0),) * 4
            assert proj.c2 == closed[3000]
    with pytest.raises(ValueError):
        ProjectionSpec(NU2, NU2, 1, "other")


def test_projection_spec_rejects_negative_k_and_small_weights():
    with pytest.raises(ValueError, match="^k must be >= 0 and an int, got "
                                         "k=-1$"):
        ProjectionSpec(Fraction(5, 2), Fraction(7, 2), -1)
    with pytest.raises(ValueError, match="mu, nu > 1, got mu = 2, nu = 1$"):
        ProjectionSpec(NU2, 1, 0)
    # A component past the top degree is zero and keeps the tensor's length.
    F = TensorPoly.from_product(poly(2, 1, 2), poly(3, 1))
    core = qk_project(F, 4).core
    assert core.coeffs == (QC(0), QC(0))


@pytest.mark.parametrize("k", [5 / 2, 1.0, Fraction(1), True, False, "1"])
def test_projection_spec_rejects_a_k_that_is_no_int(k):
    # qk_project would fail in islice on a float k, and read True as 1.
    with pytest.raises(ValueError, match=f"^k must be >= 0 and an int, "
                                         f"got k={re.escape(repr(k))}$"):
        ProjectionSpec(Fraction(5, 2), Fraction(7, 2), k)


def _z_minus_w_power(mu, nu, k: int) -> TensorPoly:
    """(z - w)^k as an element of H_mu (x) H_nu."""
    rows = [[0] * (k + 1) for _ in range(k + 1)]
    for j in range(k + 1):
        rows[k - j][j] = (-1) ** j * math.comb(k, j)
    return TensorPoly(mu, nu, tuple(map(tuple, rows)))


def test_partial_isometry_on_z_minus_w():
    # (z-w)^k spans the k-th component; the corrected constant normalizes it.
    for k in (1, 2, 3):
        F = _z_minus_w_power(NU2, NU2, k)
        proj = qk_project(F, k, "corrected_minus_one")
        assert proj.norm2() == F.norm2()


def test_completeness_exact_corrected_and_paper_gap():
    f = poly(NU2, 0, 1)
    rep = completeness_check(f, f, convention="corrected_minus_one")
    assert rep.passed and rep.total == Fraction(1, 4)
    rep_p = completeness_check(f, f, convention="paper_plus_one")
    assert not rep_p.passed
    assert rep_p.total == Fraction(101, 560)


def test_completeness_fractional_weights():
    f = poly(Fraction(5, 2), 1, Fraction(1, 2))
    g = poly(Fraction(7, 2), Fraction(1, 3), 1, 1)
    rep = completeness_check(f, g, convention="corrected_minus_one")
    assert rep.passed and isinstance(rep.total, Fraction)


# Independent reference for the Q_k masses, on (re, im) pairs of Fractions.
# F = f (x) g is a product, so d_z^j d_w^{k-j} F |_{z=w} = f^{(j)} g^{(k-j)}.

def _rising(x, m):
    out = Fraction(1)
    for i in range(m):
        out *= x + i
    return out


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_qk_norm2(fc, gc, mu, nu, k, shift):
    core = {}
    for j in range(k + 1):
        w = (Fraction((-1) ** j * math.comb(k, j))
             / (_rising(mu, j) * _rising(nu, k - j)))
        for p in range(j, len(fc)):
            for q in range(k - j, len(gc)):
                s = w * math.perm(p, j) * math.perm(q, k - j)
                re, im = _cmul(fc[p], gc[q])
                m = p + q - k
                old = core.get(m, (Fraction(0), Fraction(0)))
                core[m] = (old[0] + s * re, old[1] + s * im)
    target = mu + nu + 2 * k
    mass = sum(((re * re + im * im) * math.factorial(m) / _rising(target, m)
                for m, (re, im) in core.items()), Fraction(0))
    c2_inv = (math.factorial(k) * _rising(mu + nu + k + shift, k)
              / (_rising(mu, k) * _rising(nu, k)))
    return mass / c2_inv


gaussian_coeffs = st.lists(st.tuples(small_fractions, small_fractions),
                           min_size=1, max_size=7)
weights = st.sampled_from([Fraction(2), Fraction(5, 2), Fraction(3),
                           Fraction(7, 2)])
coefficient_lanes = st.tuples(gaussian_coeffs, st.booleans()).map(
    lambda c: [(float(re), float(im)) for re, im in c[0]] if c[1] else c[0])


def _sparse_examples(test):
    """Tensors the filtered ladder must get right: vanishing antidiagonals
    (f = g = 1 + z^2), a monomial pair, a zero real lane under a nonzero
    imaginary one, an all-zero factor, and dyadic floats with vanishing
    antidiagonals, which take the float route."""
    one, half, zero = Fraction(1), Fraction(1, 2), Fraction(0)
    cases = [
        ([(one, zero), (zero, zero), (one, zero)],
         [(one, zero), (zero, zero), (one, zero)], 2, 2),
        ([(zero, zero)] * 3 + [(2 * one, -one)],
         [(zero, zero), (zero, zero), (one / 3, zero)], Fraction(5, 2), 3),
        ([(zero, one), (zero, zero), (zero, -half)],
         [(3 * half, zero), (zero, zero), (one, zero)], Fraction(7, 2), 2),
        ([(zero, zero)] * 2, [(one, 2 * one), (zero, -one)], 3,
         Fraction(5, 2)),
        ([(0.5, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, -0.75)],
         [(0.0, 0.0), (0.0, 0.0), (1.25, 0.0)], Fraction(5, 2),
         Fraction(7, 2)),
    ]
    for fc, gc, mu, nu in cases:
        for conv in (("corrected_minus_one", -1), ("paper_plus_one", 1)):
            test = example(fc, gc, Fraction(mu), Fraction(nu), conv)(test)
    return test


def _poly(nu, pairs):
    """PolyFun of (re, im) pairs: QC of Fractions, complex of floats."""
    return PolyFun(nu, tuple(QC(re, im) if isinstance(re, Fraction)
                             else complex(re, im) for re, im in pairs))


def _assert_masses(got, fc, gc, mu, nu, shift, exact):
    """got[k] is _ref_qk_norm2 on the coefficients as Fractions, exactly,
    or for float input rounded once, bit for bit."""
    fc, gc = ([(Fraction(re), Fraction(im)) for re, im in c] for c in (fc, gc))
    want = [_ref_qk_norm2(fc, gc, mu, nu, k, shift)
            for k in range(len(fc) + len(gc) - 1)]
    if exact:
        assert list(got) == want
    else:
        assert _bits(list(got)) == _bits([float(w) for w in want])


@given(gaussian_coeffs, gaussian_coeffs, weights, weights,
       st.sampled_from([("corrected_minus_one", -1), ("paper_plus_one", 1)]))
@example([(Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(2))],
         [(Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(1, 4)),
          (Fraction(-3), Fraction(3))],
         Fraction(5, 2), Fraction(7, 2), ("corrected_minus_one", -1))
@_sparse_examples
@settings(max_examples=40, deadline=None)
def test_qk_masses_match_product_reference(fc, gc, mu, nu, convention):
    name, shift = convention
    f, g = _poly(mu, fc), _poly(nu, gc)
    F = TensorPoly.from_product(f, g)
    _assert_masses([qk_project(F, k, name).norm2()
                    for k in range(len(fc) + len(gc) - 1)],
                   fc, gc, mu, nu, shift, F.exact)


# Test-local reference for the integer weights W_k(p, q) = sum_j e_j
# perm(p, j) perm(q, k - j), e_j/E = (-1)^j C(k,j) / ((mu)_j (nu)_{k-j}) in
# lowest terms: one object-dtype dot of math.perm tables per k.

def _ref_w(mu, nu, k, P, Q):
    x = [Fraction((-1) ** j * math.comb(k, j)) / (_rising(mu, j)
                                                   * _rising(nu, k - j))
         for j in range(k + 1)]
    E = math.lcm(*(t.denominator for t in x))
    W = np.array([[int(x[j] * E) * math.perm(p, j) for j in range(k + 1)]
                  for p in range(P)], dtype=object).dot(
        np.array([[math.perm(q, k - j) for q in range(Q)]
                  for j in range(k + 1)], dtype=object))
    return W, E


def _antidiagonal_order(P, Q):
    p, q = np.indices((P, Q)).reshape(2, -1)
    order = np.lexsort((p, -(p + q)))
    return p[order], q[order]


ladder_weights = st.fractions(min_value=1, max_value=6,
                              max_denominator=5).filter(lambda x: x > 1)


@given(ladder_weights, ladder_weights, st.integers(1, 12), st.integers(1, 12),
       st.data())
@example(Fraction(5, 2), Fraction(7, 2), 12, 9, None)
@example(Fraction(7, 3), Fraction(11, 4), 1, 12, None)
@settings(max_examples=25, deadline=None)
def test_hahn_ladder_matches_dot_reference(mu, nu, P, Q, data):
    # Every W_k, k <= P + Q, entry for entry: U_k = x b^k d^k (mu)_k (nu)_k
    # W_k / E exactly, at x = 1 on every entry, or at random integers x on a
    # random subset of the entries, as _core_ladder runs it on the nonzero
    # entries of a tensor lane.
    p, q = _antidiagonal_order(P, Q)
    x = [1] * (P * Q)
    if data is not None:
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=P * Q,
                                           max_size=P * Q)), dtype=bool)
        p, q = p[keep], q[keep]
        x = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                               min_size=len(p), max_size=len(p)))
    ladder = disc._hahn_ladder(mu, nu, (p + q).tolist(), p.tolist(), x)
    for k in range(P + Q + 1):
        U = next(ladder)
        assert type(U) is list and all(type(u) is int for u in U), k
        W, E = _ref_w(mu, nu, k, P, Q)
        scale = (_rising(mu, k) * _rising(nu, k)
                 * (mu.denominator * nu.denominator) ** k)
        assert scale.denominator == 1
        live = p + q >= k
        assert len(U) == np.count_nonzero(live)
        assert not W[p[~live], q[~live]].any()
        assert [u * E for u in U] == [w * int(scale) * y for w, y in zip(
            W[p[live], q[live]], x)], k


@given(ladder_weights, ladder_weights, st.integers(0, 12))
@settings(max_examples=30, deadline=None)
def test_hahn_ladder_is_orthogonal_on_every_antidiagonal(mu, nu, top):
    # sum_p (mu)_p/p! (nu)_{N-p}/(N-p)! W_j W_k = 0 for j != k, and > 0 for
    # j = k <= N: the W_k are the Hahn polynomials Q_k(p; mu-1, nu-1, N).
    for N in range(top + 1):
        p = np.arange(N + 1)
        ladder = disc._hahn_ladder(mu, nu, [N] * (N + 1), p.tolist(),
                                   [1] * (N + 1))
        ws = [next(ladder) for _ in range(N + 1)]
        rho = [_rising(mu, i) / math.factorial(i) * _rising(nu, N - i)
               / math.factorial(N - i) for i in range(N + 1)]
        for j in range(N + 1):
            for k in range(j + 1):
                inner = sum(r * x * y for r, x, y in zip(rho, ws[j], ws[k]))
                assert (inner == 0) == (j != k), (N, j, k)


@st.composite
def _general_tensors(draw):
    """(re, im) rows of a P x Q tensor, P, Q in 1..6, that need not be a
    product: each entry zero about half the time, and im all zero (one
    lane) half the time."""
    P, Q = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lane = st.lists(st.lists(st.one_of(st.just(Fraction(0)), small_fractions),
                             min_size=Q, max_size=Q), min_size=P, max_size=P)
    real = draw(lane)
    return real, draw(lane) if draw(st.booleans()) else [[0] * Q] * P


@given(_general_tensors(), ladder_weights, ladder_weights)
@example(([[0] * 3] * 2, [[1, 0, Fraction(-2, 3)], [0, Fraction(5, 2), 1]]),
         Fraction(5, 2), Fraction(7, 2))  # a zero real lane, im nonzero
@example(([[0, 1], [2, 0], [0, -3]], [[0] * 2] * 3), Fraction(7, 3), 3)
@settings(max_examples=40, deadline=None)
def test_core_of_a_general_tensor_matches_dot_reference(tensor, mu, nu):
    # Core coefficient m at every k <= P + Q: sum_{p+q=m+k} a[p][q]
    # W_k(p, q)/E, lane by lane, on tensors that are not products.
    real, imag = tensor
    P, Q = len(real), len(real[0])
    F = TensorPoly(mu, nu, [[QC(x, y) for x, y in zip(*rows)]
                            for rows in zip(real, imag)])
    for k in range(P + Q + 1):
        W, E = _ref_w(mu, nu, k, P, Q)
        want = [[Fraction(0)] * (P + Q - 1) for _ in range(2)]
        for p, q in np.ndindex(P, Q):
            for lane, a in zip(want, (real, imag)):
                if p + q >= k:
                    lane[p + q - k] += a[p][q] * Fraction(W[p, q], E)
        got = qk_project(F, k).core.coeffs
        assert got == tuple(map(QC, *want)), k


@given(coefficient_lanes, coefficient_lanes, weights, weights,
       st.sampled_from([("corrected_minus_one", -1), ("paper_plus_one", 1)]))
@example([(Fraction(0), Fraction(0))] * 3, [(Fraction(1), Fraction(2))],
         Fraction(5, 2), Fraction(7, 2), ("paper_plus_one", 1))
@example([(Fraction(0), Fraction(0))] * 3,  # a zero factor
         [(Fraction(1), Fraction(2)), (Fraction(0), Fraction(-1))],
         Fraction(5, 2), Fraction(7, 2), ("corrected_minus_one", -1))
@example([(Fraction(3, 2), Fraction(-1))],  # a degree-0 factor
         [(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(0)),
          (Fraction(-2), Fraction(1, 4))], Fraction(2), Fraction(3),
         ("corrected_minus_one", -1))
@example([(0.0, 0.0), (0.5, 0.0)], [(0.0, 0.0)], Fraction(3), Fraction(2),
         ("corrected_minus_one", -1))  # float lanes with +-0.0
@example([(1.5, -0.25)], [(0.0, 0.0), (0.0, -0.0), (-0.75, 1.0)],
         Fraction(7, 2), Fraction(5, 2), ("corrected_minus_one", -1))
@example([(Fraction(0), Fraction(0))], [(Fraction(3, 2), Fraction(-1))],
         Fraction(2), Fraction(3), ("corrected_minus_one", -1))
@example([(Fraction(2, 3), Fraction(0))], [(Fraction(1), Fraction(0)),
                                           (Fraction(-1, 2), Fraction(1))],
         Fraction(7, 2), Fraction(2), ("paper_plus_one", 1))
@_sparse_examples
@settings(max_examples=40, deadline=None)
def test_completeness_per_k_matches_product_reference(fc, gc, mu, nu,
                                                      convention):
    name, shift = convention
    f, g = _poly(mu, fc), _poly(nu, gc)
    rep = completeness_check(f, g, name)
    _assert_masses(rep.per_k, fc, gc, mu, nu, shift, f.exact and g.exact)


def _ref_product_norm2(factors, nu):
    p = [(Fraction(1), Fraction(0))]
    for fc in factors:
        out = [(Fraction(0), Fraction(0))] * (len(p) + len(fc) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(fc):
                re, im = _cmul(a, b)
                out[i + j] = (out[i + j][0] + re, out[i + j][1] + im)
        p = out
    return sum(((re * re + im * im) * math.factorial(k) / abs(_rising(nu, k))
                for k, (re, im) in enumerate(p)), Fraction(0))


@given(st.lists(gaussian_coeffs, min_size=1, max_size=3), weights)
@settings(max_examples=40, deadline=None)
def test_product_norm2_matches_fraction_reference(factors, nu):
    polys = [PolyFun(NU2, tuple(QC(re, im) for re, im in fc))
             for fc in factors]
    big_m = sum(len(fc) - 1 for fc in factors)
    for weight in (nu, Fraction(-big_m)):
        ref = _ref_product_norm2(factors, weight)
        assert product_norm2(polys, weight) == ref, weight
        floats = [f.as_complex_array() for f in polys]
        assert product_norm2(floats, weight) == pytest.approx(float(ref),
                                                              rel=1e-12)


def test_norm_weights_at_negative_integer_are_inverse_binomials():
    # The norm of the monomial z^k of a degree-M product at nu = -M is its
    # weight |k!/(-M)_k| = 1/binom(M, k), exact and rounded once.
    for big_m in range(41):
        for k in range(big_m + 1):
            e_k = np.eye(big_m + 1, dtype=int)[k]
            want = Fraction(1, math.comb(big_m, k))
            assert product_norm2([PolyFun(NU2, tuple(e_k.tolist()))],
                                 -big_m) == want
            assert product_norm2([e_k.astype(complex)], -big_m) \
                == float(want)
    # One degree past -nu, (nu)_k hits zero.
    for factors in ([poly(2, 1, 1, 1)], [np.ones(3)]):
        with pytest.raises(ValueError, match="vanishes at nu = -1"):
            product_norm2(factors, -1)


def _reference_rows(nu, count):
    """(weights, (nu)_m/m! in floats) of the prefix products, each a list
    of hex strings or a (type name, message) refusal."""
    if 2 - count <= nu <= 0:
        err = ("ValueError", f"(nu)_m vanishes at nu = {nu} for some "
               f"m < {count}")
        return err, err
    f = itertools.accumulate(range(1, count), operator.mul, initial=1)
    r = itertools.accumulate(range(nu, nu + count - 1), operator.mul,
                             initial=1)
    pairs = list(zip(f, r))
    weights = []
    for m, (x, y) in enumerate(pairs):
        w = abs(x / y)  # at most 1: never past 1.8e308
        if w < sys.float_info.min:
            weights = ("FloatRangeExceeded", f"weight |m!/(nu)_m| at nu = "
                       f"{nu}, m = {m}, is not a normal float")
            break
        weights.append(w.hex())
    try:
        rising = [abs(y / x).hex() for x, y in pairs]
    except OverflowError:
        rising = ("FloatRangeExceeded", f"(nu)_m/m! at nu = {nu} exceeds "
                  f"1.8e308 for some m < {count}")
    return weights, rising


def _read_row(read, nu, count):
    try:
        return [w.hex() for w in read(nu, count)]
    except (ValueError, FloatRangeExceeded) as exc:
        return type(exc).__name__, str(exc)


def test_integer_weight_rows_match_the_prefix_products():
    # At an integer nu the rows come from one running binomial product; the
    # reference divides m! by (nu)_m as the rational route does.  Both are
    # the same rationals rounded once, so bits and refusals agree, among
    # them the weights below the normal floats at (400, 1001), m = 683,
    # (-1028, 1029), m = 499, and (-1200, 1201), m = 337, and the vanishing
    # (nu)_m at (0, 2) and (-3, 5).
    rng = np.random.default_rng(55)
    cases = [(400, 1001), (-1028, 1029), (-1200, 1201), (0, 2), (-3, 5),
             (2, 12001), (1100, 300), (-1100, 1101), (-27, 28), (1, 1),
             (5, 0), (-3, 0)]  # count 0 reads the one entry of m = 0
    for _ in range(120):
        nu = int(rng.integers(-1100, 1101))
        top = 1 - nu + 3 if nu <= 0 else 1500
        cases.append((nu, int(rng.integers(1, top + 1))))
    cases += [(int(rng.integers(1, 8)), int(rng.integers(2000, 12002)))
              for _ in range(4)]
    refusals = set()
    for nu, count in cases:
        weights, rising = _reference_rows(nu, count)
        assert _read_row(disc._weights, nu, count) == weights, (nu, count)
        assert _read_row(lambda a, c: disc._rising_over_factorial(
            a, c, False), nu, count) == rising, (nu, count)
        refusals |= {row[1] for row in (weights, rising)
                     if isinstance(row, tuple)}
    assert {"weight |m!/(nu)_m| at nu = 400, m = 683, is not a normal float",
            "weight |m!/(nu)_m| at nu = -1028, m = 499, is not a normal "
            "float", "weight |m!/(nu)_m| at nu = -1200, m = 337, is not a "
            "normal float", "(nu)_m vanishes at nu = 0 for some m < 2",
            "(nu)_m vanishes at nu = -3 for some m < 5"} <= refusals


rational_factor = st.one_of(  # one real lane, or two
    st.lists(small_fractions, min_size=1, max_size=13),
    st.lists(st.tuples(small_fractions, small_fractions), min_size=1,
             max_size=13))
any_weight = st.one_of(st.integers(-30, 4).map(Fraction),
                       st.fractions(-6, 6, max_denominator=6))


def _pairs(fc):
    return [c if isinstance(c, tuple) else (c, Fraction(0)) for c in fc]


def _vanishes(nu, count):
    """Whether some (nu)_m, m < count, is zero."""
    return nu.denominator == 1 and 1 - count < nu <= 0


@given(st.lists(rational_factor, min_size=1, max_size=3), any_weight,
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_exact_product_norm2_is_the_fraction_sum(factors, nu, as_lanes):
    # One pass from the first factor's lanes against sum_k |[prod f_j]_k|^2
    # k!/|(nu)_k| on Fractions, or the typed ValueError where a (nu)_k,
    # k <= deg p, vanishes; nu <= 0 reaches both.
    polys = [PolyFun(NU2, tuple(QC(*c) if isinstance(c, tuple) else c
                                for c in fc)) for fc in factors]
    args = [f._lanes for f in polys] if as_lanes else polys
    count = sum(len(fc) - 1 for fc in factors) + 1
    if _vanishes(nu, count):
        with pytest.raises(ValueError, match=rf"^\(nu\)_m vanishes at nu = "
                           rf"{nu} for some m < {count}$"):
            product_norm2(args, nu)
    else:
        assert product_norm2(args, nu) \
            == _ref_product_norm2(list(map(_pairs, factors)), nu)


@given(st.lists(rational_factor, min_size=1, max_size=5), any_weight,
       any_weight)
@settings(max_examples=80, deadline=None)
def test_exact_tensor_norm2_is_the_fraction_double_sum(rows, mu, nu):
    # sum |a_pq|^2 p! q!/|(mu)_p (nu)_q|, or the ValueError of the first
    # weight read, nu's, where one of its Pochhammer symbols vanishes.
    F = TensorPoly(mu, nu, [[QC(*c) if isinstance(c, tuple) else c
                             for c in row] for row in rows])
    P, Q = len(rows), max(map(len, rows))
    bad = [(w, n) for w, n in ((nu, Q), (mu, P)) if _vanishes(w, n)]
    if bad:
        with pytest.raises(ValueError, match=rf"^\(nu\)_m vanishes at nu = "
                           rf"{bad[0][0]} for some m < {bad[0][1]}$"):
            F.norm2()
        return
    want = sum(((re * re + im * im) * math.factorial(p) * math.factorial(q)
                / abs(_rising(mu, p) * _rising(nu, q))
                for p, row in enumerate(rows)
                for q, (re, im) in enumerate(_pairs(row))), Fraction(0))
    assert F.norm2() == want


@given(gaussian_coeffs, gaussian_coeffs, weights, weights,
       st.sampled_from(["corrected_minus_one", "paper_plus_one"]))
@settings(max_examples=40, deadline=None)
def test_completeness_total_is_the_sum_of_its_masses(fc, gc, mu, nu, conv):
    # The total adds the masses over one common denominator.
    rep = completeness_check(_poly(mu, fc), _poly(nu, gc), conv)
    assert type(rep.total) is Fraction
    assert rep.total == sum(rep.per_k, Fraction(0))


def test_zero_polynomial():
    zero = poly(Fraction(5, 2), 0, 0, 0)
    g = poly(Fraction(7, 2), 1, Fraction(-1, 2), QC(0, 1))
    assert norm2_exact(zero) == 0
    rep = completeness_check(zero, g)
    assert rep.passed and rep.total == 0 and set(rep.per_k) == {0}
    proj = qk_project(TensorPoly.from_product(zero, g), 2)
    assert all(c == QC(0) for c in proj.core.coeffs)
    assert q1_iterated(zero, 3).norm2() == 0
    assert all(c == QC(0) for c in (zero * g).coeffs)


def test_exact_coefficients_round_as_their_fractions():
    # A float copy of an exact coefficient rounds each part as
    # float(Fraction) does; (re + 1j im) / den rounds differently, and
    # overflows once den passes 1.8e308 (degree 200 here).
    nu, half_i = Fraction(7, 3), PolyFun(Fraction(7, 3), (0.5j,))
    for degree in (20, 60, 200):
        f = KernelFun(nu, Fraction(2, 5), degree).to_polyfun()
        ref = np.array([complex(c) for c in f.coeffs])
        assert f.as_complex_array().tobytes() == ref.tobytes()
        floats = PolyFun(nu, tuple(ref))
        assert (f * half_i).as_complex_array().tobytes() \
            == (floats * half_i).as_complex_array().tobytes()


@given(gaussian_coeffs, weights)
@settings(max_examples=40, deadline=None)
def test_coefficients_round_trip_through_the_lanes(fc, nu):
    values = tuple(QC(re, im) for re, im in fc)
    f = PolyFun(nu, values)
    assert f.exact and f.coeffs == values
    assert PolyFun(nu, f.coeffs).coeffs == f.coeffs
    g = f * f  # lanes over an unreduced denominator
    assert PolyFun(g.nu, g.coeffs).coeffs == g.coeffs
    F = TensorPoly.from_product(f, f)
    assert TensorPoly(nu, nu, F.coeffs).coeffs == F.coeffs


def test_completeness_degree_16():
    rng = np.random.default_rng(16)
    mu, nu = Fraction(5, 2), Fraction(7, 2)

    def rand_coeffs():
        return [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
                for _ in range(17)]

    fc, gc = rand_coeffs(), rand_coeffs()
    f, g = PolyFun(mu, tuple(fc)), PolyFun(nu, tuple(gc))
    expected = (sum(c * c * math.factorial(m) / _rising(mu, m)
                    for m, c in enumerate(fc))
                * sum(c * c * math.factorial(m) / _rising(nu, m)
                      for m, c in enumerate(gc)))
    rep = completeness_check(f, g)
    assert len(rep.per_k) == 33
    assert rep.passed and rep.total == rep.expected == expected
    assert not completeness_check(f, g, convention="paper_plus_one").passed


def test_completeness_float_coefficients_match_exact():
    # Dyadic coefficients are exact in floating point, so both rings see the
    # same polynomial.
    fc = (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 8), Fraction(1))
    gc = (Fraction(-1, 4), Fraction(3, 2), Fraction(1, 8))
    exact = completeness_check(PolyFun(Fraction(5, 2), fc),
                               PolyFun(Fraction(3), gc))
    floats = completeness_check(
        PolyFun(Fraction(5, 2), tuple(complex(c) for c in fc)),
        PolyFun(Fraction(3), tuple(1j * float(c) for c in gc)))
    assert floats.passed
    assert _bits(list(floats.per_k)) == _bits([float(m) for m in exact.per_k])


_CONVENTIONS = ("corrected_minus_one", "paper_plus_one")


@given(gaussian_coeffs, gaussian_coeffs, weights, weights,
       st.sampled_from(_CONVENTIONS))
@settings(max_examples=40, deadline=None)
def test_completeness_masses_match_projection_route(fc, gc, mu, nu, conv):
    # completeness_check reads exact masses off the core lanes; they must be
    # the masses of the projected PolyFun cores, exactly.
    f = PolyFun(mu, tuple(QC(re, im) for re, im in fc))
    g = PolyFun(nu, tuple(QC(re, im) for re, im in gc))
    F = TensorPoly.from_product(f, g)
    want = [qk_project(F, k, conv).norm2()
            for k in range(f.degree + g.degree + 1)]
    rep = completeness_check(f, g, conv)
    assert list(rep.per_k) == want
    assert all(isinstance(m, Fraction) for m in rep.per_k)
    assert rep.total == sum(want) and rep.expected \
        == norm2_exact(f) * norm2_exact(g)


def _twin(F):
    """The exact twin of a float PolyFun or TensorPoly: each coefficient as
    the QC of the dyadic rational it holds."""
    def exact(c):
        return QC(Fraction(c.real), Fraction(c.imag))
    if isinstance(F, PolyFun):
        return PolyFun(F.nu, tuple(map(exact, F.coeffs)))
    return TensorPoly(F.mu, F.nu, [list(map(exact, row)) for row in F.coeffs])


def _rounded(x):
    """x with every Fraction and QC rounded to a float or complex once."""
    if isinstance(x, QC):
        return complex(float(x.re), float(x.im))
    if isinstance(x, Fraction):
        return float(x)
    return [_rounded(y) for y in x]


def test_completeness_float_masses_are_pinned():
    # Dyadic float input: per_k, total, expected and passed are those of the
    # Fraction twin, each rounded once, bit for bit.
    fc = (0.5, -0.75 + 0.25j, 0.625, 1.0, -0.125j)
    gc = (Fraction(-1, 4), 1.5j, Fraction(1, 8), -2.0)
    f, g = PolyFun(Fraction(5, 2), fc), PolyFun(Fraction(7, 2), gc)
    for conv, passed in zip(_CONVENTIONS, (True, False)):
        rep = completeness_check(f, g, conv)
        twin = completeness_check(_twin(f), _twin(g), conv)
        assert all(type(m) is float for m in rep.per_k), conv
        assert _bits([list(rep.per_k), rep.total, rep.expected]) == _bits(
            _rounded([list(twin.per_k), twin.total, twin.expected])), conv
        assert rep.passed is twin.passed is passed, conv


# Every finite float, so every float coefficient, is a dyadic rational.
dyadic_coeffs = st.lists(st.tuples(st.floats(-8, 8), st.floats(-8, 8)),
                         min_size=1, max_size=5)


@given(dyadic_coeffs, dyadic_coeffs, weights, weights,
       st.sampled_from(_CONVENTIONS))
@example([(0.1, 0.2), (-0.3, 5e-324)], [(1.5, -0.25), (0.0, -0.0)],
         Fraction(5, 2), Fraction(7, 2), "corrected_minus_one")
@settings(max_examples=30, deadline=None)
def test_float_projections_are_the_exact_ones_rounded_once(fc, gc, mu, nu,
                                                          conv):
    f, g = _poly(mu, fc), _poly(nu, gc)
    rep = completeness_check(f, g, conv)
    twin = completeness_check(_twin(f), _twin(g), conv)
    assert _bits([list(rep.per_k), rep.total, rep.expected]) == _bits(
        _rounded([list(twin.per_k), twin.total, twin.expected]))
    assert rep.passed is twin.passed
    F = TensorPoly.from_product(f, g)  # exact products of the dyadic values
    twin_F = TensorPoly.from_product(_twin(f), _twin(g))
    for k in range(f.degree + g.degree + 1):
        assert _bits(list(qk_project(F, k, conv).core.coeffs)) == _bits(
            _rounded(qk_project(twin_F, k, conv).core.coeffs)), k
    for n in (2, 3):
        assert q1_iterated(f, n, conv).norm2() == 0.0, n


def test_float_projections_past_the_float_range_raise():
    big = PolyFun(Fraction(5, 2), (1e300, 1.0))
    with pytest.raises(FloatRangeExceeded, match="completeness_check: "):
        completeness_check(big, PolyFun(NU2, (1,)))  # masses near 1e600
    f = PolyFun(NU2, (1e200, 1.0))
    F = TensorPoly.from_product(f, f)  # the entry 1e400 is exact
    with pytest.raises(FloatRangeExceeded, match="norm2: .* 1.8e308"):
        qk_project(F, 0).norm2()
    assert q1_iterated(f * f, 2).norm2() == 0.0  # f^2 is exact
    assert q1_iterated(f, 3).norm2() == 0.0
    with pytest.raises(FloatRangeExceeded, match="coeffs: .* 1.8e308"):
        F.coeffs


@given(dyadic_coeffs, dyadic_coeffs, weights, weights)
@settings(max_examples=30, deadline=None)
def test_float_projection_masses_are_the_completeness_masses(fc, gc, mu, nu):
    # qk_project of a float tensor product and completeness_check read the
    # same exact masses, each rounded once.
    f, g = _poly(mu, fc), _poly(nu, gc)
    F = TensorPoly.from_product(f, g)
    for conv in _CONVENTIONS:
        rep = completeness_check(f, g, conv)
        assert _bits([qk_project(F, k, conv).norm2()
                      for k in range(f.degree + g.degree + 1)]) \
            == _bits(list(rep.per_k)), conv


@given(dyadic_coeffs, weights | st.just(Fraction(7, 3)),
       st.sampled_from([2, 3]), st.sampled_from(["sharp", "paper"]))
@settings(max_examples=30, deadline=None)
def test_improved_check_float_input_is_its_twins_report(fc, nu, n, convention):
    f = _poly(nu, fc)
    rep, twin = improved_check(f, n, convention), improved_check(
        _twin(f), n, convention)
    assert rep.exact_slack == twin.exact_slack
    assert rep.passed is twin.passed
    assert _bits([rep.lhs, rep.rhs, rep.remainder, rep.slack]) == _bits(
        [twin.lhs, twin.rhs, twin.remainder, twin.slack])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, -math.inf)])
def test_non_finite_coefficients_are_refused(bad):
    message = (f"^coeffs must be a finite number, got coeffs="
               f"{re.escape(repr(bad))}$")
    with pytest.raises(ValueError, match=message):
        PolyFun(NU2, (1, bad))
    with pytest.raises(ValueError, match=message):
        TensorPoly(NU2, NU2, [[1.0], [0.5, bad]])


def test_float_input_rounds_its_lanes_once_into_one_view():
    # Float input is stored as the lanes of its dyadic values; its view
    # rounds them once, so it holds the input's own values, -0.0 read as
    # 0.0, and float reads and exact products share that one array.
    cs = (-0.0, complex(0.5, -0.0), complex(-0.0, 1e-300), 3.25)
    f = PolyFun(NU2, cs)
    view = f.as_complex_array()
    assert not view.flags.writeable and f.degree == 3
    assert _bits(f.coeffs) == _bits([0j, 0.5 + 0j, 1e-300j, 3.25 + 0j])
    for read in (norm2_exact, lambda f: wehrl_check(f, 2),
                 lambda f: matrix_coeff_lp(f, 2),
                 lambda f: norm_p_numeric(f, 4),
                 lambda f: product_norm2([f, view], 4)):
        read(f)
    assert f.as_complex_array() is view
    g = f * f
    assert disc._rounded(*f._lanes).tobytes() == view.tobytes()
    assert g.coeffs == (f * f).coeffs and f.as_complex_array() is view
    assert norm2_exact(g) == float(norm2_exact(_twin(f) * _twin(f)))


tensor_rows = st.one_of(st.lists(gaussian_coeffs, min_size=1, max_size=4),
                        st.lists(dyadic_coeffs, min_size=1, max_size=4))
fractional_weights = st.sampled_from([Fraction(5, 2), Fraction(7, 3),
                                      Fraction(11, 4), Fraction(13, 6)])


@given(tensor_rows, fractional_weights, fractional_weights)
@settings(max_examples=40, deadline=None)
def test_tensor_norm2_is_the_fraction_double_sum(rows, mu, nu):
    # sum |a[p][q]|^2 p!/(mu)_p q!/(nu)_q on the values as Fractions: exact
    # for Gaussian rationals, rounded once for dyadic floats.
    exact = isinstance(rows[0][0][0], Fraction)
    F = TensorPoly(mu, nu, [[QC(re, im) if exact else complex(re, im)
                             for re, im in row] for row in rows])
    want = sum(((Fraction(re) ** 2 + Fraction(im) ** 2) * math.factorial(p)
                * math.factorial(q) / (_rising(mu, p) * _rising(nu, q))
                for p, row in enumerate(rows)
                for q, (re, im) in enumerate(row)), Fraction(0))
    assert F.exact is exact
    assert _bits(F.norm2()) == _bits(want if exact else float(want))


def test_c_squared_has_one_source(monkeypatch):
    # Projections, completeness and ProjectionSpec.c_squared read C^2 off
    # disc._q_stream: scaling C_2^2 there by 1 + 2^-20 moves the k = 2 mass
    # of completeness, and only it, the k = 2 projection's norm and
    # c_squared by the same factor.
    rng = np.random.default_rng(29)
    f, g = (PolyFun(nu, tuple(QC(Fraction(int(rng.integers(-4, 5)),
                                          int(rng.integers(1, 5))),
                                 Fraction(int(rng.integers(-4, 5)), 3))
                              for _ in range(4)))
            for nu in (Fraction(5, 2), Fraction(7, 3)))
    F, factor = TensorPoly.from_product(f, g), 1 + Fraction(1, 2 ** 20)
    real = disc._q_stream

    def scaled(lanes, spec):  # C_2^2 = scale r/s times the factor
        for k, (core, scale, (r, s)) in enumerate(real(lanes, spec)):
            yield core, scale, (r * factor.numerator, s * factor.denominator
                                ) if k == 2 else (r, s)

    for conv in _CONVENTIONS:
        spec = ProjectionSpec(f.nu, g.nu, 2, conv)
        before, proj = completeness_check(f, g, conv), qk_project(F, 2, conv)
        assert before.passed is (conv == "corrected_minus_one")
        assert spec.c_squared() == proj.c2
        monkeypatch.setattr(disc, "_q_stream", scaled)
        after = completeness_check(f, g, conv)
        assert not after.passed and before.per_k[2] != 0
        assert [k for k, (x, y) in enumerate(zip(before.per_k, after.per_k))
                if x != y] == [2]
        assert after.per_k[2] == before.per_k[2] * factor
        assert qk_project(F, 2, conv).norm2() == proj.norm2() * factor
        assert spec.c_squared() == proj.c2 * factor
        monkeypatch.setattr(disc, "_q_stream", real)


def _bits(x):
    """x with every float as its hex, so that == means bit for bit."""
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_bits(y) for y in x]
    return x  # Fraction, QC, bool


def _dense_pair(degree, seed, exact):
    """Seeded factors of the given degree at (5/2, 7/2), no coefficient
    zero: Fractions, or complex floats of them."""
    rng = np.random.default_rng([seed, degree])
    return [PolyFun(nu, tuple(
        Fraction(int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])),
                 int(rng.integers(1, 5))) * (1 if exact else 1 + 0.5j)
        for _ in range(degree + 1)))
        for nu in (Fraction(5, 2), Fraction(7, 2))]


@pytest.mark.parametrize("exact", [True, False])
def test_completeness_passes_on_dense_pairs(exact):
    # Dense pairs of degree 16 and 17 (289 and 324 tensor entries), exact
    # and complex floats: completeness passes, and qk_project reads its
    # masses, bit for bit.
    for degree in (16, 17):
        f, g = _dense_pair(degree, 24, exact)
        rep = completeness_check(f, g)
        assert rep.passed and (rep.total == rep.expected or not exact)
        F = TensorPoly.from_product(f, g)
        for k in (0, 1, degree, 2 * degree):
            assert _bits(qk_project(F, k).norm2()) == _bits(rep.per_k[k]), \
                (degree, k)


def test_q1_component_vanishes():
    for coeffs in ((1, 1), (2, Fraction(-1, 3), 1), (0, 1, 1, Fraction(1, 7))):
        for n in (2, 3, 4):
            assert q1_iterated(poly(NU2, *coeffs), n).norm2() == 0
    with pytest.raises(ValueError, match="^n must be >= 2 and an int, got "
                                         "n=1$"):
        q1_iterated(poly(NU2, 1, 1), 1)


def test_wehrl_slack_nonnegative_and_kernel_equality_direction():
    f = poly(NU2, 1, 1)
    lhs, rhs, slack = wehrl_check(f, 2)
    assert (lhs, rhs, slack) == (2.1, 2.25, pytest.approx(0.15))
    kern = KernelFun(NU2, 0.3, 50).to_polyfun()
    kern = kern.scale(1 / math.sqrt(norm2_exact(kern)))
    _, _, kslack = wehrl_check(kern, 3)
    assert -1e-12 <= kslack < 1e-9


def test_power_refuses_n_below_one():
    # power(0) and power(-1) returned f itself, a silent wrong answer.
    f = PolyFun(NU2, (1, 2))
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^n must be >= 1 and an int, "
                                             f"got n={n}$"):
            f.power(n)
    cube, product = f.power(3), f * f * f
    assert (cube.nu, cube.coeffs) == (product.nu, product.coeffs)
    assert cube.coeffs == tuple(map(QC, (1, 6, 12, 8)))


def test_improved_inequality_constants_and_equality_case():
    f = poly(NU2, 1, 1)
    sharp = improved_check(f, 2, "sharp")
    assert sharp.exact_slack == 0
    assert sharp.remainder == pytest.approx(0.15)
    paper = improved_check(f, 2, "paper")
    assert paper.passed and paper.slack > 0
    # the "sharp" remainder dominates the "paper"-convention one pointwise
    assert sharp.remainder > paper.remainder
    with pytest.raises(ValueError, match="unknown remainder convention"):
        improved_check(f, 2, "corrected")


def _remainder_constant(nu, convention):
    # 2 nu^2 (nu+1)^2 / ((2 nu + 1)(2 nu + 2)), or (2 nu + 3)(2 nu + 4) below
    d = 1 if convention == "sharp" else 3
    return 2 * nu ** 2 * (nu + 1) ** 2 / ((2 * nu + d) * (2 * nu + d + 1))


@given(st.fractions(min_value=Fraction(1), max_value=Fraction(50),
                    max_denominator=60).filter(lambda nu: nu > 1),
       st.sampled_from([("sharp", "corrected_minus_one"),
                        ("paper", "paper_plus_one")]))
@settings(max_examples=60, deadline=None)
def test_remainder_constant_is_four_c2_of_k_2(nu, conventions):
    # improved_check's const(nu) is 4 C^2 of the k = 2 projection at (nu, nu).
    remainder, projection = conventions
    assert 4 * ProjectionSpec(nu, nu, 2, projection).c_squared() \
        == _remainder_constant(nu, remainder)


def _ref_poly_mul(a, b):
    out = [(Fraction(0), Fraction(0))] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            re, im = _cmul(x, y)
            out[i + j] = (out[i + j][0] + re, out[i + j][1] + im)
    return out


@given(gaussian_coeffs, weights | st.just(Fraction(7, 3)),
       st.sampled_from([2, 3]), st.sampled_from(["sharp", "paper"]))
@example([(Fraction(3), Fraction(0))], Fraction(5, 2), 2, "sharp")
@settings(max_examples=40, deadline=None)
def test_improved_check_matches_fraction_reference(fc, nu, n, convention):
    # The remainder g = f'' f / (nu)_2 - f'^2 / nu^2, on (re, im) Fractions.
    def derivative(cs):
        return [(m * re, m * im) for m, (re, im) in enumerate(cs)][1:] \
            or [(Fraction(0), Fraction(0))]

    fp = derivative(fc)
    fpp = derivative(fp)
    s, t = 1 / _rising(nu, 2), 1 / nu ** 2
    a, b = _ref_poly_mul(fpp, fc), _ref_poly_mul(fp, fp)
    b += [(Fraction(0), Fraction(0))] * (len(a) - len(b))
    g = [(s * x[0] - t * y[0], s * x[1] - t * y[1]) for x, y in zip(a, b)]
    const = _remainder_constant(nu, convention)
    remainder = const * _ref_product_norm2([fc] * (n - 2) + [g], n * nu + 4)
    lhs = _ref_product_norm2([fc] * n, n * nu)
    rhs = _ref_product_norm2([fc], nu) ** n
    rep = improved_check(PolyFun(nu, tuple(QC(*c) for c in fc)), n, convention)
    assert rep.exact_slack == rhs - lhs - remainder
    assert (rep.lhs, rep.rhs, rep.remainder) \
        == (float(lhs), float(rhs), float(remainder))
    assert rep.passed == (rep.exact_slack >= 0)


@given(gaussian_coeffs, weights | st.just(Fraction(7, 3)),
       st.sampled_from([2, 3, 4]),
       st.sampled_from([("sharp", "corrected_minus_one"),
                        ("paper", "paper_plus_one")]))
@settings(max_examples=40, deadline=None)
def test_improved_remainder_is_the_k2_projection_mass(fc, nu, n, conventions):
    # The remainder is C_2^2 ||core_2 f^{n-2}||^2 at weight n nu + 4, core_2
    # the k = 2 core of f (x) f (twice the hand-built g of improved_check).
    remainder, projection = conventions
    f = PolyFun(nu, tuple(QC(*c) for c in fc))
    proj = qk_project(TensorPoly.from_product(f, f), 2, projection)
    lhs = product_norm2([f] * n, n * nu)
    rhs = product_norm2([f], nu) ** n
    rest = proj.c2 * product_norm2([proj.core] + [f] * (n - 2), n * nu + 4)
    assert rhs - lhs - rest == improved_check(f, n, remainder).exact_slack


def test_improved_check_float_input_matches_exact():
    # Dyadic coefficients are exact in floating point, so both rings see the
    # same polynomial; float input is read rounded once.
    cs = (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 8), Fraction(1),
          Fraction(-1, 8))
    for nu in (NU2, Fraction(5, 2), Fraction(7, 3)):
        for n in (2, 3):
            exact = improved_check(PolyFun(nu, cs), n, "sharp")
            floats = improved_check(
                PolyFun(nu, tuple(1j * float(c) for c in cs)), n, "sharp")
            assert floats.exact_slack == exact.exact_slack \
                and floats.passed
            assert _bits([floats.lhs, floats.rhs, floats.remainder,
                          floats.slack]) == _bits([exact.lhs, exact.rhs,
                                                   exact.remainder,
                                                   exact.slack])


def test_improved_inequality_random_rationals():
    rng = np.random.default_rng(4)
    for _ in range(25):
        cs = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
              for _ in range(5)]
        cs[0] = cs[0] if cs[0] != 0 else Fraction(1)
        f = PolyFun(NU2, tuple(cs))
        for conv in ("sharp", "paper"):
            rep = improved_check(f, 2, conv)
            assert rep.exact_slack >= 0, (cs, conv)


def test_kernel_truncation_tail():
    k = KernelFun(NU2, 0.5, 30)
    f = k.to_polyfun()
    assert float(norm2_exact(f)) + k.tail_bound() \
        == pytest.approx((1 - 0.5 ** 2) ** -2, rel=1e-12)
    with pytest.raises(OutsideBergman):
        KernelFun(NU2, 1.2, 5).to_polyfun()


def test_kernel_refuses_a_nan_parameter():
    # A NaN w passed the |w| >= 1 test, and tail_bound's loop never ended;
    # the number rule refuses it when the kernel is built.
    for w in (float("nan"), complex("nan")):
        with pytest.raises(ValueError, match=r"^w must be a finite number, "
                                             rf"got w={re.escape(repr(w))}$"):
            KernelFun(2, w, 4)


def test_kernel_refuses_an_infinite_weight_when_built():
    # KernelFun(inf, 0.1, 3) built, and to_polyfun then raised a bare
    # OverflowError.
    with pytest.raises(ValueError, match=r"^nu must be a finite rational "
                                         r"number, got nu=inf$"):
        KernelFun(math.inf, 0.1, 3)


@pytest.mark.parametrize("method", ["to_polyfun", "tail_bound"])
def test_kernel_rejects_a_negative_degree(method):
    # Degree -1 read as the constant 1, and -3 raised a bare IndexError.
    for degree in (-1, -3):
        with pytest.raises(ValueError, match=f"^degree must be >= 0 and an "
                                             f"int, got degree={degree}$"):
            getattr(KernelFun(2, Fraction(1, 2), degree), method)()
    assert KernelFun(2, Fraction(1, 2), 0).to_polyfun().coeffs == (QC(1),)


def _kernel_tail(nu, w, degree):
    """sum_{m > degree} |(nu)_m|/m! |w|^{2m} by mpmath, at the exact |w|^2 of
    w's parts, to 30 digits at any size: term by term where nu < 0 or every
    ratio past the cut is at most 1/2 (or the tail is 0), else the whole
    mass less the kept terms, with digits for the cancellation, about 1300
    at a tail of 1e-1300 beside a whole mass of 1."""
    import mpmath

    w = complex(w)
    nu, r = Fraction(nu), Fraction(w.real) ** 2 + Fraction(w.imag) ** 2
    exact = lambda x: mpmath.mpf(x.numerator) / x.denominator
    with mpmath.workdps(40):
        N, R, t, m = exact(nu), exact(r), mpmath.mpf(1), degree + 1
        for k in range(m):
            t *= abs(N + k) / (k + 1) * R  # the first dropped term
        if t == 0 or nu < 0 or max((N + m) / (m + 1) * R, R) <= 0.5:
            # past m = -nu every ratio is at most R: the rest <= t/(1 - R)
            tail = mpmath.mpf(0)
            while m <= -N or t > tail * mpmath.mpf(10) ** -45 * (1 - R):
                tail, t, m = tail + t, t * abs(N + m) / (m + 1) * R, m + 1
            return tail
        digits = 40 + max(0, int(mpmath.log10(exact(1 - r) ** -N / t)))
    with mpmath.workdps(digits):
        N, R, t, kept = exact(nu), exact(r), mpmath.mpf(1), mpmath.mpf(1)
        for k in range(degree):
            t *= (N + k) / (k + 1) * R
            kept += t
        return exact(1 - r) ** -N - kept


@pytest.mark.parametrize("nu, w, degree", [
    (2, 0.5, 40), (Fraction(5, 2), 0.3, 30), (2, 0.9, 200), (2, 0.95, 10),
    (3, 0.6j, 25), (2, 1 - 1e-7, 3), (Fraction(5, 2), 0.9999999999999999, 3),
    (10 ** 9, 0.00011351351351351351, 3), (86, 0.25702143177112513, 300),
    (1000, 0.03, 300), (10 ** 4, 0.01, 300), (10 ** 6, 0.001, 300),
    (10 ** 6, 0.0001, 300), (10 ** 4, math.sqrt(1.9e-4), 0), (1, 0.5, 531),
    (2, 1e-170, 3), (Fraction(-21, 2), 0.9, 2), (Fraction(-7, 2), 0.9, 1),
    (-3, 0.9, 1), (Fraction(-1, 2), 1e-170, 3), (-3, 1e-170, 2),
    (1100, 0.7071067811865476, 5000), (1100, 0.7071067811865476, 10000),
    (-2000, 0.9, 1900)])
def test_kernel_tail_bound_is_a_true_bound(nu, w, degree):
    # (2, 1 - 1e-7) and (5/2, 0.9999999999999999) summed about 1/(1 - |w|)
    # terms one by one, some 3 s and some 10^16 terms; the closed form less
    # the kept terms returns at once.  At nu = 10^9 the closed form taken as
    # a float power of 1 - |w|^2, off by about nu ulps, falls below the tail.
    # With c_m = (nu)_m/m! and |w|^{2m} rounded apart, the first dropped term
    # underflowed at (86, 0.257...) and (1000, 0.03): tail_bound read 0.0 for
    # tails of 8.0e-269 and 1.4e-613.  c_m overflowed at the three kernels
    # after them (tails 9.5e-616, 1.1e-617, 1.1e-1219), raising
    # FloatRangeExceeded.  At the last one, rho = 0.95 at the cut and t/(1 -
    # rho) = 38.1, 6.7 times the tail; the closed form reads 5.687.  At
    # (1, 0.5, 531) the tail, 1365.33 times the least subnormal, rounds down
    # to 1365 of them; at (2, 1e-170, 3) |w|^2 rounds to 0.0 and the tail,
    # about 1e-1359, is positive.  At nu < 0 the bound is on the absolute
    # terms: the walk took the signed ratio (nu + m)/(m + 1) |w|^2 and read
    # -525.2, -3.25 and -0.83 at the three kernels at |w| = 0.9, whose tails
    # are 465.5, 4.16 and 2.50, and 0.0 at the two at |w| = 1e-170, whose
    # tails are positive; at nu = -3 every term past m = 3 is 0.  At nu =
    # 1100, |w|^2 = 1/2 the whole mass is 10^331: the kept terms written as
    # floats and the closed form overflowed, so tails of 3.6e-258 and
    # 2.8e-1456 raised FloatRangeExceeded, as did the tail of 6.5e-5 at nu =
    # -2000, whose kept terms reach 10^513.
    tail = _kernel_tail(nu, w, degree)
    bound = KernelFun(Fraction(nu), w, degree).tail_bound()
    assert tail <= bound <= max(2 * tail, 5e-324)
    assert KernelFun(-3, 0.9, 5).tail_bound() == 0.0
    with pytest.raises(OutsideBergman):
        KernelFun(NU2, 1.0, 5).tail_bound()
    # a tail of about 2^(10^6) is past the float range: refused at once, not
    # walked term by term to the peak near m = 10^6
    with pytest.raises(FloatRangeExceeded, match="^tail_bound: "):
        KernelFun(10 ** 6, 0.5, 3).tail_bound()


def test_kernel_tail_bound_sweep_against_mpmath():
    # Seeded kernels: nu from 10^-2 to 10^6, |w| from 10^-4 to 1 - 10^-15.5
    # on the four axes, degree 0 to 300, each with its whole mass (1 -
    # |w|^2)^(-nu) below 1e300, so that its tail is a float or below the
    # range: 100 of each here.  tail_bound read 0.0 on 89 of them and raised
    # on 40; on two, at nu < 1/20 and 1 - |w|^2 ~ 1e-9, it summed terms one
    # by one, about 1/(1 - |w|^2) of them, where the closed form now holds.
    # Every bound is true and within twice the tail or is 5e-324, and none
    # raises.
    rng = np.random.default_rng(19)
    for _ in range(200):
        nu = Fraction(10 ** rng.uniform(-2, 6))
        s = 10 ** rng.uniform(-8, math.log10(min(690 / nu, 35)))
        w = math.sqrt(-math.expm1(-s)) * (1, -1, 1j, -1j)[rng.integers(4)]
        degree = int(rng.integers(0, 301))
        tail = _kernel_tail(nu, w, degree)
        bound = KernelFun(nu, w, degree).tail_bound()
        assert tail <= bound <= max(2 * tail, 5e-324), (nu, w, degree)


def test_kernel_tail_bound_at_negative_nu_sweep():
    # Seeded kernels at nu < 0 (integer and not), |w| up to 0.995 or down to
    # 1e-200, degree 0 to 79: the bound is on the absolute terms, true and
    # within twice the tail or 5e-324, and 0.0 only where the tail is 0.
    rng = np.random.default_rng(52)
    for _ in range(150):
        nu = -Fraction(int(rng.integers(1, 80)), int(rng.integers(1, 4)))
        w = (float(rng.uniform(0, 0.995)) if rng.random() < 0.8
             else 10.0 ** -rng.uniform(1, 200)) * (1, 1j)[rng.integers(2)]
        degree = int(rng.integers(0, 80))
        tail = _kernel_tail(nu, w, degree)
        bound = KernelFun(nu, w, degree).tail_bound()
        assert tail <= bound <= max(2 * tail, 5e-324), (nu, w, degree)
        assert (bound == 0) == (tail == 0), (nu, w, degree)


def test_ode_solution_matches_kernel_exactly():
    rng = np.random.default_rng(7)
    for _ in range(10):
        nu = Fraction(int(rng.integers(2, 7)), int(rng.integers(1, 3)))
        if nu <= 1:
            nu += 1
        c = Fraction(int(rng.integers(-3, 4)), int(rng.integers(2, 6)))
        if abs(c) >= nu:
            continue
        sol = ode_solve(nu, c, 9)
        kern = KernelFun(nu, c / nu, 9).to_polyfun()
        assert all(x == y for x, y in zip(sol.coeffs, kern.coeffs)), (nu, c)


def test_ode_solve_returns_degree_plus_one_coefficients():
    for degree in range(4):
        sol = ode_solve(NU2, Fraction(1, 2), degree)
        assert sol.coeffs == KernelFun(NU2, Fraction(1, 4),
                                       degree).to_polyfun().coeffs
    with pytest.raises(ValueError, match="degree must be >= 0"):
        ode_solve(NU2, Fraction(1, 2), -3)


def test_ode_refuses_a_bool_slope():
    # True fell through to complex(c): the float series (1, 1, 0.75, 0.5),
    # where the slope 1 gives exact rationals.  The weight gate refuses it.
    with pytest.raises(ValueError, match=r"^c must be a finite rational "
                                         r"number, got c=True$"):
        ode_solve(NU2, True, 3)
    assert ode_solve(NU2, 1, 3).exact


def test_ode_rejects_outside_bergman():
    with pytest.raises(OutsideBergman):
        ode_solve(NU2, 2, 5)
    with pytest.raises(OutsideBergman):
        ode_solve(NU2, Fraction(-5, 2), 5)


def test_non_integrable_is_one_class():
    assert disc.NonIntegrable is selberg.NonIntegrable \
        is exactnum.NonIntegrable
    with pytest.raises(disc.NonIntegrable):
        matrix_coeff_lp(poly(NU2, 1, 1), 0)


def test_matrix_coeff_lp_parseval_and_unit():
    f = poly(Fraction(3), 1, Fraction(1, 2), Fraction(-1, 3))
    via_quad = matrix_coeff_lp(f, 2)
    via_parseval = float(product_norm2([f, f], 6)) / 5
    assert via_quad == pytest.approx(via_parseval, rel=1e-10)
    # f = 1, n = 1 reproduces the inverse formal degree factor 1/(nu-1).
    one = poly(Fraction(3), 1)
    assert matrix_coeff_lp(one, 1) == pytest.approx(0.5, rel=1e-12)


def _unit_complex_poly(rng, nu, degree):
    c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    f = PolyFun(Fraction(nu), tuple(c))
    return f.scale(1 / math.sqrt(norm2_exact(f)))


def test_disc_oracle_matches_parseval():
    # The degree-sized rule against the monomial norms, over a seeded sweep.
    rng = np.random.default_rng(2025)
    for degree in range(9):
        for n in range(1, 6):
            nu = (NU2, Fraction(5, 2), Fraction(3))[(degree + n) % 3]
            f = _unit_complex_poly(rng, nu, degree)
            ref = float(product_norm2([f] * n, n * nu))
            lp = matrix_coeff_lp(f, n) * float(n * nu - 1)
            assert abs(lp - ref) <= 1e-12 * ref, (degree, n)
            assert abs(norm_p_numeric(f, 2 * n) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("degree, n", [(4, 2), (5, 1), (3, 3)])
@pytest.mark.parametrize("axis", [0, 1])
def test_disc_rule_is_tight(monkeypatch, degree, n, axis):
    # n*deg + 1 angles and n*deg // 2 + 1 Gauss-Jacobi nodes: one fewer on
    # either axis no longer integrates |f|^{2n} exactly.
    f = _unit_complex_poly(np.random.default_rng(degree + 10 * n), NU2,
                           degree)
    ref = float(product_norm2([f] * n, n * NU2)) / float(n * NU2 - 1)
    sizes = disc._rule_sizes
    monkeypatch.setattr(disc, "_rule_sizes", lambda d: tuple(
        k - (i == axis) for i, k in enumerate(sizes(d))))
    assert abs(matrix_coeff_lp(f, n) - ref) > 1e-9 * ref


@pytest.mark.parametrize("degree, n", [(8, 40), (30, 20)])
def test_matrix_coeff_lp_at_high_power(degree, n):
    # z^deg puts the mass of |f|^{2n} near |z| = 1, where a rule sized by
    # deg alone misses it; so does the kernel at w = 0.9.
    for f in (poly(NU2, *[0] * degree, 1),
              KernelFun(NU2, 0.9, degree).to_polyfun()):
        f = f.scale(1 / math.sqrt(norm2_exact(f)))
        ref = float(product_norm2([f] * n, n * NU2)) / float(n * NU2 - 1)
        assert abs(matrix_coeff_lp(f, n) - ref) <= 1e-10 * ref


def test_disc_oracle_at_power_100():
    # alpha = n nu - 2 = 198 on 501 nodes: scipy's Gauss-Jacobi weights put
    # every polynomial here 5.4e-12 off the Parseval value.
    f = _unit_complex_poly(np.random.default_rng(100), NU2, 10)
    ref = float(product_norm2([f] * 100, 100 * NU2)) / float(100 * NU2 - 1)
    assert abs(matrix_coeff_lp(f, 100) - ref) <= 1e-13 * ref


def _float_weights(nu, count):
    """The maximizer's weights |m!/(nu)_m|, m < count, rounded once."""
    f, r = disc._rising_pair(nu, count)
    return np.array([abs(x / y) for x, y in zip(f, r)])


def _kernel_vector(nu, w, degree):
    h = _float_weights(nu, degree + 1)
    x = KernelFun(Fraction(nu), w, degree).to_polyfun().as_complex_array()
    return x * np.sqrt(h) / np.linalg.norm(x * np.sqrt(h))


def _kernel_fit(x, nu):
    kappa2 = np.array(disc._rising_over_factorial(nu, len(x), False))
    return disc._coherent_fit([x], kappa2, 1.0)


@pytest.mark.parametrize("nu", [NU2, Fraction(5, 2), Fraction(7, 2)])
def test_kernel_fit_finds_kernels_and_nearest_kernels(nu):
    rng = np.random.default_rng(8)
    for w in (0, 0.3j, -0.55 + 0.2j, 0.8):
        x = _kernel_vector(nu, w, 12)
        assert _kernel_fit(x, nu) < 1e-14
        # Off the orbit the fit is a minimum over kernels: a fine polar grid
        # of truncated kernels comes no closer.
        y = x + 0.05 * (rng.normal(size=13) + 1j * rng.normal(size=13))
        y /= np.linalg.norm(y)
        ws = np.outer(np.linspace(0, 0.95, 40),
                      np.exp(1j * np.linspace(-np.pi, np.pi, 120))).ravel()
        kappa = np.sqrt(disc._rising_over_factorial(nu, 13, False))
        ks = kappa * ws[:, None] ** np.arange(13)
        ks /= np.linalg.norm(ks, axis=1)[:, None]
        grid = np.linalg.norm(y - (ks.conj() @ y)[:, None] * ks, axis=1)
        assert 1e-3 < _kernel_fit(y, nu) <= grid.min()


def test_kernel_fit_without_an_interior_maximum_raises():
    # z^8 is nearest to the truncated kernels only as |w| -> 1, so the fit
    # runs to the unit circle and reports that it did not converge.
    e = np.zeros(9, dtype=complex)
    e[8] = 1
    with pytest.raises(NoConvergence) as err:
        _kernel_fit(e, NU2)
    assert err.value.stop_reason in ("max_iterations",
                                     "line_search_exhausted")


def test_float_norm_overflow_raises_typed():
    with pytest.raises(FloatRangeExceeded, match=r"nu = 320 .* degree 160"):
        wehrl_check(poly(NU2, 10.0, 1.0), 160)
    with pytest.raises(FloatRangeExceeded, match=r"nu = 2 .* degree 1"):
        norm2_exact(poly(NU2, 1e200, 1.0))
    # The exact lanes never leave the integers.
    assert norm2_exact(poly(NU2, 10 ** 200, 1)) == 10 ** 400 + Fraction(1, 2)


def test_exact_values_past_the_float_range_raise_typed():
    # ||f||^4 and ||f^2||^2, near 10^800, are exact; their floats are not
    f = poly(NU2, 10 ** 200, 1)
    with pytest.raises(FloatRangeExceeded, match="wehrl_check: .* 1.8e308"):
        wehrl_check(f, 2)
    with pytest.raises(FloatRangeExceeded, match="improved_check: .*"):
        improved_check(f, 2)
    # below the float range the exact path still converts
    assert wehrl_check(poly(NU2, 10 ** 70, 1), 2)[1] == pytest.approx(1e280)


@pytest.mark.filterwarnings("error")
def test_quadrature_past_the_float_range_raises_typed_without_warning():
    f = poly(NU2, 1e200, 1.0)  # |f|^4 overflows at every node
    with pytest.raises(FloatRangeExceeded, match="quadrature of"):
        matrix_coeff_lp(f, 2)
    with pytest.raises(FloatRangeExceeded, match="quadrature of"):
        norm_p_numeric(f, 4)
    assert norm_p_numeric(poly(NU2, 1e50, 1.0), 4) > 1e200


def test_maximize_wehrl_reaches_kernel_ray():
    res = maximize_wehrl(2, 2, 8, seed=1)
    assert res.objective >= 1 - 1e-6
    assert res.kernel_distance < 1e-4
    assert res.stop_reason == "gradient_tolerance"
    assert res.grad_norm < 5e-6


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("nu, n, degree", [
    (Fraction(3, 2), 2, 12), (Fraction(5, 2), 3, 8), (3, 2, 10), (2, 4, 6),
    (2, 2, 300)])  # n degree = 600: the objective goes by FFT
def test_maximize_wehrl_reaches_the_ray_without_creeping(nu, n, degree, seed):
    res = maximize_wehrl(nu, n, degree, seed=seed)
    assert res.objective >= 1 - 1e-6
    assert res.kernel_distance < 1e-4
    assert res.stop_reason == "gradient_tolerance"
    assert res.iterations <= 150


def test_maximize_wehrl_stops_on_the_gradient_relative_to_the_objective():
    # From this start, 0.92 from every kernel, the objective is 4.7e-7 and
    # the tangent gradient below 5e-6: only a stop relative to the objective
    # keeps the ascent going to a kernel.
    res = maximize_wehrl(2, 8, 20, seed=5)
    assert res.stop_reason == "gradient_tolerance"
    assert res.iterations > 0 and res.objective >= 1 - 1e-6
    assert res.kernel_distance < 1e-4
    assert res.grad_norm < 5e-6 * res.objective


@pytest.mark.filterwarnings("error")
def test_maximize_wehrl_refuses_weights_below_the_normal_floats(monkeypatch):
    # At nu = 400 the weight m!/(400)_m of degree m = 683 is below 2.2e-308;
    # rounded to 0, it would end the ascent with a NaN gradient.
    calls = []
    monkeypatch.setattr(disc, "_objective_and_gradient",
                        lambda *args: calls.append(args))
    with pytest.raises(FloatRangeExceeded, match="nu = 400, m = 683, is not"):
        maximize_wehrl(400, 2, 1000)
    assert calls == []


def test_kernel_coefficients_past_the_float_range_raise_typed():
    # (400)_m/m! passes 1.8e308 below m = 2000.  tail_bound raised on it
    # too; its terms c_m |w|^{2m} never leave the float range, and the tail,
    # 5.0e-738, is below it.
    kern = KernelFun(Fraction(400), 0.5, 2000)
    with pytest.raises(FloatRangeExceeded, match="nu = 400 exceeds"):
        kern.to_polyfun()
    assert kern.tail_bound() == 5e-324


@pytest.mark.parametrize("seed", range(40))
def test_maximize_wehrl_seed_sweep_at_the_suite_instance(seed):
    # The suite's (nu, n, degree) = (2, 2, 8), under the same assertions.
    test_maximize_wehrl_reaches_the_ray_without_creeping(2, 2, 8, seed)


def _two_loop_direction(S, Y, t):
    """Textbook L-BFGS two-loop recursion (Nocedal and Wright, Algorithm
    7.4) over the rows of S and Y, oldest first, with H0 = gamma I."""
    q, alphas = t.copy(), []
    for s, y in zip(S[::-1], Y[::-1]):
        alphas.append((s @ q) / (y @ s))
        q -= alphas[-1] * y
    r = (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1]) * q
    for s, y, alpha in zip(S, Y, alphas[::-1]):
        r += (alpha - (y @ r) / (y @ s)) * s
    return r


@pytest.mark.parametrize("dim", [18, 42])
@pytest.mark.parametrize("k", range(1, 9))
def test_compact_lbfgs_direction_matches_the_two_loop_recursion(dim, k):
    rng = np.random.default_rng([dim, k])
    for _ in range(10):
        # Curvature pairs y ~ M s of an SPD M, with noise; s.y > 0 each.
        B = rng.normal(size=(dim, dim))
        S = rng.normal(size=(k, dim))
        Y = S @ (B @ B.T / dim + np.eye(dim)) + 0.1 * rng.normal(size=(k, dim))
        Y[np.einsum("ij,ij->i", S, Y) <= 0] *= -1
        t = rng.normal(size=dim)
        d, ref = disc._lbfgs_direction(S, Y, t), _two_loop_direction(S, Y, t)
        assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
        # The secant equation for the newest pair: H y = s.
        assert np.allclose(disc._lbfgs_direction(S, Y, Y[-1]), S[-1],
                           rtol=0, atol=1e-12 * np.linalg.norm(S[-1]))


@pytest.mark.parametrize("nu, n, degree, w", [
    (2, 2, 40, None), (2, 2, 256, None), (2, 2, 257, None), (2, 2, 1000, None),
    (Fraction(5, 2), 3, 170, 0.5j), (Fraction(5, 2), 3, 171, 0.5j),
    (3, 4, 200, -0.7)])
def test_fft_objective_matches_the_direct_convolutions(monkeypatch, nu, n,
                                                       degree, w):
    # On random unit vectors at n = 2, and at n >= 3 near a kernel, where
    # the ascent ends: from a random start c^n spans so many decades there
    # that the FFT's error, set by its largest entry, reached 5e-11 of the
    # objective at (5/2, 3, 300).  The default convolves directly up to n
    # degree = 512, the measured disc._DIRECT_LENGTH, which the pairs of
    # degrees (256, 257) and (170, 171) straddle.
    rng = np.random.default_rng([n, degree])
    h = _float_weights(nu, degree + 1)
    H = _float_weights(n * Fraction(nu), n * degree + 1)
    weights = n, np.sqrt(h), n / np.sqrt(h), H
    x = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    if w is not None:
        x = _kernel_vector(nu, w, degree) + 1e-2 * x / np.linalg.norm(x)
    x = (x / np.linalg.norm(x)).view(float)
    default = disc._objective_and_gradient(x, *weights)
    sides = {}
    for cutoff in (0, 10 ** 9):
        monkeypatch.setattr(disc, "_DIRECT_LENGTH", cutoff)
        sides[cutoff] = disc._objective_and_gradient(x, *weights)
    (phi, grad), (phi_ref, grad_ref) = sides[0], sides[10 ** 9]
    assert abs(phi - phi_ref) <= 1e-12 * phi_ref
    assert np.linalg.norm(grad - grad_ref) <= 1e-12 * np.linalg.norm(grad_ref)
    side = sides[0 if n * degree > 512 else 10 ** 9]
    assert default[0] == side[0] and np.array_equal(default[1], side[1])


@pytest.mark.parametrize("nu, n, degree, w", [
    (2, 2, 8, 0), (Fraction(5, 2), 3, 8, 0), (2, 2, 40, 0.3), (3, 2, 40, 0.5)])
def test_kernel_is_a_morse_bott_maximum(nu, n, degree, w):
    # Second-order certificate: the Hessian of phi(x/|x|) on the real
    # tangent space at K_w vanishes exactly on the kernel orbit (the phase
    # and the two real directions of w) and is negative definite across it.
    kern = KernelFun(Fraction(nu), w, degree)
    assert kern.tail_bound() < 1e-10
    h = _float_weights(nu, degree + 1)
    H = _float_weights(n * Fraction(nu), n * degree + 1)
    x = kern.to_polyfun().as_complex_array() * np.sqrt(h)
    x /= np.linalg.norm(x)

    def phi(y):
        return disc._objective_and_gradient(
            (y / np.linalg.norm(y)).view(float), n, np.sqrt(h),
            n / np.sqrt(h), H)[0]

    # Rows of vt after the first span the real complement of x in R^{2N}.
    vt = np.linalg.svd(np.concatenate([x.real, x.imag])[None, :])[2]
    dirs = vt[1:, :degree + 1] + 1j * vt[1:, degree + 1:]
    step = 1e-4
    hess = np.empty((len(dirs), len(dirs)))
    for a in range(len(dirs)):
        for b in range(a, len(dirs)):
            p, m = step * (dirs[a] + dirs[b]), step * (dirs[a] - dirs[b])
            hess[a, b] = hess[b, a] = (phi(x + p) - phi(x + m) - phi(x - m)
                                       + phi(x - p)) / (4 * step ** 2)
    eig = np.linalg.eigvalsh(hess)
    null = np.abs(eig) < 1e-6
    assert null.sum() == 3
    assert np.all(eig[~null] <= -1)


def test_maximize_wehrl_calls_no_lapack_inverse_or_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK call in the maximizer")

    for name in ("inv", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    res = maximize_wehrl(2, 2, 8, seed=0)
    assert res.stop_reason == "gradient_tolerance"
    assert res.kernel_distance < 1e-4


def test_maximize_wehrl_stops_where_a_step_rounds_back_to_x(monkeypatch):
    # At (nu, n, degree) = (2, 60, 8), seed 0, the start's objective is
    # about 2e-22 and its ascent direction below the float spacing of x:
    # x + t d rounds back to x, the Armijo test accepts it, and every later
    # step would repeat it.  The search stops at once instead of running
    # all _MAX_ITERS iterations.
    real, seen = disc._objective_and_gradient, []
    monkeypatch.setattr(disc, "_objective_and_gradient",
                        lambda x, *args: seen.append(x.copy()) or real(x, *args))
    with pytest.raises(NoConvergence, match="iteration 0 leaves x unchanged"
                       ) as err:
        maximize_wehrl(2, 60, 8, seed=0)
    assert err.value.stop_reason == "zero_step"
    assert len(seen) == 2 and seen[0].tobytes() == seen[1].tobytes()


def test_maximize_wehrl_falls_back_to_the_tangent_on_a_descent_direction(
        monkeypatch):
    # An L-BFGS direction d with tangent . d <= 0 would step downhill; the
    # search steps along the tangent gradient instead, so its first trial
    # point is x + tangent, normalised (full step), not x - tangent.  The
    # third direction of the seed-0 run is made -tangent here.
    real_direction, real_objective = (disc._lbfgs_direction,
                                      disc._objective_and_gradient)
    log = []

    def direction(S, Y, t):
        log.append(("tangent", t.copy()))
        if sum(kind == "tangent" for kind, _ in log) == 3:
            return -t
        return real_direction(S, Y, t)

    monkeypatch.setattr(disc, "_lbfgs_direction", direction)
    monkeypatch.setattr(disc, "_objective_and_gradient", lambda x, *args: (
        log.append(("x", x.copy())) or real_objective(x, *args)))
    res = maximize_wehrl(2, 2, 8, seed=0)
    j = [j for j, (kind, _) in enumerate(log) if kind == "tangent"][2]
    (_, x), (_, tangent), (_, trial) = log[j - 1:j + 2]  # the accepted x
    assert disc._HALVINGS[0] == 1.0
    up, down = x + tangent, x - tangent
    assert trial.tobytes() == (up / math.sqrt(up @ up)).tobytes()
    assert trial.tobytes() != (down / math.sqrt(down @ down)).tobytes()
    assert res.stop_reason == "gradient_tolerance" and res.iterations == 74


def test_maximize_wehrl_no_convergence_raises(monkeypatch):
    monkeypatch.setattr(disc, "_MAX_ITERS", 5)
    monkeypatch.setattr(disc, "_GRAD_TOL", 1e-9)
    with pytest.raises(NoConvergence) as err:
        maximize_wehrl(2, 2, 8, seed=1)
    assert err.value.stop_reason == "max_iterations"
    with pytest.raises(ValueError):
        maximize_wehrl(2, 2, 3)
    for n in (0, 1):
        with pytest.raises(ValueError, match="n must be >= 2"):
            maximize_wehrl(2, n, 8)


@pytest.mark.parametrize("nu", [Fraction(1, 2), 1, Fraction(-3, 2)])
def test_maximize_wehrl_rejects_small_weights_before_the_ascent(monkeypatch,
                                                                nu):
    calls = []
    monkeypatch.setattr(disc, "_objective_and_gradient",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"must exceed 1, got {nu}$"):
        maximize_wehrl(nu, 2, 8)
    assert calls == []


def test_fit_kernel_builds_kernel_coefficients_once(monkeypatch):
    real = disc._binomials  # the row builder at an integer nu
    calls = []

    def counting(a, count):
        calls.append(count)
        return real(a, count)

    monkeypatch.setattr(disc, "_binomials", counting)
    res = maximize_wehrl(2, 2, 8, seed=3)
    assert res.kernel_distance < 1e-4
    # The weights h (degree 8) and H (degree 16); the coherent-state fit's
    # kernel coefficients are 1/h, no third table.
    assert calls == [9, 17]


def test_maximize_wehrl_line_search_exhaustion_raises(monkeypatch):
    real = disc._objective_and_gradient
    calls = []

    def never_ascends(x, *args):
        phi, grad = real(x, *args)
        calls.append(phi)
        return (phi if len(calls) == 1 else phi - 1.0), grad

    monkeypatch.setattr(disc, "_objective_and_gradient", never_ascends)
    with pytest.raises(NoConvergence) as err:
        maximize_wehrl(2, 2, 8, seed=1)
    assert err.value.stop_reason == "line_search_exhausted"
    assert len(calls) == 1 + 60
