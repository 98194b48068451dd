import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, strategies as st

from su2_reference import cartan_mass_exact, group_element
from wehrl_lab import compact
from wehrl_lab.compact import (Su2Irrep, casimir_tensor_check,
                               haar_moment, haar_moment_closed,
                               random_unit_vector, reduction_consistency,
                               translate_fit_distance, translate_vector,
                               wehrl_compact_check, wehrl_integral_numeric)
from wehrl_lab.disc import NoConvergence, product_norm2
from wehrl_lab.exactnum import QC, gauss_jacobi


def _kron_top_basis(m, n):
    """Orthonormal rows spanning the top component V_{nm} of V_m^{(x) n}:
    the normalized k-fold total lowerings of e_top^{(x) n}, built densely
    on the Kronecker product basis."""
    assert (m + 1) ** n <= 256, "dense reference limited to dimension 256"
    L, eye = Su2Irrep(m).lowering_matrix(), np.eye(m + 1)
    total = sum(reduce(np.kron, [L if j == k else eye for j in range(n)])
                for k in range(n))
    w = np.zeros((m + 1) ** n)
    w[0] = 1.0
    rows = []
    for _ in range(n * m + 1):
        rows.append(w / np.linalg.norm(w))
        w = total @ w
    return np.array(rows)


def _kron_mass(v, n):
    basis = _kron_top_basis(len(v) - 1, n)
    return float(np.sum(np.abs(basis @ reduce(np.kron, [v] * n)) ** 2))


def test_irrep_relations():
    rep = Su2Irrep(3)
    Jp, Jm, J3 = rep.raising_matrix(), rep.lowering_matrix(), rep.j3_matrix()
    assert np.allclose(Jp @ Jm - Jm @ Jp, 2 * J3)
    assert np.allclose(J3 @ Jp - Jp @ J3, Jp)
    assert rep.dim == 4 and rep.weight(0) == 3 and rep.weight(3) == -3


def _wrapper_form_loop_lowering(m):
    """The lowering matrix built entry by entry."""
    L = np.zeros((m + 1, m + 1))
    for i in range(m):
        L[i + 1, i] = math.sqrt((i + 1) * (m - i))
    return L


def test_lowering_matrix_entries_are_correctly_rounded_roots():
    for m in range(21):
        assert Su2Irrep(m).lowering_matrix().tobytes() \
            == _wrapper_form_loop_lowering(m).tobytes(), m


def test_group_element_unitary():
    U = group_element(4, 0.7, 1.2, -2.1)
    assert np.allclose(U.conj().T @ U, np.eye(5), atol=1e-12)


def test_translate_vector_closed_form_matches_group_element():
    for m in (0, 1, 2, 5, 12):
        e_top = np.zeros(m + 1)
        e_top[0] = 1.0
        for angles in ((0.0, 0.0, 0.0), (0.7, 1.2, -2.1), (-3.0, 2.9, 0.4),
                       (2.2, 0.05, 3.1), (1.0, math.pi, -1.0)):
            ref = group_element(m, *angles) @ e_top
            assert np.abs(translate_vector(m, *angles) - ref).max() < 1e-13


def test_cartan_projection_ranks_and_projector_axioms():
    # The dense reference the Bloch-polynomial masses are pinned to.
    for m, n in ((1, 2), (1, 3), (2, 3), (3, 4), (15, 2)):
        basis = _kron_top_basis(m, n)
        M = basis.conj().T @ basis
        assert np.allclose(M, M.conj().T)
        assert np.allclose(M @ M, M, atol=1e-13)
        assert np.linalg.matrix_rank(M) == n * m + 1
    # n=2, m=1 top component is the symmetrizer on C^2 (x) C^2
    basis = _kron_top_basis(1, 2)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * j + i, 2 * i + j] = 1
    assert np.allclose(basis.T @ basis, (np.eye(4) + swap) / 2)


def test_bloch_mass_matches_kronecker_reference():
    rng = np.random.default_rng(11)
    for m in range(1, 16):
        for n in range(1, 9):
            if (m + 1) ** n > 256:
                continue
            v = random_unit_vector(m, rng)
            ref = _kron_mass(v, n)
            assert abs(wehrl_compact_check(v, m, n).mass - ref) < 1e-13
            if n == 2:
                assert abs(casimir_tensor_check(v, m).top_mass - ref) < 1e-13


def test_cartan_mass_example_two_thirds():
    v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    mass = wehrl_compact_check(v, 2, 2).mass
    assert mass == pytest.approx(2 / 3, abs=1e-13)
    exact = cartan_mass_exact([sp.sqrt(2) / 2, 0, sp.sqrt(2) / 2], 2, 2)
    assert exact == sp.Rational(2, 3)


def test_exact_mass_matches_the_sympy_reference():
    # Gaussian-rational Bloch coefficients u give v_i = u_i / (s
    # binom(m, i)^{1/2}); the exact mass against sympy's on that v.
    rng = np.random.default_rng(4)
    for m, n in ((1, 2), (2, 2), (2, 3), (3, 2), (4, 3)):
        u = [QC(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
                Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))))
             for _ in range(m + 1)]
        u[0] = QC(Fraction(1), u[0].im)
        sym = [(sp.Rational(c.re.numerator, c.re.denominator)
                + sp.I * sp.Rational(c.im.numerator, c.im.denominator))
               / sp.sqrt(math.comb(m, i)) for i, c in enumerate(u)]
        norm = sp.sqrt(sum(sp.Abs(c) ** 2 for c in sym))
        want = cartan_mass_exact([c / norm for c in sym], n, m)
        v = np.array([complex(c) for c in sym], dtype=complex)
        rep = wehrl_compact_check(v / np.linalg.norm(v), m, n, exact_bloch=u)
        assert isinstance(rep.exact_value, Fraction)
        assert sp.simplify(want / (n * m + 1)
                           - sp.Rational(rep.exact_value.numerator,
                                         rep.exact_value.denominator)) == 0
        assert abs(rep.mass - float(want)) < 1e-13


def test_exact_bloch_is_checked_against_the_vector():
    v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    rep = wehrl_compact_check(v, 2, 2, exact_bloch=[2, 0, 2])
    assert rep.exact_value == Fraction(2, 15)
    assert rep.integral_numeric == pytest.approx(2 / 15, abs=1e-15)
    for bad in ([1, 0, 2], [1.0, 0, 1], [1, 0], [1, 0, 1, 0], [0, 0, 0]):
        with pytest.raises(ValueError, match="Bloch coefficients of v"):
            wehrl_compact_check(v, 2, 2, exact_bloch=bad)


def test_casimir_identity_on_translates_only():
    top = casimir_tensor_check([1, 0, 0, 0], 3)
    assert top.equality and top.residual < 1e-13
    assert top.casimir_constant == pytest.approx(top.casimir_expected)
    moved = casimir_tensor_check(translate_vector(3, 1.0, 0.4, 2.2), 3)
    assert moved.residual < 1e-12
    mixed = casimir_tensor_check(np.array([1, 0, 1]) / math.sqrt(2), 2)
    assert not mixed.equality
    assert mixed.top_mass == pytest.approx(2 / 3)


def test_wehrl_compact_schur_case():
    rep = wehrl_compact_check([1, 0], 1, 2)
    assert rep.integral_exact == pytest.approx(1 / 3, abs=1e-14)
    assert rep.integral_numeric == pytest.approx(1 / 3, abs=1e-10)


def test_wehrl_compact_equality_orbit_and_m1_transitivity():
    t = translate_vector(4, 0.3, 0.8, -1.0)
    rep = wehrl_compact_check(t, 4, 2)
    assert abs(rep.slack) < 1e-10
    assert translate_fit_distance(t, 4) < 1e-6
    # m = 1: every unit vector is a translate of the top vector.
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = random_unit_vector(1, rng)
        r = wehrl_compact_check(v, 1, 3)
        assert abs(r.slack) < 1e-10


_ANGLE = st.floats(-math.pi, math.pi)
_BETA = st.one_of(st.floats(0.0, math.pi), st.floats(0.0, 1e-6),
                  st.floats(math.pi - 1e-6, math.pi))


@given(st.integers(0, 12), _ANGLE, _BETA, _ANGLE)
@example(3, 1.0177840875868354, 1.5747527321121295, -2.526372335888243)
def test_fit_finds_every_translate(m, alpha, beta, gamma):
    # Including beta near 0 and near pi, where the chart 1/zeta takes over.
    # The example lies near the equator, where a local search started from
    # the pole can stall 0.44 away.
    t = translate_vector(m, alpha, beta, gamma)
    assert translate_fit_distance(t, m) < 1e-7


def test_fit_matches_the_overlap_on_perturbed_translates():
    # The distance sqrt(2 - 2|<v, t>|) at the fitted translate t is a
    # minimum: no translate on a fine grid of Euler angles comes closer.
    rng = np.random.default_rng(6)
    for m in (2, 5, 9):
        v = translate_vector(m, 0.4, 2.0, 0.0) + 0.1 * random_unit_vector(
            m, rng)
        v /= np.linalg.norm(v)
        dist = translate_fit_distance(v, m)
        grid = min(math.sqrt(2 - 2 * abs(np.vdot(translate_vector(
            m, a, b, 0.0), v))) for a in np.linspace(-math.pi, math.pi, 121)
            for b in np.linspace(0, math.pi, 61))
        assert 0.01 < dist <= grid


def test_fit_that_does_not_converge_raises(monkeypatch):
    # A fit whose objective is noise reports why it stopped instead of
    # returning a distance.
    real, noise = np.polyval, np.random.default_rng(0)
    monkeypatch.setattr(np, "polyval", lambda p, z: real(p, z) * (
        1 + 1e-3 * noise.random(np.shape(z))))
    with pytest.raises(NoConvergence) as err:
        translate_fit_distance(translate_vector(4, 0.3, 1.0, 0.0)
                               + 0.2 * random_unit_vector(
                                   4, np.random.default_rng(1)), 4)
    assert err.value.stop_reason in ("line_search_exhausted",
                                     "max_iterations")


def test_own_gauss_rule_closes_the_haar_route_gap():
    # With scipy's Gauss-Legendre weights the two routes were 1.09e-12
    # apart here; the rule's weights now hold the gap at rounding level.
    v = random_unit_vector(200, np.random.default_rng(200005))
    r = wehrl_compact_check(v, 200, 5)
    assert abs(r.integral_numeric - r.integral_exact) \
        <= 1e-13 * r.integral_exact


def test_route_agreement_random():
    rng = np.random.default_rng(5)
    for m in (2, 3):
        for n in (2, 3):
            v = random_unit_vector(m, rng)
            r = wehrl_compact_check(v, m, n)
            assert r.slack >= -1e-10
            assert abs(r.integral_numeric - r.integral_exact) < 1e-8


def test_reduction_consistency():
    rng = np.random.default_rng(9)
    for m in (1, 2, 3):
        v = random_unit_vector(m, rng)
        assert reduction_consistency(v, m, 3) < 1e-12


def test_reduction_consistency_detects_a_wrong_bloch_weight(monkeypatch):
    # w comes from lowering, not from the Bloch weights binom(m, i)^{1/2}
    # that the masses use, so a perturbed weight shows up as a gap.
    exact = compact._root_binomials

    def perturbed(m):
        out = exact(m)
        out[1] *= 1 + 1e-9
        return out

    monkeypatch.setattr(compact, "_root_binomials", perturbed)
    v = random_unit_vector(3, np.random.default_rng(9))
    assert reduction_consistency(v, 3, 3) > 1e-12


def test_haar_moments_closed_form():
    for p in range(5):
        for q in range(5):
            assert haar_moment(p, q) \
                == pytest.approx(float(haar_moment_closed(p, q)), abs=1e-13)


def test_haar_oracle_matches_bloch_route():
    # The oracle's degree-sized rule against the Bloch mass, over a seeded
    # sweep of random vectors.
    rng = np.random.default_rng(2024)
    for m in range(1, 9):
        for n in range(1, 7):
            v = random_unit_vector(m, rng)
            r = wehrl_compact_check(v, m, n)
            assert abs(r.integral_numeric - r.integral_exact) \
                <= 1e-12 * r.integral_exact, (m, n)


@pytest.mark.parametrize("m, n", [(2, 2), (4, 1), (3, 3)])
@pytest.mark.parametrize("axis", [0, 1])
def test_haar_rule_is_tight(monkeypatch, m, n, axis):
    # nm + 1 gamma nodes and nm // 2 + 1 Legendre nodes: one fewer on
    # either axis no longer integrates |F|^{2n} exactly.
    v = random_unit_vector(m, np.random.default_rng(10 * m + n))
    exact = wehrl_compact_check(v, m, n).integral_exact
    sizes = compact._rule_sizes
    monkeypatch.setattr(compact, "_rule_sizes", lambda d: tuple(
        k - (i == axis) for i, k in enumerate(sizes(d))))
    assert abs(wehrl_integral_numeric(v, m, n) - exact) > 1e-9 * exact


def test_unit_vector_required():
    with pytest.raises(ValueError):
        wehrl_compact_check([1.0, 1.0], 1, 2)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            wehrl_compact_check([1.0, 0.0], 1, n)


def test_frontier_against_haar_quadrature():
    rng = np.random.default_rng(20)
    r = wehrl_compact_check(random_unit_vector(20, rng), 20, 10)
    assert r.slack >= -1e-10
    assert abs(r.integral_numeric - r.integral_exact) \
        <= 1e-10 * r.integral_exact
    t = wehrl_compact_check(translate_vector(20, 0.5, 1.1, -0.7), 20, 10)
    assert abs(t.slack) < 1e-12


def test_binomial_weights_stay_in_float_range():
    # nm = 1027 is the largest nm whose weights 1/binom(nm, k) are all
    # normal floats; every unit vector of V_1 is a coherent translate.
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    assert math.comb(1027, 513) <= 2 ** 1022 < math.comb(1028, 514)
    assert wehrl_compact_check(v, 1, 1027).mass == pytest.approx(1, abs=1e-12)
    with pytest.raises(ValueError, match="nm = 1028 exceeds 1027"):
        wehrl_compact_check(v, 1, 1028)
    u = random_unit_vector(600, np.random.default_rng(0))
    with pytest.raises(ValueError, match="nm = 1200 exceeds 1027"):
        reduction_consistency(u, 600, 2)


@pytest.mark.parametrize("m, n", [(60, 17), (100, 10)])
def test_long_mass_sum_is_correctly_rounded(m, n):
    # The mass over nm + 1 terms, against the exact rational sum of the
    # same float Bloch coefficients over exact binomials.
    v = random_unit_vector(m, np.random.default_rng(1000 * m + n))
    p = np.ones(1, dtype=complex)
    for _ in range(n):
        p = np.convolve(p, v * np.sqrt([float(math.comb(m, i))
                                        for i in range(m + 1)]))
    exact = sum((Fraction(c.real) ** 2 + Fraction(c.imag) ** 2)
                / math.comb(n * m, k) for k, c in enumerate(p.tolist()))
    mass = wehrl_compact_check(v, m, n).mass
    assert abs(Fraction(mass) - exact) <= 2.5e-16 * exact


def test_casimir_calibration_failure_raises(monkeypatch):
    real = Su2Irrep.killing_orthonormal_basis

    def skewed(self):
        T1, T2, T3 = real(self)
        return [T1, T2, 2 * T3]

    monkeypatch.setattr(Su2Irrep, "killing_orthonormal_basis", skewed)
    with pytest.raises(ValueError, match="miscalibrated"):
        casimir_tensor_check(translate_vector(2, 0.3, 0.7, 0.1), 2)


def _wrapper_form_mass(factors):
    # the top mass with one binom(m, i)^{1/2} row per factor
    return product_norm2([u * compact._root_binomials(len(u) - 1)
                          for u in factors], -sum(len(u) - 1 for u in factors))


def _wrapper_form_check(v, m, n):
    """(integral_numeric, integral_exact, mass) of wehrl_compact_check,
    computed with np.mean, np.sum and one root row per factor."""
    mass = _wrapper_form_mass([v] * n)
    size, nodes = compact._rule_sizes(n * m)
    t, wt = gauss_jacobi(nodes, 0.0, 0.0)
    F = size * np.fft.ifft(v[:, None] * compact._top_row(m, t), size, axis=0)
    numeric = float(np.sum(wt * np.mean(np.abs(F) ** (2 * n), axis=0)))
    return numeric, mass * (1.0 / (n * m + 1)), mass


def _wrapper_form_casimir(v, m):
    """(residual, top_mass, casimir_constant) of casimir_tensor_check, with
    np.kron tensors and the lowering matrix built entry by entry."""
    v = v / np.linalg.norm(v)
    Jm = _wrapper_form_loop_lowering(m)
    Jp = Jm.T
    J3 = np.diag([(m - 2 * i) / 2.0 for i in range(m + 1)]).astype(complex)
    Ts = [((Jp + Jm) / 2.0) / math.sqrt(2), ((Jp - Jm) / 2.0j) / math.sqrt(2),
          J3 / math.sqrt(2)]
    lam_lam = (m / (2 * math.sqrt(2))) ** 2
    lhs = sum(np.kron(T @ v, T @ v) for T in Ts)
    residual = float(np.linalg.norm(lhs - lam_lam * np.kron(v, v)))
    constant = float(np.real(sum(T @ T for T in Ts)[0, 0]))
    return residual, _wrapper_form_mass([v, v]), constant


# The (m, n) rungs of the benchmark's dimension ladder, one seeded unit
# vector each; every field must equal its wrapper form bit for bit.
_DIM_LADDER = ((2, 2), (2, 3), (3, 3), (3, 4), (7, 3), (4, 4), (2, 6), (8, 3),
               (9, 3), (3, 5), (5, 4), (10, 3), (11, 3), (2, 7), (4, 5), (3, 6))


@pytest.mark.parametrize("m, n", _DIM_LADDER)
def test_both_routes_equal_their_wrapper_forms_bit_for_bit(m, n):
    v = random_unit_vector(m, np.random.default_rng([m, n]))
    r = wehrl_compact_check(v, m, n)
    got = (r.integral_numeric, r.integral_exact, r.mass)
    assert [x.hex() for x in got] \
        == [x.hex() for x in _wrapper_form_check(v, m, n)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_casimir_check_equals_its_wrapper_form_bit_for_bit(m):
    v = translate_vector(m, 0.7, 1.2, -2.1)
    r = casimir_tensor_check(v, m)
    got = (r.residual, r.top_mass, r.casimir_constant)
    assert [x.hex() for x in got] \
        == [x.hex() for x in _wrapper_form_casimir(v, m)]
