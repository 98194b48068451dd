import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, strategies as st

from su2_reference import cartan_mass_exact, group_element
from wehrl_lab import compact
from wehrl_lab.compact import (Su2Irrep, casimir_tensor_check, haar_moment,
                               random_unit_vector, reduction_consistency,
                               translate_fit_distance, translate_vector,
                               wehrl_compact_check, wehrl_integral_numeric)
from wehrl_lab.degrees import gamma_ratio_product
from wehrl_lab.disc import (NoConvergence, PolyFun, _rising_over_factorial,
                            product_norm2)
from wehrl_lab.exactnum import QC, FloatRangeExceeded, gauss_jacobi


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
    Jm, J3 = rep.lowering_matrix(), rep.j3_matrix()
    Jp = Jm.T  # the raising operator
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


def test_translate_vector_refuses_a_negative_highest_weight():
    # m = -1 gave an empty array.
    with pytest.raises(ValueError, match=r"^highest weight m must be >= 0$"):
        translate_vector(-1, 0.1, 0.2, 0.3)


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


def _exact_value(u, m, n):
    """The exact integral for v_i = u_i / (s binom(m, i)^{1/2}), s^2 = sum
    |u_i|^2 / binom(m, i): product_norm2 at nu = -nm over s^{2n} (nm + 1)."""
    p = PolyFun(2, tuple(u))  # product_norm2 does not read the weight
    return product_norm2([p] * n, -n * m) / (
        product_norm2([p], -m) ** n * (n * m + 1))


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
        exact = _exact_value(u, m, n)
        assert isinstance(exact, Fraction)
        assert sp.simplify(want / (n * m + 1)
                           - sp.Rational(exact.numerator,
                                         exact.denominator)) == 0
        rep = wehrl_compact_check(v / np.linalg.norm(v), m, n)
        assert abs(rep.mass - float(want)) < 1e-13


def test_exact_value_does_not_depend_on_the_scale_of_u():
    v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    for u in ([1, 0, 1], [2, 0, 2], [Fraction(-1, 3), 0, Fraction(-1, 3)]):
        assert _exact_value(u, 2, 2) == Fraction(2, 15)
    rep = wehrl_compact_check(v, 2, 2)
    assert rep.integral_numeric == pytest.approx(2 / 15, abs=1e-15)


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


def _seeded_real_vector(index: int) -> tuple:
    # The index-th of a seeded run of real vectors: m in 1..200, v_0 = 1,
    # the other entries integers in -9..9.
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        m = int(rng.integers(1, 201))
        v = rng.integers(-9, 10, size=m + 1).astype(float)
    v[0] = 1
    return v, m


def _seeded_gaussian_vector(index: int) -> tuple:
    # The index-th of a seeded run of complex Gaussian vectors, m in 1..59.
    rng = np.random.default_rng(11)
    for _ in range(index + 1):
        m = int(rng.integers(1, 60))
        v = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
    return v, m


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("index", [103, 826])
def test_fit_leaves_a_saddle_on_the_real_axis(index):
    # These fits reach a saddle of the overlap on the real axis (m = 45,
    # 14), where no Newton step applies; the fit leaves it along its convex
    # direction, and without that step both raise NoConvergence.
    v, m = _seeded_real_vector(index)
    assert 0 <= translate_fit_distance(v, m) <= math.sqrt(2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("index", [2, 29, 37, 83, 224, 358])
def test_fit_distance_of_a_seeded_real_vector_lies_in_0_to_root_2(index):
    # These fits met a saddle on the real axis (m = 82, 47, 81, 86, 44, 55)
    # from the fit's former starts; its ring starts avoid them.
    v, m = _seeded_real_vector(index)
    assert 0 <= translate_fit_distance(v, m) <= math.sqrt(2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_stops_once_its_objective_cannot_resolve_a_newton_step():
    # Here the line search accepts a Newton step at an unchanged L, and the
    # fit stops there: one more step would read 0.6486731130663226 at m = 2
    # and 0.7216282903306235 on the 298th seeded Gaussian vector (m = 4).
    v = [2.875994933883676 + 1.2122432747590717j,
         -0.2804221389186246 + 0.8424269658711717j,
         1.8371635091417857 - 2.0124123794366264j]
    assert translate_fit_distance(v, 2) == 0.6486731130663228
    v, m = _seeded_gaussian_vector(297)
    assert m == 4 and translate_fit_distance(v, m) == 0.7216282903306233


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_distance_of_the_120th_seeded_gaussian_vector_is_0_8226():
    # The 120th of a seeded run of complex Gaussian vectors (m = 11): from
    # its sixth step on, each full Newton step (1.8e-8) sat just above the
    # tolerance (1.5e-8), and the line search accepted it only where L
    # rounds to its old value, until NoConvergence at step 100.
    v, m = _seeded_gaussian_vector(119)
    assert m == 11
    assert translate_fit_distance(v, m) == pytest.approx(0.8226, abs=1e-4)


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


def test_haar_oracle_does_not_read_the_bloch_row(monkeypatch):
    # The Haar oracle's binomials are disc's (-m)_i/i!, not _root_binomials:
    # a wrong Bloch weight moves only the algebraic route, so the route gap
    # on the suite's random vectors exceeds its tolerance 1e-6.  With one
    # shared row both routes moved together and the gap stayed at 1e-16.
    exact = compact._root_binomials

    def perturbed(m):
        out = exact(m)
        out[1] *= 1.1
        return out

    monkeypatch.setattr(compact, "_root_binomials", perturbed)
    rng = np.random.default_rng(0)
    checks = [wehrl_compact_check(random_unit_vector(m, rng), m, n)
              for m in range(1, 5) for n in (2, 3)]
    assert max(abs(r.integral_numeric - r.integral_exact)
               for r in checks) > 1e-2


def test_haar_moments_closed_form():
    # the closed form B(p + 1, q + 1) = p!q!/(p+q+1)!
    for p in range(5):
        for q in range(5):
            closed = gamma_ratio_product((p + 1, q + 1), (p + q + 2,))
            assert closed == Fraction(math.factorial(p) * math.factorial(q),
                                      math.factorial(p + q + 1))
            assert haar_moment(p, q) == pytest.approx(float(closed), abs=1e-13)


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


@pytest.mark.parametrize("m, n", [(20, 10), (60, 17), (100, 10), (200, 5),
                                  (513, 2), (1, 1027)])
def test_haar_oracle_matches_the_mass_up_to_the_float_range(m, n):
    # The Haar rows drop d_i's sign (-1)^i, a shift of gamma by pi, which
    # leaves the equispaced mean exact up to nm = 1027.
    v = random_unit_vector(m, np.random.default_rng([m, n]))
    r = wehrl_compact_check(v, m, n)
    assert abs(r.integral_numeric - r.integral_exact) \
        <= 1e-12 * r.integral_exact


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
    with pytest.raises(ValueError, match="^vector length must be m \\+ 1$"):
        wehrl_integral_numeric([1.0], 3, 2)  # no broadcast of a short v
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            wehrl_compact_check([1.0, 0.0], 1, n)
    with pytest.raises(ValueError, match="^n must be >= 2$"):
        reduction_consistency([1.0, 0.0], 1, 1)
    for p, q in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="^p, q must be nonnegative$"):
            haar_moment(p, q)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
def test_vectors_whose_squared_norm_leaves_the_float_range(scale):
    # |v|^2 overflows, is subnormal, or underflows to 0: the checks divide
    # v by its largest part first, and a translate stays on the orbit (it
    # read top_mass 0 at 1e200 and raised NoConvergence at 1e-200).
    v = scale * translate_vector(3, 0.3, 1.1, 0.2)
    report = casimir_tensor_check(v, 3)
    assert report.equality and report.top_mass == pytest.approx(1, abs=1e-14)
    assert translate_fit_distance(v, 3) < 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("v", [np.zeros(4), [np.nan, 0, 0, 1],
                               [0, np.inf, 0, 0],
                               [0, 0, complex(0, np.nan), 0]])
def test_zero_and_non_finite_vectors_are_refused(v):
    # Not NoConvergence, nor a FloatRangeExceeded that blames the float
    # limit: _vector refuses a NaN or infinite entry at every SU(2) check,
    # and a zero vector fails the unit-vector gate.
    message = "^v must be a nonzero vector of finite entries$"
    with pytest.raises(ValueError, match=message):
        casimir_tensor_check(v, 3)
    with pytest.raises(ValueError, match=message):
        translate_fit_distance(v, 3)
    finite = np.isfinite(v).all()
    with pytest.raises(ValueError, match="^v must be a unit vector$"
                       if finite else message):
        wehrl_compact_check(v, 3, 2)
    if not finite:  # a zero vector has reduction residual 0 and integral 0
        with pytest.raises(ValueError, match=message):
            reduction_consistency(v, 3, 3)
        with pytest.raises(ValueError, match=message):
            wehrl_integral_numeric(v, 3, 2)


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
    with pytest.raises(FloatRangeExceeded, match="-1028, m = 499, is not"):
        wehrl_compact_check(v, 1, 1028)
    u = random_unit_vector(600, np.random.default_rng(0))
    with pytest.raises(FloatRangeExceeded, match="nu = -1200, m = "):
        reduction_consistency(u, 600, 2)


def test_bloch_weights_past_m_1029_are_refused():
    # binom(1029, 514) is a float and binom(1030, 515) passes 1.8e308: a
    # check at m = 1030 refuses with the Bloch row's typed error, and a
    # translate, built from disc's binomials, with theirs.
    assert compact._root_binomials(1029)[514] ** 2 \
        == pytest.approx(math.comb(1029, 514), rel=1e-12)
    message = r"^binom\(1030, 515\) exceeds the float limit 1.8e308 at m = 1030$"
    with pytest.raises(FloatRangeExceeded, match=r"^\(nu\)_m/m! at nu = -1030 "
                       r"exceeds 1.8e308 for some m < 1031$"):
        translate_vector(1030, 0.3, 1.1, 0.2)
    with pytest.raises(FloatRangeExceeded, match=message):
        wehrl_compact_check(np.eye(1031)[0], 1030, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_past_the_float_range_refuses_without_a_warning():
    # kappa^2 = binom(m, i) nears 1.8e308: from m = 1006 _coherent_fit
    # divides it by an exact power of four, so translates fit up to m =
    # 1029, at beta = pi/2 (|zeta| = 1) too; they raised FloatRangeExceeded
    # from m = 1011 (at pi/2 from 1007).  At m = 1030 kappa^2 is no float,
    # and the fit refuses with the typed error, not after numpy's warnings.
    # Nothing warns (np.polyder(p, 2) would form p''' too, past 1.8e308
    # from m = 1003).
    for m in (1000, 1003, 1010, 1011, 1020, 1024, 1029):
        assert translate_fit_distance(translate_vector(m, 0.3, 1.1, 0.2),
                                      m) < 1e-12
    for m in (1003, 1007, 1010, 1011, 1020, 1029):
        assert translate_fit_distance(translate_vector(
            m, 0.3, math.pi / 2, 0.2), m) < 1e-12
    with pytest.raises(FloatRangeExceeded, match=r"^\(nu\)_m/m! at nu = "
                       r"-1030 exceeds 1.8e308"):
        translate_fit_distance(np.eye(1031)[0], 1030)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_finds_near_translates_at_large_m():
    # Noise puts each of these about 0.05 from the orbit.  From 25 fixed
    # starts the fit, blind to an overlap peak about m^-1/2 wide, returned
    # about sqrt(2) for all but the seed-3 vector, where it overflowed and
    # raised FloatRangeExceeded; the rings of starts resolve the peak.
    rng = np.random.default_rng(13)
    for m, beta in ((1004, math.pi / 2), (1020, 1.1)):
        v = translate_vector(m, 0.3, beta, 0.2) + 1e-3 * (
            rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
        assert translate_fit_distance(v, m) < 0.1
    for seed in (0, 3, 4):
        rng = np.random.default_rng(seed)
        alpha, gamma = rng.uniform(-3, 3, 2)
        t = translate_vector(1000, alpha, rng.uniform(0.2, 2.9), gamma)
        noise = rng.normal(size=1001) + 1j * rng.normal(size=1001)
        v = t + 0.05 * noise / np.linalg.norm(noise)
        assert translate_fit_distance(v, 1000) < 0.1


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
    computed with np.mean, np.sum, one root row per factor and the Haar
    rows binom(m, i)^{1/2} t^{(m-i)/2} (1 - t)^{i/2} from disc's binomials."""
    mass = _wrapper_form_mass([v] * n)
    size, nodes = compact._rule_sizes(n * m)
    t, wt = gauss_jacobi(nodes, 0.0, 0.0)
    i = np.arange(m + 1)[:, None]
    root = np.sqrt(_rising_over_factorial(-m, m + 1, False))[:, None]
    rows = root * np.sqrt(t) ** (m - i) * np.sqrt(1.0 - t) ** i
    F = size * np.fft.ifft(v[:, None] * rows, size, axis=0)
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
