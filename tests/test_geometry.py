import math

import numpy as np
import pytest

from gpnet.errors import ValidationError
from gpnet.geometry import (angle_between, angle_profile, g_theta, q_lipschitz_gap,
                            q_matrix, spectral_norm)

INV_TWO_PI = 0.15915494309189535  # 1 / (2 pi)


def unit(v):
    return v / np.linalg.norm(v)


def test_q_identical_vectors_exact_half_identity():
    r = np.array([2.0, 0.0, 0.0])
    d = q_matrix(r, r)
    assert d.theta == 0.0
    assert np.array_equal(d.q, np.eye(3) / 2.0)


def test_q_self_pair_robust_to_normalization_rounding():
    # for many draws the normalized self inner product rounds just below
    # one, which acos resolves as an angle near 1e-8; the parallel branch
    # must still win over the antipodal one
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = rng.standard_normal(8)
        d = q_matrix(r, r)
        assert d.theta == 0.0
        assert np.array_equal(d.q, np.eye(8) / 2.0)
        scaled = q_matrix(r, 0.37 * r)
        assert np.array_equal(scaled.q, np.eye(8) / 2.0)


def test_q_e1_e2_frozen():
    # orthogonal pair: Q = [[1/4, 1/(2pi)], [1/(2pi), 1/4]]
    d = q_matrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(d.theta - math.pi / 2) < 1e-15
    want = np.array([[0.25, INV_TWO_PI], [INV_TWO_PI, 0.25]])
    assert np.max(np.abs(d.q - want)) < 1e-15


def test_q_zero_vector_gives_zero():
    d = q_matrix(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(d.q, np.zeros((4, 4)))


def test_q_antipodal_is_zero():
    r = unit(np.array([1.0, 2.0, -0.5]))
    d = q_matrix(r, -r)
    assert d.theta == math.pi
    assert np.max(np.abs(d.q)) < 1e-15


def test_q_symmetry_and_norm_bound():
    rng = np.random.default_rng(11)
    for _ in range(25):
        r = rng.standard_normal(6)
        s = rng.standard_normal(6)
        q = q_matrix(r, s).q
        assert np.allclose(q, q.T, atol=1e-15)
        assert spectral_norm(q) <= 0.5 + 1e-12


def test_q_eigenvalues_in_plane():
    # on span(r, s) the eigenvalues are ((pi - t) +- sin t) / (2 pi)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(5)
    s = rng.standard_normal(5)
    d = q_matrix(r, s)
    ev = np.sort(np.linalg.eigvalsh(d.q))
    t = d.theta
    base = (math.pi - t) / (2 * math.pi)
    lo, hi = base - math.sin(t) / (2 * math.pi), base + math.sin(t) / (2 * math.pi)
    assert abs(ev[0] - lo) < 1e-12
    assert abs(ev[-1] - hi) < 1e-12
    # remaining eigenvalues equal the off-plane value
    mid = ev[1:-1]
    assert np.max(np.abs(mid - base)) < 1e-12


def test_q_scale_invariance():
    rng = np.random.default_rng(3)
    r = rng.standard_normal(4)
    s = rng.standard_normal(4)
    a = q_matrix(r, s).q
    b = q_matrix(7.3 * r, 0.002 * s).q
    assert np.max(np.abs(a - b)) < 1e-14


def _q_pairs():
    # generic pairs plus every degenerate branch: zero input, exact and
    # rounded-parallel self pairs, antipodal pairs
    rng = np.random.default_rng(17)
    r = rng.standard_normal(7)
    pairs = [(rng.standard_normal(7), rng.standard_normal(7)) for _ in range(10)]
    return pairs + [(np.zeros(7), r), (r, np.zeros(7)), (r, r), (r, 0.37 * r),
                    (r, -r), (r, -2.5 * r)]


def test_q_dense_matches_reference_formula():
    # .q is built lazily from the factors with the dense formula's own
    # numpy calls, so its bytes equal that formula's
    for r, s in _q_pairs():
        d = q_matrix(r, s)
        n = r.shape[0]
        if np.linalg.norm(r) == 0.0 or np.linalg.norm(s) == 0.0:
            want = np.zeros((n, n))
        elif not len(d.frame):
            want = np.eye(n) / 2.0 if d.theta == 0.0 else np.zeros((n, n))
        else:
            t = d.theta
            u1 = r / np.linalg.norm(r)
            sh = s / np.linalg.norm(s)
            w = sh - min(1.0, max(-1.0, float(np.dot(u1, sh)))) * u1
            u2 = w / np.linalg.norm(w)
            m = (math.cos(t) * (np.outer(u1, u1) - np.outer(u2, u2))
                 + math.sin(t) * (np.outer(u1, u2) + np.outer(u2, u1)))
            want = ((math.pi - t) / (2.0 * math.pi)) * np.eye(n) \
                + (math.sin(t) / (2.0 * math.pi)) * m
        assert np.array_equal(d.q, want)
        assert d.q is d.q  # built once


def test_q_factors_and_apply_match_dense():
    rng = np.random.default_rng(2)
    for r, s in _q_pairs():
        d = q_matrix(r, s)
        n = r.shape[0]
        assert d.frame.shape in ((2, n), (0, n))
        assert d.core.shape == (len(d.frame),) * 2
        assert np.array_equal(d.core, d.core.T)
        factored = d.a * np.eye(n) + d.frame.T @ d.core @ d.frame
        assert np.max(np.abs(factored - d.q)) <= 1e-15
        for _ in range(3):
            v = rng.standard_normal(n)
            got = d.apply(v)
            assert got.shape == (n,)
            assert np.max(np.abs(got - d.q @ v)) <= 1e-14 * np.linalg.norm(v)


def test_q_rejects_mismatched_shapes():
    with pytest.raises(ValidationError):
        q_matrix(np.ones(3), np.ones(4))
    with pytest.raises(ValidationError):
        q_matrix(np.array([1.0, np.nan]), np.ones(2))


def test_g_endpoints():
    assert g_theta(0.0) == 0.0
    assert abs(g_theta(math.pi) - math.pi / 2) < 1e-12


def test_g_right_angle_frozen():
    v = g_theta(math.pi / 2)
    # g(pi/2) = arccos(1/pi)
    assert abs(math.cos(v) * math.pi - 1.0) < 1e-12
    assert abs(v - 1.2468502198629159) < 1e-12


def test_g_clamps_with_warning():
    with pytest.warns(RuntimeWarning):
        assert g_theta(-0.25) == 0.0
    with pytest.warns(RuntimeWarning):
        hi = g_theta(3.5)
    assert abs(hi - math.pi / 2) < 1e-12


def test_g_lipschitz_and_range():
    ts = np.linspace(0.0, math.pi, 200)
    vals = [g_theta(t) for t in ts]
    for a, va in zip(ts, vals):
        assert 0.0 <= va <= math.pi / 2 + 1e-12
        for b, vb in zip(ts, vals):
            assert abs(va - vb) <= abs(a - b) + 1e-10


def test_g_iterates_decay_to_zero():
    # the only fixed point on [0, pi] is 0, reached algebraically: g has
    # slope 1 there (g(t) = t - t^2/(3 pi) + ...), so iterates decay like
    # 3 pi / n rather than geometrically
    for start in (0.3, 1.5, 3.0, math.pi):
        t = start
        prev = t
        for n in range(1, 5001):
            t = g_theta(t)
            assert t <= prev + 1e-15
            prev = t
            if n in (500, 5000):
                assert t <= 1.25 * 3.0 * math.pi / n


def test_angle_between_shortcut_and_clamp():
    x = np.array([1e-8, 2e-9])
    assert angle_between(x, x) == 0.0
    assert abs(angle_between(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) - math.pi) == 0.0
    with pytest.raises(ValidationError):
        angle_between(np.zeros(2), np.ones(2))


def test_angle_profile_x_equals_y():
    y = np.array([0.3, -1.2, 0.4])
    prof = angle_profile(y, y, depth=2)
    assert prof.theta_bar == (0.0, 0.0)
    assert np.array_equal(prof.h_tilde, y / 4.0)


def test_angle_profile_depth1_antipodal():
    x = np.array([1.0, 0.0])
    prof = angle_profile(x, -x, depth=1)
    # single factor (pi - pi)/pi = 0 and no cross term at depth 1
    assert np.max(np.abs(prof.h_tilde)) == 0.0


def test_angle_profile_orthogonal_depth2_oracle():
    # independent evaluation of the closed form for an orthogonal pair:
    # tb0 = pi/2, tb1 = g(pi/2),
    # h = (1/4) [ (1/2) (1 - tb1/pi) y + (sin tb1 / pi) |y| xhat ]
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 2.0])
    tb1 = math.acos(1.0 / math.pi)
    expect = 0.25 * (0.5 * (1.0 - tb1 / math.pi) * y
                     + (math.sin(tb1) / math.pi) * 2.0 * x)
    prof = angle_profile(x, y, depth=2)
    assert abs(prof.theta_bar[0] - math.pi / 2) < 1e-15
    assert abs(prof.theta_bar[1] - tb1) < 1e-15
    assert np.max(np.abs(prof.h_tilde - expect)) < 1e-12


def test_angle_profile_validation():
    with pytest.raises(ValidationError):
        angle_profile(np.zeros(3), np.ones(3), depth=2)
    with pytest.raises(ValidationError):
        angle_profile(np.ones(3), np.ones(3), depth=0)


def test_qlip_identical_inputs():
    r = unit(np.array([1.0, 1.0, 0.0]))
    s = unit(np.array([0.0, 1.0, 1.0]))
    gap, bound = q_lipschitz_gap(r, r, s, s)
    assert gap == 0.0 and bound == 0.0


def test_qlip_requires_unit_vectors():
    r = np.array([2.0, 0.0])
    s = np.array([0.0, 1.0])
    with pytest.raises(ValidationError):
        q_lipschitz_gap(r, s, s, s)


def test_qlip_bound_holds_on_samples():
    rng = np.random.default_rng(17)
    for _ in range(200):
        r = unit(rng.standard_normal(5))
        s = unit(rng.standard_normal(5))
        r_t = unit(r + 0.1 * rng.standard_normal(5))
        s_t = unit(s + 0.1 * rng.standard_normal(5))
        gap, bound = q_lipschitz_gap(r, r_t, s, s_t)
        assert gap <= bound


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((40, 25))
    assert abs(spectral_norm(a) - np.linalg.norm(a, 2)) < 1e-10
    sym = a.T @ a
    assert abs(spectral_norm(sym) - np.linalg.norm(sym, 2)) < 1e-8
