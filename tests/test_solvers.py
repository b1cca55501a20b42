import csv
import dataclasses
import io
import math
import pickle
import tracemalloc
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gpnet import net as net_module, solvers
from gpnet.errors import DivergenceError, ValidationError
from gpnet.geometry import spectral_norm
from gpnet.net import GenerativeNet, forward, sample_gaussian_net
from gpnet.rng import DOMAIN_INSTANCE, sub_rng
from gpnet.solvers import SolverConfig, loss, make_instance, solve, subgradient


def small_net(seed=1):
    return sample_gaussian_net((5, 40, 30), seed=seed)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def test_make_instance_validation():
    net = small_net()
    with pytest.raises(ValidationError):
        make_instance("BOGUS", net)
    with pytest.raises(ValidationError):
        make_instance("CS", net)  # m missing
    with pytest.raises(ValidationError):
        make_instance("SPIKED_WISHART", net)  # n_samples missing
    with pytest.raises(ValidationError):
        make_instance("CS", net, m=20, x_star=np.zeros(5))
    with pytest.raises(ValidationError):
        make_instance("DEN", net, eta=np.zeros(7))
    with pytest.raises(ValidationError):
        make_instance("CS", net, m=20, sigma=-0.1)


def test_instance_component_streams_independent():
    # the sensing matrix comes from its own sub-stream, so supplying x_star
    # by hand must not change it
    net = small_net()
    auto = make_instance("CS", net, m=25, seed=4)
    manual = make_instance("CS", net, m=25, seed=4, x_star=np.ones(5))
    assert auto.a.tobytes() == manual.a.tobytes()
    again = make_instance("CS", net, m=25, seed=4)
    assert auto.x_star.tobytes() == again.x_star.tobytes()
    assert auto.b.tobytes() == again.b.tobytes()


def test_noiseless_measurements_are_exact():
    net = small_net()
    cs = make_instance("CS", net, m=20, seed=0)
    assert np.array_equal(cs.b, cs.a @ cs.y_star)
    pr = make_instance("PR", net, m=20, seed=0)
    assert np.array_equal(pr.b, np.abs(pr.a @ pr.y_star))
    den = make_instance("DEN", net, seed=0)
    assert np.array_equal(den.b, den.y_star)


def test_eta_norm_is_exact():
    net = small_net()
    inst = make_instance("CS", net, m=30, seed=2, eta_norm=0.125)
    assert abs(np.linalg.norm(inst.eta) - 0.125) < 1e-12
    assert np.array_equal(inst.b, inst.a @ inst.y_star + inst.eta)


def test_make_instance_rejects_non_finite_noise():
    net = small_net()
    with pytest.raises(ValidationError):
        make_instance("CS", net, m=20, eta=np.full(20, np.nan))
    with pytest.raises(ValidationError):
        make_instance("DEN", net, eta=np.full(30, np.inf))
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            make_instance("CS", net, m=20, sigma=sigma)
        with pytest.raises(ValidationError):
            make_instance("SPIKED_WIGNER", net, sigma=sigma)
    for eta_norm in (math.nan, math.inf, -0.1):
        with pytest.raises(ValidationError):
            make_instance("DEN", net, eta_norm=eta_norm)


def test_make_instance_rejects_noise_that_is_not_a_real_number():
    # math.isfinite("0.1") used to raise a bare TypeError
    net = small_net()
    for name in ("sigma", "eta_norm"):
        for bad in ("0.1", [0.1], np.array([0.1]), 10 ** 400):
            with pytest.raises(ValidationError) as exc:
                make_instance("DEN", net, **{name: bad})
            assert str(exc.value) == f"{name} must be finite and nonnegative, got {bad!r}"
        # a real scalar of any type builds what its float builds
        for good in (np.array(0.1), np.float32(0.25), 1):
            assert make_instance("DEN", net, seed=3, **{name: good}) \
                == make_instance("DEN", net, seed=3, **{name: float(good)})


def test_make_instance_takes_none_as_not_given():
    # sigma = None used to reach float(None); it gives nothing, as m = None does
    net = small_net()
    for kind, kwargs in (("DEN", {}), ("SPIKED_WISHART", {"n_samples": 40}),
                         ("SPIKED_WIGNER", {})):
        omitted = make_instance(kind, net, seed=3, **kwargs)
        assert make_instance(kind, net, seed=3, sigma=None, **kwargs) == omitted
        assert make_instance(kind, net, seed=3, sigma=0.0, **kwargs) == omitted
    assert make_instance("DEN", net, seed=3, sigma=None, eta_norm=None, m=None,
                         n_samples=None, eta=None) == make_instance("DEN", net, seed=3)


def test_wishart_sigma_zero_is_scaled_rank_one():
    net = sample_gaussian_net((6, 200, 400), seed=1)
    inst = make_instance("SPIKED_WISHART", net, sigma=0.0, n_samples=2000, seed=0)
    # with no noise M = (|u|^2 / N) y y^T exactly
    resid = inst.m_obs - (np.trace(inst.m_obs) / np.dot(inst.y_star, inst.y_star)) \
        * np.outer(inst.y_star, inst.y_star) / 1.0
    # trace(M) = c |y|^2, so the rank-one refit must vanish
    assert np.max(np.abs(resid)) < 1e-12
    w, v = np.linalg.eigh(inst.m_obs)
    ys = inst.y_star / np.linalg.norm(inst.y_star)
    assert abs(float(v[:, -1] @ ys)) >= 0.999
    assert abs(w[-2]) <= 1e-10 * abs(w[-1])


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
def test_wishart_in_place_build_matches_old_expression(sigma):
    # B = u y^T + sigma Z is now built in place in Z; IEEE addition and
    # multiplication commute (signed zeros included), so M keeps its bytes
    net = sample_gaussian_net((6, 200, 400), seed=1)
    inst = make_instance("SPIKED_WISHART", net, sigma=sigma, n_samples=2000, seed=3)
    u = sub_rng(3, DOMAIN_INSTANCE, solvers._SPIKE_U).standard_normal(2000)
    z = sub_rng(3, DOMAIN_INSTANCE, solvers._SPIKE_Z).standard_normal((2000, 400))
    big_b = np.outer(u, inst.y_star) + sigma * z
    raw = big_b.T @ big_b / 2000 - sigma ** 2 * np.eye(400)
    assert inst.m_obs.tobytes() == ((raw + raw.T) / 2.0).tobytes()


@pytest.mark.parametrize("dims,n_samples", [((6, 200, 400), 2000), ((4, 20, 30), 600),
                                            ((3, 8, 6), 7), ((2, 5, 3), 1),
                                            ((3, 10, 8, 6), 2)])
def test_wishart_sigma_zero_draws_no_noise_and_keeps_bytes(dims, n_samples, monkeypatch):
    # the reference draws Z, zeroes it and adds u y^T block by block, as the
    # build did before sigma = 0 skipped the draw; signed zeros must match
    net = sample_gaussian_net(dims, seed=2)
    drawn = []
    sub = solvers.sub_rng
    monkeypatch.setattr(solvers, "sub_rng", lambda *a: drawn.append(a[1:]) or sub(*a))
    for seed in range(3):
        inst = make_instance("SPIKED_WISHART", net, sigma=0.0, n_samples=n_samples,
                             seed=seed)
        u = sub_rng(seed, DOMAIN_INSTANCE, solvers._SPIKE_U).standard_normal(n_samples)
        z = sub_rng(seed, DOMAIN_INSTANCE, solvers._SPIKE_Z).standard_normal(
            (n_samples, net.n_out))
        z *= 0.0
        for i in range(0, n_samples, solvers._ROW_BLOCK):
            z[i:i + solvers._ROW_BLOCK] += np.outer(u[i:i + solvers._ROW_BLOCK],
                                                    inst.y_star)
        raw = z.T @ z
        raw /= n_samples
        raw[np.diag_indices(net.n_out)] -= 0.0
        want = raw + raw.T
        want /= 2.0
        assert inst.m_obs.tobytes() == want.tobytes()
    assert (DOMAIN_INSTANCE, solvers._SPIKE_Z) not in drawn


def test_wigner_matrix_symmetric():
    net = small_net()
    inst = make_instance("SPIKED_WIGNER", net, sigma=0.3, seed=5)
    assert np.array_equal(inst.m_obs, inst.m_obs.T)


def _spiked_loss_bound(inst, g):
    """Rounding bound on |table loss - dense loss| at G(x) = g.

    With n = n_out, u = eps / 2, gamma_k = k u / (1 - k u) <= 1.01 k u,
    S = |M|_F^2 and q = |g|^2, the standard bounds |fl(x.y) - x.y| <=
    gamma_k |x|.|y| for a length-k dot product (any summation order) give
    for the table's f = (S - 2 g.Mg + q^2) / 2:
      S summed from n^2 squares:         gamma_{n^2} S
      g.(M g), a bilinear form:          gamma_{2n} |g|^T |M| |g| <= gamma_{2n} |M|_F q
      q^2 from q = g.g:                  gamma_{2n+1} q^2
      the two additions:                 2 u (S + 2 |M|_F q + q^2)
    and 2 |M|_F q <= S + q^2, so after the exact halving the error is at
    most 0.26 (n^2 + 4n + 6) eps (S + q^2).  The dense reference
    0.5 sum((M - g g^T)^2) forms R with |R_hat - R| <= u (|R| + 1.01 |g g^T|)
    entrywise, squares and sums n^2 terms, and |R|_F <= |M|_F + q, which
    bounds its own error by (0.51 n^2 + 2.3) eps (S + q^2).  The sum of the
    two is below (n^2 + 4n + 6) eps (S + q^2).
    """
    n = inst.net.n_out
    q = float(g @ g)
    return (n * n + 4 * n + 6) * np.finfo(float).eps * (inst.m_sq_norm + q * q)


def _spiked_gradient_bound(inst, g):
    """Rounding bound on |table w - dense w| at G(x) = g, in the 2-norm.

    With q = |g|^2 and the notation above, the table's w = -2 (M g - q g):
    M g errs by gamma_n |M|_F |g|, q g by gamma_{n+1} q |g| and the
    difference by u (|M|_F + q) |g|, so its error is at most
    1.01 (n + 2) eps (|M|_F + q) |g|.  The dense -2 (M - g g^T) g
    errs by |R_hat - R|_F |g| + gamma_n |R_hat|_F |g|, at most
    (1.02 n + 2.02) eps (|M|_F + q) |g|.  Both together stay below
    3 (n + 2) eps (|M|_F + q) |g|.
    """
    n = inst.net.n_out
    q = float(g @ g)
    return 3 * (n + 2) * np.finfo(float).eps * (math.sqrt(inst.m_sq_norm) + q) * math.sqrt(q)


def test_loss_at_planted_point():
    net = small_net()
    assert loss(make_instance("CS", net, m=20, seed=1),
                make_instance("CS", net, m=20, seed=1).x_star) == 0.0
    assert loss(make_instance("PR", net, m=20, seed=1),
                make_instance("PR", net, m=20, seed=1).x_star) == 0.0
    den = make_instance("DEN", net, seed=1)
    assert loss(den, den.x_star) == 0.0
    wig = make_instance("SPIKED_WIGNER", net, sigma=0.0, seed=1)
    # the spiked loss expands |M - g g^T|_F^2 and cancels at a planted
    # noiseless latent, so it is zero only to rounding; the exact loss there
    # is 0.5 |fl(y y^T) - y y^T|_F^2 <= u^2 |y|^4 / 2, far below the bound
    assert abs(loss(wig, wig.x_star)) <= _spiked_loss_bound(wig, wig.y_star)
    # Wishart keeps a ((|u|^2/N - 1) |y|^2)^2 / 2 floor even at sigma = 0
    wis = make_instance("SPIKED_WISHART", net, sigma=0.0, n_samples=500, seed=1)
    c = np.trace(wis.m_obs) / np.dot(wis.y_star, wis.y_star)
    floor = 0.5 * ((c - 1.0) * np.dot(wis.y_star, wis.y_star)) ** 2
    assert abs(loss(wis, wis.x_star) - floor) < 1e-9 * max(floor, 1e-12)


@pytest.mark.parametrize("kind,kwargs", [
    ("SPIKED_WISHART", {"n_samples": 300}),
    ("SPIKED_WIGNER", {}),
])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_spiked_table_matches_dense_residual(kind, kwargs, sigma):
    # the table never forms M - g g^T; check its loss and outer gradient
    # against the dense formulas within the derived rounding bounds
    inst = make_instance(kind, small_net(seed=3), sigma=sigma, seed=4, **kwargs)
    m = inst.m_obs
    rng = np.random.default_rng(12)
    points = [inst.x_star] + [rng.standard_normal(inst.net.k) * rng.uniform(0.3, 3.0)
                              for _ in range(20)]
    for x in points:
        f, outs, res = solvers._evaluate(inst, x)
        g = outs[-1]
        w = solvers._ROWS[kind].gradient(inst, g, res)
        r = m - np.outer(g, g)
        assert abs(f - 0.5 * np.sum(r ** 2)) <= _spiked_loss_bound(inst, g)
        assert np.linalg.norm(w - (-2.0 * r @ g)) <= _spiked_gradient_bound(inst, g)


# ---------------------------------------------------------------------------
# subgradients
# ---------------------------------------------------------------------------

def _away_from_kinks(inst, rng, min_gap=1e-4):
    """Draw a latent whose preactivations (and PR magnitudes) clear the kinks."""
    from gpnet.net import preactivations
    while True:
        x = rng.standard_normal(inst.net.k)
        gaps = [np.min(np.abs(z)) for z in preactivations(inst.net, x)]
        if inst.kind == "PR":
            gaps.append(np.min(np.abs(inst.a @ forward(inst.net, x)[-1])))
        if min(gaps) >= min_gap:
            return x


@pytest.mark.parametrize("kind,kwargs", [
    ("CS", {"m": 60}),
    ("PR", {"m": 60}),
    ("DEN", {}),
    ("SPIKED_WISHART", {"n_samples": 300, "sigma": 0.1}),
    ("SPIKED_WIGNER", {"sigma": 0.1}),
])
def test_subgradient_matches_finite_differences(kind, kwargs):
    net = small_net(seed=3)
    inst = make_instance(kind, net, seed=2, **kwargs)
    rng = np.random.default_rng(10)
    h = 1e-6
    for _ in range(5):
        x = _away_from_kinks(inst, rng)
        v = subgradient(inst, x)
        num = np.empty_like(v)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = h
            num[i] = (loss(inst, x + e) - loss(inst, x - e)) / (2 * h)
        assert np.linalg.norm(num - v) <= 1e-5 * max(np.linalg.norm(v), 1e-8)


def test_wigner_subgradient_matches_finite_differences():
    # the acceptance check's setup, on the kind it leaves out
    net = sample_gaussian_net((6, 64, 48), 0)
    inst = make_instance("SPIKED_WIGNER", net, sigma=0.1, seed=3)
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(50):
        x = _away_from_kinks(inst, rng)
        v = subgradient(inst, x)
        num = np.array([(loss(inst, x + h * e) - loss(inst, x - h * e)) / (2.0 * h)
                        for e in np.eye(net.k)])
        assert np.linalg.norm(num - v) <= 1e-5 * np.linalg.norm(v)


def test_subgradient_identity_layer_closed_form():
    # one identity layer: G(x) = relu(x), Lambda = I on active coordinates,
    # so the DEN subgradient is relu(x) - b there and zero elsewhere; an
    # all-negative planted latent makes y_star = 0 and b = eta exactly
    net = GenerativeNet(dims=(4, 4), weights=(np.eye(4),))
    b = np.array([0.1, -0.2, 0.3, 0.4])
    inst = make_instance("DEN", net, x_star=-np.ones(4), eta=b, seed=0)
    assert np.array_equal(inst.b, b)
    x = np.array([2.0, -1.0, 0.5, -0.3])
    grad = subgradient(inst, x)
    expect = np.where(x > 0, np.maximum(x, 0.0) - b, 0.0)
    assert np.array_equal(grad, expect)


# ---------------------------------------------------------------------------
# solve loop
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(c_step=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(t_max=-1)


def test_config_equality_with_array_start():
    cfg = SolverConfig(x0=np.ones(5))
    assert cfg == SolverConfig(x0=np.ones(5))
    assert cfg != SolverConfig(x0=np.zeros(5))
    assert cfg != SolverConfig(x0=np.ones(5), seed=1)
    assert cfg != SolverConfig()
    assert SolverConfig(t_max=7) == SolverConfig(t_max=7)


def test_net_and_instance_value_equality():
    net = sample_gaussian_net((3, 4), 1)
    assert net == sample_gaussian_net((3, 4), 1)
    assert net != sample_gaussian_net((3, 4), 2)
    assert net != sample_gaussian_net((3, 5), 1)
    assert net != "net"
    inst = make_instance("CS", net, m=3, seed=5)
    assert inst == make_instance("CS", sample_gaussian_net((3, 4), 1), m=3, seed=5)
    assert inst != make_instance("CS", net, m=3, seed=6)
    assert inst != make_instance("CS", sample_gaussian_net((3, 4), 2), m=3, seed=5)
    assert inst != make_instance("PR", net, m=3, seed=5)
    assert inst != make_instance("DEN", net, seed=5)


def test_alpha_and_contraction_fields():
    net = small_net()
    inst = make_instance("DEN", net, seed=0)
    tr = solve(inst, SolverConfig(c_step=0.3, t_max=1, seed=0))
    d = net.depth
    assert tr.alpha == 0.3 * 2.0 ** d / d ** 2


def test_gaussian_unit_start():
    net = small_net()
    inst = make_instance("DEN", net, seed=0)
    tr = solve(inst, SolverConfig(t_max=0, seed=9))
    # with t_max = 0 the trace holds only the starting point
    assert len(tr.rows) == 1 and tr.rows[0][0] == 0
    assert abs(np.linalg.norm(tr.final_x) - 1.0) < 1e-12
    assert tr.rows[-1][1] == loss(inst, tr.final_x)


def test_provided_start_validation():
    net = small_net()
    inst = make_instance("DEN", net, seed=0)
    with pytest.raises(ValidationError):
        solve(inst, SolverConfig(x0=np.zeros(5)))
    with pytest.raises(ValidationError):
        solve(inst, SolverConfig(x0=np.ones(7)))


def test_negation_fires_from_reflected_start():
    net = sample_gaussian_net((8, 250, 600), seed=0)
    inst = make_instance("CS", net, m=150, seed=3)
    cfg = SolverConfig(c_step=0.2, t_max=50, x0=-inst.x_star)
    tr = solve(inst, cfg)
    assert tr.negations == (0,)
    assert tr.rows[0][2] == 0.0  # flip lands exactly on x_star
    assert tr.stop_reason == "step_tol"
    assert tr.final_rel_latent_err <= 1e-10


def test_tmax_one_records_two_rows():
    net = small_net()
    inst = make_instance("DEN", net, seed=1)
    tr = solve(inst, SolverConfig(t_max=1, seed=1))
    assert [r[0] for r in tr.rows] == [0, 1]
    assert tr.n_steps == 1


def test_scale_covariance_cs_and_den():
    # scaling (x0, b) by c > 0 scales the whole trajectory by c
    from dataclasses import replace
    net = small_net(seed=2)
    c = 3.0
    for kind, kwargs in (("CS", {"m": 40}), ("DEN", {})):
        inst = make_instance(kind, net, seed=3, **kwargs)
        x0 = np.array([0.3, -0.7, 1.1, 0.2, -0.5])
        cfg = SolverConfig(c_step=0.2, t_max=60, x0=x0, rel_step_tol=0.0)
        tr1 = solve(inst, cfg)
        scaled = replace(inst, b=c * inst.b)
        cfg2 = SolverConfig(c_step=0.2, t_max=60, x0=c * x0, rel_step_tol=0.0)
        tr2 = solve(scaled, cfg2)
        g1 = forward(net, tr1.final_x)[-1]
        g2 = forward(net, tr2.final_x)[-1]
        assert np.allclose(c * g1, g2, rtol=1e-6, atol=1e-9)


def test_divergence_error_names_iteration():
    net = small_net()
    inst = make_instance("CS", net, m=40, seed=0)
    with pytest.raises(DivergenceError) as exc:
        solve(inst, SolverConfig(c_step=1e8, t_max=500, seed=0))
    assert exc.value.iteration >= 0
    assert "iteration" in str(exc.value)


@pytest.mark.parametrize("kind,kwargs", [
    ("CS", {"m": 40}),
    ("PR", {"m": 40}),
    ("DEN", {}),
    ("SPIKED_WISHART", {"n_samples": 50, "sigma": 0.1}),
    ("SPIKED_WIGNER", {"sigma": 0.1}),
])
@pytest.mark.parametrize("c_step", [1e3, 1e15, 1e300])
def test_divergence_raises_without_warnings(kind, kwargs, c_step):
    inst = make_instance(kind, small_net(), seed=0, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            solve(inst, SolverConfig(c_step=c_step, t_max=500, seed=0))


def test_divergence_error_pickles():
    for err in (DivergenceError(3), DivergenceError(4, "custom message")):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergenceError
        assert back.iteration == err.iteration and str(back) == str(err)


def _reference_solve(inst, cfg):
    """The negation loop spelled out with six sweeps per iteration: loss at
    x and -x, a forward pass for the trace row, and subgradient (its own
    forward and transposed passes).  Returns (csv text, x_T)."""
    d = inst.net.depth
    alpha = cfg.c_step * 2.0 ** d / d ** 2
    x = np.asarray(cfg.x0, dtype=np.float64).copy()
    lines = ["iter,f,latent_err,signal_err,negated\n"]

    def row(t, f, neg):
        le = float(np.linalg.norm(x - inst.x_star))
        se = float(np.linalg.norm(forward(inst.net, x)[-1] - inst.y_star))
        lines.append(f"{t},{f!r},{le!r},{se!r},{neg}\n")

    steps = 0
    for t in range(cfg.t_max):
        f_pos, f_neg = loss(inst, x), loss(inst, -x)
        neg = int(f_neg < f_pos)
        if neg:
            x = -x
        row(t, f_neg if neg else f_pos, neg)
        x_new = x - alpha * subgradient(inst, x)
        small = np.linalg.norm(x_new - x) <= cfg.rel_step_tol * np.linalg.norm(x)
        x = x_new
        steps = t + 1
        if small:
            break
    row(steps, loss(inst, x), 0)
    return "".join(lines), x


_EVERY_KIND = [
    ("CS", {"m": 40, "sigma": 0.05}, 0.2),
    ("PR", {"m": 60, "sigma": 0.05}, 0.2),
    ("DEN", {"eta_norm": 0.1}, 0.2),
    ("SPIKED_WISHART", {"n_samples": 300, "sigma": 0.1}, 1.0),
    ("SPIKED_WIGNER", {"sigma": 0.1}, 1.0),
]


@pytest.mark.parametrize("kind,kwargs,c_step", _EVERY_KIND)
@pytest.mark.parametrize("start", ["random", "reflected"])
def test_solve_matches_six_sweep_reference(kind, kwargs, c_step, start):
    # solve shares one forward sweep per sign between loss, trace row and
    # subgradient; the bytes must equal the loop that recomputes each one
    net = small_net(seed=3)
    inst = make_instance(kind, net, seed=5, **kwargs)
    if start == "random":
        x0 = np.random.default_rng(8).standard_normal(net.k)
    else:  # near -x_star, so the sign flip fires at once
        x0 = -1.2 * inst.x_star + 0.05 * np.random.default_rng(9).standard_normal(net.k)
    cfg = SolverConfig(c_step=c_step, t_max=80, x0=x0)
    tr = solve(inst, cfg)
    text, x_fin = _reference_solve(inst, cfg)
    if start == "reflected":
        assert tr.negations[:1] == (0,)
    assert tr.csv_text() == text
    assert tr.final_x.tobytes() == x_fin.tobytes()


@pytest.mark.parametrize("kind,kwargs,c_step", _EVERY_KIND)
def test_solve_sweeps_per_iteration(kind, kwargs, c_step, monkeypatch):
    # one forward sweep at x, one at -x per sign check that the no-flip
    # certificate could not skip, one transposed sweep per iteration, and
    # one forward sweep for the final iterate
    calls = {"forward": 0, "apply_masked_t": 0}

    def counted(name):
        fn = getattr(solvers, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    inst = make_instance(kind, small_net(seed=3), seed=5, **kwargs)
    for name in calls:
        monkeypatch.setattr(solvers, name, counted(name))
    tr = solve(inst, SolverConfig(c_step=c_step, t_max=25, rel_step_tol=0.0, seed=2))
    assert tr.n_steps == 25
    assert calls == {"forward": 25 + 1 + tr.sign_checks, "apply_masked_t": 25}


# ---------------------------------------------------------------------------
# the no-flip certificate that lets solve skip the sweep at -x
# ---------------------------------------------------------------------------

_RESIDUAL_KINDS = [
    ("CS", {"m": 40, "sigma": 0.05}),
    ("PR", {"m": 60, "sigma": 0.05}),
    ("DEN", {"eta_norm": 0.1}),
    ("CS", {"m": 40}),
    ("PR", {"m": 60}),
    ("DEN", {}),
]

# the noiseless Wigner loss at x_star is zero only to rounding
_SPIKED_KINDS = [
    ("SPIKED_WISHART", {"n_samples": 300, "sigma": 0.01}),
    ("SPIKED_WIGNER", {"sigma": 0.01}),
    ("SPIKED_WIGNER", {}),
]


def _certificate(inst):
    return solvers._ROWS[inst.kind].certificate(inst)


def _claims_no_flip(inst, bound, x, p):
    """rules_out_flip at x from the sweep at p, as solve calls it."""
    return bound.rules_out_flip(loss(inst, x), x, p, solvers._evaluate(inst, p))


def _residual(inst, y):
    return solvers._ROWS[inst.kind].residual(inst, forward(inst.net, y)[-1])[0]


def _residual_longdouble(inst, y):
    """The residual at y in extended precision, a reference for rounding."""
    g = np.asarray(y, dtype=np.longdouble)
    for w in inst.net.weights:
        g = np.maximum(w.astype(np.longdouble) @ g, 0.0)
    if inst.kind == "DEN":
        return inst.b - g
    ag = inst.a.astype(np.longdouble) @ g
    return inst.b - (ag if inst.kind == "CS" else np.abs(ag))


@pytest.mark.parametrize("kind,kwargs", [
    ("CS", {"m": 40}), ("PR", {"m": 60}), ("DEN", {}),
    ("CS", {"m": 150, "dims": (8, 250, 600)}), ("DEN", {"dims": (8, 250, 600)}),
    ("SPIKED_WIGNER", {"dims": (6, 200, 400)}),
])
def test_flip_bound_lipschitz_above_spectral_product(kind, kwargs):
    kwargs = dict(kwargs)
    net = sample_gaussian_net(kwargs.pop("dims", (5, 40, 30)), seed=3)
    inst = make_instance(kind, net, seed=5, **kwargs)
    exact = math.prod(spectral_norm(w) for w in net.weights)
    if inst.a is not None:
        exact *= spectral_norm(inst.a)
    assert _certificate(inst).lip >= exact


@pytest.mark.parametrize("kind,m", [("CS", 150), ("PR", 300)])
def test_flip_bound_bounds_a_by_the_layers_rule(kind, m):
    # one rule bounds A and every layer, and on the recover net its mixed
    # norm undercuts the lifted Frobenius norm of A
    net = sample_gaussian_net((8, 250, 600), seed=0)
    inst = make_instance(kind, net, m=m, seed=1)
    lip = _certificate(inst).lip
    assert lip == net_module._norm_bound(inst.a) * math.prod(net.norm_bounds)
    lift = 1.0 + 2.0 * net_module._gamma(inst.a.size + 4)
    assert lip < float(np.linalg.norm(inst.a)) * lift * math.prod(net.norm_bounds)


def test_norm_bound_in_row_blocks_is_the_one_shot_bound():
    # _norm_bound sums |W| a block of rows at a time; on the recover net's
    # layers and seven of its sensing matrices the bound stays bit for bit
    # that of one sum over the whole |W|, and no copy of |A| is held
    def one_shot(w):
        a = np.abs(w)
        fro = math.sqrt(float(np.einsum("ij,ij->", w, w)))
        mixed = math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))
        return min(fro, mixed) * (1.0 + 2.0 * net_module._gamma(w.size + 4))

    net = sample_gaussian_net((8, 250, 600), seed=0)
    mats = [*net.weights, *(solvers.sensing_matrix(m, net.n_out, seed)
                            for m, seeds in ((150, range(4)), (300, range(3)))
                            for seed in seeds)]
    for w in mats:
        assert net_module._norm_bound(w) == one_shot(w), w.shape
    a = mats[-1]
    tracemalloc.start()
    try:
        net_module._norm_bound(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 2


@pytest.mark.parametrize("kind,kwargs", _RESIDUAL_KINDS[:3])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_gap=st.floats(-6.0, 1.0))
def test_flip_bound_residual_is_lipschitz(kind, kwargs, seed, log_gap):
    inst = make_instance(kind, small_net(seed=3), seed=5, **kwargs)
    lip = solvers._FlipBound(inst).lip
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(inst.net.k)
    v = u + 10.0 ** log_gap * rng.standard_normal(inst.net.k)
    assert np.linalg.norm(_residual(inst, u) - _residual(inst, v)) \
        <= lip * np.linalg.norm(u - v)


@pytest.mark.parametrize("kind,kwargs", _RESIDUAL_KINDS[:3])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, 3.0))
def test_flip_bound_covers_sweep_rounding(kind, kwargs, seed, log_scale):
    # the margin's premise: |r^(y) - r(y)| <= c L |y| + c |r^(y)| + eta and
    # f^(y) within c |r^(y)|^2 / 2 + eta_f of |r^(y)|^2 / 2
    inst = make_instance(kind, small_net(seed=3), seed=5, **kwargs)
    bound = solvers._FlipBound(inst)
    y = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(inst.net.k)
    r = _residual(inst, y)
    r_norm = float(np.linalg.norm(r))
    err = float(np.linalg.norm(r - _residual_longdouble(inst, y)))
    assert err <= bound.c * (bound.lip * np.linalg.norm(y) + r_norm) + bound.eta
    half_sq = 0.5 * np.sum(r.astype(np.longdouble) ** 2)
    assert abs(loss(inst, y) - half_sq) <= bound.c * half_sq + bound.eta_f


@pytest.mark.parametrize("kind,kwargs", _SPIKED_KINDS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_gap=st.floats(-6.0, 1.0))
def test_spiked_flip_bound_net_is_lipschitz(kind, kwargs, seed, log_gap):
    inst = make_instance(kind, small_net(seed=3), seed=5, **kwargs)
    lip = _certificate(inst).lip
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(inst.net.k)
    v = u + 10.0 ** log_gap * rng.standard_normal(inst.net.k)
    assert np.linalg.norm(forward(inst.net, u)[-1] - forward(inst.net, v)[-1]) \
        <= lip * np.linalg.norm(u - v)


@pytest.mark.parametrize("kind,kwargs", _SPIKED_KINDS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, 3.0),
       planted=st.booleans())
def test_spiked_flip_bound_covers_sweep_rounding(kind, kwargs, seed, log_scale, planted):
    # the spiked margin's premise: |g^(y) - G(y)| <= c L_G |y| + eta, and
    # the expanded loss within E(h) of |M - g^ g^^T|_F^2 / 2, with h the
    # certificate's bound on |g^| from the computed g^ . g^
    inst = make_instance(kind, small_net(seed=3), seed=5, **kwargs)
    bound = _certificate(inst)
    y = np.random.default_rng(seed).standard_normal(inst.net.k)
    y = (inst.x_star if planted else y) * 10.0 ** log_scale
    f, outs, res = solvers._evaluate(inst, y)
    g = outs[-1]
    g_ld = np.asarray(y, dtype=np.longdouble)
    for w in inst.net.weights:
        g_ld = np.maximum(w.astype(np.longdouble) @ g_ld, 0.0)
    err = float(np.linalg.norm(g - g_ld))
    assert err <= bound.c * bound.lip * np.linalg.norm(y) + bound.eta
    g_hat = g.astype(np.longdouble)
    r = inst.m_obs.astype(np.longdouble) - np.outer(g_hat, g_hat)
    exact = 0.5 * np.sum(r * r)
    h = math.sqrt(res[1]) * (1.0 + bound.c)
    assert abs(f - exact) <= bound._loss_error(h)


@pytest.mark.parametrize("kind,kwargs", _RESIDUAL_KINDS + _SPIKED_KINDS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), t=st.floats(-1.5, 1.5),
       log_noise=st.floats(-8.0, 0.0), log_gap=st.floats(-12.0, 0.5))
def test_flip_bound_claims_only_true_no_flips(kind, kwargs, seed, t, log_noise, log_gap):
    inst = make_instance(kind, small_net(seed=3), seed=5, **kwargs)
    bound = _certificate(inst)
    rng = np.random.default_rng(seed)
    x = t * inst.x_star + 10.0 ** log_noise * rng.standard_normal(inst.net.k)
    p = -x + 10.0 ** log_gap * rng.standard_normal(inst.net.k)
    if _claims_no_flip(inst, bound, x, p):
        assert loss(inst, -x) >= loss(inst, x)


def test_spiked_flip_bound_on_a_net_with_tight_lipschitz_bound():
    # G = relu on R^3 has L_G = 1 exactly and |a a^T - b b^T|_F reaches
    # |a - b| (|a| + |b|) for parallel a, b, so random spiked data and pairs
    # (x, p) come close to the bound; on the random nets above L_G is loose
    # enough to hide a certificate that halves the rank-one term
    net = GenerativeNet(dims=(3, 3), weights=(np.eye(3),))
    base = make_instance("SPIKED_WIGNER", net, x_star=np.ones(3))
    rng = np.random.default_rng(0)
    claims = 0
    for _ in range(4000):
        a = rng.standard_normal((3, 3))
        inst = dataclasses.replace(base, m_obs=(a + a.T) * rng.uniform(0.05, 2.5))
        x = rng.standard_normal(3)
        p = -x + rng.uniform(0.001, 0.5) * rng.standard_normal(3)
        if _claims_no_flip(inst, _certificate(inst), x, p):
            claims += 1
            assert loss(inst, -x) >= loss(inst, x)
    assert claims > 100


def test_flip_bound_refuses_a_tie():
    # b midway between G(x0) and G(-x0): f(x0) and f(-x0) agree up to
    # rounding, so neither side may be certified from the other's sweep
    net = small_net(seed=3)
    x0 = np.random.default_rng(4).standard_normal(net.k)
    eta = 0.5 * (forward(net, -x0)[-1] - forward(net, x0)[-1])
    inst = make_instance("DEN", net, x_star=x0, eta=eta)
    bound = solvers._FlipBound(inst)
    f_pos, f_neg = loss(inst, x0), loss(inst, -x0)
    assert abs(f_pos - f_neg) <= 1e-14 * f_pos
    assert not bound.rules_out_flip(f_pos, x0, -x0, solvers._evaluate(inst, -x0))
    assert not bound.rules_out_flip(f_neg, -x0, x0, solvers._evaluate(inst, x0))


@pytest.mark.parametrize("kind", ["SPIKED_WISHART", "SPIKED_WIGNER"])
def test_spiked_flip_bound_refuses_a_tie(kind):
    # M = (G(x0) G(x0)^T + G(-x0) G(-x0)^T) / 2 makes f(x0) and f(-x0)
    # agree up to rounding, so neither side may be certified from the other
    net = small_net(seed=3)
    x0 = np.random.default_rng(4).standard_normal(net.k)
    g_pos, g_neg = forward(net, x0)[-1], forward(net, -x0)[-1]
    m_obs = 0.5 * (np.outer(g_pos, g_pos) + np.outer(g_neg, g_neg))
    kwargs = {"n_samples": 5} if kind == "SPIKED_WISHART" else {}
    inst = dataclasses.replace(make_instance(kind, net, x_star=x0, **kwargs),
                               m_obs=m_obs)
    bound = _certificate(inst)
    f_pos, f_neg = loss(inst, x0), loss(inst, -x0)
    assert f_pos > 0.0 and abs(f_pos - f_neg) <= 1e-14 * f_pos
    assert not _claims_no_flip(inst, bound, x0, -x0)
    assert not _claims_no_flip(inst, bound, -x0, x0)


@pytest.mark.parametrize("kind,m", [("CS", 150), ("DEN", None), ("PR", 300)])
def test_solve_matches_six_sweep_reference_on_recover_net(kind, m):
    # the recover workload's shape and start; most sign checks are skipped
    net = sample_gaussian_net((8, 250, 600), seed=0)
    inst = make_instance(kind, net, m=m, seed=1)
    x0 = solvers._start_point(inst, SolverConfig(seed=1))
    cfg = SolverConfig(c_step=0.2, t_max=300, x0=x0)
    tr = solve(inst, cfg)
    text, x_fin = _reference_solve(inst, cfg)
    assert tr.csv_text() == text
    assert tr.final_x.tobytes() == x_fin.tobytes()
    assert tr.negations == (0,)
    assert tr.n_steps == 300 and tr.sign_checks < tr.n_steps


@pytest.mark.parametrize("kind,kwargs", [
    ("SPIKED_WISHART", {"n_samples": 2000, "sigma": 0.1}),
    ("SPIKED_WISHART", {"n_samples": 2000, "sigma": 0.0}),
    ("SPIKED_WIGNER", {}),
])
def test_spiked_solve_matches_six_sweep_reference(kind, kwargs):
    # the spiked-sweep workload's shape and solver; most sign checks are
    # skipped
    net = sample_gaussian_net((6, 200, 400), seed=1)
    inst = make_instance(kind, net, seed=1001, **kwargs)
    x0 = solvers._start_point(inst, SolverConfig(seed=1001))
    cfg = SolverConfig(c_step=1.0, t_max=300, x0=x0)
    tr = solve(inst, cfg)
    text, x_fin = _reference_solve(inst, cfg)
    assert tr.csv_text() == text
    assert tr.final_x.tobytes() == x_fin.tobytes()
    assert tr.sign_checks < tr.n_steps


@pytest.mark.parametrize("kind,kwargs", [
    ("SPIKED_WISHART", {"n_samples": 2000, "sigma": 0.05}),
    ("SPIKED_WIGNER", {"sigma": 0.05}),
])
def test_spiked_solve_builds_no_square_array(kind, kwargs):
    net = sample_gaussian_net((6, 200, 400), seed=1)
    inst = make_instance(kind, net, seed=0, **kwargs)
    tracemalloc.start()
    try:
        tr = solve(inst, SolverConfig(c_step=1.0, t_max=50, rel_step_tol=0.0, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.n_steps == 50
    assert peak < 400 * 400 * 8, peak


def test_cs_recovery_single_seed():
    net = sample_gaussian_net((8, 250, 600), seed=0)
    inst = make_instance("CS", net, m=150, seed=0)
    tr = solve(inst, SolverConfig(c_step=0.2, t_max=5000, seed=0))
    assert tr.stop_reason == "step_tol"
    assert 400 <= tr.n_steps <= 2000
    assert tr.final_rel_signal_err <= 1e-8


def test_wigner_recovery_small_noise():
    net = sample_gaussian_net((6, 200, 400), seed=1)
    inst = make_instance("SPIKED_WIGNER", net, sigma=5e-4, seed=0)
    tr = solve(inst, SolverConfig(c_step=1.0, t_max=2000, seed=0))
    assert tr.final_rel_signal_err <= 0.05


def test_trace_csv_roundtrip():
    net = small_net()
    inst = make_instance("DEN", net, seed=4)
    tr = solve(inst, SolverConfig(t_max=5, seed=4))
    text = tr.csv_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["iter", "f", "latent_err", "signal_err", "negated"]
    assert len(rows) == len(tr.rows) + 1
    back = [float(r[1]) for r in rows[1:]]
    assert np.array_equal(np.asarray(back), [r[1] for r in tr.rows])
    # the final row (iter 5) is a stride multiple and is written once
    lines = text.splitlines(keepends=True)
    assert tr.csv_text(5) == "".join(lines[:2] + lines[-1:])
    with pytest.raises(ValidationError):
        tr.csv_text(0)
    # rerun is byte-identical
    tr2 = solve(inst, SolverConfig(t_max=5, seed=4))
    assert tr2.csv_text() == text


# Instance.__post_init__ runs these checks.

def test_instance_rejects_wrong_latent_length():
    inst = make_instance("DEN", small_net(), seed=0)
    with pytest.raises(ValidationError, match="x_star"):
        dataclasses.replace(inst, x_star=np.ones(6))


def test_instance_rejects_net_with_other_output_width():
    # a net of another n_out used to reach solve and fail there with a bare
    # numpy matmul error
    inst = make_instance("CS", small_net(), m=6, seed=0)
    with pytest.raises(ValidationError, match="instance a "):
        dataclasses.replace(inst, net=sample_gaussian_net((5, 40, 31), seed=1))


@pytest.mark.parametrize("kind, kwargs, field, bad", [
    ("CS", {"m": 6}, "b", np.ones(5)),
    ("PR", {"m": 6}, "eta", np.zeros(7)),
    ("CS", {"m": 6}, "m_obs", np.eye(30)),
    ("DEN", {}, "b", np.ones(29)),
    ("DEN", {}, "eta", np.zeros((30, 1))),
    ("DEN", {}, "a", np.ones((3, 30))),
    ("SPIKED_WIGNER", {"sigma": 0.1}, "m_obs", np.eye(29)),
    ("SPIKED_WIGNER", {"sigma": 0.1}, "m_obs", None),
    ("SPIKED_WISHART", {"n_samples": 20}, "b", np.ones(30)),
])
def test_instance_rejects_shapes_unfit_for_kind(kind, kwargs, field, bad):
    inst = make_instance(kind, small_net(), seed=0, **kwargs)
    with pytest.raises(ValidationError, match=f"instance {field} "):
        dataclasses.replace(inst, **{field: bad})


def test_instance_accepts_missing_eta():
    inst = make_instance("CS", small_net(), m=6, seed=0)
    assert dataclasses.replace(inst, eta=None).eta is None


@pytest.mark.parametrize("field", ["x_star", "a", "b", "eta"])
def test_instance_rejects_non_finite_values(field):
    inst = make_instance("CS", small_net(), m=6, sigma=0.1, seed=0)
    bad = np.array(getattr(inst, field))
    bad.flat[-1] = np.inf
    with pytest.raises(ValidationError, match="finite"):
        dataclasses.replace(inst, **{field: bad})
