"""End-to-end gate: one test per shipped guarantee, tolerances frozen.

Every statistic below is a deterministic function of fixed seeds; the
PIN_* constants were measured once on the reference environment and are
asserted as regression values alongside the primary bounds.
"""

import math
import time

import numpy as np
import pytest

from gpnet.blas import blas_threads, set_blas_threads
from gpnet.cli import main
from gpnet.conditions import REF_EPS, activation_gram_mc, pair_reports, pattern_count_exact
from gpnet.geometry import q_lipschitz_gap, q_matrix, spectral_norm
from gpnet.harness import ExperimentSpec, run_experiment
from gpnet.net import (contractive_example_dims, forward, linear_path,
                       preactivations, sample_gaussian_net)
from gpnet.rng import DOMAIN_SAMPLE, sub_rng
from gpnet.solvers import SolverConfig, loss, make_instance, solve, subgradient

PIN_Q_NORM_MAX = 0.49858577279175315
PIN_MC_DEV_MAX = 0.006022521814924602
PIN_CS_ERR_MAX = 3.690802493951919e-11
PIN_DEN_ERR_MAX = 2.7681132710250826e-11
PIN_PR_ERR_MAX = 3.32723926102359e-11
PIN_NOISE_SLOPE = -0.5156376386190233
PIN_GRAM_MAX = 1.700337274486749
PIN_LIP_MAX = 1.5574435392091728
PIN_CONV_MAX = 1.557516689787292
PIN_GRAM_MAX_CBAR8 = 0.4715344781309126
PIN_LIP_MAX_CBAR8 = 1.1553421895843619
PIN_QLIP_RATIO_MAX = 0.024592290776443506
PIN_WISHART_ERR_MAX = 0.02829124088334019


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_angle_map_and_distortion_matrix_exactness():
    t0 = time.time()
    from gpnet.geometry import g_theta
    assert abs(g_theta(0.0)) <= 1e-12
    assert abs(g_theta(math.pi) - math.pi / 2.0) <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(5):
        r = rng.standard_normal(8)
        assert np.array_equal(q_matrix(r, r).q, np.eye(8) / 2.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        q = q_matrix(_unit(rng, 8), _unit(rng, 8)).q
        worst = max(worst, spectral_norm(q))
    assert worst <= 0.5 + 1e-12
    assert worst == pytest.approx(PIN_Q_NORM_MAX, rel=1e-9)
    assert time.time() - t0 < 5.0


def test_masked_gram_expectation_identity():
    t0 = time.time()
    devs = []
    for j in range(10):
        rng = sub_rng(77, DOMAIN_SAMPLE, j)
        r = _unit(rng, 6)
        s = _unit(rng, 6)
        _, dev = activation_gram_mc(r, s, 50, 5000, seed=1000 + j)
        devs.append(dev)
    assert max(devs) <= 0.03
    assert max(devs) == pytest.approx(PIN_MC_DEV_MAX, rel=1e-9)
    assert time.time() - t0 < 60.0


def _sign_aware_err(net, x, y_star):
    g = forward(net, x)[-1]
    return float(min(np.linalg.norm(g - y_star), np.linalg.norm(g + y_star))
                 / np.linalg.norm(y_star))


def test_noiseless_recovery_three_kinds():
    t0 = time.time()
    net = sample_gaussian_net((8, 250, 600), 0)

    def run(kind, tol, **kw):
        errs = []
        for seed in range(10):
            inst = make_instance(kind, net, seed=seed, **kw)
            tr = solve(inst, SolverConfig(c_step=0.2, t_max=5000, seed=seed))
            if kind == "PR":
                errs.append(_sign_aware_err(net, tr.final_x, inst.y_star))
            else:
                errs.append(tr.final_rel_signal_err)
        return errs

    cs = run("CS", 1e-5, m=150)
    assert sum(e <= 1e-5 for e in cs) >= 9
    assert max(cs) == pytest.approx(PIN_CS_ERR_MAX, rel=1e-6)
    den = run("DEN", 1e-5)
    assert sum(e <= 1e-5 for e in den) >= 8
    assert max(den) == pytest.approx(PIN_DEN_ERR_MAX, rel=1e-6)
    pr = run("PR", 1e-5, m=300)
    assert sum(e <= 1e-5 for e in pr) >= 8
    assert max(pr) == pytest.approx(PIN_PR_ERR_MAX, rel=1e-6)
    assert time.time() - t0 < 300.0


def test_noise_error_scales_with_measurements():
    t0 = time.time()
    spec = ExperimentSpec(
        name="noise-scaling", kind="CS", sweep_axis="m",
        sweep_values=(100, 200, 400, 800), seeds=tuple(range(20)),
        dims=(8, 250, 600), net_seed=0, instance={"eta_norm": 0.1},
        solver=SolverConfig(c_step=0.2, t_max=1000))
    rows, summary = run_experiment(spec)
    assert all(r["failed"] == 0 for r in rows)
    ms = np.array([s["sweep_value"] for s in summary])
    med = np.array([s["signal_err_median"] for s in summary])
    slope = float(np.polyfit(np.log(ms), np.log(med), 1)[0])
    assert -0.8 <= slope <= -0.2
    assert slope == pytest.approx(PIN_NOISE_SLOPE, abs=1e-9)
    assert time.time() - t0 < 900.0


def _safely_differentiable(inst, rng, delta=1e-4):
    net = inst.net
    while True:
        x = rng.standard_normal(net.k)
        if min(float(np.min(np.abs(z))) for z in preactivations(net, x)) < delta:
            continue
        if inst.kind == "PR" and \
                float(np.min(np.abs(inst.a @ forward(net, x)[-1]))) < delta:
            continue
        return x


def test_subgradient_matches_finite_differences():
    t0 = time.time()
    net = sample_gaussian_net((6, 64, 48), 0)
    h = 1e-6
    eye = np.eye(net.k)
    for kind, kw in (("CS", dict(m=40)), ("PR", dict(m=60)), ("DEN", {}),
                     ("SPIKED_WISHART", dict(n_samples=500, sigma=0.1))):
        inst = make_instance(kind, net, seed=3, **kw)
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = _safely_differentiable(inst, rng)
            v = subgradient(inst, x)
            num = np.array([(loss(inst, x + h * e) - loss(inst, x - h * e))
                            / (2.0 * h) for e in eye])
            rel = np.linalg.norm(num - v) / np.linalg.norm(v)
            assert rel <= 1e-5, (kind, rel)
    assert time.time() - t0 < 30.0


def _central_chambers(m, ell):
    """Cover's (1965) count of the chambers that m central hyperplanes in
    general position cut R^ell into: 2 sum_{j<ell} C(m-1, j)."""
    return 2 * sum(math.comb(m - 1, j) for j in range(ell))


def test_pattern_enumeration_counts():
    # G has no biases, so the projected rows cut the slice with central
    # planes; the affine-arrangement sum_{j<=ell} C(m, j) (comb_bound) is
    # only an envelope, strict from m = ell + 1 on
    t0 = time.time()
    rng = np.random.default_rng(11)
    for m in range(1, 13):
        w = rng.standard_normal((m, 9))
        pc = pattern_count_exact(w, rng.standard_normal((9, 2)))
        assert pc.count == _central_chambers(m, 2), m
        assert pc.count <= pc.comb_bound, m
        if m >= 2:
            assert math.log(pc.count) <= pc.log_bound, m
    for m in range(3, 9):
        w = rng.standard_normal((m, 9))
        pc = pattern_count_exact(w, rng.standard_normal((9, 3)))
        assert pc.count == _central_chambers(m, 3), m
        assert pc.count <= pc.comb_bound, m
        assert math.log(pc.count) <= pc.log_bound, m
    assert time.time() - t0 < 10.0


def _recipe_points(net):
    """The 100 fixed (x, y, near) triples the concentration test probes;
    near sits 5% of |x| away from x, inside the Lipschitz ball."""
    for j in range(100):
        rng = sub_rng(42, DOMAIN_SAMPLE, j)
        x = rng.standard_normal(net.k)
        y = rng.standard_normal(net.k)
        near = x + 0.05 * float(np.linalg.norm(x)) * _unit(rng, net.k)
        yield x, y, near


def _in_ball(net, x, near):
    """|x - near| <= d sqrt(eps) |near|, the ball the Lipschitz ratio's
    bound of 1.2 is proved in."""
    return np.linalg.norm(x - near) <= net.depth * math.sqrt(REF_EPS) * np.linalg.norm(near)


def _scaled_gram_gap(net, path):
    """2^d || Lambda_x^T Lambda_x - I / 2^d ||."""
    scale = 2.0 ** net.depth
    return scale * spectral_norm(path.lam.T @ path.lam - np.eye(net.k) / scale)


def _range_deviations(net, path):
    """Per-layer range-restricted deviations delta_i(x), i = 1..d:
    || 2 B^T B - I_k || with B = D_i W_i Q and Q an orthonormal basis of
    the range of Lambda_{i-1}(x)."""
    out = []
    for w, mask, lam_prev in zip(net.weights, path.masks, path.mats):
        b = (w * mask[:, None]) @ np.linalg.qr(lam_prev)[0]
        out.append(spectral_norm(2.0 * b.T @ b - np.eye(net.k)))
    return np.array(out)


def test_concentration_bands_on_recipe_net():
    t0 = time.time()
    rec = contractive_example_dims(k=4, d=3, c_bar=2.0)
    assert rec.dims == (4, 426, 341, 256)
    net = sample_gaussian_net(rec.dims, 0)
    lo = [(0.5 - 0.2) ** j for j in range(1, net.depth + 1)]
    hi = [(0.5 + 0.2) ** j for j in range(1, net.depth + 1)]
    gram_max = lip_max = conv_max = 0.0
    band_violations = 0
    # The paper's constants (gram gap 0.5, Lipschitz ratio 1.2, descent
    # residual 1/16 plus lower order) assume a vanishing per-layer
    # deviation.  At these widths delta_i(x) (see _range_deviations)
    # reaches 0.48 / 0.56 / 0.67 on layers 1-3, so each quantity is held
    # to a band computed from delta at the same point; each band falls to
    # the paper's constant as delta -> 0.  With L_i = Lambda_i^T Lambda_i:
    #
    # Gram gap (exact).  Write Lambda_{i-1} = Q R, so L_i = R^T B^T B R
    # and L_{i-1} = R^T R.  (1 - delta_i) I <= 2 B^T B <= (1 + delta_i) I
    # then gives, in the Loewner order,
    #     (1 - delta_i) 2^{i-1} L_{i-1} <= 2^i L_i <= (1 + delta_i) 2^{i-1} L_{i-1},
    # and from L_0 = I every eigenvalue of 2^d L_d lies in
    # [prod(1 - delta_i), prod(1 + delta_i)].  Expanding the products,
    # prod(1 + delta_i) + prod(1 - delta_i) >= 2, so the lower gap never
    # exceeds the upper one (a delta_i >= 1 makes the upper gap >= 1, and
    # eigenvalues of L_d are >= 0): gram_gap <= prod(1 + delta_i) - 1.
    #
    # Descent residual.  G is bias-free, so G(z) = Lambda_z z.  With
    # u = x - near, 2^d Lambda_x^T (G(x) - G(near)) - u is (2^d L_x - I) u,
    # at most gram_gap |u|, plus a term from the masks near flips, which
    # is 0 when near shares x's masks.  The 1/16 (with 0.05 of lower
    # order) budgets that second term, so it bounds residual - gram_gap.
    #
    # Lipschitz ratio (first order).  Inside one linear piece
    # G_i(x) - G_i(near) = Lambda_i u, so ratio_i <= lambda_max(2^i L_i)^{1/2}
    # <= prod_{j<=i} (1 + delta_j)^{1/2}.  Taking delta_j as the larger of
    # its values at x and at near ignores the pieces the segment crosses
    # in between, so this band is first-order only.
    for x, y, near in _recipe_points(net):
        path = linear_path(net, x)
        delta_x = _range_deviations(net, path)
        delta_near = _range_deviations(net, linear_path(net, near))
        gram = _scaled_gram_gap(net, path)
        assert gram <= np.prod(1.0 + delta_x) - 1.0, (gram, delta_x)
        gram_max = max(gram_max, gram)
        norm_angle, lam_conc = pair_reports(net, x, y, near)
        ratios = norm_angle.per_layer["norm_sq_ratio"]
        if any(r < l or r > h for r, l, h in zip(ratios, lo, hi)):
            band_violations += 1
        assert _in_ball(net, x, near)
        lip = norm_angle.per_layer["lipschitz_ratio"]
        band = np.sqrt(np.cumprod(1.0 + np.maximum(delta_x, delta_near)))
        assert np.all(np.array(lip) <= band), (lip, band)
        lip_max = max(lip_max, max(lip))
        conv = lam_conc.aux["convexity_residual"]
        assert conv - gram <= 1.0 / 16.0 + 0.05, (conv, gram)
        conv_max = max(conv_max, conv)
    assert gram_max == pytest.approx(PIN_GRAM_MAX, rel=1e-9)
    assert lip_max == pytest.approx(PIN_LIP_MAX, rel=1e-9)
    assert conv_max == pytest.approx(PIN_CONV_MAX, rel=1e-9)
    assert band_violations == 0

    # On the c_bar=8 recipe the gram and Lipschitz constants hold outright.
    # The maxima fall faster than 1 / sqrt(width): exactly 4x the widths
    # above, (4,1704,1364,1024), gives 0.5412 / 1.1391 / 0.3293 for gram
    # gap, Lipschitz ratio and descent residual, a residual 4.7x smaller.
    # The 1/16 residual is still out of desk reach, so it is not asserted:
    # 0.3620 at c_bar=8 and 0.2013 at c_bar=16 (4,4582,3666,2750), whose
    # loop takes 25-40 s on two cores.
    wide = contractive_example_dims(k=4, d=3, c_bar=8.0)
    assert wide.dims == (4, 1959, 1567, 1175)
    net = sample_gaussian_net(wide.dims, 0)
    gram_max = lip_max = 0.0
    for x, y, near in _recipe_points(net):
        gram_max = max(gram_max, _scaled_gram_gap(net, linear_path(net, x)))
        assert _in_ball(net, x, near)
        lip = pair_reports(net, x, y, near)[0].per_layer["lipschitz_ratio"]
        lip_max = max(lip_max, max(lip))
    assert gram_max <= 0.5
    assert lip_max <= 1.2
    assert gram_max == pytest.approx(PIN_GRAM_MAX_CBAR8, rel=1e-9)
    assert lip_max == pytest.approx(PIN_LIP_MAX_CBAR8, rel=1e-9)
    assert time.time() - t0 < 120.0


def test_distortion_matrix_perturbation_bound():
    t0 = time.time()
    worst = 0.0
    for eps in (0.01, 0.1):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            r = _unit(rng, 10)
            s = _unit(rng, 10)
            dr = rng.standard_normal(10)
            dr *= eps / np.linalg.norm(dr)
            ds = rng.standard_normal(10)
            ds *= eps / np.linalg.norm(ds)
            rt = r + dr
            rt /= np.linalg.norm(rt)
            st = s + ds
            st /= np.linalg.norm(st)
            gap, bound = q_lipschitz_gap(r, rt, s, st)
            assert gap <= bound
            worst = max(worst, gap / bound)
    assert worst == pytest.approx(PIN_QLIP_RATIO_MAX, rel=1e-9)
    assert time.time() - t0 < 30.0


def test_spiked_wishart_recovery():
    t0 = time.time()
    net = sample_gaussian_net((6, 200, 400), 1)
    errs = []
    for seed in range(10):
        inst = make_instance("SPIKED_WISHART", net, n_samples=2000,
                             sigma=0.05, seed=seed)
        tr = solve(inst, SolverConfig(c_step=1.0, t_max=2000, seed=seed))
        errs.append(_sign_aware_err(net, tr.final_x, inst.y_star))
    assert sum(e <= 0.05 for e in errs) >= 8
    assert max(errs) == pytest.approx(PIN_WISHART_ERR_MAX, rel=1e-6)

    clean = make_instance("SPIKED_WISHART", net, n_samples=2000, sigma=0.0,
                          seed=0)
    evals, evecs = np.linalg.eigh(clean.m_obs)
    assert abs(evals[-2]) / evals[-1] <= 1e-10
    y_hat = clean.y_star / np.linalg.norm(clean.y_star)
    assert abs(float(evecs[:, -1] @ y_hat)) >= 0.999
    assert time.time() - t0 < 300.0


def test_cli_outputs_are_byte_identical(tmp_path):
    net = tmp_path / "net.bin"
    assert main(["gen-net", "--dims", "6,60,40", "--net-seed", "1",
                 "--out", str(net)]) == 0
    first_net = net.read_bytes()
    cfg = tmp_path / "exp.ini"
    cfg.write_text("""
[experiment]
kind = DEN
sweep = sigma
values = 0.0, 0.05
seeds = 0:2
[net]
dims = 6, 60, 40
seed = 1
[solver]
t_max = 80
""")
    commands = {
        "recipe.csv": ["recipe", "--recipe", "k=4 d=2"],
        "trace.csv": ["solve", "--net", str(net), "--kind", "CS", "--m", "50",
                      "--seed", "2", "--t-max", "200", "--trace-stride", "20"],
        "wdc.csv": ["check-wdc", "--net", str(net), "--samples", "20"],
        "r2wdc.csv": ["check-r2wdc", "--net", str(net), "--samples", "10"],
        "rric.csv": ["check-rric", "--net", str(net), "--m", "80",
                     "--samples", "10"],
        "patterns.csv": ["check-patterns", "--rows", "8", "--cols", "10",
                         "--ell", "3", "--seed", "4"],
        "conditions.csv": ["conditions", "--net", str(net), "--samples", "10",
                           "--pairs", "5"],
        "exp.csv": ["experiment", "--config", str(cfg), "--jobs", "1"],
    }
    # the second round runs on two BLAS threads: the bytes must not move
    rounds = []
    before = blas_threads()
    try:
        for threads in (1, 2):
            set_blas_threads(threads)
            outs = {}
            for name, args in commands.items():
                path = tmp_path / name
                assert main(args + ["--out", str(path)]) == 0
                outs[name] = path.read_bytes()
                if name == "exp.csv":
                    outs["exp_summary.csv"] = (tmp_path / "exp_summary.csv").read_bytes()
            rounds.append(outs)
    finally:
        if before is not None:
            set_blas_threads(before)
    assert rounds[0] == rounds[1]
    net.unlink()
    assert main(["gen-net", "--dims", "6,60,40", "--net-seed", "1",
                 "--out", str(net)]) == 0
    assert net.read_bytes() == first_net
