import collections
import csv
import io
import math

import numpy as np
import pytest

from gpnet.conditions import (ConditionReport, _write_text, activation_gram_mc,
                              log_piece_count_bounds, masked_gram_deviation,
                              noise_coupling, omega, pair_reports, pattern_count_exact,
                              r2wdc_deviation, r2wdc_tuple_value, reports_csv_text,
                              rric_deviation, run_condition_suite, wdc_deviation)
from gpnet import blas, conditions
from gpnet import net as gnet
from gpnet.errors import ValidationError
from gpnet.geometry import DistortionMatrix, q_matrix, spectral_norm
from gpnet.harness import _parse_recipe
from gpnet.net import (GenerativeNet, contractive_example_dims, forward, linear_path,
                       sample_gaussian_net)
from gpnet.rng import DOMAIN_INSTANCE, DOMAIN_SAMPLE, sub_rng, unit_vector
from gpnet.solvers import sensing_matrix

# frozen regression values, measured once on first computation
R2WDC_PIN_LAYER2 = 0.13107826628963767      # (4,200,400) net seed 11, 2000 pairs, seed 1
WDC_PIN_MAX = 0.3384400598804309            # (4,100,200) net seed 5 layer 1, 300 pairs, seed 2
WDC_PIN_MEDIAN = 0.18096976638601533
NOISE_PIN_INNER = 0.0774880712075556
NOISE_PIN_GRAD = 0.17090917557914537
OMEGA_PIN = 0.32991597959204766             # dims (4,100,100), m = 400
MC_DEV_PIN = 0.004948356744051974           # n=6, m=50, 5000 draws, seed 0
LOG_PIECES_PIN = 33.75100659894561          # k=4, widths (100,100): 8 log(25 e)


def desk_net():
    return sample_gaussian_net((4, 100, 200), seed=5)


def recipe_net():
    return sample_gaussian_net(_parse_recipe("k=4 d=3").dims, seed=0)


def dense_masked_gram_deviation(w, r, s):
    # the O(n^3) reference: dense masked Gram minus the dense Q
    mr = (w @ r > 0.0)[:, None]
    ms = (w @ s > 0.0)[:, None]
    return float(spectral_norm((w * mr).T @ (w * ms) - q_matrix(r, s).q))


# ---------------------------------------------------------------------------
# WDC
# ---------------------------------------------------------------------------

def test_masked_gram_single_row_exact():
    # one-row W: the masked gram is w w^T when both directions activate the
    # row and 0 otherwise, so the deviation has closed form
    w = np.array([[0.8, 0.6, 0.0]])
    r = w[0] / np.linalg.norm(w[0])
    dev_active = masked_gram_deviation(w, r, r)
    assert abs(dev_active - max(abs(np.dot(w[0], w[0]) - 0.5), 0.5)) < 1e-12
    dev_inactive = masked_gram_deviation(w, -r, -r)
    assert abs(dev_inactive - 0.5) < 1e-12  # || -Q_{r,r} || = 1/2


def test_masked_gram_large_m_small_deviation():
    w = sub_rng(0, DOMAIN_SAMPLE, 9).standard_normal((20000, 10)) / math.sqrt(20000)
    e1 = np.eye(10)[0]
    e2 = np.eye(10)[1]
    dev = masked_gram_deviation(w, e1, e2)
    assert dev <= 0.1
    assert abs(dev - 0.016457890735235688) < 1e-9


def test_masked_gram_core_matches_dense_reference():
    # layer 1 of the recipe net has n = 4 <= p + 2 (no complement term);
    # layers 2 and 3 have p + 2 < n, where the complement contributes a
    net = recipe_net()
    regimes = set()
    for i, w in enumerate(net.weights, start=1):
        n = w.shape[1]
        for j in range(6):
            rng = sub_rng(4, DOMAIN_SAMPLE, j)
            r = unit_vector(rng, n)
            s = unit_vector(rng, n)
            p = int(np.count_nonzero((w @ r > 0.0) & (w @ s > 0.0)))
            regimes.add((i, p + 2 < n))
            assert masked_gram_deviation(w, r, s) == pytest.approx(
                dense_masked_gram_deviation(w, r, s), rel=1e-12)
    assert regimes == {(1, False), (2, True), (3, True)}


def test_masked_gram_core_degenerate_pairs():
    w = recipe_net().weights[1]
    n = w.shape[1]
    r = np.random.default_rng(6).standard_normal(n)
    # rows active at r only or at s only: the joint mask is empty
    split = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    sr, ss = np.array([1.0, -1.0, 0.3]), np.array([-1.0, 1.0, 0.3])
    row = np.array([[0.8, 0.6, 0.0]])
    rhat = row[0] / np.linalg.norm(row[0])
    cases = [(w, np.zeros(n), r), (w, r, np.zeros(n)), (w, r, r), (w, r, -r),
             (split, sr, ss), (row, rhat, rhat), (row, -rhat, -rhat)]
    for ww, a, b in cases:
        assert masked_gram_deviation(ww, a, b) == pytest.approx(
            dense_masked_gram_deviation(ww, a, b), rel=1e-12)
    # closed forms with no jointly active row: 0 where Q = 0, else ||Q||
    assert masked_gram_deviation(w, np.zeros(n), r) == 0.0
    assert masked_gram_deviation(w, r, -r) == 0.0
    t = q_matrix(sr, ss).theta
    assert masked_gram_deviation(split, sr, ss) == pytest.approx(
        ((math.pi - t) + math.sin(t)) / (2.0 * math.pi), rel=1e-12)


def test_wdc_checks_build_no_dense_q(monkeypatch):
    import tracemalloc

    def dense_q(self):
        raise AssertionError("an n x n Q was built")

    monkeypatch.setattr(DistortionMatrix, "q", property(dense_q))
    net = recipe_net()
    for i, w in enumerate(net.weights, start=1):
        n = w.shape[1]
        tracemalloc.start()
        try:
            wdc_deviation(w, samples=4, seed=3, layer=i)
            r2wdc_deviation(net, i, samples=4, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no n x n float64 array at all; on layer 1 (n = k = 4) one mask
        # vector already outweighs it, so the bound says nothing there
        if i > 1:
            assert peak < n * n * 8, (i, peak)


def test_wdc_report_pin_and_fields():
    rep = wdc_deviation(desk_net().weights[0], samples=300, seed=2)
    assert rep.kind == "WDC" and rep.samples == 300 and rep.skipped == 0
    assert abs(rep.max_eps - WDC_PIN_MAX) < 1e-9
    assert abs(rep.aux["median_deviation"] - WDC_PIN_MEDIAN) < 1e-9


def test_wdc_zero_samples_error():
    with pytest.raises(ValidationError):
        wdc_deviation(np.eye(3), samples=0, seed=0)


def test_wdc_on_a_matrix_without_columns_is_an_error():
    # R^0 has no unit vector, and the sampler used to redraw forever
    with pytest.raises(ValidationError, match="unit vector dimension"):
        wdc_deviation(np.empty((3, 0)), 2, 0)
    with pytest.raises(ValidationError, match="unit vector dimension"):
        unit_vector(sub_rng(0, DOMAIN_SAMPLE), 0)


def test_wdc_prefix_max_monotone_and_deterministic():
    w = desk_net().weights[0]
    a40 = wdc_deviation(w, samples=40, seed=7).max_eps
    a80 = wdc_deviation(w, samples=80, seed=7).max_eps
    assert a80 >= a40  # extra samples only append pairs
    again = wdc_deviation(w, samples=80, seed=7)
    assert reports_csv_text([again]) == reports_csv_text([wdc_deviation(w, 80, 7)])


@pytest.fixture
def caller_blas_threads():
    """The caller's OpenBLAS thread count, put back after the test."""
    before = blas.blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS mapped into this process")
    yield before
    blas.set_blas_threads(before)


def test_wdc_bytes_do_not_depend_on_caller_blas_threads(caller_blas_threads):
    # the layer-2 thin QRs round differently on two threads
    w = sample_gaussian_net(contractive_example_dims(k=4, d=3).dims, 3).weights[1]
    texts = []
    for n in (1, 2):
        blas.set_blas_threads(n)
        texts.append(reports_csv_text([wdc_deviation(w, 3, 3001, layer=2)]))
        assert blas.blas_threads() == n
        with pytest.raises(ValidationError):
            wdc_deviation(w, 0, 3001, layer=2)
        assert blas.blas_threads() == n
    assert texts[0] == texts[1]


def test_one_blas_thread_does_nothing_without_openblas(caller_blas_threads, monkeypatch):
    get = blas._openblas()[0]
    blas.set_blas_threads(2)
    seen = []
    monkeypatch.setattr(blas, "_openblas", lambda: None)

    @blas.one_blas_thread()
    def probe():
        seen.append(get())

    probe()
    assert seen == [2] and get() == 2
    assert blas.blas_threads() is None


# ---------------------------------------------------------------------------
# R2WDC
# ---------------------------------------------------------------------------

def test_r2wdc_pin():
    net = sample_gaussian_net((4, 200, 400), seed=11)
    rep = r2wdc_deviation(net, 2, samples=2000, seed=1)
    assert rep.max_eps <= 0.35
    assert abs(rep.max_eps - R2WDC_PIN_LAYER2) < 1e-9
    assert rep.skipped == 0


def test_r2wdc_bilinear_below_spectral():
    # on any shared tuple the bilinear deviation cannot exceed the spectral
    # deviation of the same masked gram at the anchor directions
    net = sample_gaussian_net((3, 40, 60), seed=4)
    for j in range(30):
        rng = sub_rng(21, DOMAIN_SAMPLE, j)
        lat = [rng.standard_normal(3) for _ in range(6)]
        v = r2wdc_tuple_value(net, 2, *lat)
        if v is None:
            continue
        gu = forward(net, lat[0])[1]
        gv = forward(net, lat[1])[1]
        spec = masked_gram_deviation(net.weights[1], gu, gv)
        assert v <= spec + 1e-10


def test_r2wdc_tuple_matches_dense_q_form():
    net = recipe_net()
    for i, w in enumerate(net.weights, start=1):
        for j in range(8):
            rng = sub_rng(5, DOMAIN_SAMPLE, j)
            lat = [rng.standard_normal(net.k) for _ in range(6)]
            gu, gv, g1, g2, g3, g4 = (forward(net, x)[i - 1] for x in lat)
            a = g1 - g2
            b = g3 - g4
            bilin = float(np.sum((w @ a) * (w @ b) * ((w @ gu > 0.0) & (w @ gv > 0.0))))
            want = abs(bilin - float(np.dot(q_matrix(gu, gv).q @ a, b))) \
                / (np.linalg.norm(a) * np.linalg.norm(b))
            assert r2wdc_tuple_value(net, i, *lat) == pytest.approx(want, rel=1e-12)


def test_r2wdc_counts_degenerate_tuples():
    # a net whose first layer kills every positive scalar input produces
    # many zero range differences, which must be skipped, not crash
    w1 = np.array([[-1.0], [-1.0]])
    w2 = np.eye(2)
    net = GenerativeNet(dims=(1, 2, 2), weights=(w1, w2))
    rep = r2wdc_deviation(net, 2, samples=60, seed=0)
    assert rep.skipped > 0
    assert rep.samples == 60
    assert math.isfinite(rep.max_eps)


def test_all_degenerate_tuples_raise():
    # a zero first layer sends every latent to the zero output, so every
    # range difference falls under the guard
    net = GenerativeNet(dims=(2, 3, 2), weights=(np.zeros((3, 2)), np.ones((2, 3))))
    with pytest.raises(ValidationError, match="degenerate"):
        r2wdc_deviation(net, 2, samples=5, seed=0)
    with pytest.raises(ValidationError, match="degenerate"):
        rric_deviation(np.eye(2), net, samples=5, seed=0)


def test_rric_counts_degenerate_pairs():
    # G(x) = relu(-x) (1, 1) vanishes for x > 0, so a pair is skipped when
    # both latents of a difference are positive
    net = GenerativeNet(dims=(1, 2, 2), weights=(np.array([[-1.0], [-1.0]]), np.eye(2)))
    samples = 60
    rep = rric_deviation(np.eye(2), net, samples=samples, seed=0)
    kept = 0
    for j in range(samples):
        rng = sub_rng(0, DOMAIN_SAMPLE, j)
        x = [rng.standard_normal(1)[0] for _ in range(4)]
        kept += bool(min(x[0], x[1]) < 0.0 and min(x[2], x[3]) < 0.0)
    assert 0 < kept < samples
    assert rep.skipped == samples - kept
    assert rep.max_eps <= 1e-12  # A = I leaves every kept pair exact


@pytest.mark.parametrize("layer,check", [
    (0, lambda net: r2wdc_deviation(net, 2, 20, 0)),
    (2, lambda net: rric_deviation(sensing_matrix(30, 40, 0), net, 20, 0))],
    ids=["R2WDC", "RRIC"])
def test_degenerate_rule_is_free_of_scale(layer, check):
    # a power of two scales every later output exactly and both statistics
    # are ratios, so scaling one layer by 2^-44 (differences near 1e-13)
    # leaves the report as it was, skipped tuples included
    net = sample_gaussian_net((4, 60, 50, 40), 0)
    weights = list(net.weights)
    weights[layer] = weights[layer] * 2.0 ** -44
    tiny = GenerativeNet(dims=net.dims, weights=tuple(weights))
    assert reports_csv_text([check(tiny)]) == reports_csv_text([check(net)])


def test_r2wdc_layer_validation():
    net = desk_net()
    with pytest.raises(ValidationError):
        r2wdc_deviation(net, 0, samples=10, seed=0)
    with pytest.raises(ValidationError):
        r2wdc_deviation(net, 3, samples=10, seed=0)
    x = np.ones(4)
    with pytest.raises(ValidationError, match=r"layer must be in 1\.\.2, got 3"):
        r2wdc_tuple_value(net, net.depth + 1, x, -x, x, 2 * x, -x, 3 * x)


@pytest.mark.parametrize("kind,check", [
    ("WDC", lambda net: wdc_deviation(net.weights[0], 2, 0)),
    ("R2WDC", lambda net: r2wdc_deviation(net, 2, 2, 0)),
    ("RRIC", lambda net: rric_deviation(np.eye(30), net, 2, 0))], ids=["WDC", "R2WDC", "RRIC"])
def test_sampled_checks_reject_overflowing_nets(kind, check):
    # weights of 1e200 used to give an R2WDC of nan, an RRIC of "all
    # degenerate" and a WDC "mat" error, each after RuntimeWarnings
    small = sample_gaussian_net((3, 20, 30), 0)
    net = GenerativeNet(dims=small.dims, weights=tuple(np.full(w.shape, 1e200)
                                                       for w in small.weights))
    with pytest.raises(ValidationError, match=rf"^{kind} sample \d+ is (inf|nan), not finite"):
        check(net)


@pytest.mark.parametrize("name", ["noise_coupling", "pair_reports"])
def test_pair_checks_reject_overflowing_nets(name):
    # weights scaled by 1e160 used to give NOISE maxima of 0, Lipschitz
    # ratios (inf, nan) and errors about x, mat or w_vec, each after a
    # RuntimeWarning
    small = sample_gaussian_net((3, 20, 30), 0)
    net = GenerativeNet(dims=small.dims, weights=tuple(1e160 * w for w in small.weights))
    y = np.array([1.0, -2.0, 0.5])
    args = ((np.eye(30)[:10], np.ones(10), 3, 0) if name == "noise_coupling"
            else (np.ones(3), y, y))
    with pytest.raises(ValidationError, match=rf"^{name}: the net overflows float64"):
        getattr(conditions, name)(net, *args)


# ---------------------------------------------------------------------------
# RRIC
# ---------------------------------------------------------------------------

def test_rric_orthogonal_map_is_exact():
    from gpnet.conditions import rric_deviation
    net = desk_net()
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((200, 200)))
    rep = rric_deviation(q, net, samples=50, seed=1)
    assert rep.max_eps <= 1e-10  # A^T A = I exactly up to float noise


def test_rric_zero_map_value_one():
    from gpnet.conditions import rric_deviation
    net = desk_net()
    rep = rric_deviation(np.zeros((10, 200)), net, samples=20, seed=1)
    # |<0 - I u, u>| / |u|^2 = 1 when the same difference is used twice;
    # with independent differences the ratio is |cos angle|, so the max
    # over samples approaches 1 from below
    assert rep.max_eps <= 1.0 + 1e-12


def test_rric_median_shrinks_with_m():
    from gpnet.conditions import rric_deviation
    net = desk_net()
    meds = []
    for m in (50, 100, 200, 400):
        a = sub_rng(2, DOMAIN_INSTANCE, 1).standard_normal((m, 200)) / math.sqrt(m)
        meds.append(rric_deviation(a, net, samples=120, seed=9).aux["median_deviation"])
    assert meds[0] > meds[1] > meds[2] > meds[3]


# ---------------------------------------------------------------------------
# omega and noise coupling
# ---------------------------------------------------------------------------

def test_omega_frozen_and_crosscheck():
    val = omega((4, 100, 100), 400)
    assert abs(val - OMEGA_PIN) < 1e-12
    # independent route: direct product form inside the log
    k, m = 4, 400
    direct = (2.0 / 2.0) * math.sqrt(13 / 12) * math.sqrt(
        k / m * math.log(5.0 * (math.e * 100 / 4) ** 2))
    assert abs(val - direct) < 1e-12


def test_omega_monotonicity():
    assert omega((4, 100, 100), 800) < omega((4, 100, 100), 400)
    assert omega((8, 100, 100), 400) > omega((4, 100, 100), 400)
    # deeper nets with the same widths carry the 2^{-d/2} prefactor
    shallow = omega((4, 64), 100)
    deep = omega((4, 64, 64, 64, 64), 100)
    assert deep < shallow


def test_omega_validation():
    with pytest.raises(ValidationError):
        omega((4, 100), 0)
    with pytest.raises(ValidationError):
        omega((4,), 10)


def test_noise_zero_eta():
    net = desk_net()
    a = np.zeros((10, 200))
    rep = noise_coupling(net, a, np.zeros(10), samples=5, seed=0)
    assert rep.max_eps == 0.0


def test_noise_kernel_eta_couples_to_nothing():
    net = desk_net()
    rng = np.random.default_rng(8)
    a = rng.standard_normal((150, 200)) / math.sqrt(150)
    # project a random vector onto the null space of A^T (m > rank impossible
    # here, so build eta orthogonal to the columns of A instead: A^T eta = 0
    # requires eta in the left null space, empty for m < n; use a fat A)
    a_fat = rng.standard_normal((300, 200)) / math.sqrt(300)
    r = rng.standard_normal(300)
    eta = r - a_fat @ np.linalg.lstsq(a_fat, r, rcond=None)[0]
    assert np.linalg.norm(a_fat.T @ eta) < 1e-9
    rep = noise_coupling(net, a_fat, eta, samples=30, seed=1)
    assert rep.max_eps <= 1e-10


def test_noise_gaussian_within_three_omega():
    net = desk_net()
    m = 120
    a = sub_rng(7, DOMAIN_INSTANCE, 1).standard_normal((m, 200)) / math.sqrt(m)
    eta = sub_rng(7, DOMAIN_INSTANCE, 2).standard_normal(m)
    rep = noise_coupling(net, a, eta, samples=500, seed=3)
    om = rep.aux["omega"]
    assert rep.aux["inner_ratio_max"] <= 3.0 * om
    assert rep.aux["grad_ratio_max"] <= 3.0 * om
    assert abs(rep.aux["inner_ratio_max"] - NOISE_PIN_INNER) < 1e-9
    assert abs(rep.aux["grad_ratio_max"] - NOISE_PIN_GRAD) < 1e-9


def test_noise_bytes_do_not_depend_on_caller_blas_threads(caller_blas_threads):
    # A^T eta and the masked transposed sweeps round differently on two threads
    net = sample_gaussian_net((8, 400, 1500), 0)
    for seed in (0, 1):
        a = sub_rng(seed, DOMAIN_INSTANCE, 1).standard_normal((900, 1500)) / 30.0
        eta = sub_rng(seed, DOMAIN_INSTANCE, 0).standard_normal(900)
        texts = []
        for n in (1, 2):
            blas.set_blas_threads(n)
            texts.append(reports_csv_text([noise_coupling(net, a, eta, 40, 0)]))
            assert blas.blas_threads() == n
        assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# pattern counting
# ---------------------------------------------------------------------------

def test_patterns_line():
    w = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    basis = np.array([[1.0], [0.0]])
    pc = pattern_count_exact(w, basis)
    assert pc.count == 2
    assert pc.patterns == ((0, 1, 0), (1, 0, 0))


def test_patterns_plane_generic_is_2m():
    rng = np.random.default_rng(42)
    w = rng.standard_normal((10, 7))
    basis = rng.standard_normal((7, 2))
    pc = pattern_count_exact(w, basis)
    assert pc.count == 20
    assert pc.comb_bound == 1 + 10 + 45
    assert abs(pc.log_bound - 2 * math.log(math.e * 10 / 2)) < 1e-12
    assert math.log(pc.count) <= pc.log_bound


def test_patterns_plane_counts_distinct_lines():
    # duplicated, rescaled and negated rows define the same line, so four
    # such rows over two genuine directions give 2 * 2 = 4 patterns
    rows = np.array([[1.0, 0.0, 0.0],
                     [-2.0, 0.0, 0.0],
                     [0.0, 3.0, 0.0],
                     [0.0, 1.5, 0.0]])
    basis = np.eye(3)[:, :2]
    pc = pattern_count_exact(rows, basis)
    assert pc.count == 4


def test_patterns_zero_matrix():
    pc = pattern_count_exact(np.zeros((4, 5)), np.eye(5)[:, :2])
    assert pc.count == 1
    assert pc.patterns == ((0, 0, 0, 0),)


def test_patterns_space_small_generic():
    # generic central planes in R^3 carve 2 sum_{j<3} C(m-1, j) = m^2 - m + 2
    # chambers; brute-force pattern sampling must agree and be covered
    for m in (3, 4, 5, 6):
        wr = np.random.default_rng(100 + m).standard_normal((m, 9))
        basis = np.random.default_rng(200 + m).standard_normal((9, 3))
        pc = pattern_count_exact(wr, basis)
        assert pc.count == m * m - m + 2
        p = wr @ basis
        t = np.random.default_rng(1).standard_normal((120000, 3))
        brute = set(map(tuple, (t @ p.T > 0).astype(np.int8).tolist()))
        assert brute <= set(pc.patterns)
        assert pc.count >= len(brute)
        assert pc.count <= pc.comb_bound


def test_patterns_space_shared_axis_degenerate():
    # three planes through a common line behave like three lines in the
    # quotient plane: six chambers
    w = np.array([[1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0]])
    pc = pattern_count_exact(w, np.eye(3))
    assert pc.count == 6
    # five planes through the z axis with exactly representable normals:
    # five lines in the quotient plane, ten chambers
    five = np.array([[1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [1.0, 1.0, 0.0],
                     [1.0, -1.0, 0.0],
                     [1.0, 2.0, 0.0]])
    assert pattern_count_exact(five, np.eye(3)).count == 10
    # a repeated plane, a negated plane and a zero row add no chamber
    extra = np.vstack((five, 3.0 * five[2], -five[4], np.zeros(3)))
    pc = pattern_count_exact(extra, np.eye(3))
    assert pc.count == 10
    assert all(pat[7] == 0 for pat in pc.patterns)


def test_patterns_ell3_circle_walk_reaches_every_chamber():
    # generic planes: each plane's walk finds two points on each of the
    # m - 1 lines that the other planes cut from it, steps each off the
    # line to both sides, then off the plane to both sides, so
    # 8 m (m - 1) witnesses in all; they must find all m^2 - m + 2
    # chambers, since every chamber has a 2-face on some plane
    for m in (2, 3, 8, 14, 20):
        rng = np.random.default_rng(300 + m)
        p = rng.standard_normal((m, 9)) @ rng.standard_normal((9, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        wit = conditions._witnesses(p)
        assert len(wit) == 8 * m * (m - 1)
        assert len(conditions._patterns_at(p, wit)) == m * m - m + 2, m


def test_patterns_with_zero_rows():
    w = np.array([[0.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0]])
    pc = pattern_count_exact(w, np.eye(3))
    # zero row is always off; two independent planes give 4 chambers
    assert pc.count == 4
    assert all(pat[0] == 0 for pat in pc.patterns)


def test_patterns_match_per_witness_reference():
    # the batched classifier against one product per witness, on the
    # same witness points, including zero rows and repeated planes
    for seed in range(30):
        rng = np.random.default_rng(seed)
        m = 4 + seed % 17
        for ell in (1, 2, 3):
            w = rng.standard_normal((m, 8))
            basis = rng.standard_normal((8, ell))
            if seed % 5 == 0:
                w[seed % m] = 0.0
            if seed % 7 == 0:
                w[1] = 2.0 * w[0]
            p = w @ basis
            nonzero = np.any(p != 0.0, axis=1)
            p[nonzero] /= np.linalg.norm(p[nonzero], axis=1, keepdims=True)
            ref = set()
            for t in conditions._witnesses(p):
                vals = p @ t
                if not np.any((vals == 0.0) & nonzero):
                    ref.add(tuple(int(v > 0.0) for v in vals))
            pc = pattern_count_exact(w, basis)
            assert pc.patterns == tuple(sorted(ref)), (seed, ell)
            assert pc.count == len(ref)


def test_patterns_match_cover_count():
    # Cover (1965): m' distinct central planes in general position carve
    # 2 sum_{j<ell} C(m' - 1, j) chambers out of R^ell; zero, repeated
    # (2.5x) and negated (-3x) rows add no plane, and a zero row is off
    for ell in (1, 2, 3):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = 3 + seed % 18
            w = rng.standard_normal((m, 8))
            zero = seed % m
            if seed % 4 == 1:
                w[zero] = 0.0
                distinct = m - 1
            elif seed % 4 == 2:
                w[1] = 2.5 * w[0]
                w[m - 1] = -3.0 * w[0]
                distinct = m - 2
            elif seed % 4 == 3:
                w[zero] = 0.0
                w[(zero + 1) % m] = -3.0 * w[(zero + 2) % m]
                distinct = m - 2
            else:
                distinct = m
            pc = pattern_count_exact(w, rng.standard_normal((8, ell)))
            cover = 2 * sum(math.comb(distinct - 1, j) for j in range(ell))
            assert pc.count == cover, (ell, seed)
            if seed % 4 in (1, 3):
                assert all(pat[zero] == 0 for pat in pc.patterns)
    # one nonzero row splits the slice in two; no nonzero row leaves one
    w = np.zeros((4, 5))
    w[2] = np.arange(1.0, 6.0)
    for ell in (2, 3):
        pc = pattern_count_exact(w, np.eye(5)[:, :ell])
        assert pc.patterns == ((0, 0, 0, 0), (0, 0, 1, 0))
    pc = pattern_count_exact(np.zeros((4, 5)), np.eye(5)[:, :3])
    assert pc.patterns == ((0, 0, 0, 0),)


def test_patterns_shared_line_tolerance():
    # three planes share a line when their triple product is at most
    # 1e-12: within 1e-8 of one line they are still generic, and their
    # traces in each other's walk, 1e-8 apart, must not merge
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        w = rng.standard_normal((8, 3))
        w[2] = w[0] + w[1] + 1e-8 * rng.standard_normal(3)
        assert pattern_count_exact(w, np.eye(3)).count == 58, seed
    # rows projected orthogonal to one axis share it up to rounding: m
    # planes through one line, 2 m chambers
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        m = 3 + seed % 18
        w = rng.standard_normal((m, 3))
        axis = unit_vector(rng, 3)
        w -= np.outer(w @ axis, axis)
        assert pattern_count_exact(w, np.eye(3)).count == 2 * m, seed


def test_patterns_validation():
    w = np.zeros((21, 4))
    with pytest.raises(ValidationError):
        pattern_count_exact(w, np.eye(4)[:, :2])
    with pytest.raises(ValidationError):
        pattern_count_exact(np.zeros((3, 4)), np.eye(4))  # ell = 4
    dep = np.ones((4, 2))
    with pytest.raises(ValidationError):
        pattern_count_exact(np.zeros((3, 4)), dep)


def test_patterns_reject_a_matrix_without_rows():
    # log_bound = ell log(e m / ell) used to raise a bare math domain error
    with pytest.raises(ValidationError, match="supports 1 to 20 rows, got 0"):
        pattern_count_exact(np.empty((0, 3)), np.eye(3)[:, :2])


def test_patterns_reject_an_overflowing_projection():
    # W basis overflows to inf and nan; unguarded, the count came out 4
    # where the exact count is 6, after RuntimeWarnings
    w = np.array([[1e300, 1e300], [1.0, -1.0], [2.0, 0.5]])
    basis = np.array([[1e10, 0.0], [1e10, 1.0]])
    with pytest.raises(ValidationError,
                       match=r"^pattern_count_exact: the net overflows float64"):
        pattern_count_exact(w, basis)


def test_log_piece_bounds_frozen():
    vals = log_piece_count_bounds((4, 100, 100))
    assert len(vals) == 2
    assert abs(vals[1] - LOG_PIECES_PIN) < 1e-12
    assert abs(vals[0] - 4 * (1 + math.log(25.0))) < 1e-12
    assert vals[0] < vals[1]


# ---------------------------------------------------------------------------
# linearization concentration
# ---------------------------------------------------------------------------

def _near(rng, x):
    """The suite's second point: 5% of |x| away from x."""
    return x + 0.05 * float(np.linalg.norm(x)) * unit_vector(rng, x.size)


def test_lambda_concentration_identity_like_layer():
    # W = [I; -I]: for a positive latent the mask keeps exactly the identity
    # block, so Lambda^T Lambda = I and the statistics have closed forms
    k = 4
    w = np.vstack([np.eye(k), -np.eye(k)])
    net = GenerativeNet(dims=(k, 2 * k), weights=(w,))
    x = np.array([1.0, 2.0, 0.5, 3.0])
    _, rep = pair_reports(net, x, x, 1.5 * x)
    assert abs(rep.aux["sq_norm_scaled"] - 2.0) < 1e-12
    assert abs(rep.aux["gram_gap"] - 1.0) < 1e-12  # 2 ||I - I/2|| = 1


def test_lambda_concentration_htilde_consistency():
    # with y = x the prediction h_tilde = x / 2^d, so the htilde gap is
    # bounded by the gram gap (both measure Lambda^T Lambda - I / 2^d)
    net = desk_net()
    rng = sub_rng(3, DOMAIN_SAMPLE, 0)
    x = rng.standard_normal(4)
    _, rep = pair_reports(net, x, x, _near(rng, x))
    assert rep.aux["htilde_gap"] <= rep.aux["gram_gap"] + 1e-10


def test_lambda_concentration_boundary_guard():
    w = np.array([[1.0, -1.0], [0.5, 0.5]])
    net = GenerativeNet(dims=(2, 2), weights=(w,))
    with pytest.raises(ValidationError, match="^x sits exactly on an activation boundary "
                                              "of layer 1"):
        pair_reports(net, np.array([1.0, 1.0]), np.array([0.3, 0.1]), np.array([1.0, 0.5]))


@pytest.mark.parametrize("x,y,where", [
    ([-1.0, -2.0], [0.3, 0.1], "^x collapses to zero at layer 1"),
    ([1.0, 2.0], [-1.0, -1.0], "^y collapses to zero at layer 1"),
    ([2.0, 1.0], [0.3, 0.1], "^x collapses to zero at layer 2")])
def test_pair_reports_name_a_collapsed_point(x, y, where):
    # a collapsed x also zeroes the next layer's z, which the boundary
    # check would blame; the collapse is reported first
    w2 = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    net = GenerativeNet(dims=(2, 2, 2), weights=(np.eye(2), w2))
    with pytest.raises(ValidationError, match=where):
        pair_reports(net, np.array(x), np.array(y), np.array([0.5, 0.5]))


def test_lambda_bytes_do_not_depend_on_caller_blas_threads(caller_blas_threads):
    # the dense Lambda products round differently on two threads
    for c_bar in (2, 8):
        net = sample_gaussian_net(_parse_recipe(f"k=4 d=3 c_bar={c_bar}").dims, 0)
        points = []
        for j in range(10):
            rng = sub_rng(1, DOMAIN_SAMPLE, j)
            x, y = rng.standard_normal(net.k), rng.standard_normal(net.k)
            points.append((x, y, _near(rng, x)))
        texts = []
        for n in (1, 2):
            blas.set_blas_threads(n)
            texts.append(reports_csv_text([rep for p in points
                                           for rep in pair_reports(net, *p)]))
            assert blas.blas_threads() == n
        assert texts[0] == texts[1], c_bar


def test_norm_angle_x_equals_y():
    net = desk_net()
    rng = sub_rng(4, DOMAIN_SAMPLE, 1)
    x = rng.standard_normal(4)
    rep, _ = pair_reports(net, x, x, _near(rng, x))
    assert rep.kind == "NORM_ANGLE"
    assert all(r == 0.0 for r in rep.eps_by_layer)  # angles stay exactly zero
    assert rep.aux["inner_scaled"] > 0.0


def test_norm_angle_scale_invariance():
    net = desk_net()
    rng = sub_rng(5, DOMAIN_SAMPLE, 2)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    near = _near(rng, x)
    a, _ = pair_reports(net, x, y, near)
    b, _ = pair_reports(net, 3.0 * x, 2.0 * y, 3.0 * near)
    for name in ("norm_sq_ratio", "band_low", "band_high", "lipschitz_ratio"):
        assert np.allclose(a.per_layer[name], b.per_layer[name], rtol=1e-12, atol=1e-12)
    assert np.allclose(a.eps_by_layer, b.eps_by_layer, atol=1e-10)
    assert abs(a.aux["inner_scaled"] - b.aux["inner_scaled"]) < 1e-10


def test_norm_angle_band_structure():
    net = desk_net()
    x = np.array([1.0, 0.2, -0.3, 0.5])
    rep, _ = pair_reports(net, x, np.array([0.1, -1.0, 0.4, 0.2]), 1.05 * x)
    for j, (lo, hi) in enumerate(zip(rep.per_layer["band_low"],
                                     rep.per_layer["band_high"]), start=1):
        assert abs(lo - 0.3 ** j) < 1e-12
        assert abs(hi - 0.7 ** j) < 1e-12


@pytest.mark.parametrize("dims,seed,skipped", [((4, 60, 50, 40), 3, 0), ((2, 3, 3), 0, 1)])
def test_suite_pair_rows_reduce_pair_reports(dims, seed, skipped):
    # every NORM_ANGLE and LAMBDA_CONC row of the suite is the max (or, for
    # a _min statistic, the min) of pair_reports' row over the suite's own
    # draws; a pair with a collapsed latent is skipped and counted
    net = sample_gaussian_net(dims, 0)
    pairs = 6 if skipped == 0 else 3
    suite = [r for r in run_condition_suite(net, 2, seed, pairs=pairs)
             if r.kind in ("NORM_ANGLE", "LAMBDA_CONC")]
    per_pair = []
    for j in range(pairs):
        rng = sub_rng(seed, DOMAIN_SAMPLE, j)
        x, y = rng.standard_normal(net.k), rng.standard_normal(net.k)
        try:
            reps = pair_reports(net, x, y, _near(rng, x))
        except ValidationError as e:
            assert "collapses to zero" in str(e)
            continue
        per_pair.append({row[:3]: row[3] for rep in reps for row in rep.rows()})
    assert len(per_pair) == pairs - skipped
    rows = [row for rep in suite for row in rep.rows()]
    assert len(rows) == 6 * net.depth + 5
    # every pair statistic is reduced, bar LAMBDA_CONC's htilde_gap
    reduced = {(k, s.removesuffix("_max").removesuffix("_min")) for k, _, s, *_ in rows}
    assert reduced == {(k, s) for k, _, s in per_pair[0]} - {("LAMBDA_CONC", "htilde_gap")}
    for kind, layer, stat, value, _, samples, skip, _ in rows:
        base = stat.removesuffix("_max").removesuffix("_min")
        pick = min if stat.endswith("_min") else max
        assert value == pick(p[kind, layer, base] for p in per_pair), stat
        assert (samples, skip) == (pairs, skipped)


def test_pair_loop_sweeps_each_point_once(monkeypatch):
    # x, y and near are swept forward once each, and Lambda_x^T once
    calls = collections.Counter()
    for name in ("forward", "preactivations", "linear_path", "apply_masked_t"):
        def counted(*args, _fn=getattr(gnet, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(conditions, name, counted, raising=False)
    net = sample_gaussian_net((4, 60, 50, 40), 0)
    sweeps = []
    for pairs in (2, 5):
        calls.clear()
        run_condition_suite(net, 2, 3, pairs=pairs)
        sweeps.append((calls["forward"] + calls["preactivations"] + calls["linear_path"],
                       calls["apply_masked_t"]))
    assert (sweeps[1][0] - sweeps[0][0], sweeps[1][1] - sweeps[0][1]) == (3 * 3, 3)


def test_suite_reference_levels_have_their_closed_forms():
    # every target and band cell of the suite, against its closed form at eps = 0.2
    net = sample_gaussian_net((4, 60, 50, 40), 0)
    text = reports_csv_text(run_condition_suite(net, 2, 0, pairs=2))
    eps, d, layers = 0.2, 3, (1, 2, 3)
    targets, bands = {}, {}
    for r in csv.DictReader(io.StringIO(text)):
        if r["statistic"] in ("band_low", "band_high"):
            bands[r["statistic"], int(r["layer"])] = float(r["value"])
        elif r["target"] != "nan":
            targets[r["condition"], r["statistic"], int(r["layer"])] = float(r["target"])
    want = {("NORM_ANGLE", "angle_residual", j): 4 * math.sqrt(eps) for j in layers}
    want |= {("NORM_ANGLE", "lipschitz_ratio_max", j): 1.2 for j in layers}
    want |= {("NORM_ANGLE", "inner_scaled_min", 0): 1 / (4 * math.pi),
             ("NORM_ANGLE", "htilde_gap_max", 0): 24 * d ** 3 * math.sqrt(eps),
             ("LAMBDA_CONC", "gram_gap_max", 0): 4 * eps * d,
             ("LAMBDA_CONC", "sq_norm_scaled_max", 0): 13 / 12,
             ("LAMBDA_CONC", "convexity_residual_max", 0): 1 / 16 + 0.05}
    assert targets == pytest.approx(want, rel=1e-15)
    assert bands == pytest.approx(
        {(side, j): (0.5 + sign * eps) ** j
         for side, sign in (("band_low", -1), ("band_high", 1)) for j in layers},
        rel=1e-15)


def test_lipschitz_identical_points():
    # the ratios over |x - near| and the convexity residual are undefined
    # at near == x, so the pair is rejected
    net = desk_net()
    x = np.ones(4)
    with pytest.raises(ValidationError, match="^near must differ from x"):
        pair_reports(net, x, x, x)


def test_lipschitz_identity_like_layer():
    k = 3
    w = np.vstack([np.eye(k), -np.eye(k)])
    net = GenerativeNet(dims=(k, 2 * k), weights=(w,))
    x = np.array([1.0, 1.0, 1.0])
    near = np.array([2.0, 1.5, 1.2])
    rep, _ = pair_reports(net, x, x, near)
    # G moves exactly like the identity on the positive orthant, so the
    # scaled ratio is sqrt(2)
    assert abs(rep.per_layer["lipschitz_ratio"][0] - math.sqrt(2.0)) < 1e-12


def test_convexity_requires_distinct_points():
    # y may equal x; near may not
    net = desk_net()
    x = np.ones(4)
    pair_reports(net, x, x, 1.1 * x)
    with pytest.raises(ValidationError, match="^near must differ from x"):
        pair_reports(net, x, 2.0 * x, x)


def test_convexity_matches_direct_formula():
    net = desk_net()
    rng = sub_rng(6, DOMAIN_SAMPLE, 3)
    x = rng.standard_normal(4)
    near = x + 0.01 * rng.standard_normal(4)
    _, rep = pair_reports(net, x, rng.standard_normal(4), near)
    lam_x = linear_path(net, x).lam
    g_near = forward(net, near)[-1]
    direct = np.linalg.norm(4.0 * lam_x.T @ (lam_x @ x - g_near) - (x - near)) \
        / np.linalg.norm(x - near)
    assert abs(rep.aux["convexity_residual"] - direct) < 1e-10


# ---------------------------------------------------------------------------
# expectation identity and CSV plumbing
# ---------------------------------------------------------------------------

def test_expectation_identity_mc():
    rng = np.random.default_rng(2)
    r = rng.standard_normal(6)
    s = rng.standard_normal(6)
    gram, dev = activation_gram_mc(r, s, m=50, draws=5000, seed=0)
    assert dev <= 0.03
    assert abs(dev - MC_DEV_PIN) < 1e-9
    assert np.allclose(gram, gram.T, atol=1e-12)


def test_expectation_identity_chunk_independent():
    # the draw sequence does not depend on internal chunking; emulate a tiny
    # chunk size by monkey-free direct comparison of two draws
    r = np.array([1.0, 0.0, 0.0])
    s = np.array([0.0, 1.0, 0.0])
    g1, d1 = activation_gram_mc(r, s, m=20, draws=300, seed=5)
    g2, d2 = activation_gram_mc(r, s, m=20, draws=300, seed=5)
    assert np.array_equal(g1, g2) and d1 == d2


def test_expectation_identity_rejects_a_matrix_beyond_the_address_space():
    # numpy used to reject the (1, m, 3) draw with a ValueError of its own
    with pytest.raises(ValidationError, match="^m gives a 100000000000000000000 x 3 weight "
                                              "matrix larger than the address space"):
        activation_gram_mc(np.ones(3), np.eye(3)[0], 10 ** 20, 1, 0)


def test_report_validation():
    with pytest.raises(ValidationError):
        ConditionReport(kind="BOGUS")
    with pytest.raises(ValidationError):
        ConditionReport(kind="WDC", layers=(1, 2), eps_by_layer=(0.1,))


def test_report_csv_layout_and_roundtrip(tmp_path):
    rep = ConditionReport(kind="WDC", layers=(1,), eps_by_layer=(0.25,),
                          samples=10, seed=3, aux={"median_deviation": 0.1},
                          targets={"deviation": 0.5})
    text = reports_csv_text([rep])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["condition", "layer", "statistic", "value", "target",
                       "samples", "skipped", "seed"]
    assert rows[1] == ["WDC", "1", "deviation", "0.25", "0.5", "10", "0", "3"]
    assert rows[2][2] == "median_deviation" and rows[2][1] == "0"
    p = tmp_path / "rep.csv"
    _write_text(p, reports_csv_text([rep]))
    assert p.read_text() == text
