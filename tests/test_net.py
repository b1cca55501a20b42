import dataclasses
import math
import pickle
import re

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gpnet import net as gnet
from gpnet.errors import ValidationError
from gpnet.cli import main
from gpnet.conditions import (activation_gram_mc, log_piece_count_bounds,
                              masked_gram_deviation, noise_coupling, omega, pair_reports,
                              pattern_count_exact, r2wdc_deviation, r2wdc_tuple_value,
                              rric_deviation, run_condition_suite, wdc_deviation)
from gpnet.geometry import (angle_between, angle_profile, q_lipschitz_gap, q_matrix,
                            spectral_norm)
from gpnet.harness import ExperimentSpec, run_experiment
from gpnet.net import (MAGIC, GenerativeNet, apply_masked_t, check_dims,
                       contractive_example_dims, forward, linear_path, load_net,
                       preactivations, sample_gaussian_net, save_net)
from gpnet.rng import DOMAIN_SAMPLE, sub_rng
from gpnet.solvers import SolverConfig, make_instance, sensing_matrix, solve

# hand-worked tiny case: W = [[1,-1],[-1,1]], x = (1,0)
# z = (1,-1) -> mask (1,0), G = (1,0), Lambda = [[1,-1],[0,0]]
HAND_W = np.array([[1.0, -1.0], [-1.0, 1.0]])
HAND_X = np.array([1.0, 0.0])
HAND_LAMBDA = np.array([[1.0, -1.0], [0.0, 0.0]])


def hand_net():
    return GenerativeNet(dims=(2, 2), weights=(HAND_W,))


def test_sample_shapes():
    net = sample_gaussian_net((4, 100), seed=7)
    assert net.dims == (4, 100)
    assert net.depth == 1 and net.k == 4 and net.n_out == 100
    assert net.weights[0].shape == (100, 4)
    net = sample_gaussian_net((2, 3, 5), seed=0)
    assert [w.shape for w in net.weights] == [(3, 2), (5, 3)]


def test_sample_weight_variance():
    # entries of layer i are N(0, 1/n_i): empirical variance of a big layer
    # should sit near 1/n_out
    net = sample_gaussian_net((50, 400), seed=3)
    v = net.weights[0].var()
    assert abs(v - 1.0 / 400) < 0.1 / 400


def test_sample_determinism_bytes():
    a = sample_gaussian_net((3, 17, 9), seed=42)
    b = sample_gaussian_net((3, 17, 9), seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert wa.tobytes() == wb.tobytes()
    c = sample_gaussian_net((3, 17, 9), seed=43)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_sample_layer_streams_independent():
    # layer 1 weights depend only on (seed, layer index), not on depth
    shallow = sample_gaussian_net((3, 17), seed=42)
    deep = sample_gaussian_net((3, 17, 9, 4), seed=42)
    assert np.array_equal(shallow.weights[0], deep.weights[0])


def test_sample_invalid_dims():
    with pytest.raises(ValidationError):
        sample_gaussian_net((4,), seed=0)
    with pytest.raises(ValidationError):
        sample_gaussian_net((0, 5), seed=0)
    with pytest.raises(ValidationError):
        sample_gaussian_net((4, -2, 3), seed=0)


BAD_DIMS = [(8, 250.5), (4, 100.9), (0, 5), (4, 10, 0), (4, math.inf), (4,)]


@pytest.mark.parametrize("dims", BAD_DIMS)
@pytest.mark.parametrize("use", [
    lambda dims: sample_gaussian_net(dims, 0),
    lambda dims: omega(dims, 10),
    log_piece_count_bounds,
    check_dims,
], ids=["sample_gaussian_net", "omega", "log_piece_count_bounds", "check_dims"])
def test_dims_rule_rejects_fractional_and_nonpositive(use, dims):
    # fractional widths used to be truncated: (8, 250.5) sampled an (8, 250) net
    with pytest.raises(ValidationError, match="integer >= 1"):
        use(dims)


def test_dims_rule_takes_integral_values():
    assert check_dims(np.array([4.0, 100.0])) == (4, 100)
    assert sample_gaussian_net((3.0, 17), 42) == sample_gaussian_net((3, 17), 42)
    assert log_piece_count_bounds((4.0, 100)) == log_piece_count_bounds((4, 100))


COUNT_NET = sample_gaussian_net((3, 30, 20), 5)
COUNT_A = sensing_matrix(10, 20, 0)
COUNT_TRACE = solve(make_instance("DEN", COUNT_NET, seed=1), SolverConfig(t_max=7))
COUNT_DEEP_NET = sample_gaussian_net((3, 10, 8, 6), 5)


def _one_cell_sweep(seeds=(0,), net_seed=0, jobs=None):
    """A one-cell DEN sigma sweep on (3, 8, 6), run serially (one cell
    takes one worker whatever jobs asks for)."""
    return run_experiment(ExperimentSpec(
        name="count", kind="DEN", sweep_axis="sigma", sweep_values=(0.0,), seeds=seeds,
        dims=(3, 8, 6), net_seed=net_seed, solver=SolverConfig(t_max=2)), jobs=jobs)


# (entry point, what its error names, least, the call as a function of one count)
COUNT_SITES = [
    ("sub_rng", "seed", 0, lambda v: sub_rng(v, DOMAIN_SAMPLE).standard_normal(2)),
    ("sensing_matrix", "m", 1, lambda v: sensing_matrix(v, 20, 0)),
    ("make_instance", "n_samples", 1,
     lambda v: make_instance("SPIKED_WISHART", COUNT_NET, n_samples=v, seed=0)),
    ("SolverConfig", "t_max", 0, lambda v: solve(make_instance("DEN", COUNT_NET, seed=1),
                                                 SolverConfig(t_max=v))),
    ("csv_text", "trace stride", 1, COUNT_TRACE.csv_text),
    ("wdc_deviation", "samples", 1, lambda v: wdc_deviation(COUNT_NET.weights[1], v, 0)),
    ("wdc_deviation-layer", "layer", 0,
     lambda v: wdc_deviation(COUNT_NET.weights[1], 2, 0, layer=v)),
    ("r2wdc_deviation-layer", "layer", 1, lambda v: r2wdc_deviation(COUNT_DEEP_NET, v, 2, 0)),
    ("noise_coupling", "samples", 1,
     lambda v: noise_coupling(COUNT_NET, COUNT_A, np.ones(10), v, 0)),
    ("omega", "m", 1, lambda v: omega(COUNT_NET.dims, v)),
    ("activation_gram_mc-m", "m", 1,
     lambda v: activation_gram_mc(np.ones(3), np.eye(3)[0], v, 3, 0)),
    ("activation_gram_mc-draws", "draws", 1,
     lambda v: activation_gram_mc(np.ones(3), np.eye(3)[0], 4, v, 0)),
    ("run_condition_suite-samples", "samples", 1,
     lambda v: run_condition_suite(COUNT_NET, v, 0, pairs=2)),
    ("run_condition_suite-pairs", "pairs", 1,
     lambda v: run_condition_suite(COUNT_NET, 2, 0, pairs=v)),
    ("angle_profile", "depth", 1, lambda v: angle_profile(np.ones(3), np.eye(3)[0], v)),
    ("contractive_example_dims-k", "recipe k", 1, lambda v: contractive_example_dims(v, 3)),
    ("contractive_example_dims-d", "recipe d", 2, lambda v: contractive_example_dims(4, v)),
    ("ExperimentSpec-seeds", "seed", 0, lambda v: _one_cell_sweep(seeds=(v,))),
    ("ExperimentSpec-net_seed", "net_seed", 0, lambda v: _one_cell_sweep(net_seed=v)),
    ("run_experiment-jobs", "jobs", 1, lambda v: _one_cell_sweep(jobs=v)),
]


@pytest.mark.parametrize("what,least,call", [site[1:] for site in COUNT_SITES],
                         ids=[site[0] for site in COUNT_SITES])
def test_count_rule_at_every_entry_point(what, least, call):
    # a fractional count used to be truncated: samples=2.5 drew 2 samples
    for bad in (2.5, least - 1):
        with pytest.raises(ValidationError, match=re.escape(what)):
            call(bad)
    assert pickle.dumps(call(3.0)) == pickle.dumps(call(3))


ARRAY_X = np.array([0.3, -1.0, 0.5])
ARRAY_Y = np.array([-0.2, 0.4, 0.9])
ARRAY_U = ARRAY_X / np.linalg.norm(ARRAY_X)
ARRAY_MASKS = [o > 0.0 for o in forward(COUNT_NET, ARRAY_X)[1:]]
ARRAY_CS = make_instance("CS", COUNT_NET, m=10, seed=0)
ARRAY_WIGNER = make_instance("SPIKED_WIGNER", COUNT_NET, sigma=0.1, seed=0)
ARRAY_W = COUNT_NET.weights[1]  # 20 x 30


def _solve_from(x0):
    return solve(ARRAY_CS, SolverConfig(x0=x0, t_max=1))


# (entry point, the argument its error names, a valid value, the call as a
# function of that argument)
ARRAY_SITES = [
    ("forward", "x", ARRAY_X, lambda v: forward(COUNT_NET, v)),
    ("preactivations", "x", ARRAY_X, lambda v: preactivations(COUNT_NET, v)),
    ("linear_path", "x", ARRAY_X, lambda v: linear_path(COUNT_NET, v)),
    ("apply_masked_t", "w_vec", np.ones(20),
     lambda v: apply_masked_t(COUNT_NET, ARRAY_MASKS, v)),
    ("GenerativeNet", "layer 2 weights", ARRAY_W,
     lambda v: GenerativeNet(COUNT_NET.dims, (COUNT_NET.weights[0], v))),
    ("angle_between-x", "x", ARRAY_X, lambda v: angle_between(v, ARRAY_Y)),
    ("angle_between-y", "y", ARRAY_Y, lambda v: angle_between(ARRAY_X, v)),
    ("q_matrix-r", "r", ARRAY_X, lambda v: q_matrix(v, ARRAY_Y)),
    ("q_matrix-s", "s", ARRAY_Y, lambda v: q_matrix(ARRAY_X, v)),
    ("angle_profile-x", "x", ARRAY_X, lambda v: angle_profile(v, ARRAY_Y, 2)),
    ("angle_profile-y", "y", ARRAY_Y, lambda v: angle_profile(ARRAY_X, v, 2)),
    ("q_lipschitz_gap-r", "r", ARRAY_U, lambda v: q_lipschitz_gap(v, *[ARRAY_U] * 3)),
    ("q_lipschitz_gap-s_t", "s_t", ARRAY_U, lambda v: q_lipschitz_gap(*[ARRAY_U] * 3, v)),
    ("DistortionMatrix.apply", "v", ARRAY_Y, q_matrix(ARRAY_X, ARRAY_Y).apply),
    ("spectral_norm", "mat", ARRAY_W, spectral_norm),
    ("masked_gram_deviation-w", "w", ARRAY_W,
     lambda v: masked_gram_deviation(v, np.ones(30), np.arange(30.0))),
    ("masked_gram_deviation-r", "r", np.ones(30),
     lambda v: masked_gram_deviation(ARRAY_W, v, np.arange(30.0))),
    ("masked_gram_deviation-s", "s", np.arange(30.0),
     lambda v: masked_gram_deviation(ARRAY_W, np.ones(30), v)),
    ("wdc_deviation", "w", ARRAY_W, lambda v: wdc_deviation(v, 2, 0)),
    ("r2wdc_tuple_value", "x3", ARRAY_X,
     lambda v: r2wdc_tuple_value(COUNT_NET, 2, ARRAY_X, ARRAY_Y, ARRAY_Y, ARRAY_X, v, ARRAY_Y)),
    ("rric_deviation", "a", COUNT_A, lambda v: rric_deviation(v, COUNT_NET, 2, 0)),
    ("noise_coupling-a", "a", COUNT_A,
     lambda v: noise_coupling(COUNT_NET, v, np.ones(10), 2, 0)),
    ("noise_coupling-eta", "eta", np.ones(10),
     lambda v: noise_coupling(COUNT_NET, COUNT_A, v, 2, 0)),
    ("pattern_count_exact-w", "w", ARRAY_W[:8],
     lambda v: pattern_count_exact(v, np.eye(30)[:, :2])),
    ("pattern_count_exact-basis", "basis", np.eye(30)[:, :2],
     lambda v: pattern_count_exact(ARRAY_W[:8], v)),
    ("activation_gram_mc-r", "r", ARRAY_X,
     lambda v: activation_gram_mc(v, ARRAY_Y, 4, 3, 0)),
    ("activation_gram_mc-s", "s", ARRAY_Y,
     lambda v: activation_gram_mc(ARRAY_X, v, 4, 3, 0)),
    ("pair_reports-x", "x", ARRAY_X,
     lambda v: pair_reports(COUNT_NET, v, ARRAY_Y, ARRAY_Y)),
    ("pair_reports-y", "y", ARRAY_Y,
     lambda v: pair_reports(COUNT_NET, ARRAY_X, v, ARRAY_Y)),
    ("pair_reports-near", "near", ARRAY_Y,
     lambda v: pair_reports(COUNT_NET, ARRAY_X, ARRAY_Y, v)),
    ("make_instance-x_star", "x_star", ARRAY_X,
     lambda v: make_instance("DEN", COUNT_NET, x_star=v, seed=0)),
    ("make_instance-eta", "eta", np.zeros(20),
     lambda v: make_instance("DEN", COUNT_NET, eta=v, seed=0)),
    ("Instance-a", "instance a", ARRAY_CS.a, lambda v: dataclasses.replace(ARRAY_CS, a=v)),
    ("Instance-b", "instance b", ARRAY_CS.b, lambda v: dataclasses.replace(ARRAY_CS, b=v)),
    ("Instance-m_obs", "instance m_obs", ARRAY_WIGNER.m_obs,
     lambda v: dataclasses.replace(ARRAY_WIGNER, m_obs=v)),
    ("solve-x0", "x0", ARRAY_X, _solve_from),
]


@pytest.mark.parametrize("what,good,call", [site[1:] for site in ARRAY_SITES],
                         ids=[site[0] for site in ARRAY_SITES])
def test_array_rule_at_every_entry_point(what, good, call):
    # a NaN used to come back as a plausible number at several of these:
    # wdc_deviation reported 0.29 for an all-NaN W
    call(good)
    bads = [np.stack((good, good)), "abc"]
    for fill in (np.nan, np.inf):
        bads.append(good.copy())
        bads[-1].flat[0] = fill
    for bad in bads:
        with pytest.raises(ValidationError, match=f"^{re.escape(what)} "):
            call(bad)


def test_net_rejects_bad_weights():
    with pytest.raises(ValidationError):
        GenerativeNet(dims=(2, 2), weights=(np.zeros((3, 2)),))
    with pytest.raises(ValidationError):
        GenerativeNet(dims=(2, 2), weights=(np.array([[np.nan, 0.0], [0.0, 0.0]]),))


def test_forward_hand_example():
    outs = forward(hand_net(), HAND_X)
    assert np.array_equal(outs[0], HAND_X)
    assert np.array_equal(outs[1], np.array([1.0, 0.0]))


def test_forward_zero_is_zero():
    net = sample_gaussian_net((4, 20, 7), seed=1)
    outs = forward(net, np.zeros(4))
    for g in outs:
        assert np.all(g == 0.0)


def test_forward_positive_homogeneity():
    # relu(c z) = c relu(z) for c > 0, so G(c x) = c G(x)
    net = sample_gaussian_net((5, 40, 30), seed=9)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(5)
        c = float(rng.uniform(0.1, 10.0))
        ga = forward(net, c * x)[-1]
        gb = c * forward(net, x)[-1]
        denom = np.linalg.norm(gb)
        assert np.linalg.norm(ga - gb) <= 1e-12 * max(denom, 1.0)


def test_forward_dim_mismatch():
    net = sample_gaussian_net((4, 8), seed=0)
    with pytest.raises(ValidationError):
        forward(net, np.zeros(5))
    with pytest.raises(ValidationError):
        forward(net, np.array([1.0, np.inf, 0.0, 0.0]))


def test_linear_path_hand_example():
    path = linear_path(hand_net(), HAND_X)
    assert path.masks[0].tolist() == [True, False]
    assert np.array_equal(path.mats[0], np.eye(2))
    assert np.array_equal(path.lam, HAND_LAMBDA)


def test_linear_path_zero_input():
    # strict mask rule: z = 0 counts as off
    net = sample_gaussian_net((3, 10, 4), seed=5)
    path = linear_path(net, np.zeros(3))
    assert not path.masks[0].any() and not path.masks[1].any()
    assert np.all(path.lam == 0.0)


def test_path_consistency_all_layers():
    # G_j(x) = Lambda_j x at every depth
    net = sample_gaussian_net((3, 17, 29, 11), seed=12)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(3)
        outs = forward(net, x)
        path = linear_path(net, x)
        for j, g in enumerate(outs):
            err = np.linalg.norm(path.mats[j] @ x - g)
            assert err <= 1e-10 * max(np.linalg.norm(g), 1.0)


def test_masks_match_preactivations():
    net = sample_gaussian_net((4, 33, 21), seed=8)
    x = np.random.default_rng(2).standard_normal(4)
    path = linear_path(net, x)
    outs = forward(net, x)[1:]
    for m, z, o in zip(path.masks, preactivations(net, x), outs):
        assert np.array_equal(m, z > 0)
        assert np.array_equal(m, o > 0)


@pytest.mark.parametrize("dims,seed", [((3, 7), 1), ((4, 33, 21), 8),
                                       ((5, 40, 30, 20, 12), 15)])
def test_propagation_matches_reference_loop(dims, seed):
    # forward, preactivations and linear_path share one layer loop; each
    # must equal a plain loop over the weights bit for bit
    net = sample_gaussian_net(dims, seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.standard_normal(net.k)
        outs, pre, masks, mats = [x], [], [], [np.eye(net.k)]
        for w in net.weights:
            z = w @ outs[-1]
            pre.append(z)
            masks.append(z > 0.0)
            mats.append((w * masks[-1][:, None]) @ mats[-1])
            outs.append(np.maximum(z, 0.0))
        path = linear_path(net, x)
        for got, want in ((forward(net, x), outs), (preactivations(net, x), pre),
                          (path.masks, masks), (path.mats, mats)):
            assert len(got) == len(want)
            assert all(np.array_equal(g, e) for g, e in zip(got, want))


def test_local_linearity():
    # small enough steps keep the masks, where G moves exactly like Lambda
    net = sample_gaussian_net((5, 60, 40), seed=21)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        x = rng.standard_normal(5)
        delta = rng.standard_normal(5)
        delta *= 1e-7 * np.linalg.norm(x) / np.linalg.norm(delta)
        pa = linear_path(net, x)
        pb = linear_path(net, x + delta)
        if not all(np.array_equal(ma, mb) for ma, mb in zip(pa.masks, pb.masks)):
            continue
        lhs = forward(net, x + delta)[-1] - forward(net, x)[-1]
        rhs = pa.lam @ delta
        assert np.linalg.norm(lhs - rhs) <= 1e-6 * max(np.linalg.norm(rhs), 1e-30)
        checked += 1
    assert checked >= 15


def test_matrix_free_apply_matches_dense():
    net = sample_gaussian_net((6, 50, 30, 20), seed=13)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6)
    path = linear_path(net, x)
    rng.standard_normal(6)  # keeps w on the same draws as before
    w = rng.standard_normal(20)
    assert np.allclose(apply_masked_t(net, path.masks, w), path.lam.T @ w,
                       rtol=1e-12, atol=1e-12)


def test_matrix_free_apply_checks_its_masks():
    net = sample_gaussian_net((4, 30, 20), seed=0)
    masks = [o > 0.0 for o in forward(net, np.ones(4))[1:]]
    w = np.ones(20)
    apply_masked_t(net, tuple(masks), w)
    bad = [masks[1:],                               # one short: used to return length 30
           masks + masks[-1:],                      # one too many
           [masks[0][:-1], masks[1]],               # short mask: used to be a numpy error
           [masks[0], masks[0]],                    # the other layer's width
           [masks[0].astype(float), masks[1]],      # not boolean
           [masks[0], list(masks[1])],              # not an array
           [masks[0], masks[1][:, None]]]           # not a vector
    for given in bad:
        with pytest.raises(ValidationError, match="mask"):
            apply_masked_t(net, given, w)


def test_net_io_roundtrip(tmp_path):
    net = sample_gaussian_net((4, 19, 7), seed=99)
    p = tmp_path / "net.gpn"
    save_net(net, p)
    back = load_net(p)
    assert back.dims == net.dims
    for wa, wb in zip(net.weights, back.weights):
        assert wa.tobytes() == wb.tobytes()


def test_net_io_rejects_garbage(tmp_path):
    p = tmp_path / "bad.gpn"
    p.write_bytes(b"NOTANET" + b"\x00" * 64)
    with pytest.raises(ValidationError):
        load_net(p)
    net = sample_gaussian_net((3, 5), seed=0)
    q = tmp_path / "trunc.gpn"
    save_net(net, q)
    q.write_bytes(q.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        load_net(q)
    # every prefix of a saved file, and one trailing byte, are rejected
    save_net(sample_gaussian_net((2, 3, 4), seed=0), q)
    raw = q.read_bytes()
    for cut in [raw[:n] for n in range(len(raw))] + [raw + b"\x00"]:
        q.write_bytes(cut)
        with pytest.raises(ValidationError):
            load_net(q)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_net_io_single_byte_change_loads_or_rejects(tmp_path_factory, data):
    # a changed byte may still spell a valid net (a weight moves, say), but
    # nothing other than a GenerativeNet or a ValidationError comes out
    p = tmp_path_factory.getbasetemp() / "fuzz.gpn"
    save_net(sample_gaussian_net((2, 3, 4), seed=0), p)
    raw = bytearray(p.read_bytes())
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    p.write_bytes(raw)
    try:
        net = load_net(p)
    except ValidationError:
        return
    assert [w.shape for w in net.weights] == list(zip(net.dims[1:], net.dims[:-1]))
    assert all(np.isfinite(w).all() for w in net.weights)


def test_net_io_rejects_oversized_header(tmp_path, capsys):
    # a header claiming (2^30, 2^30) weights over a few bytes of payload
    p = tmp_path / "huge.gpn"
    p.write_bytes(MAGIC + np.asarray([1, 2 ** 30, 2 ** 30], dtype="<i4").tobytes()
                  + b"\x00" * 64)
    with pytest.raises(ValidationError, match="truncated"):
        load_net(p)
    assert main(["check-wdc", "--net", str(p), "--samples", "2"]) == 1
    assert "truncated" in capsys.readouterr().err


def test_recipe_k5_example_shape():
    rec = contractive_example_dims(k=5, d=3, c_bar=2.0)
    hidden = rec.dims[1:]
    # widths follow 10 * 3 * (6 - i) * alpha = (150, 120, 90) * alpha
    assert hidden[0] == math.ceil(150 * rec.alpha)
    assert hidden[1] == math.ceil(120 * rec.alpha)
    assert hidden[2] == math.ceil(90 * rec.alpha)
    assert hidden[0] > hidden[1] > hidden[2]
    assert rec.contractive_layers == (2, 3)
    assert all(m >= 0 for m in rec.expansivity_margin)
    assert all(m >= 0 for m in rec.width_margin)


def test_recipe_k4_d3_frozen():
    # independently derived: the width requirement n/log n >= 32/log 2 forces
    # the last layer to 256 (equality holds exactly there), so the smallest
    # feasible scale sits just above 255/72 and the ceilings land on
    # (426, 341, 256)
    rec = contractive_example_dims(k=4, d=3, c_bar=2.0)
    assert rec.dims == (4, 426, 341, 256)
    assert rec.alpha_escalated
    assert abs(rec.alpha - 255.0 / 72.0) < 1e-6
    assert rec.contractive_layers == (2, 3)
    # cross-check the binding layer by brute scan: 256 is the smallest width
    # passing n / log n >= 16 k / (c_bar log 2)
    need = 16.0 * 4 / (2.0 * math.log(2.0))
    ok = [n for n in range(2, 400) if n / math.log(n) >= need]
    assert min(ok) == 256


def _reference_recipe_alpha(k, d, c_bar):
    """The width scale as a full 200-step bisection finds it."""
    base = max(1.0, 2.0 * math.log(c_bar * k) / d ** 2, math.log(math.e ** 2 * c_bar))

    def feasible(alpha):
        hidden = gnet._recipe_dims(k, d, c_bar, alpha)
        return all(m >= 0.0 for ms in gnet._recipe_margins(k, d, c_bar, hidden)
                   for m in ms)

    hi = base
    while not feasible(hi):
        hi *= 2.0
    lo = base
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    alpha = hi * (1.0 + 1e-9)
    return alpha if feasible(alpha) else hi


@pytest.mark.parametrize("k,d,c_bar", [(4, 3, 2.0), (1, 2, 0.5), (2, 5, 1.0),
                                       (3, 3, 2.0), (5, 2, 0.5), (8, 4, 1.0)])
def test_recipe_bisection_stops_where_the_full_one_settles(k, d, c_bar, monkeypatch):
    alpha = _reference_recipe_alpha(k, d, c_bar)
    calls = []
    recipe_dims = gnet._recipe_dims
    monkeypatch.setattr(gnet, "_recipe_dims", lambda *a: calls.append(a) or recipe_dims(*a))
    rec = contractive_example_dims(k=k, d=d, c_bar=c_bar)
    assert rec.alpha_escalated
    assert rec.alpha == alpha
    assert rec.dims == (k,) + recipe_dims(k, d, c_bar, alpha)
    assert (rec.expansivity_margin, rec.width_margin) == gnet._recipe_margins(
        k, d, c_bar, rec.dims[1:])
    # the full bisection evaluates the widths 200 times; a float bisection
    # between base and 2^t base settles after about 53 + t halvings
    assert len(calls) < 100


def test_recipe_checks_pass_for_various_inputs():
    for k, d, c_bar in [(2, 2, 2.0), (8, 2, 2.0), (4, 4, 3.0), (16, 3, 2.0)]:
        rec = contractive_example_dims(k=k, d=d, c_bar=c_bar)
        assert all(m >= 0 for m in rec.expansivity_margin), (k, d, c_bar)
        assert all(m >= 0 for m in rec.width_margin), (k, d, c_bar)
        assert len(rec.dims) == d + 1 and rec.dims[0] == k


def test_recipe_rejects_bad_args():
    with pytest.raises(ValidationError):
        contractive_example_dims(k=0, d=3)
    with pytest.raises(ValidationError):
        contractive_example_dims(k=4, d=0)
    # the taper d (2d - i) only makes sense with at least two layers
    with pytest.raises(ValidationError):
        contractive_example_dims(k=4, d=1)
    with pytest.raises(ValidationError):
        contractive_example_dims(k=4, d=3, c_bar=-1.0)
