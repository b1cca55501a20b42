import math

import numpy as np
import pytest

from gpnet.errors import ValidationError
from gpnet.cli import main
from gpnet.net import (MAGIC, GenerativeNet, apply_masked_t, contractive_example_dims,
                       forward, linear_path, load_net, preactivations,
                       sample_gaussian_net, save_net)

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
    rec = contractive_example_dims(k=5, d=3, c_bar=2.0, alpha_floor=1.0)
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
    rec = contractive_example_dims(k=4, d=3, c_bar=2.0, alpha_floor=1.0)
    assert rec.dims == (4, 426, 341, 256)
    assert rec.alpha_escalated
    assert abs(rec.alpha - 255.0 / 72.0) < 1e-6
    assert rec.contractive_layers == (2, 3)
    # cross-check the binding layer by brute scan: 256 is the smallest width
    # passing n / log n >= 16 k / (c_bar log 2)
    need = 16.0 * 4 / (2.0 * math.log(2.0))
    ok = [n for n in range(2, 400) if n / math.log(n) >= need]
    assert min(ok) == 256


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
