"""Fully connected ReLU networks with Gaussian weights.

A network G maps a latent vector x in R^k through d layers,

    G(x) = relu(W_d ... relu(W_2 relu(W_1 x))),

where W_i has shape (n_i, n_{i-1}) and entries drawn i.i.d. N(0, 1/n_i),
i.e. variance one over the layer's output dimension.  Under that scaling
each layer roughly halves squared norms (the relu kills half the
coordinates on average), which is why the expected end-to-end Gram matrix
is I / 2^d and why the analysis quantities elsewhere in the package carry
powers of two.

Away from the activation boundaries G is piecewise linear: with
D_i = diag(W_i G_{i-1}(x) > 0) the local linearization is

    Lambda_j = (D_j W_j) ... (D_1 W_1),    Lambda_0 = I,

and G_j(x) = Lambda_j x exactly.  The mask rule is strict (> 0), so the
path is well defined even on a boundary, where it picks the closed side.
"""

from dataclasses import dataclass
import math
import os

import numpy as np

from .errors import InfeasibleError, ValidationError
from .rng import DOMAIN_NET, sub_rng

MAGIC = b"GPNET1\x00"


def _freeze(a):
    a.flags.writeable = False
    return a


def _as_vector(x, dim, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != dim:
        raise ValidationError(f"{name} must be a vector of length {dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class GenerativeNet:
    """Immutable ReLU network: dims (n_0=k, n_1, ..., n_d) and weights."""

    dims: tuple
    weights: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) < 2:
            raise ValidationError("dims needs at least an input and one layer")
        if any(n < 1 for n in dims):
            raise ValidationError(f"all dims must be positive, got {dims}")
        if len(self.weights) != len(dims) - 1:
            raise ValidationError(
                f"expected {len(dims) - 1} weight matrices, got {len(self.weights)}")
        mats = []
        for i, w in enumerate(self.weights):
            w = np.ascontiguousarray(w, dtype=np.float64)
            want = (dims[i + 1], dims[i])
            if w.shape != want:
                raise ValidationError(f"layer {i + 1} weight shape {w.shape}, expected {want}")
            if not np.all(np.isfinite(w)):
                raise ValidationError(f"layer {i + 1} weights contain non-finite entries")
            mats.append(_freeze(w))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", tuple(mats))

    @property
    def k(self):
        return self.dims[0]

    @property
    def depth(self):
        return len(self.dims) - 1

    @property
    def n_out(self):
        return self.dims[-1]


@dataclass(frozen=True)
class LinearPath:
    """Activation masks and the linearization matrices of G at a point.

    masks[i] is the boolean on/off vector of layer i+1, mats[j] is
    Lambda_j (shape n_j x k) with mats[0] the identity.  lam is the
    full-depth Lambda_d.
    """

    x: np.ndarray
    masks: tuple
    mats: tuple

    @property
    def lam(self):
        return self.mats[-1]


def sample_gaussian_net(dims, seed):
    """Draw a network with N(0, 1/n_i) entries in layer i.

    Layer i consumes the dedicated sub-stream (seed, DOMAIN_NET, i), so
    weights of layer i do not depend on the other layers' sizes.
    """
    dims = tuple(int(n) for n in dims)
    if len(dims) < 2 or any(n < 1 for n in dims):
        raise ValidationError(f"dims must list at least (k, n_1) positive sizes, got {dims}")
    weights = []
    for i in range(len(dims) - 1):
        rng = sub_rng(seed, DOMAIN_NET, i)
        w = rng.standard_normal((dims[i + 1], dims[i])) / math.sqrt(dims[i + 1])
        weights.append(w)
    return GenerativeNet(dims=dims, weights=tuple(weights))


def _layers(net, x):
    """Yield (z_i, G_i(x)) for i = 1..d, with z_i = W_i G_{i-1}(x)."""
    for w in net.weights:
        z = w @ x
        x = np.maximum(z, 0.0)
        yield z, x


def forward(net, x):
    """All layer outputs [G_0(x)=x, G_1(x), ..., G_d(x)]."""
    x = _as_vector(x, net.k)
    return [x] + [out for _, out in _layers(net, x)]


def preactivations(net, x):
    """Per-layer pre-relu vectors z_i = W_i G_{i-1}(x), i = 1..d."""
    return [z for z, _ in _layers(net, _as_vector(x, net.k))]


def linear_path(net, x):
    """Masks and dense Lambda_j matrices of the linearization at x.

    Masks use the strict rule z > 0; a coordinate sitting exactly on its
    activation boundary counts as off.  Dense matrices are fine for the
    layer widths used here (thousands); use apply_masked_t for a
    matrix-free transposed product when that ever matters.
    """
    x = _as_vector(x, net.k)
    masks = []
    mats = [np.eye(net.k)]
    for w, (z, _) in zip(net.weights, _layers(net, x)):
        m = z > 0.0
        masks.append(_freeze(m))
        mats.append((w * m[:, None]) @ mats[-1])
    return LinearPath(x=_freeze(x.copy()), masks=tuple(masks),
                      mats=tuple(_freeze(m) for m in mats))


def apply_masked_t(net, masks, w_vec):
    """Matrix-free Lambda_d^T w for a fixed mask set."""
    v = np.asarray(w_vec, dtype=np.float64)
    for w, m in zip(reversed(net.weights), reversed(list(masks))):
        v = w.T @ (m * v)
    return v


# ---------------------------------------------------------------------------
# width recipe with a contractive tail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimsRecipe:
    """Widths n_i = ceil(c_bar * k * d * (2d - i) * alpha) plus their checks.

    The linear taper in i makes every layer from the second on narrower
    than its predecessor while the logarithmic growth conditions still
    hold.  expansivity_margin[i-1] is n_i minus the required
    c_bar * k * log prod_{j<i}(e n_j / k) (just c_bar * k for i = 1);
    width_margin[i-1] is n_i/log n_i minus 16 k / (c_bar log 2).  Both
    tuples are nonnegative by construction.
    """

    k: int
    d: int
    c_bar: float
    alpha_floor: float
    alpha: float
    alpha_escalated: bool
    dims: tuple
    contractive_layers: tuple
    expansivity_margin: tuple
    width_margin: tuple


def _recipe_dims(k, d, c_bar, alpha):
    return tuple(int(math.ceil(c_bar * k * d * (2 * d - i) * alpha)) for i in range(1, d + 1))


def _recipe_margins(k, d, c_bar, hidden):
    exp_margin = []
    log_prod = 0.0  # running log prod_{j<i} (e n_j / k)
    for i, n in enumerate(hidden, start=1):
        need = c_bar * k if i == 1 else c_bar * k * log_prod
        exp_margin.append(n - need)
        log_prod += 1.0 + math.log(n / k)
    width_need = 16.0 * k / (c_bar * math.log(2.0))
    width_margin = [n / math.log(n) - width_need for n in hidden]
    return tuple(exp_margin), tuple(width_margin)


def contractive_example_dims(k, d, c_bar=2.0, alpha_floor=1.0):
    """Widths for a d-layer net over R^k whose tail shrinks layer to layer.

    alpha starts at max(alpha_floor, 2 log(c_bar k)/d^2, log(e^2 c_bar)).
    When the resulting integer widths fail either growth check (the ceil
    and the k log k regime make that possible for small k), alpha is
    escalated to the smallest feasible value by doubling plus bisection,
    so the returned dims always pass both checks.  Raises
    InfeasibleError only if no alpha up to 2^60 times the floor works.
    """
    k = int(k)
    d = int(d)
    if k < 1 or d < 2:
        raise ValidationError(f"need k >= 1 and d >= 2, got k={k}, d={d}")
    c_bar = float(c_bar)
    alpha_floor = float(alpha_floor)
    if not (c_bar > 0.0) or not (alpha_floor > 0.0):
        raise ValidationError("c_bar and alpha_floor must be positive")

    base = max(alpha_floor,
               2.0 * math.log(c_bar * k) / d ** 2,
               math.log(math.e ** 2 * c_bar))

    def feasible(alpha):
        hidden = _recipe_dims(k, d, c_bar, alpha)
        em, wm = _recipe_margins(k, d, c_bar, hidden)
        return all(m >= 0.0 for m in em) and all(m >= 0.0 for m in wm)

    escalated = False
    alpha = base
    if not feasible(alpha):
        escalated = True
        hi = base
        tries = 0
        while not feasible(hi):
            hi *= 2.0
            tries += 1
            if tries > 60:
                raise InfeasibleError(
                    f"no feasible width scale for k={k}, d={d}, c_bar={c_bar}")
        lo = base
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        # step off the ulp-resolution boundary the bisection converges to;
        # a relative 1e-9 bump keeps the result on a stable ceil plateau
        alpha = hi * (1.0 + 1e-9)
        if not feasible(alpha):
            alpha = hi

    hidden = _recipe_dims(k, d, c_bar, alpha)
    em, wm = _recipe_margins(k, d, c_bar, hidden)
    dims = (k,) + hidden
    contractive = tuple(i for i in range(1, d + 1) if dims[i] <= dims[i - 1])
    return DimsRecipe(k=k, d=d, c_bar=c_bar, alpha_floor=alpha_floor,
                      alpha=alpha, alpha_escalated=escalated, dims=dims,
                      contractive_layers=contractive,
                      expansivity_margin=em, width_margin=wm)


# ---------------------------------------------------------------------------
# binary serialization
# ---------------------------------------------------------------------------

def save_net(net, path):
    """Write MAGIC, d, dims and the row-major float64 weights, little endian."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        np.asarray([net.depth], dtype="<i4").tofile(f)
        np.asarray(net.dims, dtype="<i4").tofile(f)
        for w in net.weights:
            np.ascontiguousarray(w, dtype="<f8").tofile(f)


def _read_exact(f, count, what):
    """count bytes of f, checked against the bytes left before reading, so
    a corrupt size field cannot ask for more memory than the file holds."""
    if count > os.fstat(f.fileno()).st_size - f.tell():
        raise ValidationError(f"truncated file while reading {what}")
    return f.read(count)


def load_net(path):
    """Read a network written by save_net; validates magic, sizes, finiteness."""
    with open(path, "rb") as f:
        if _read_exact(f, len(MAGIC), "magic") != MAGIC:
            raise ValidationError(f"{path} is not a network file (bad magic)")
        d = int(np.frombuffer(_read_exact(f, 4, "depth"), dtype="<i4")[0])
        if d < 1:
            raise ValidationError(f"bad depth {d} in network file")
        dims = np.frombuffer(_read_exact(f, 4 * (d + 1), "dims"), dtype="<i4")
        dims = tuple(int(n) for n in dims)
        if any(n < 1 for n in dims):
            raise ValidationError(f"bad dims {dims} in network file")
        weights = []
        for i in range(d):
            n_out, n_in = dims[i + 1], dims[i]
            raw = _read_exact(f, 8 * n_out * n_in, f"layer {i + 1} weights")
            w = np.frombuffer(raw, dtype="<f8").reshape(n_out, n_in).copy()
            weights.append(w)
        if f.read(1):
            raise ValidationError("trailing bytes after network payload")
    return GenerativeNet(dims=dims, weights=tuple(weights))
