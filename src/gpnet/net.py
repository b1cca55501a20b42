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

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate
import math
import os

import numpy as np

from .errors import (InfeasibleError, ValidationError, check_addressable, check_array,
                     check_count)
from .rng import DOMAIN_NET, sub_rng

MAGIC = b"GPNET1\x00"


def _freeze(a):
    a.flags.writeable = False
    return a


def _same(a, b):
    """Value equality that compares numpy arrays by shape and entries, also
    inside tuples."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _fields_eq(self, other):
    """__eq__ for dataclasses with array fields: same type, and every field
    equal under _same."""
    if type(other) is not type(self):
        return NotImplemented
    return all(_same(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self))


def _gamma(n):
    """gamma_n = n u / (1 - n u), u = 2^-53: the relative error bound of a
    float sum or dot product of n terms, in any order, with or without FMA."""
    nu = n * 2.0 ** -53
    return nu / (1.0 - nu)


_NORM_ROWS = 32  # rows of |W| that _norm_bound holds at a time


def _norm_bound(w):
    """min(|W|_F, sqrt(|W|_1 |W|_inf)), lifted above its rounding.

    Both norms are unchanged by taking entrywise absolute values, so the
    bound holds for the spectral norm of W and of |W| alike.  The float
    sums behind it have relative error below gamma_n, n = W.size + 4.
    |W| is taken _NORM_ROWS rows at a time, and each block's rows are
    added to the column sums in row order, as a sum over axis 0 of the
    whole |W| adds them, so the bound is that of the one-shot sums.
    """
    fro = math.sqrt(float(np.einsum("ij,ij->", w, w)))
    cols = np.zeros(w.shape[1])
    row_max = 0.0
    for i in range(0, len(w), _NORM_ROWS):
        block = np.abs(w[i:i + _NORM_ROWS])
        row_max = max(row_max, float(block.sum(axis=1).max()))
        cols = np.add.reduce(np.vstack((cols[None], block)), axis=0)
    mixed = math.sqrt(float(cols.max()) * row_max)
    return min(fro, mixed) * (1.0 + 2.0 * _gamma(w.size + 4))


def check_dims(dims):
    """dims (k, n_1, ..., n_d) as a tuple of ints: at least two entries, each
    a count under check_count.  Anything else raises ValidationError; a
    fractional entry is rejected, never truncated."""
    dims = tuple(dims)
    if len(dims) < 2:
        raise ValidationError(
            f"dims must list at least (k, n_1), each an integer >= 1, got {dims}")
    what = f"each entry of dims {dims}"
    return tuple(check_count(n, what) for n in dims)


def log_growth(dims):
    """Running sums sum_{j<=i} (1 + log(n_j / k)), i = 1..d, added left to
    right: k times them is the log growth behind the width recipe, the
    affine-piece bound and omega."""
    dims = check_dims(dims)
    k = dims[0]
    return tuple(accumulate(1.0 + math.log(n / k) for n in dims[1:]))


@dataclass(frozen=True)
class GenerativeNet:
    """Immutable ReLU network: dims (n_0=k, n_1, ..., n_d) and weights.
    Equality compares the weights by value."""

    dims: tuple
    weights: tuple

    __eq__ = _fields_eq

    def __post_init__(self):
        dims = check_dims(self.dims)
        if len(self.weights) != len(dims) - 1:
            raise ValidationError(
                f"expected {len(dims) - 1} weight matrices, got {len(self.weights)}")
        mats = []
        for i, w in enumerate(self.weights):
            w = check_array(w, f"layer {i + 1} weights", (dims[i + 1], dims[i]))
            mats.append(_freeze(np.ascontiguousarray(w)))
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

    @cached_property
    def norm_bounds(self):
        """Upper bounds on |W_i|_2 (and on the spectral norm of |W_i|), one
        per layer, computed on first use from entry sums alone: no matrix
        product and no decomposition.  Their product bounds the Lipschitz
        constant of G, since the relu is 1-Lipschitz."""
        return tuple(_norm_bound(w) for w in self.weights)


@dataclass(frozen=True)
class LinearPath:
    """Activation masks and the linearization matrices of G at a point.

    masks[i] is the boolean on/off vector of layer i+1, mats[j] is
    Lambda_j (shape n_j x k) with mats[0] the identity.  lam is the
    full-depth Lambda_d.
    """

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
    dims = check_dims(dims)
    for a, b in zip(dims, dims[1:]):
        check_addressable(b, a, "dims give a weight matrix")
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
    x = check_array(x, "x", (net.k,))
    return [x] + [out for _, out in _layers(net, x)]


def preactivations(net, x):
    """Per-layer pre-relu vectors z_i = W_i G_{i-1}(x), i = 1..d."""
    return [z for z, _ in _layers(net, check_array(x, "x", (net.k,)))]


def linear_path(net, x):
    """Masks and dense Lambda_j matrices of the linearization at x.

    Masks use the strict rule z > 0; a coordinate sitting exactly on its
    activation boundary counts as off.  Dense matrices are fine for the
    layer widths used here (thousands); use apply_masked_t for a
    matrix-free transposed product when that ever matters.
    """
    x = check_array(x, "x", (net.k,))
    masks = tuple(_freeze(z > 0.0) for z, _ in _layers(net, x))
    return LinearPath(masks=masks, mats=tuple(map(_freeze, _path_mats(net, masks))))


def _path_mats(net, masks):
    """[Lambda_0 = I, ..., Lambda_d] for the mask sequence masks, one
    boolean vector per layer: Lambda_j = D_j W_j Lambda_{j-1}."""
    mats = [np.eye(net.k)]
    for w, m in zip(net.weights, masks):
        mats.append(m[:, None] * (w @ mats[-1]))
    return mats


def apply_masked_t(net, masks, w_vec):
    """Matrix-free Lambda_d^T w for a fixed mask sequence: masks[i] is the
    boolean vector of layer i+1, as in LinearPath.  The masks are checked
    by type and shape only, never entry by entry."""
    v = check_array(w_vec, "w_vec", (net.n_out,))
    if len(masks) != net.depth:
        raise ValidationError(f"expected {net.depth} masks, one per layer, got {len(masks)}")
    for i, (m, n) in enumerate(zip(masks, net.dims[1:])):
        if type(m) is not np.ndarray or m.dtype != np.bool_ or m.shape != (n,):
            got = m.shape if isinstance(m, np.ndarray) else type(m).__name__
            raise ValidationError(
                f"mask {i + 1} must be a boolean vector of shape ({n},), got {got}")
    for w, m in zip(net.weights[::-1], masks[::-1]):
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
    width_margin[i-1] is n_i/log n_i minus 16 k / (c_bar log 2) (-inf for
    n_i = 1).  Both tuples are nonnegative by construction.
    """

    d: int
    alpha: float
    alpha_escalated: bool
    dims: tuple
    contractive_layers: tuple
    expansivity_margin: tuple
    width_margin: tuple


def _recipe_dims(k, d, c_bar, alpha):
    widths = [c_bar * k * d * (2 * d - i) * alpha for i in range(1, d + 1)]
    if not all(map(math.isfinite, widths)):
        raise InfeasibleError(f"recipe widths overflow for k={k}, d={d}, c_bar={c_bar}")
    return tuple(max(1, math.ceil(w)) for w in widths)  # w may underflow to 0


def _recipe_margins(k, d, c_bar, hidden):
    # layer i needs c_bar k log prod_{j<i} (e n_j / k), and layer 1 c_bar k
    before = (1.0,) + log_growth((k,) + hidden)[:-1]
    exp_margin = [n - c_bar * k * g for n, g in zip(hidden, before)]
    width_need = 16.0 * k / (c_bar * math.log(2.0))
    width_margin = [n / math.log(n) - width_need if n > 1 else -math.inf
                    for n in hidden]
    return tuple(exp_margin), tuple(width_margin)


def contractive_example_dims(k, d, c_bar=2.0):
    """Widths for a d-layer net over R^k whose tail shrinks layer to layer.

    alpha starts at max(1, 2 log(c_bar k)/d^2, log(e^2 c_bar)); the floor
    of 1 binds only when c_bar < 1/e.  When the resulting integer widths
    fail either growth check (the ceil and the k log k regime make that
    possible for small k), alpha is escalated to the smallest feasible
    value by doubling plus bisection, so the returned dims always pass
    both checks.  k and d are counts (check_count, d at least 2).  Raises
    ValidationError for a c_bar that is not positive and finite, and
    InfeasibleError if no alpha up to 2^60 times the start works or a
    width overflows.
    """
    k = check_count(k, "recipe k")
    d = check_count(d, "recipe d", least=2)
    c_bar = float(c_bar)
    if not 0.0 < c_bar < math.inf:
        raise ValidationError("c_bar must be positive and finite")

    base = max(1.0,
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
            if mid == lo or mid == hi:
                break  # lo and hi are adjacent floats: no step can move them
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
    return DimsRecipe(d=d, alpha=alpha, alpha_escalated=escalated, dims=dims,
                      contractive_layers=contractive, expansivity_margin=em, width_margin=wm)


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
        dims = check_dims(np.frombuffer(_read_exact(f, 4 * (d + 1), "dims"), dtype="<i4"))
        weights = []
        for i in range(d):
            n_out, n_in = dims[i + 1], dims[i]
            raw = _read_exact(f, 8 * n_out * n_in, f"layer {i + 1} weights")
            w = np.frombuffer(raw, dtype="<f8").reshape(n_out, n_in).copy()
            weights.append(w)
        if f.read(1):
            raise ValidationError("trailing bytes after network payload")
    return GenerativeNet(dims=dims, weights=tuple(weights))
