"""Empirical checks of the geometric conditions behind provable recovery.

The solver guarantees rest on a handful of deterministic-once-sampled
facts about random nets and measurement maps: masked layer Grams stay
near their expectation Q (classic and range-restricted variants), the
measurement Gram acts like the identity on range differences, noise
couples into the latent space no stronger than a computable level omega,
activation-pattern counts over low-dimensional slices stay polynomial,
and the end-to-end linearizations concentrate in norm and angle.  Each
check here draws its own samples from a dedicated sub-stream, reports
the worst deviation seen, and serializes to a common CSV layout

    condition, layer, statistic, value, target, samples, skipped, seed

so suites can be concatenated, diffed and rerun byte-identically.
Convention: layer 0 tags whole-network statistics.  Every check bar the
per-sample values runs under _guarded: on one BLAS thread, so its bytes
do not depend on the caller's thread count, and with overflow an error.
"""

from dataclasses import dataclass, field
import functools
from itertools import islice
import math

import numpy as np

from .blas import one_blas_thread
from .errors import ValidationError, check_addressable, check_array, check_count
from .geometry import angle_between, angle_profile, g_theta, q_matrix, spectral_norm
from .net import (_layers, _path_mats, apply_masked_t, forward, log_growth,
                  preactivations)
from .rng import DOMAIN_SAMPLE, sub_rng, unit_vector

CONDITION_KINDS = ("WDC", "R2WDC", "RRIC", "NOISE", "LAMBDA_CONC",
                   "PATTERN_COUNT", "NORM_ANGLE")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one empirical condition check.

    eps_by_layer holds the headline per-layer statistics (named by
    headline) for the layers listed in layers; whole-network scalars go
    in aux, further per-layer series in per_layer.  targets maps
    statistic names to their reference levels; whether a statistic
    should sit below or above its target depends on the statistic and
    is documented at the producing function.
    """

    kind: str
    layers: tuple = ()
    eps_by_layer: tuple = ()
    headline: str = "deviation"
    samples: int = 0
    skipped: int = 0
    seed: int = 0
    per_layer: dict = field(default_factory=dict)
    aux: dict = field(default_factory=dict)
    targets: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in CONDITION_KINDS:
            raise ValidationError(f"unknown condition kind {self.kind!r}")
        if len(self.layers) != len(self.eps_by_layer):
            raise ValidationError("layers and eps_by_layer must align")

    @property
    def max_eps(self):
        return max(self.eps_by_layer)

    def rows(self):
        """Yield CSV rows (condition, layer, statistic, value, target,
        samples, skipped, seed)."""
        nan = float("nan")
        out = []
        for layer, v in zip(self.layers, self.eps_by_layer):
            out.append((self.kind, layer, self.headline, float(v),
                        self.targets.get(self.headline, nan)))
        for name in self.per_layer:
            vals = self.per_layer[name]
            for layer, v in zip(self.layers, vals):
                out.append((self.kind, layer, name, float(v),
                            self.targets.get(name, nan)))
        for name, v in self.aux.items():
            out.append((self.kind, 0, name, float(v), self.targets.get(name, nan)))
        for kind, layer, stat, value, target in out:
            yield (kind, layer, stat, value, target, self.samples, self.skipped,
                   self.seed)


def _fmt(x):
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _csv_text(header, rows):
    """CSV text: the header names, then one line per row with its cells
    through _fmt, so a rerun is byte-identical."""
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _write_text(path, text):
    with open(path, "w", newline="") as f:
        f.write(text)


REPORT_COLUMNS = ("condition", "layer", "statistic", "value", "target", "samples",
                  "skipped", "seed")


def reports_csv_text(reports):
    """Render reports as CSV text; float cells use repr so a rerun is
    byte-identical."""
    return _csv_text(REPORT_COLUMNS, (row for rep in reports for row in rep.rows()))


# ---------------------------------------------------------------------------
# masked-Gram deviations
# ---------------------------------------------------------------------------

def masked_gram_deviation(w, r, s):
    """|| W_{+,r}^T W_{+,s} - Q_{r,s} || for one direction pair.

    Computed exactly on a core of side t = min(n, p + 2), never in R^n:

    * the row masks D_r, D_s are diagonal and commute, so
      W_{+,r}^T W_{+,s} = W^T D_r D_s W = B^T B with B = W[J], J the p
      rows active at both r and s;
    * Q = a I + U^T K U with the 2 x n frame U and 2 x 2 block K of
      geometry.q_matrix (no rows when Q is a multiple of I);
    * a thin QR [B; U]^T = P [R1 | R2], R1 holding the first p columns
      and P (n x t) orthonormal columns, gives B^T = P R1 and U^T = P R2,
      so with I = P P^T + (I - P P^T)

        B^T B - Q = P (R1 R1^T - R2 K R2^T - a I_t) P^T - a (I - P P^T).

    The two terms act on orthogonal subspaces, so the deviation is the
    larger of the core's spectral norm and a, the latter only when
    t < n (the complement is empty when t = n).  The core is symmetrized
    exactly, so its norm comes from one symmetric eigenvalue problem.
    Cost O(n p^2 + p^3), against O(m n^2 + n^3) for the dense masked
    Gram and its SVD.  Unguarded: inside _sampled_report an overflow comes
    back as inf, which that loop reports by sample index.
    """
    w = check_array(w, "w", (None, None))
    r = check_array(r, "r", w.shape[1:])
    s = check_array(s, "s", w.shape[1:])
    joint = (w @ r > 0.0) & (w @ s > 0.0)
    dm = q_matrix(r, s)
    b = w[joint]
    rf = np.linalg.qr(np.concatenate((b, dm.frame)).T, mode="r")
    r1, r2 = rf[:, :len(b)], rf[:, len(b):]
    core = r1 @ r1.T - r2 @ dm.core @ r2.T - dm.a * np.eye(len(rf))
    if not np.isfinite(core).all():  # w too large for float64
        return math.inf
    dev = spectral_norm((core + core.T) / 2.0)
    if len(rf) < w.shape[1]:
        dev = max(dev, dm.a)
    return float(dev)


def _sampled_report(kind, layer, samples, seed, value, **aux):
    """Report the worst and median of value(rng) over sampled tuples.

    Sample j calls value on its own sub-stream (seed, sample-domain, j),
    so enlarging samples only appends tuples and the reported maximum is
    monotone in samples.  value returns None for a degenerate tuple
    (_differences); such tuples are skipped and counted.  A value
    that overflowed float64 (inf or nan) raises a ValidationError naming
    kind and the sample.  aux follows the median in the report's aux.
    """
    layer = check_count(layer, "layer", least=0)
    samples = check_count(samples, "samples")
    vals = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked value by value below
        for j in range(samples):
            v = value(sub_rng(seed, DOMAIN_SAMPLE, j))
            if v is not None and not math.isfinite(v):
                raise ValidationError(f"{kind} sample {j} is {float(v)!r}, not finite; "
                                      "the net or matrix overflows float64")
            vals.append(v)
    kept = np.asarray([v for v in vals if v is not None])
    if not kept.size:
        where = f"{kind} layer {layer}" if layer else kind
        raise ValidationError(f"{where}: all {samples} sampled tuples were degenerate")
    return ConditionReport(kind=kind, layers=(layer,),
                           eps_by_layer=(float(kept.max()),),
                           samples=samples, skipped=samples - kept.size,
                           seed=int(seed),
                           aux={"median_deviation": float(np.median(kept)), **aux})


def _guarded(check):
    """check, run on one BLAS thread (gpnet.blas), so its bytes do not
    depend on the caller's thread count, and with numpy's overflow and
    invalid flags raised: a value past float64 ends it in one
    ValidationError that names it, not in a nan or silently zero
    statistic, or an error that blames an input the caller never passed."""
    @functools.wraps(check)
    def guarded(*args, **kwargs):
        try:
            with one_blas_thread(), np.errstate(over="raise", invalid="raise"):
                return check(*args, **kwargs)
        except FloatingPointError:
            raise ValidationError(f"{check.__name__}: the net overflows float64 "
                                  "at these inputs") from None
    return guarded


@_guarded
def wdc_deviation(w, samples, seed, layer=1):
    """Worst masked-Gram deviation of one weight matrix over sampled pairs.

    Pair j draws two independent uniform unit vectors from sub-stream
    (seed, sample-domain, j); see _sampled_report.  aux carries the
    median across pairs.
    """
    w = check_array(w, "w", (None, None))
    n = w.shape[1]
    return _sampled_report(
        "WDC", layer, samples, seed,
        lambda rng: masked_gram_deviation(w, unit_vector(rng, n), unit_vector(rng, n)))


def _layer_input(net, i, x, what):
    """G_{i-1}(x), the input of layer i, from the first i - 1 layers."""
    x = check_array(x, what, (net.k,))
    for _, x in islice(_layers(net, x), i - 1):
        pass
    return x


def _differences(g1, g2, g3, g4):
    """((a, |a|), (b, |b|)) for a = g1 - g2 and b = g3 - g4, or None when
    either difference is degenerate: |g1 - g2| <= 1e-12 (|g1| + |g2|),
    two zero vectors included.  The rule is free of scale, as the
    statistics that divide by |a| |b| are.  A scale that is not finite is
    no degeneracy, so an overflowing net reaches _sampled_report's error.
    """
    out = []
    for u, v in ((g1, g2), (g3, g4)):
        diff = u - v
        norm = np.linalg.norm(diff)
        scale = np.linalg.norm(u) + np.linalg.norm(v)
        if math.isfinite(scale) and norm <= 1e-12 * scale:
            return None
        out.append((diff, norm))
    return out


def r2wdc_tuple_value(net, layer, x, y, x1, x2, x3, x4):
    """One bilinear deviation sample for layer i at anchor pair (x, y).

    Evaluates |<(W_{+,u}^T W_{+,v} - Q_{u,v}) a, b>| / (|a| |b|) where u, v
    are the layer inputs generated by x, y and a, b are differences of layer
    inputs generated by x1..x4, each latent through the first i - 1 layers
    only.  None when a or b is degenerate (_differences).  layer must be in
    1..depth.  Unguarded, so _sampled_report names an overflowing sample.
    """
    i = check_count(layer, "layer")
    if i > net.depth:
        raise ValidationError(f"layer must be in 1..{net.depth}, got {i}")
    w = net.weights[i - 1]
    gu, gv, g1, g2, g3, g4 = (
        _layer_input(net, i, v, name) for v, name in
        zip((x, y, x1, x2, x3, x4), ("x", "y", "x1", "x2", "x3", "x4")))
    diffs = _differences(g1, g2, g3, g4)
    if diffs is None:
        return None
    (a, na), (b, nb) = diffs
    mu = w @ gu > 0.0
    mv = w @ gv > 0.0
    # <W_{+,u}^T W_{+,v} a, b> = sum_j mu_j mv_j (W a)_j (W b)_j
    bilin = float(np.sum((w @ a) * (w @ b) * (mu & mv)))
    qab = float(np.dot(q_matrix(gu, gv).apply(a), b))
    return abs(bilin - qab) / (na * nb)


@_guarded
def r2wdc_deviation(net, layer, samples, seed):
    """Worst range-restricted bilinear deviation of layer i.

    The classic check probes W_i with arbitrary unit vectors; here both
    the mask anchors and the test vectors are produced by the upstream
    layers, i.e. everything lives on the range of G_{i-1}.  Sample j
    draws six fresh Gaussian latents (x, y, x1..x4) from sub-stream
    (seed, sample-domain, j); tuples with a degenerate range difference
    (_differences) are skipped and counted.
    """
    return _sampled_report(
        "R2WDC", layer, samples, seed,
        lambda rng: r2wdc_tuple_value(net, layer, *(rng.standard_normal(net.k)
                                                    for _ in range(6))))


@_guarded
def rric_deviation(a, net, samples, seed):
    """Worst measurement-Gram deviation on differences of network outputs.

    Checks |<(A^T A - I) u, v>| <= eps |u| |v| for u, v differences of
    full-depth outputs G(x1) - G(x2), G(x3) - G(x4) over sampled Gaussian
    latents, computed as |<A u, A v> - <u, v>| to avoid forming A^T A.
    Pairs with a degenerate difference (_differences) are skipped.
    """
    a = check_array(a, "a", (None, net.n_out))

    def pair(rng):
        g = [forward(net, rng.standard_normal(net.k))[-1] for _ in range(4)]
        diffs = _differences(*g)
        if diffs is None:
            return None
        (u, nu), (v, nv) = diffs
        return abs(float(np.dot(a @ u, a @ v) - np.dot(u, v))) / (nu * nv)

    return _sampled_report("RRIC", 0, samples, seed, pair, m=float(a.shape[0]))


# ---------------------------------------------------------------------------
# noise level
# ---------------------------------------------------------------------------

def omega(dims, m):
    """Noise amplification level of an (dims, m) compressed-sensing pair:

        omega = (2 / 2^{d/2}) sqrt(13/12) sqrt((k/m) log(5 prod_j e n_j / k)).
    """
    growth = log_growth(dims)
    m = check_count(m, "m")
    k, d = int(dims[0]), len(growth)
    log_term = math.log(5.0) + growth[-1]
    if log_term <= 0.0:
        raise ValidationError("width product too small for the noise level formula")
    return (2.0 / 2.0 ** (d / 2.0)) * math.sqrt(13.0 / 12.0) \
        * math.sqrt(k / m * log_term)


@_guarded
def noise_coupling(net, a, eta, samples, seed):
    """How strongly a fixed noise vector enters the latent geometry.

    For sampled Gaussian latents x, measures
        |<x, Lambda_x^T A^T eta>| / (|eta| |x|)   and
        |Lambda_x^T A^T eta| / |eta|,
    both of which the theory keeps below omega(dims, m).  Targets carry
    that level; aux reports the two maxima separately.
    """
    a = check_array(a, "a", (None, net.n_out))
    eta = check_array(eta, "eta", a.shape[:1])
    samples = check_count(samples, "samples")
    n_eta = float(np.linalg.norm(eta))
    om = omega(net.dims, a.shape[0])
    at_eta = a.T @ eta
    inner_max = grad_max = 0.0
    # a zero eta couples into nothing, so its maxima stay 0 with no sample drawn
    for j in range(samples if n_eta > 0.0 else 0):
        rng = sub_rng(seed, DOMAIN_SAMPLE, j)
        x = rng.standard_normal(net.k)
        masks = [o > 0.0 for o in forward(net, x)[1:]]
        w = apply_masked_t(net, masks, at_eta)
        inner_max = max(inner_max, abs(float(np.dot(x, w)))
                        / (n_eta * float(np.linalg.norm(x))))
        grad_max = max(grad_max, float(np.linalg.norm(w)) / n_eta)
    aux = {"inner_ratio_max": inner_max, "grad_ratio_max": grad_max, "omega": om}
    return ConditionReport(kind="NOISE", layers=(0,),
                           eps_by_layer=(max(inner_max, grad_max),),
                           samples=samples, seed=int(seed), aux=aux,
                           targets={"deviation": om, "inner_ratio_max": om,
                                    "grad_ratio_max": om})


# ---------------------------------------------------------------------------
# activation pattern counting
# ---------------------------------------------------------------------------

_PATTERN_MAX_ROWS = 20


@dataclass(frozen=True)
class PatternCount:
    """Exact count of activation patterns of W over a latent subspace.

    patterns holds the realized masks (tuples of 0/1 over rows, sorted),
    count = len(patterns).  For the m rows of W over an ell-dimensional
    subspace, comb_bound is sum_{j<=ell} C(m, j) and log_bound =
    ell * log(e m / ell), the two standard upper levels.
    """

    count: int
    comb_bound: int
    log_bound: float
    patterns: tuple

    def to_report(self, seed):
        """The count as a report whose seed column is seed, the seed that W
        and the basis were drawn from."""
        return ConditionReport(
            kind="PATTERN_COUNT", layers=(0,), eps_by_layer=(float(self.count),),
            headline="count", samples=0, seed=int(seed),
            aux={"comb_bound": float(self.comb_bound),
                 "log_count": math.log(self.count),
                 "log_bound": self.log_bound},
            targets={"log_count": self.log_bound})


def _patterns_at(p, witnesses):
    """Activation patterns of the projected rows p at the witness points.

    All witnesses are classified with one product.  A witness on the
    plane of a nonzero row is unusable and left out; a zero row is off at
    every witness.  Each usable on/off row is packed into one integer
    (m <= _PATTERN_MAX_ROWS bits), so the dedupe sorts integers, not rows.
    """
    vals = np.asarray(witnesses, dtype=np.float64) @ p.T
    zero_rows = ~np.any(p != 0.0, axis=1)
    usable = ~np.any((vals == 0.0) & ~zero_rows, axis=1)
    bits = np.arange(p.shape[0])
    codes = np.unique((vals[usable] > 0.0) @ (1 << bits))
    return set(map(tuple, ((codes[:, None] >> bits) & 1).tolist()))


def _witnesses(p):
    """Points of R^ell inside every chamber of the hyperplanes of p's rows.

    The nonzero rows of p are unit normals, or a level down their
    projections into one of the hyperplanes.  At ell = 1 the points are
    +-1.  Above, each nonzero row's hyperplane is walked in an
    orthonormal frame of it: the rows apart from it are projected into
    it, the recursion finds a point inside each chamber they carve out of
    the hyperplane, and each point steps off it to both sides by less
    than its distance to the nearest plane apart from it.  Every chamber
    has a facet on some hyperplane, so the steps reach every chamber.

    Rows i and j are apart when |p_i ^ p_j| > 1e-12.  Over unit rows this
    is the sine of the angle between two planes, so repeated and negated
    rows share one plane and need no dedupe.  One level down it is the
    triple product of three planes, which vanishes when they share a
    line.
    """
    ell = p.shape[1]
    if ell == 1:
        return np.array([[1.0], [-1.0]])
    p = p[np.any(p != 0.0, axis=1)]
    if not len(p):
        return np.eye(1, ell)
    norms = np.linalg.norm(p, axis=1)
    u = p / norms[:, None]
    # I - 2 v v^T / |v|^2 maps q to -+e_1, so its other rows are an
    # orthonormal basis of q's hyperplane
    v = u.copy()
    v[:, 0] += np.copysign(1.0, u[:, 0])
    frames = np.eye(ell)[1:] - (2.0 / np.sum(v * v, axis=1))[:, None, None] \
        * v[:, 1:, None] * v[:, None, :]
    # sub[i, j] is row j in the frame of row i's hyperplane, and
    # |p_i ^ p_j| = |p_i| |sub[i, j]|
    sub = np.einsum("iab,jb->ija", frames, p)
    apart = norms[:, None] * np.linalg.norm(sub, axis=2) > 1e-12
    zs = [_witnesses(rows[keep]) @ frame
          for frame, rows, keep in zip(frames, sub, apart)]
    # z[t] lies on the hyperplane of row owner[t]
    owner = np.repeat(np.arange(len(u)), [len(z) for z in zs])
    z = np.concatenate(zs)
    margin = np.where(apart[owner], np.abs(z @ u.T), np.inf).min(axis=1)
    step = np.minimum(1e-3, 0.5 * margin)[:, None] * u[owner]
    return np.concatenate((z + step, z - step))


@_guarded
def pattern_count_exact(w, basis):
    """Count the activation patterns diag(Wv > 0) realized over a subspace.

    basis is an (n, ell) matrix with independent columns spanning the
    subspace, ell at most 3, and W at most 20 rows.  The hyperplanes of
    the projected rows p = W basis carve R^ell into chambers, one pattern
    each; points on the planes realize no pattern beyond the all-off
    coordinates they share with adjacent chambers.  _witnesses walks each
    plane by recursion on the traces the other planes cut in it and steps
    off it to both sides, which puts a point inside every chamber
    (8 m (m - 1) points at ell = 3 for generic rows), and all are
    classified with one product.  A zero row is always off.  Over the
    unit rows, two planes coincide when the sine of their angle is at
    most 1e-12 (repeated and negated rows), and three planes share a
    line when their triple product is at most 1e-12.  Up to that
    tolerance the count is exact: planes through one line up to rounding
    count as planes through one line, while planes 1e-8 away from a
    shared line count as generic, though their thin chambers may be too
    small for sampled directions to hit.
    """
    w = check_array(w, "w", (None, None))
    m, n = w.shape
    if not 1 <= m <= _PATTERN_MAX_ROWS:
        raise ValidationError(
            f"exact pattern counting supports 1 to {_PATTERN_MAX_ROWS} rows, got {m}")
    basis = check_array(basis, "basis", (n, None))
    ell = basis.shape[1]
    if ell not in (1, 2, 3):
        raise ValidationError(f"subspace dimension must be 1, 2 or 3, got {ell}")
    if np.linalg.matrix_rank(basis) != ell:
        raise ValidationError("basis columns are linearly dependent")

    p = w @ basis
    norms = np.linalg.norm(p, axis=1, keepdims=True)
    p = p / np.where(norms > 0.0, norms, 1.0)
    pats = _patterns_at(p, _witnesses(p))

    comb = sum(math.comb(m, j) for j in range(ell + 1))
    return PatternCount(count=len(pats), comb_bound=comb, patterns=tuple(sorted(pats)),
                        log_bound=ell * math.log(math.e * m / ell))


def log_piece_count_bounds(dims):
    """log of the affine-piece bound for each partial depth:
    k * sum_{j<=i} log(e n_j / k), i = 1..d."""
    return tuple(int(dims[0]) * g for g in log_growth(dims))


# ---------------------------------------------------------------------------
# linearization concentration
# ---------------------------------------------------------------------------

REF_EPS = 0.2  # the per-layer deviation eps that every reference level is stated at


def _reference_levels(d, names):
    """{name: reference level} for each named statistic of the checks
    below on a depth-d net, at eps = REF_EPS, where a _max or _min suffix
    names a statistic's worst case over pairs.  A band holds one level
    per layer j = 1..d.  Every level is written here and only here."""
    eps = REF_EPS
    levels = {"angle_residual": 4.0 * math.sqrt(eps),
              "inner_scaled": 1.0 / (4.0 * math.pi),
              "htilde_gap": 24.0 * d ** 3 * math.sqrt(eps),
              "gram_gap": 4.0 * eps * d,
              "sq_norm_scaled": 13.0 / 12.0,
              "lipschitz_ratio": 1.2,
              "convexity_residual": 1.0 / 16.0 + 0.05,
              "band_low": tuple((0.5 - eps) ** j for j in range(1, d + 1)),
              "band_high": tuple((0.5 + eps) ** j for j in range(1, d + 1))}
    return {name: levels[name.removesuffix("_max").removesuffix("_min")]
            for name in names}


class _Collapsed(ValidationError):
    """A pair with a latent whose output is exactly zero at some layer:
    its angles are undefined from there on, so the suite skips it."""


def _pair(net, x, y, near):
    """The (NORM_ANGLE, LAMBDA_CONC) reports of pair_reports, unguarded,
    from one sweep each of x, y and near and one transposed sweep."""
    x = check_array(x, "x", (net.k,))
    y = check_array(y, "y", (net.k,))
    near = check_array(near, "near", (net.k,))
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValidationError("latents must be nonzero")
    diff = x - near
    n_diff = float(np.linalg.norm(diff))
    if n_diff == 0.0:
        raise ValidationError("near must differ from x")
    d = net.depth
    zs = preactivations(net, x)
    gx = [x] + [np.maximum(z, 0.0) for z in zs]
    gy = forward(net, y)
    # a collapsed layer zeroes the next one's z, so this comes first
    for j in range(1, d + 1):
        for name, g in (("x", gx), ("y", gy)):
            if not g[j].any():
                raise _Collapsed(f"{name} collapses to zero at layer {j}")
    for j, z in enumerate(zs, start=1):
        if np.any(z == 0.0):
            raise ValidationError(
                f"x sits exactly on an activation boundary of layer {j}; "
                "perturb it and retry")
    masks = [z > 0.0 for z in zs]
    lam = _path_mats(net, masks)[-1]
    gram = lam.T @ lam
    scale = 2.0 ** d
    prof = angle_profile(x, y, d)
    thetas = [angle_between(gx[j], gy[j]) for j in range(d + 1)]
    inner = float(np.dot(gx[-1], gy[-1]))
    gn = forward(net, near)
    v = apply_masked_t(net, masks, gx[-1] - gn[-1])

    aux = {"inner_scaled": scale * inner / (nx * ny),
           "htilde_gap": scale * abs(inner - float(np.dot(x, prof.h_tilde))) / (nx * ny)}
    norm_angle = ConditionReport(
        kind="NORM_ANGLE", layers=tuple(range(1, d + 1)),
        eps_by_layer=tuple(abs(thetas[j] - g_theta(thetas[j - 1]))
                           for j in range(1, d + 1)),
        headline="angle_residual", samples=1,
        per_layer={"norm_sq_ratio": tuple(float(np.dot(gx[j], gx[j])) / nx ** 2
                                          for j in range(1, d + 1)),
                   **_reference_levels(d, ("band_low", "band_high")),
                   "lipschitz_ratio": tuple(
                       2.0 ** (j / 2.0) * float(np.linalg.norm(gx[j] - gn[j])) / n_diff
                       for j in range(1, d + 1))},
        aux=aux, targets=_reference_levels(d, ("angle_residual", "lipschitz_ratio", *aux)))
    aux = {"gram_gap": scale * spectral_norm(gram - np.eye(net.k) / scale),
           "sq_norm_scaled": scale * float(np.linalg.eigvalsh(gram)[-1]),
           "htilde_gap": scale * float(np.linalg.norm(lam.T @ gy[-1] - prof.h_tilde)) / ny,
           "convexity_residual": float(np.linalg.norm(scale * v - diff) / n_diff)}
    return norm_angle, ConditionReport(kind="LAMBDA_CONC", samples=1, aux=aux,
                                       targets=_reference_levels(d, aux))


@_guarded
def pair_reports(net, x, y, near):
    """The NORM_ANGLE and LAMBDA_CONC reports of one latent pair (x, y),
    with near a second point close to x.

    NORM_ANGLE, per layer j: the headline angle_residual
    |theta_j - g(theta_{j-1})| between G_j(x) and G_j(y), target
    4 sqrt(eps); norm_sq_ratio |G_j(x)|^2 / |x|^2 with its expected band
    [(1/2 - eps)^j, (1/2 + eps)^j]; and lipschitz_ratio
    2^{j/2} |G_j(x) - G_j(near)| / |x - near|, target 1.2.  That bound is
    proved for |x - near| <= d sqrt(eps) |near| and a small per-layer
    deviation of the masked Grams from I/2 on the range; the k=4 d=3
    c_bar=2 recipe widths do not meet the second hypothesis, and the
    ratios are reported either way.  aux carries the scaled output inner
    product 2^d <G(x), G(y)> / (|x| |y|) (theory floor 1/(4 pi)) and its
    gap htilde_gap to the h_tilde prediction (target 24 d^3 sqrt(eps)).
    The report is scale invariant in x and y.

    LAMBDA_CONC, scaled by 2^d so its targets are depth-free:
      gram_gap           2^d || Lambda_x^T Lambda_x - I / 2^d ||, target 4 d eps
      sq_norm_scaled     2^d lambda_max(Lambda_x^T Lambda_x),     target 13/12
      htilde_gap         2^d |Lambda_x^T G(y) - h_tilde| / |y|,   target 24 d^3 sqrt(eps)
      convexity_residual |2^d Lambda_x^T (G(x) - G(near)) - (x - near)| / |x - near|
    The last is the relative residual of the descent-direction identity
    whose smallness makes the landscape behave convexly around the
    signal.  It is bounded by gram_gap, plus about 1/16 plus lower order
    for the masks that near flips (target 1/16 + 0.05); when near shares
    x's masks gram_gap alone bounds it.

    x and y must be nonzero and near must differ from x.  A latent whose
    output is exactly zero at some layer, or an x on an activation
    boundary, raises a ValidationError naming the point and the layer.
    """
    return _pair(net, x, y, near)


# ---------------------------------------------------------------------------
# condition suite
# ---------------------------------------------------------------------------

@_guarded
def run_condition_suite(net, samples, seed, pairs=25, recipe=None):
    """All net-only condition checks bundled into one report list.

    Per layer: classic and range-restricted gram deviations over
    `samples` draws.  Over `pairs` Gaussian latent pairs (x, y), each
    with a point near x 5% of |x| away: the worst case of each statistic
    of pair_reports.  A pair with a latent that collapses to zero at some
    layer is skipped and counted in the skipped column of both reports.
    A final PATTERN_COUNT report carries the log affine-piece bounds per
    partial depth, plus the width-recipe margins when recipe is given.
    """
    samples = check_count(samples, "samples")
    pairs = check_count(pairs, "pairs")
    d = net.depth
    layers = tuple(range(1, d + 1))
    reports = [wdc_deviation(net.weights[i - 1], samples, seed, layer=i) for i in layers]
    reports += [r2wdc_deviation(net, i, samples, seed) for i in layers]

    kept = []
    for j in range(pairs):
        rng = sub_rng(seed, DOMAIN_SAMPLE, j)
        x = rng.standard_normal(net.k)
        y = rng.standard_normal(net.k)
        near = x + 0.05 * float(np.linalg.norm(x)) * unit_vector(rng, net.k)
        try:
            kept.append(_pair(net, x, y, near))
        except _Collapsed:
            pass
    if not kept:
        raise ValidationError(f"NORM_ANGLE and LAMBDA_CONC: all {pairs} latent pairs "
                              "collapse to zero at some layer")
    nas, lcs = zip(*kept)
    skipped = pairs - len(kept)

    def series(name):
        return np.array([r.per_layer[name] for r in nas])

    ratios = series("norm_sq_ratio")
    aux = {"inner_scaled_min": min(r.aux["inner_scaled"] for r in nas),
           "htilde_gap_max": max(r.aux["htilde_gap"] for r in nas)}
    reports.append(ConditionReport(
        kind="NORM_ANGLE", layers=layers,
        eps_by_layer=tuple(np.max([r.eps_by_layer for r in nas], axis=0)),
        headline="angle_residual", samples=pairs, skipped=skipped, seed=int(seed),
        per_layer={"norm_sq_ratio_min": tuple(ratios.min(axis=0)),
                   "norm_sq_ratio_max": tuple(ratios.max(axis=0)),
                   **_reference_levels(d, ("band_low", "band_high")),
                   "lipschitz_ratio_max": tuple(series("lipschitz_ratio").max(axis=0))},
        aux=aux, targets=_reference_levels(
            d, ("angle_residual", "lipschitz_ratio_max", *aux))))
    aux = {f"{name}_max": max(r.aux[name] for r in lcs)
           for name in ("gram_gap", "sq_norm_scaled", "convexity_residual")}
    reports.append(ConditionReport(kind="LAMBDA_CONC", samples=pairs, skipped=skipped,
                                   seed=int(seed), aux=aux,
                                   targets=_reference_levels(d, aux)))

    aux = {}
    per_layer = {}
    if recipe is not None:
        aux["recipe_alpha"] = recipe.alpha
        per_layer["recipe_expansivity_margin"] = recipe.expansivity_margin
        per_layer["recipe_width_margin"] = recipe.width_margin
    reports.append(ConditionReport(
        kind="PATTERN_COUNT", layers=layers,
        eps_by_layer=log_piece_count_bounds(net.dims),
        headline="log_piece_bound", samples=0, seed=int(seed),
        per_layer=per_layer, aux=aux))
    return reports


# ---------------------------------------------------------------------------
# expectation identity
# ---------------------------------------------------------------------------

@_guarded
def activation_gram_mc(r, s, m, draws, seed):
    """Monte Carlo mean of W_{+,r}^T W_{+,s} over W with N(0, 1/m) entries.

    Returns (mean_gram, deviation) with deviation the spectral distance
    to Q_{r,s}; it shrinks like 1/sqrt(draws).  Chunked so memory stays
    bounded; the draw sequence, and hence the result, is independent of
    the chunking.
    """
    r = check_array(r, "r", (None,))
    s = check_array(s, "s", r.shape)
    m = check_count(m, "m")
    draws = check_count(draws, "draws")
    n = r.shape[0]
    check_addressable(m, n, f"m gives a {m} x {n} weight matrix")
    rng = sub_rng(seed, DOMAIN_SAMPLE, 0)
    acc = np.zeros((n, n))
    left = draws
    chunk = max(1, 8_000_000 // max(1, m * n))
    scale = 1.0 / math.sqrt(m)
    while left > 0:
        take = min(chunk, left)
        ws = rng.standard_normal((take, m, n)) * scale
        mr = (ws @ r > 0.0).astype(np.float64)
        ms = (ws @ s > 0.0).astype(np.float64)
        acc += np.einsum("tmi,tmj->ij", ws * mr[:, :, None], ws * ms[:, :, None])
        left -= take
    gram = acc / draws
    dev = float(spectral_norm(gram - q_matrix(r, s).q))
    return gram, dev
