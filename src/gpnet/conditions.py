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
Convention: layer 0 tags whole-network statistics.
"""

from dataclasses import dataclass, field
import io
import math

import numpy as np

from .errors import ValidationError
from .geometry import angle_between, angle_profile, g_theta, q_matrix, spectral_norm
from .net import apply_masked_t, forward, linear_path, preactivations
from .rng import DOMAIN_SAMPLE, sub_rng, unit_vector

CONDITION_KINDS = ("WDC", "R2WDC", "RRIC", "NOISE", "LAMBDA_CONC",
                   "PATTERN_COUNT", "NORM_ANGLE")

_DENOM_TOL = 1e-12


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


def reports_csv_text(reports):
    """Render reports as CSV text; float cells use repr so a rerun is
    byte-identical."""
    buf = io.StringIO()
    buf.write("condition,layer,statistic,value,target,samples,skipped,seed\n")
    for rep in reports:
        for row in rep.rows():
            buf.write(",".join(_fmt(c) for c in row) + "\n")
    return buf.getvalue()


def write_reports_csv(reports, path):
    with open(path, "w", newline="") as f:
        f.write(reports_csv_text(reports))


# ---------------------------------------------------------------------------
# masked-Gram deviations
# ---------------------------------------------------------------------------

def masked_gram_deviation(w, r, s):
    """|| W_{+,r}^T W_{+,s} - Q_{r,s} || for one direction pair."""
    w = np.asarray(w, dtype=np.float64)
    mr = (w @ r > 0.0)[:, None]
    ms = (w @ s > 0.0)[:, None]
    gram = (w * mr).T @ (w * ms)
    return float(spectral_norm(gram - q_matrix(r, s).q))


def wdc_deviation(w, samples, seed, layer=1):
    """Worst masked-Gram deviation of one weight matrix over sampled pairs.

    Pair j draws two independent uniform unit vectors from sub-stream
    (seed, sample-domain, j), so enlarging samples only appends pairs and
    the reported maximum is monotone in samples.  aux carries the median
    across pairs.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValidationError(f"expected a matrix, got shape {w.shape}")
    samples = int(samples)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    n = w.shape[1]
    vals = []
    for j in range(samples):
        rng = sub_rng(seed, DOMAIN_SAMPLE, j)
        r = unit_vector(rng, n)
        s = unit_vector(rng, n)
        vals.append(masked_gram_deviation(w, r, s))
    vals = np.asarray(vals)
    return ConditionReport(kind="WDC", layers=(int(layer),),
                           eps_by_layer=(float(vals.max()),),
                           samples=samples, seed=int(seed),
                           aux={"median_deviation": float(np.median(vals))})


def _range_diffs(net, upto, rng, count=4):
    """count layer-`upto` outputs of fresh Gaussian latents, as a list."""
    return [forward(net, rng.standard_normal(net.k))[upto] for _ in range(count)]


def r2wdc_tuple_value(net, layer, x, y, x1, x2, x3, x4):
    """One bilinear deviation sample for layer i at anchor pair (x, y).

    Evaluates |<(W_{+,u}^T W_{+,v} - Q_{u,v}) a, b>| / (|a| |b|) where
    u, v are the layer inputs generated by x, y and a, b are differences
    of layer inputs generated by x1..x4.  Returns None when a or b falls
    under the denominator guard.
    """
    i = int(layer)
    w = net.weights[i - 1]
    gu = forward(net, x)[i - 1]
    gv = forward(net, y)[i - 1]
    a = forward(net, x1)[i - 1] - forward(net, x2)[i - 1]
    b = forward(net, x3)[i - 1] - forward(net, x4)[i - 1]
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < _DENOM_TOL or nb < _DENOM_TOL:
        return None
    mu = w @ gu > 0.0
    mv = w @ gv > 0.0
    # <W_{+,u}^T W_{+,v} a, b> = sum_j mu_j mv_j (W a)_j (W b)_j
    bilin = float(np.sum((w @ a) * (w @ b) * (mu & mv)))
    qab = float(np.dot(q_matrix(gu, gv).q @ a, b))
    return abs(bilin - qab) / (na * nb)


def r2wdc_deviation(net, layer, samples, seed):
    """Worst range-restricted bilinear deviation of layer i.

    The classic check probes W_i with arbitrary unit vectors; here both
    the mask anchors and the test vectors are produced by the upstream
    layers, i.e. everything lives on the range of G_{i-1}.  Sample j
    draws six fresh Gaussian latents (x, y, x1..x4) from sub-stream
    (seed, sample-domain, j); tuples whose range differences fall under
    the 1e-12 denominator guard are skipped and counted.
    """
    i = int(layer)
    if not 1 <= i <= net.depth:
        raise ValidationError(f"layer must be in 1..{net.depth}, got {i}")
    samples = int(samples)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    vals = []
    skipped = 0
    for j in range(samples):
        rng = sub_rng(seed, DOMAIN_SAMPLE, j)
        lat = [rng.standard_normal(net.k) for _ in range(6)]
        v = r2wdc_tuple_value(net, i, *lat)
        if v is None:
            skipped += 1
        else:
            vals.append(v)
    if not vals:
        raise ValidationError("all sampled tuples were degenerate")
    vals = np.asarray(vals)
    return ConditionReport(kind="R2WDC", layers=(i,),
                           eps_by_layer=(float(vals.max()),),
                           samples=samples, skipped=skipped, seed=int(seed),
                           aux={"median_deviation": float(np.median(vals))})


def rric_deviation(a, net, samples, seed):
    """Worst measurement-Gram deviation on differences of network outputs.

    Checks |<(A^T A - I) u, v>| <= eps |u| |v| for u, v differences of
    full-depth outputs G(x1) - G(x2), G(x3) - G(x4) over sampled Gaussian
    latents, computed as |<A u, A v> - <u, v>| to avoid forming A^T A.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != net.n_out:
        raise ValidationError(
            f"measurement matrix must have {net.n_out} columns, got {a.shape}")
    samples = int(samples)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    vals = []
    skipped = 0
    for j in range(samples):
        rng = sub_rng(seed, DOMAIN_SAMPLE, j)
        g = _range_diffs(net, net.depth, rng)
        u = g[0] - g[1]
        v = g[2] - g[3]
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
        if nu < _DENOM_TOL or nv < _DENOM_TOL:
            skipped += 1
            continue
        dev = abs(float(np.dot(a @ u, a @ v) - np.dot(u, v))) / (nu * nv)
        vals.append(dev)
    if not vals:
        raise ValidationError("all sampled tuples were degenerate")
    vals = np.asarray(vals)
    return ConditionReport(kind="RRIC", layers=(0,),
                           eps_by_layer=(float(vals.max()),),
                           samples=samples, skipped=skipped, seed=int(seed),
                           aux={"median_deviation": float(np.median(vals)),
                                "m": float(a.shape[0])})


# ---------------------------------------------------------------------------
# noise level
# ---------------------------------------------------------------------------

def omega(dims, m):
    """Noise amplification level of an (dims, m) compressed-sensing pair:

        omega = (2 / 2^{d/2}) sqrt(13/12) sqrt((k/m) log(5 prod_j e n_j / k)).
    """
    dims = tuple(int(n) for n in dims)
    if len(dims) < 2 or any(n < 1 for n in dims):
        raise ValidationError(f"bad dims {dims}")
    m = int(m)
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    k = dims[0]
    d = len(dims) - 1
    log_term = math.log(5.0) + sum(1.0 + math.log(n / k) for n in dims[1:])
    if log_term <= 0.0:
        raise ValidationError("width product too small for the noise level formula")
    return (2.0 / 2.0 ** (d / 2.0)) * math.sqrt(13.0 / 12.0) \
        * math.sqrt(k / m * log_term)


def noise_coupling(net, a, eta, samples, seed):
    """How strongly a fixed noise vector enters the latent geometry.

    For sampled Gaussian latents x, measures
        |<x, Lambda_x^T A^T eta>| / (|eta| |x|)   and
        |Lambda_x^T A^T eta| / |eta|,
    both of which the theory keeps below omega(dims, m).  Targets carry
    that level; aux reports the two maxima separately.
    """
    a = np.asarray(a, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != net.n_out:
        raise ValidationError(
            f"measurement matrix must have {net.n_out} columns, got {a.shape}")
    if eta.shape != (a.shape[0],):
        raise ValidationError(f"eta must have length {a.shape[0]}")
    samples = int(samples)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    n_eta = float(np.linalg.norm(eta))
    om = omega(net.dims, a.shape[0])
    if n_eta == 0.0:
        aux = {"inner_ratio_max": 0.0, "grad_ratio_max": 0.0, "omega": om}
        return ConditionReport(kind="NOISE", layers=(0,), eps_by_layer=(0.0,),
                               samples=samples, seed=int(seed), aux=aux,
                               targets={"deviation": om, "inner_ratio_max": om,
                                        "grad_ratio_max": om})
    at_eta = a.T @ eta
    inner_max = 0.0
    grad_max = 0.0
    for j in range(samples):
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
_PATTERN_JITTER = 256


@dataclass(frozen=True)
class PatternCount:
    """Exact count of activation patterns of W over a latent subspace.

    patterns holds the realized masks (tuples of 0/1 over rows, sorted),
    count = len(patterns).  comb_bound is sum_{j<=ell} C(m, j) and
    log_bound = ell * log(e m / ell), the two standard upper levels.
    """

    m: int
    ell: int
    count: int
    comb_bound: int
    log_bound: float
    patterns: tuple

    def to_report(self):
        return ConditionReport(
            kind="PATTERN_COUNT", layers=(0,), eps_by_layer=(float(self.count),),
            headline="count", samples=0, seed=0,
            aux={"comb_bound": float(self.comb_bound),
                 "log_count": math.log(self.count),
                 "log_bound": self.log_bound},
            targets={"log_count": self.log_bound})


def _dedupe_sorted_angles(angles, tol=1e-12):
    if not angles:
        return []
    angles = sorted(angles)
    out = [angles[0]]
    for a in angles[1:]:
        if a - out[-1] > tol:
            out.append(a)
    # wraparound: first and last may describe the same boundary direction
    if len(out) > 1 and (out[0] + 2.0 * math.pi) - out[-1] <= tol:
        out.pop()
    return out


def _pattern_of(p, t):
    vals = p @ t
    zero_rows = ~np.any(p != 0.0, axis=1)
    if np.any((vals == 0.0) & ~zero_rows):
        return None  # witness sits exactly on a plane; unusable
    return tuple(int(v > 0.0) for v in vals)


def _patterns_ell2(p):
    nz = [j for j in range(p.shape[0]) if np.any(p[j] != 0.0)]
    if not nz:
        return {_pattern_of(p, np.array([1.0, 0.0]))}
    bounds = []
    for j in nz:
        phi = math.atan2(p[j, 1], p[j, 0])
        for b in (phi + math.pi / 2.0, phi - math.pi / 2.0):
            bounds.append(b % (2.0 * math.pi))
    bounds = _dedupe_sorted_angles(bounds)
    pats = set()
    for t in range(len(bounds)):
        nxt = bounds[(t + 1) % len(bounds)]
        if t + 1 == len(bounds):
            nxt += 2.0 * math.pi
        mid = 0.5 * (bounds[t] + nxt)
        pat = _pattern_of(p, np.array([math.cos(mid), math.sin(mid)]))
        if pat is not None:
            pats.add(pat)
    return pats


def _orth_basis_of_plane(q):
    ax = int(np.argmin(np.abs(q)))
    e = np.zeros(3)
    e[ax] = 1.0
    a = e - float(np.dot(q, e)) * q
    a /= np.linalg.norm(a)
    b = np.cross(q, a)
    return a, b


def _patterns_ell3(p):
    m = p.shape[0]
    nz = [j for j in range(m) if np.any(p[j] != 0.0)]
    witnesses = []
    if nz:
        # one representative unit normal per distinct plane
        units = {}
        for j in nz:
            u = p[j] / np.linalg.norm(p[j])
            key = tuple(np.round(u if u[np.argmax(np.abs(u))] > 0 else -u, 12))
            units.setdefault(key, u if u[np.argmax(np.abs(u))] > 0 else -u)
        planes = list(units.values())

        # walk each plane's unit circle: every chamber has a 2-face on some
        # plane, and the side steps off an arc midpoint land in the two
        # chambers adjacent to that face, so these witnesses reach them all
        for q in planes:
            a, b = _orth_basis_of_plane(q)
            cuts = []
            others = [r for r in planes if abs(float(np.dot(r, q))) < 1.0 - 1e-12]
            for r in others:
                ca, cb = float(np.dot(r, a)), float(np.dot(r, b))
                if abs(ca) < 1e-15 and abs(cb) < 1e-15:
                    continue
                psi = math.atan2(-ca, cb)
                cuts.append(psi % (2.0 * math.pi))
                cuts.append((psi + math.pi) % (2.0 * math.pi))
            cuts = _dedupe_sorted_angles(cuts)
            if not cuts:
                mids = [0.0]
            else:
                mids = []
                for t in range(len(cuts)):
                    nxt = cuts[(t + 1) % len(cuts)]
                    if t + 1 == len(cuts):
                        nxt += 2.0 * math.pi
                    mids.append(0.5 * (cuts[t] + nxt))
            for mid in mids:
                z = math.cos(mid) * a + math.sin(mid) * b
                margins = [abs(float(np.dot(r, z))) for r in others]
                step = min(1e-3, 0.5 * min(margins)) if margins else 1e-3
                witnesses.append(z + step * q)
                witnesses.append(z - step * q)

        # pairwise plane intersections, pushed into the four quadrants
        for i1 in range(len(planes)):
            for i2 in range(i1 + 1, len(planes)):
                z0 = np.cross(planes[i1], planes[i2])
                nz0 = np.linalg.norm(z0)
                if nz0 <= 1e-12:
                    continue
                z0 = z0 / nz0
                rest = [r for t, r in enumerate(planes) if t not in (i1, i2)]
                margins = [abs(float(np.dot(r, z0))) for r in rest]
                step = min(1e-3, 0.45 * min(margins)) if margins else 1e-3
                for s1 in (-1.0, 1.0):
                    for s2 in (-1.0, 1.0):
                        witnesses.append(z0 + s1 * step * planes[i1]
                                         + s2 * step * planes[i2])

    # fixed-seed jitter as a safety net on top of the deterministic walks
    rng = sub_rng(1729, DOMAIN_SAMPLE, 0)
    for _ in range(_PATTERN_JITTER):
        witnesses.append(unit_vector(rng, 3))

    pats = set()
    for t in witnesses:
        pat = _pattern_of(p, t)
        if pat is not None:
            pats.add(pat)
    return pats


def pattern_count_exact(w, basis):
    """Count the activation patterns diag(Wv > 0) realized over a subspace.

    basis is an (n, ell) matrix with independent columns spanning the
    subspace, ell at most 3, and W at most 20 rows.  Counting is exact:
    patterns are enumerated at witness points strictly inside the
    chambers that the projected row hyperplanes carve out of R^ell
    (points on the planes themselves realize no extra patterns beyond
    the all-off coordinates they share with adjacent chambers).
    """
    w = np.asarray(w, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    if w.ndim != 2:
        raise ValidationError(f"expected a weight matrix, got shape {w.shape}")
    m, n = w.shape
    if m > _PATTERN_MAX_ROWS:
        raise ValidationError(
            f"exact pattern counting supports at most {_PATTERN_MAX_ROWS} rows, got {m}")
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValidationError(f"basis must be ({n}, ell), got {basis.shape}")
    ell = basis.shape[1]
    if ell not in (1, 2, 3):
        raise ValidationError(f"subspace dimension must be 1, 2 or 3, got {ell}")
    if np.linalg.matrix_rank(basis) != ell:
        raise ValidationError("basis columns are linearly dependent")

    p = w @ basis
    if ell == 1:
        pats = set()
        for c in (1.0, -1.0):
            pat = _pattern_of(p, np.array([c]))
            if pat is not None:
                pats.add(pat)
    elif ell == 2:
        pats = _patterns_ell2(p)
    else:
        pats = _patterns_ell3(p)
    pats.discard(None)

    comb = sum(math.comb(m, j) for j in range(ell + 1))
    return PatternCount(m=m, ell=ell, count=len(pats), comb_bound=comb,
                        log_bound=ell * math.log(math.e * m / ell),
                        patterns=tuple(sorted(pats)))


def log_piece_count_bounds(dims):
    """log of the affine-piece bound for each partial depth:
    k * sum_{j<=i} log(e n_j / k), i = 1..d."""
    dims = tuple(int(n) for n in dims)
    if len(dims) < 2 or any(n < 1 for n in dims):
        raise ValidationError(f"bad dims {dims}")
    k = dims[0]
    acc = 0.0
    out = []
    for n in dims[1:]:
        acc += 1.0 + math.log(n / k)
        out.append(k * acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# linearization concentration
# ---------------------------------------------------------------------------

def _require_off_boundary(net, x, name):
    for i, z in enumerate(preactivations(net, x), start=1):
        if np.any(z == 0.0):
            raise ValidationError(
                f"{name} sits exactly on an activation boundary of layer {i}; "
                "perturb it and retry")


def lambda_concentration(net, x, y, eps_ref=0.2):
    """Concentration of the end-to-end linearization at x against pair y.

    aux statistics (all scaled by 2^d so their targets are depth-free):
      gram_gap       2^d || Lambda_x^T Lambda_x - I / 2^d ||,  target 4 d eps
      sq_norm_scaled 2^d lambda_max(Lambda_x^T Lambda_x),      target 13/12
      htilde_gap     2^d |Lambda_x^T G(y) - h_tilde| / |y|,    target 24 d^3 sqrt(eps)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.linalg.norm(x) == 0.0 or np.linalg.norm(y) == 0.0:
        raise ValidationError("latents must be nonzero")
    _require_off_boundary(net, x, "x")
    d = net.depth
    scale = 2.0 ** d
    lam = linear_path(net, x).lam
    gram = lam.T @ lam
    s1 = scale * spectral_norm(gram - np.eye(net.k) / scale)
    s2 = scale * float(np.linalg.eigvalsh(gram)[-1])
    gy = forward(net, y)[-1]
    prof = angle_profile(x, y, d)
    s3 = scale * float(np.linalg.norm(lam.T @ gy - prof.h_tilde)) \
        / float(np.linalg.norm(y))
    eps = float(eps_ref)
    return ConditionReport(
        kind="LAMBDA_CONC", samples=1,
        aux={"gram_gap": s1, "sq_norm_scaled": s2, "htilde_gap": s3},
        targets={"gram_gap": 4.0 * eps * d, "sq_norm_scaled": 13.0 / 12.0,
                 "htilde_gap": 24.0 * d ** 3 * math.sqrt(eps)})


def norm_angle_report(net, x, y, eps_ref=0.2):
    """Layerwise norm decay and angle contraction for one latent pair.

    Per layer j: norm_sq_ratio = |G_j(x)|^2 / |x|^2 with its expected band
    [(1/2 - eps)^j, (1/2 + eps)^j], and the headline angle_residual
    |theta_j - g(theta_{j-1})| against target 4 sqrt(eps).  aux carries
    the scaled output inner product 2^d <G(x), G(y)> / (|x| |y|) (theory
    floor 1/(4 pi)) and its gap to the h_tilde prediction (target
    24 d^3 sqrt(eps)).  The report is scale invariant in x and y.
    """
    eps = float(eps_ref)
    outs_x = forward(net, x)
    outs_y = forward(net, y)
    nx = float(np.linalg.norm(outs_x[0]))
    ny = float(np.linalg.norm(outs_y[0]))
    if nx == 0.0 or ny == 0.0:
        raise ValidationError("latents must be nonzero")
    d = net.depth
    for j in range(1, d + 1):
        if not outs_x[j].any() or not outs_y[j].any():
            raise ValidationError(f"layer {j} output collapsed to zero")
    ratios = tuple(float(np.dot(outs_x[j], outs_x[j])) / nx ** 2
                   for j in range(1, d + 1))
    lo = tuple((0.5 - eps) ** j for j in range(1, d + 1))
    hi = tuple((0.5 + eps) ** j for j in range(1, d + 1))
    thetas = [angle_between(outs_x[j], outs_y[j]) for j in range(d + 1)]
    residuals = tuple(abs(thetas[j] - g_theta(thetas[j - 1]))
                      for j in range(1, d + 1))
    scale = 2.0 ** d
    inner_scaled = scale * float(np.dot(outs_x[-1], outs_y[-1])) / (nx * ny)
    prof = angle_profile(outs_x[0], outs_y[0], d)
    htilde_gap = scale * abs(float(np.dot(outs_x[-1], outs_y[-1]))
                             - float(np.dot(outs_x[0], prof.h_tilde))) / (nx * ny)
    return ConditionReport(
        kind="NORM_ANGLE", layers=tuple(range(1, d + 1)),
        eps_by_layer=residuals, headline="angle_residual", samples=1,
        per_layer={"norm_sq_ratio": ratios, "band_low": lo, "band_high": hi},
        aux={"inner_scaled": inner_scaled, "htilde_gap": htilde_gap},
        targets={"angle_residual": 4.0 * math.sqrt(eps),
                 "inner_scaled": 1.0 / (4.0 * math.pi),
                 "htilde_gap": 24.0 * d ** 3 * math.sqrt(eps)})


@dataclass(frozen=True)
class LipschitzResult:
    """Scaled layerwise difference ratios 2^{i/2} |G_i(x) - G_i(y)| / |x - y|.

    in_ball says whether |x - y| <= d sqrt(eps_ref) |y|.  The 1.2 bound
    is proved inside that ball and for a small per-layer deviation of
    the masked Grams from I/2 on the range; the k=4 d=3 c_bar=2 recipe
    widths do not meet the second hypothesis.  The ratios are reported
    either way.
    """

    ratios: tuple
    in_ball: bool
    bound: float = 1.2


def lipschitz_check(net, x, y, eps_ref=0.2):
    outs_x = forward(net, x)
    outs_y = forward(net, y)
    diff = float(np.linalg.norm(outs_x[0] - outs_y[0]))
    d = net.depth
    if diff == 0.0:
        return LipschitzResult(ratios=(0.0,) * d, in_ball=True)
    in_ball = diff <= d * math.sqrt(float(eps_ref)) * float(np.linalg.norm(outs_y[0]))
    ratios = tuple(2.0 ** (i / 2.0)
                   * float(np.linalg.norm(outs_x[i] - outs_y[i])) / diff
                   for i in range(1, d + 1))
    return LipschitzResult(ratios=ratios, in_ball=bool(in_ball))


def convexity_direction_check(net, x, y):
    """Relative residual of the descent-direction identity

        2^d Lambda_x^T (G(x) - G(y)) ~ x - y,

    whose smallness is what makes the landscape behave convexly around
    the signal.  The residual is bounded by the first-order term
    2^d || Lambda_x^T Lambda_x - I / 2^d ||, plus about 1/16 plus lower
    order on top of it for the masks that y flips; when y shares x's
    masks the first-order term alone bounds it.  Requires x != y.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.array_equal(x, y):
        raise ValidationError("x and y must differ")
    outs_x = forward(net, x)
    masks = [o > 0.0 for o in outs_x[1:]]
    gy = forward(net, y)[-1]
    v = apply_masked_t(net, masks, outs_x[-1] - gy)
    diff = x - y
    return float(np.linalg.norm(2.0 ** net.depth * v - diff)
                 / np.linalg.norm(diff))


# ---------------------------------------------------------------------------
# expectation identity
# ---------------------------------------------------------------------------

def activation_gram_mc(r, s, m, draws, seed):
    """Monte Carlo mean of W_{+,r}^T W_{+,s} over W with N(0, 1/m) entries.

    Returns (mean_gram, deviation) with deviation the spectral distance
    to Q_{r,s}; it shrinks like 1/sqrt(draws).  Chunked so memory stays
    bounded; the draw sequence, and hence the result, is independent of
    the chunking.
    """
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if r.ndim != 1 or r.shape != s.shape:
        raise ValidationError("r and s must be equal-length vectors")
    m = int(m)
    draws = int(draws)
    if m < 1 or draws < 1:
        raise ValidationError("m and draws must be >= 1")
    n = r.shape[0]
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
