"""Angular geometry of masked Gaussian layers.

For a wide random layer W with N(0, 1/m) entries, the expectation of
W_{+,r}^T W_{+,s} over W (where W_{+,v} = diag(Wv > 0) W keeps only rows
active at v) depends on r and s only through the angle theta between
them:

    Q_{r,s} = ((pi - theta) / (2 pi)) I + (sin theta / (2 pi)) M,

with M the reflector across the bisector of r and s inside span(r, s)
(identity on the orthogonal complement contributes nothing because M
only enters through the rank-2 part).  In the Gram-Schmidt frame
u1 = rhat, u2 = unit part of shat orthogonal to u1,

    M = cos(theta) (u1 u1^T - u2 u2^T) + sin(theta) (u1 u2^T + u2 u1^T).

Eigenvalues of Q are ((pi - theta) +- sin theta) / (2 pi) on span(r, s)
and (pi - theta)/(2 pi) off it, so the spectral norm never exceeds 1/2.

Writing U for the 2 x n frame with rows u1, u2, the display above is
M = U^T [[cos theta, sin theta], [sin theta, -cos theta]] U, so Q is kept
factored as

    Q = a I + U^T K U,   a = (pi - theta) / (2 pi),
    K = (sin theta / (2 pi)) [[cos theta, sin theta], [sin theta, -cos theta]].

Q v then costs O(n), and the dense n x n matrix is built only when asked
for.  The factoring also confines a masked-Gram deviation to a small
core: with B the p rows of W active at both r and s, every term of
B^T B - Q except a I maps into the span S of the rows of B and U, of
dimension t <= p + 2, so B^T B - Q is a t x t core on S (from one thin
QR of [B; U]^T) plus -a I on the complement of S.  The derivation is at
conditions.masked_gram_deviation.

Feeding both vectors through one masked layer contracts their angle by

    g(theta) = arccos(((pi - theta) cos theta + sin theta) / pi),

whose d-fold iteration drives the closed-form vector h_tilde that
predicts <Lambda_x^T Lambda_y y> to leading order.
"""

from dataclasses import dataclass
from functools import cached_property
import math
import warnings

import numpy as np

from .errors import ValidationError, check_array, check_count

_COLLINEAR_TOL = 1e-12
_TINY_ANGLE = 1e-12
_QLIP_CONST = 2.0 / math.pi + 2.0 * math.sqrt(79.0)


def spectral_norm(mat):
    """Largest singular value, from a dense decomposition: the
    eigenvalues when the matrix is exactly symmetric, the SVD otherwise."""
    mat = check_array(mat, "mat", (None, None))
    if mat.size == 0:
        return 0.0
    if mat.shape[0] == mat.shape[1] and np.array_equal(mat, mat.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.linalg.norm(mat, 2))


def angle_between(x, y):
    """Angle in [0, pi]; exactly 0.0 for bitwise-identical inputs."""
    x = check_array(x, "x", (None,))
    y = check_array(y, "y", x.shape)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValidationError("angle undefined for zero vectors")
    if np.array_equal(x, y):
        return 0.0
    c = float(np.dot(x, y) / (nx * ny))
    theta = math.acos(min(1.0, max(-1.0, c)))
    return 0.0 if theta < _TINY_ANGLE else theta


@dataclass(frozen=True)
class DistortionMatrix:
    """Q_{r,s} = a I + U^T K U together with the angle that framed it.

    frame holds the rows u1, u2 of U (2 x n) and core the 2 x 2 block K;
    when Q is a multiple of the identity, frame is 0 x n and core 0 x 0.
    """

    theta: float
    a: float
    frame: np.ndarray
    core: np.ndarray

    def apply(self, v):
        """Q v in O(n), without forming Q."""
        v = check_array(v, "v", self.frame.shape[1:])
        return self.a * v + self.frame.T @ (self.core @ (self.frame @ v))

    @cached_property
    def q(self):
        """The dense n x n matrix Q, built on first access."""
        n = self.frame.shape[1]
        if not len(self.frame):
            return self.a * np.eye(n)
        theta = self.theta
        u1, u2 = self.frame
        m = (math.cos(theta) * (np.outer(u1, u1) - np.outer(u2, u2))
             + math.sin(theta) * (np.outer(u1, u2) + np.outer(u2, u1)))
        return ((math.pi - theta) / (2.0 * math.pi)) * np.eye(n) \
            + (math.sin(theta) / (2.0 * math.pi)) * m


def _isotropic(theta, a, n):
    """DistortionMatrix of Q = a I, which needs no frame."""
    return DistortionMatrix(theta=theta, a=a, frame=np.zeros((0, n)), core=np.zeros((0, 0)))


def q_matrix(r, s):
    """Expected masked-layer Gram matrix Q_{r,s} for directions r and s.

    Zero inputs give Q = 0.  Angles below 1e-12 are treated as zero, in
    which case Q is exactly I/2.  Collinear opposite vectors give the
    zero matrix, matching the theta -> pi limit.  The result is kept
    factored; its .q attribute builds the dense matrix.
    """
    r = check_array(r, "r", (None,))
    s = check_array(s, "s", r.shape)
    n = r.shape[0]
    if not n:
        raise ValidationError("r and s must be nonempty vectors")
    nr = np.linalg.norm(r)
    ns = np.linalg.norm(s)
    if nr == 0.0 or ns == 0.0:
        return _isotropic(0.0, 0.0, n)
    u1 = r / nr
    s_hat = s / ns
    c = float(np.dot(u1, s_hat))
    c = min(1.0, max(-1.0, c))
    theta = math.acos(c)
    if theta < _TINY_ANGLE:
        return _isotropic(0.0, 0.5, n)
    w = s_hat - c * u1
    nw = np.linalg.norm(w)
    if nw <= _COLLINEAR_TOL:
        # numerically collinear; acos near +-1 resolves angles no finer
        # than ~1e-8, so the zero-angle test above can miss the parallel
        # case and the cosine sign has to split the two limits
        if c > 0.0:
            return _isotropic(0.0, 0.5, n)
        return _isotropic(math.pi, 0.0, n)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    core = (sin_t / (2.0 * math.pi)) * np.array([[cos_t, sin_t], [sin_t, -cos_t]])
    return DistortionMatrix(theta=theta, a=(math.pi - theta) / (2.0 * math.pi),
                            frame=np.stack((u1, w / nw)), core=core)


def g_theta(theta):
    """One-layer angle contraction g(theta) = arccos(((pi-t) cos t + sin t)/pi).

    Defined on [0, pi]; inputs outside are clamped with a RuntimeWarning.
    Fixed point at 0, g(pi) = pi/2, and |g(a) - g(b)| <= |a - b|.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    if theta < 0.0 or theta > math.pi:
        warnings.warn(f"theta={theta} outside [0, pi], clamping", RuntimeWarning,
                      stacklevel=2)
        theta = min(math.pi, max(0.0, theta))
    arg = ((math.pi - theta) * math.cos(theta) + math.sin(theta)) / math.pi
    return math.acos(min(1.0, max(-1.0, arg)))


@dataclass(frozen=True)
class AngleProfile:
    """Iterated angles theta_bar_i and the direction vector h_tilde.

    theta_bar[0] is the angle between the latent pair, theta_bar[i] its
    i-fold contraction under g.  h_tilde approximates Lambda_x^T Lambda_y y
    for a depth-d net through that pair.
    """

    theta_bar: tuple
    h_tilde: np.ndarray


def angle_profile(x, y, depth):
    """Angles theta_bar_0..theta_bar_{d-1} plus h_tilde for depth d >= 1.

    h_tilde = 2^{-d} [ prod_{i<d} (pi - tb_i)/pi * y
                       + sum_{i=1}^{d-1} sin(tb_i)/pi
                         * prod_{j=i+1}^{d-1} (pi - tb_j)/pi * |y| xhat ].

    With x = y every tb_i is 0 and h_tilde is exactly y / 2^d.
    """
    depth = check_count(depth, "depth")
    x = check_array(x, "x", (None,))
    y = check_array(y, "y", x.shape)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValidationError("angle profile undefined for zero vectors")

    tb = [angle_between(x, y)]
    for _ in range(depth - 1):
        tb.append(g_theta(tb[-1]))

    shrink = 1.0
    for t in tb:
        shrink *= (math.pi - t) / math.pi

    coeff = 0.0  # multiplies |y| xhat
    for i in range(1, depth):
        term = math.sin(tb[i]) / math.pi
        for j in range(i + 1, depth):
            term *= (math.pi - tb[j]) / math.pi
        coeff += term

    h = (shrink * y + coeff * ny * (x / nx)) / 2.0 ** depth
    return AngleProfile(theta_bar=tuple(tb), h_tilde=h)


def q_lipschitz_gap(r, r_t, s, s_t):
    """How far Q moves when its unit-vector arguments move.

    All four inputs must be unit vectors (norm within 1e-8 of one).
    Returns (gap, bound) where gap = ||Q_{r,s} - Q_{r_t,s_t}|| and
    bound = (2/pi + 2 sqrt(79)) * max(||r_t - r||, ||s_t - s||).
    """
    names = ("r", "r_t", "s", "s_t")
    n = check_array(r, "r", (None,)).shape
    vecs = [check_array(v, name, n) for v, name in zip((r, r_t, s, s_t), names)]
    for v, name in zip(vecs, names):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValidationError(f"{name} must be a unit vector")
    r, r_t, s, s_t = vecs
    eps = max(float(np.linalg.norm(r_t - r)), float(np.linalg.norm(s_t - s)))
    gap = spectral_norm(q_matrix(r, s).q - q_matrix(r_t, s_t).q)
    return gap, _QLIP_CONST * eps
