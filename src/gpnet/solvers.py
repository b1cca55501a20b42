"""Subgradient descent with negation restarts for generative-prior recovery.

Four observation models share one solver.  With G a ReLU net and x_star
the planted latent (y_star = G(x_star)):

    CS             b = A G(x_star) + eta          f = |b - A G(x)|^2 / 2
    PR             b = |A G(x_star)| + eta        f = |b - |A G(x)||^2 / 2
    DEN            b = G(x_star) + eta            f = |b - G(x)|^2 / 2
    SPIKED_WISHART M = B^T B / N - sigma^2 I,     f = |M - G G^T|_F^2 / 2
                   B = u y_star^T + sigma Z
    SPIKED_WIGNER  M = y_star y_star^T + sigma H  f = |M - G G^T|_F^2 / 2

The loss landscape has a spurious stationary region near a negative
multiple of x_star; each iteration therefore first flips the sign of the
iterate whenever f(-x) < f(x), then steps along the subgradient
Lambda_x^T (...) with rate alpha = c_step 2^d / d^2.  The CS analysis
proves that the distance to x_star contracts like 1 - (7/8) alpha / 2^d
per step, down to the noise floor, when 2^d lambda_min(H) >= 7/8 for
H = Lambda_x^T A^T A Lambda_x on the iterate's linear piece.  That is a
bound of the analysis, not what a solve does: nets a few hundred units
wide miss the condition and contract more slowly, and the spiked losses
have another H.

An iteration costs at most three sweeps through the net: one forward
sweep at x and, unless a Lipschitz certificate proves that the flip
cannot fire, one at -x, each giving the loss, the layer outputs (hence
the relu masks) and the outer residual; then one transposed sweep on the
winner's masks for the subgradient.  The winner's sweep also supplies
G(x) for the trace row, and the final iterate costs one more forward
sweep.  The certificate (one per kind, through the table below; see
solve) skips the -x sweep in most iterations once the iterate has
settled in x_star's basin, where f(x) is small while f(-x) stays of
order one, and it never changes a decision, so the trace bytes are those
of the loop that always sweeps.

One table row per kind (_ROWS) holds what make_instance takes and builds
for it, and maps G(x) = g to its residual, loss and outer gradient w (the
subgradient is Lambda_x^T w) and its no-flip certificate.  The spiked
rows never form the n_out x n_out residual M - g g^T: one matvec gives
M g, and

    f = (|M|_F^2 - 2 g^T M g + |g|^4) / 2,    w = -2 (M g - |g|^2 g),

with |M|_F^2 summed once per instance (Instance.m_sq_norm).  The expanded
loss cancels, so it is exact only to rounding: within a small multiple of
n_out^2 eps (|M|_F^2 + |g|^4) of the dense sum, and not exactly 0 at a
planted noiseless Wigner latent.  CS, PR and DEN compute |r|^2 / 2 from
the residual itself and are exactly 0 there.
"""

from dataclasses import dataclass
from functools import cached_property, partial
import math
from typing import NamedTuple

import numpy as np

from .errors import (DivergenceError, ValidationError, check_addressable, check_array,
                     check_count)
from .conditions import _csv_text
from .net import GenerativeNet, _fields_eq, _gamma, _norm_bound, apply_masked_t, forward
from .rng import DOMAIN_INSTANCE, DOMAIN_X0, sub_rng, unit_vector

_X_STAR, _A_MAT, _ETA, _SPIKE_U, _SPIKE_Z, _SPIKE_H = range(6)
_NOISE = ("sigma", "eta", "eta_norm")  # the noise sources; an instance takes one
# the numbers of make_instance and SolverConfig, also the [instance] and [solver]
# INI keys and the solve flags, with their types (an instance int is a count)
INSTANCE_ARGS = {"m": int, "sigma": float, "eta_norm": float, "n_samples": int}
SOLVER_ARGS = {"c_step": float, "t_max": int, "rel_step_tol": float}
_ROW_BLOCK = 256  # rows of B per u y_star^T block, so no N x n_out temporary


@dataclass(frozen=True)
class Instance:
    """One recovery problem: model kind, net, planted signal and data.

    Construction checks what make_instance would build: a kind in KINDS,
    finite arrays, and shapes that fit the net and the kind (eta may be
    None).  Equality compares the arrays by value.
    """

    kind: str
    net: GenerativeNet
    x_star: np.ndarray
    y_star: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    m_obs: np.ndarray | None = None
    eta: np.ndarray | None = None

    __eq__ = _fields_eq

    def __post_init__(self):
        kind, size = self.kind, {"n": self.net.n_out, "k": self.net.k}
        row = _row(kind)
        if "m" in row.needs:  # the rows of the sensing matrix A
            size["m"] = len(check_array(self.a, "instance a", (None, size["n"])))
            if not size["m"]:
                raise ValidationError("instance a needs at least one row")
        want = dict.fromkeys(("a", "b", "m_obs", "eta")) | row.shapes \
            | {"x_star": ("k",), "y_star": ("n",)}
        for name, dims in want.items():
            arr = getattr(self, name)
            # eta is optional: an Instance built by hand may carry none
            if arr is None and (dims is None or name == "eta"):
                continue
            if dims is None:
                raise ValidationError(f"instance {name} must be None for kind {kind}")
            object.__setattr__(self, name, check_array(arr, f"instance {name}",
                                                       tuple(map(size.get, dims))))

    @cached_property
    def m_sq_norm(self):
        """|M|_F^2 of the spiked-model matrix, summed once per instance."""
        return float(np.einsum("ij,ij->", self.m_obs, self.m_obs))


def sensing_matrix(m, n_out, seed):
    """The m x n_out sensing matrix of CS and PR: N(0, 1/m) entries drawn
    from the sub-stream (seed, DOMAIN_INSTANCE, _A_MAT)."""
    m = check_count(m, "m")
    check_addressable(m, n_out, f"m gives a {m} x {n_out} sensing matrix")
    return sub_rng(seed, DOMAIN_INSTANCE, _A_MAT).standard_normal((m, n_out)) \
        / math.sqrt(m)


def _row(kind):
    """The table row of kind."""
    if kind not in KINDS:
        raise ValidationError(f"kind {kind!r} is not one of {KINDS}")
    return _ROWS[kind]


def _real(v):
    """v as a float when it is a real scalar other than a string, else nan."""
    try:
        return math.nan if isinstance(v, (str, bytes)) or np.ndim(v) else float(v)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _instance_row(kind, given):
    """(the table row of kind, the arguments given sets) once given
    ({make_instance argument: value}) sets only arguments the kind takes,
    at most one of sigma, eta and eta_norm, and all the kind needs, each
    of its INSTANCE_ARGS type.  None, and a zero sigma, set nothing."""
    row = _row(kind)
    chosen = {a: v for a, v in given.items()
              if v is not None and not (a == "sigma" and _real(v) == 0.0)}
    for a in chosen:
        if a not in row.needs + row.noise:
            takers = tuple(k for k, r in _ROWS.items() if a in r.needs + r.noise)
            raise ValidationError(f"{a} is only for the kinds {takers}, not {kind}")
    noise = [a for a in _NOISE if a in chosen]
    if len(noise) > 1:
        raise ValidationError(f"{' and '.join(noise)} are two noise sources; give at "
                              "most one of eta, eta_norm and a nonzero sigma")
    for a in row.needs:
        if a not in chosen:
            raise ValidationError(f"kind {kind} needs {a}")
    for a, v in chosen.items():
        if INSTANCE_ARGS.get(a) is int:
            chosen[a] = check_count(v, a)
        elif INSTANCE_ARGS.get(a) is float:
            chosen[a] = _real(v)
            if not 0.0 <= chosen[a] < math.inf:
                raise ValidationError(f"{a} must be finite and nonnegative, got {v!r}")
    return row, chosen


def make_instance(kind, net, *, x_star=None, m=None, sigma=None, eta=None,
                  eta_norm=None, n_samples=None, seed=0):
    """Build an Instance, drawing whatever was not supplied.

    x_star defaults to a uniform unit latent.  CS and PR need m (rows of
    the N(0, 1/m) sensing matrix), SPIKED_WISHART needs n_samples (rows
    of B).  Noise: pass eta directly, or eta_norm for a random direction
    of exactly that norm, or sigma for i.i.d. N(0, sigma^2) entries; for
    the spiked kinds sigma scales the matrix noise.  None gives nothing.
    An argument the kind does not take, a second noise source or a
    missing count raises a ValidationError (see _instance_row).
    Component draws use fixed sub-streams of seed, so e.g. the sensing
    matrix does not change when a different x_star is provided.
    """
    row, args = _instance_row(kind, dict(m=m, sigma=sigma, eta=eta, eta_norm=eta_norm,
                                         n_samples=n_samples))

    if x_star is None:
        x_star = unit_vector(sub_rng(seed, DOMAIN_INSTANCE, _X_STAR), net.k)
    else:
        x_star = check_array(x_star, "x_star", (net.k,))
        if not np.linalg.norm(x_star) > 0.0:
            raise ValidationError("x_star must be a nonzero latent vector")
    # a net or noise too large for float64 overflows to entries that Instance rejects
    with np.errstate(over="ignore", invalid="ignore"):
        y_star = forward(net, x_star)[-1]
        data = row.build(y_star, seed, **args)
    return Instance(kind=kind, net=net, x_star=x_star, y_star=y_star, **data)


def _plus_noise(clean, seed, eta=None, eta_norm=None, sigma=0.0):
    """b = clean + eta, eta from the one noise source given: eta itself, a
    random direction of norm eta_norm, N(0, sigma^2) entries, or zeros.
    With clean = y_star this is the DEN build."""
    dim = len(clean)
    if eta is not None:
        eta = check_array(eta, "eta", (dim,))
    elif eta_norm is not None:
        eta = sub_rng(seed, DOMAIN_INSTANCE, _ETA).standard_normal(dim)
        eta *= eta_norm / np.linalg.norm(eta)
    elif sigma > 0.0:
        eta = sigma * sub_rng(seed, DOMAIN_INSTANCE, _ETA).standard_normal(dim)
    else:
        eta = np.zeros(dim)
    return {"b": clean + eta, "eta": eta}


def _sensed_build(measure, y_star, seed, m=None, **noise):
    """The build of a kind that observes b = measure(A y_star) + eta."""
    a = sensing_matrix(m, len(y_star), seed)
    return {"a": a} | _plus_noise(measure(a @ y_star), seed, **noise)


def _wishart_build(y_star, seed, n_samples=None, sigma=0.0):
    n_out = len(y_star)
    check_addressable(n_samples, n_out,
                      f"n_samples gives a {n_samples} x {n_out} sample matrix")
    u = sub_rng(seed, DOMAIN_INSTANCE, _SPIKE_U).standard_normal(n_samples)
    if sigma > 0.0:
        z = sub_rng(seed, DOMAIN_INSTANCE, _SPIKE_Z).standard_normal((n_samples, n_out))
        z *= sigma  # B = u y_star^T + sigma Z, built in place in z
        for i in range(0, n_samples, _ROW_BLOCK):
            z[i:i + _ROW_BLOCK] += np.outer(u[i:i + _ROW_BLOCK], y_star)
    else:
        # B = u y_star^T, with no Z drawn.  Where y_star_j > 0 the
        # column is the drawn build's (adding the signed zero 0 Z_ij to
        # u_i y_star_j changes nothing).  Where y_star_j = +0 (a relu
        # zero) only the zeros' signs differ, and they reach M through
        # z^T z alone, whose zero entries are +0 in both builds: here
        # every product of such a zero is +0, and there a sum of zeros
        # is -0 only if every term is.  The tests compare the bytes
        # with the drawn build, n_samples = 1 included.
        z = np.outer(u, y_star)
    raw = z.T @ z
    del z
    raw /= n_samples
    raw[np.diag_indices(n_out)] -= np.float64(sigma) ** 2  # inf, not an OverflowError
    m_obs = raw + raw.T
    m_obs /= 2.0
    return {"m_obs": m_obs}


def _wigner_build(y_star, seed, sigma=0.0):
    s = sub_rng(seed, DOMAIN_INSTANCE, _SPIKE_H).standard_normal((len(y_star),) * 2)
    h = (s + s.T) / math.sqrt(2.0)  # GOE: offdiag var 1, diag var 2
    raw = np.outer(y_star, y_star) + sigma * h
    return {"m_obs": (raw + raw.T) / 2.0}


def _norm(v):
    """|v| of a float64 vector, computed as np.linalg.norm does."""
    return math.sqrt(float(v.dot(v)))


def _half_sq(inst, g, res):
    return 0.5 * float(np.sum(res[0] * res[0]))


def _cs(inst, g):
    ag = inst.a @ g
    return inst.b - ag, ag


def _pr(inst, g):
    ag = inst.a @ g
    return inst.b - np.abs(ag), ag


def _pr_gradient(inst, g, res):
    ag = res[1]
    return inst.a.T @ (np.sign(ag) * (np.abs(ag) - inst.b))


def _spiked(inst, g):
    # M - g g^T enters only through (M - g g^T) g and its Frobenius norm
    return inst.m_obs @ g, float(g @ g)


def _spiked_loss(inst, g, res):
    mg, gg = res
    return 0.5 * (inst.m_sq_norm - 2.0 * float(g @ mg) + gg * gg)


class _FlipBound:
    """The no-flip certificate of solve for one CS, PR or DEN instance.

    c, lip (L), growth (P), eta and eta_f are the constants of the
    rounding margin derived in the solve docstring.
    """

    def __init__(self, inst):
        net = inst.net
        m = len(inst.b)
        if inst.a is None:  # DEN: r = b - G
            l_outer, count = 1.0, 0
        else:  # the layers' rule bounds |A|_2 and |(|A|)|_2
            l_outer, count = _norm_bound(inst.a), net.n_out
        self._sweep_margin(net, count + sum(net.dims[:-1]) + m + net.k + net.depth + 64,
                           l_outer, m)
        self.eta_f = m * 2.0 ** -1000

    def _sweep_margin(self, net, count, l_outer, width):
        betas = net.norm_bounds
        self.c = _gamma(count)
        self.lip = l_outer * math.prod(betas)
        self.growth = max(1.0, l_outer) * math.prod(max(1.0, b) for b in betas)
        self.eta = count * max(net.dims + (width,)) * self.growth * 2.0 ** -1000

    def _far(self, x, p):
        """(|x|, a bound on how far the computed sweep at -x lands from the
        one at p: residuals here, net outputs for the spiked kinds)."""
        c = self.c
        x_norm = _norm(x)
        return x_norm, (self.lip * (_norm(x + p) + c * (x_norm + _norm(p))) * (1.0 + c)
                        + 2.0 * self.eta)

    def rules_out_flip(self, f_x, x, p, ev_p):
        """True when f^(-x) >= f^(x) is certain, from the sweep ev_p at p
        (an _evaluate result)."""
        c = self.c
        x_norm, far = self._far(x, p)
        near = math.sqrt(max(2.0 * (ev_p[0] - self.eta_f), 0.0))
        lo = near * (1.0 - 4.0 * c) - far
        return (lo > 0.0 and 0.5 * lo * lo * (1.0 - 4.0 * c) > f_x + self.eta_f
                and near + far + self.growth * x_norm < 2.0 ** 400)


class _SpikedFlipBound(_FlipBound):
    """The no-flip certificate of solve for one spiked instance.

    lip is L_G alone, and e and eta_f bound the error of the expanded
    loss; see the solve docstring.
    """

    def __init__(self, inst):
        net = inst.net
        n = net.n_out
        self._sweep_margin(net, sum(net.dims) + net.k + net.depth + 64, 1.0, n)
        self.m_sq_norm = inst.m_sq_norm
        self.e = (n * n + 4 * n + 6) * 2.0 ** -52
        self.eta_f = (n + 1) ** 2 * 2.0 ** -1000

    def _loss_error(self, g_norm):
        """Bound on |f^ - |M - g g^T|_F^2 / 2| at a computed G = g, |g| <= g_norm."""
        q = g_norm * g_norm
        return self.e * (self.m_sq_norm + q * q) + self.eta_f * (1.0 + q)

    def rules_out_flip(self, f_x, x, p, ev_p):
        """True when f^(-x) >= f^(x) is certain, from the sweep ev_p at p,
        whose residual carries g . g of the computed G(p)."""
        c = self.c
        x_norm, dist = self._far(x, p)
        h = math.sqrt(ev_p[2][1]) * (1.0 + c)
        top = h + dist
        near = math.sqrt(max(2.0 * (ev_p[0] - self._loss_error(h)), 0.0))
        lo = near * (1.0 - 4.0 * c) - dist * (h + top) * (1.0 + c)
        return (lo > 0.0
                and 0.5 * lo * lo * (1.0 - 4.0 * c) > f_x + self._loss_error(top)
                and math.sqrt(self.m_sq_norm) + top * top + self.growth * x_norm
                < 2.0 ** 400)


class _Kind(NamedTuple):
    """One kind: what make_instance takes and builds, and how G(x) gives f and w."""

    needs: tuple         # the make_instance arguments it cannot do without
    noise: tuple         # the noise arguments it takes, at most one per call
    build: object        # (y_star, seed, **taken arguments) -> {Instance field: array}
    shapes: dict         # {Instance field: shape}, "n" = n_out, "m" = rows of A; rest None
    residual: object     # (inst, g) -> tuple of what loss and gradient reuse
    loss: object         # (inst, g, res) -> float
    gradient: object     # (inst, g, res) -> w, the gradient of f in G(x)
    certificate: object  # inst -> the no-flip certificate of solve


_SENSED = {"a": ("m", "n"), "b": ("m",), "eta": ("m",)}
_SPIKED = ({"m_obs": ("n", "n")}, _spiked, _spiked_loss,
           lambda inst, g, res: -2.0 * (res[0] - res[1] * g), _SpikedFlipBound)

_ROWS = {
    "CS": _Kind(("m",), _NOISE, partial(_sensed_build, lambda ag: ag), _SENSED, _cs,
                _half_sq, lambda inst, g, res: inst.a.T @ (res[1] - inst.b), _FlipBound),
    "PR": _Kind(("m",), _NOISE, partial(_sensed_build, np.abs), _SENSED, _pr, _half_sq,
                _pr_gradient, _FlipBound),
    "DEN": _Kind((), _NOISE, _plus_noise, {"b": ("n",), "eta": ("n",)},
                 lambda inst, g: (inst.b - g,), _half_sq, lambda inst, g, res: g - inst.b,
                 _FlipBound),
    "SPIKED_WISHART": _Kind(("n_samples",), ("sigma",), _wishart_build, *_SPIKED),
    "SPIKED_WIGNER": _Kind((), ("sigma",), _wigner_build, *_SPIKED),
}
KINDS = tuple(_ROWS)


def _evaluate(inst, x):
    """(loss, layer outputs, residual) from one sweep at x."""
    outs = forward(inst.net, x)
    row = _ROWS[inst.kind]
    res = row.residual(inst, outs[-1])
    return row.loss(inst, outs[-1], res), outs, res


def _subgradient_at(inst, outs, res):
    """Lambda_x^T w from an _evaluate result, in one transposed sweep."""
    w = _ROWS[inst.kind].gradient(inst, outs[-1], res)
    # relu(z) > 0 exactly when z > 0, so the outputs carry the masks
    return apply_masked_t(inst.net, [o > 0.0 for o in outs[1:]], w)


def loss(inst, x):
    """Objective value of the instance's model at latent x.

    Overflow deliberately propagates as inf (the solver turns it into a
    DivergenceError) instead of warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _evaluate(inst, x)[0]


def subgradient(inst, x):
    """One subgradient of the loss at x (masks via the strict > 0 rule).

    All kinds share the pattern Lambda_x^T w with w the gradient of the
    outer residual at G(x); sign(0) = 0 resolves the PR kink and the
    relu kinks are resolved by the mask convention.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _subgradient_at(inst, *_evaluate(inst, x)[1:])


@dataclass(frozen=True)
class SolverConfig:
    """Step schedule and start for the negation-descent loop.

    alpha = c_step 2^d / d^2; t_max is a count (check_count), and t_max = 0
    records only the starting point.  The start is x0 when given,
    otherwise a uniform unit latent from the solver sub-stream of seed.
    Equality compares x0 by value.
    """

    c_step: float = 0.2
    t_max: int = 1000
    rel_step_tol: float = 1e-12
    x0: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.c_step < math.inf:
            raise ValidationError(f"c_step must be positive and finite, got {self.c_step!r}")
        object.__setattr__(self, "t_max", check_count(self.t_max, "t_max", least=0))
        if not 0.0 <= self.rel_step_tol < math.inf:
            raise ValidationError(
                f"rel_step_tol must be nonnegative and finite, got {self.rel_step_tol!r}")

    __eq__ = _fields_eq


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration record of a solve.

    rows holds one (iter, f, latent_err, signal_err, negated) tuple per
    iteration, the post-negation iterate's loss and absolute errors; the
    last row is the final iterate x_T.  negations lists the iterations
    whose sign flip fired; sign_checks counts the iterations that
    evaluated f(-x) (the others proved that the flip could not fire; see
    solve).  stop_reason is 't_max' or 'step_tol'.
    """

    rows: tuple
    negations: tuple
    n_steps: int
    sign_checks: int
    alpha: float
    stop_reason: str
    final_x: np.ndarray
    final_rel_latent_err: float
    final_rel_signal_err: float

    def csv_text(self, stride=1):
        """The trace as CSV: the rows with iter % stride == 0, then the
        final row if that left it out."""
        stride = check_count(stride, "trace stride")
        kept = [r for r in self.rows[:-1] if r[0] % stride == 0] + [self.rows[-1]]
        return _csv_text(("iter", "f", "latent_err", "signal_err", "negated"), kept)


def _start_point(inst, cfg):
    if cfg.x0 is not None:
        x0 = check_array(cfg.x0, "x0", (inst.net.k,))
        if not np.linalg.norm(x0) > 0.0:
            raise ValidationError("x0 must be a nonzero latent vector")
        return x0.copy()
    return unit_vector(sub_rng(cfg.seed, DOMAIN_X0, 0), inst.net.k)


def solve(inst, cfg):
    """Run negated subgradient descent; returns the SolveTrace.

    Raises DivergenceError naming the iteration if a loss, iterate or
    subgradient stops being finite.

    The sign check flips x when the computed losses satisfy
    f^(-x) < f^(x).  For CS, PR and DEN, f = |r|^2 / 2 with r = b - A G,
    b - |A G| or b - G; relu and |.| are 1-Lipschitz, so r is L-Lipschitz
    with L = L_outer prod_i beta_i, beta_i = GenerativeNet.norm_bounds[i]
    and L_outer = net._norm_bound(A) (CS, PR) or 1 (DEN): one rule,
    min(|W|_F, sqrt(|W|_1 |W|_inf)) lifted above its rounding, bounds
    every matrix.  Let p be the last point swept besides x: -x after a
    check that kept x, the pre-flip x after a flip; solve keeps that
    sweep, and rules_out_flip reads f(p) from it.  Then |r(-x)| >=
    |r(p)| - L |x + p|, and the sweep at -x is skipped when that bound,
    carried through the rounding below, proves f^(-x) >= f^(x).

    The spiked kinds have f = |R|_F^2 / 2 with R(y) = M - G(y) G(y)^T.
    Since a a^T - b b^T = (a - b) a^T + b (a - b)^T, |a a^T - b b^T|_F <=
    |a - b| (|a| + |b|), and G is L_G-Lipschitz with L_G = prod_i beta_i:

        |R(-x)|_F >= |R(p)|_F - (2 |G(p)| + L_G |x + p|) L_G |x + p|.

    The spiked residual carries g . g from the sweep at p, so |G(p)|
    costs no extra work.

    Rounding margin, with u = 2^-53 and gamma_n = n u / (1 - n u):
    - A float matvec obeys |fl(W v) - W v| <= gamma_n |W| |v| entrywise
      (n the inner size, any summation order), and beta_i and L_outer
      also bound the spectral norms of |W_i| and |A| (net._norm_bound).
      By induction over the layers, the computed A G(y) (G(y) for DEN)
      lies within gamma_K L |y| of the exact one, K = n_0 + ... +
      n_{d-1} (+ n_d for CS and PR).  This error scales with |A G(y)|, which is |b| near a
      solution, not with the residual, so it enters as an absolute term.
      Subtracting from b adds u |r^|, and |.| adds nothing.
    - Hence |r^(y) - r(y)| <= c L |y| + c |r^(y)| + eta, and
      f^(y) = |r^(y)|^2 (1 + theta) / 2 + underflow, |theta| <= c, with
      c = gamma_T, T = K + m + k + d + 64 (m = len(b)).  eta and
      eta_f = m 2^-1000 cover underflow (at most 2^-1075 per product,
      amplified by at most P = max(1, L_outer) prod max(1, beta_i)).
    - f^(x) needs no margin: the decision compares against that float.
    - Chaining |r^(p)| >= sqrt((2 f^(p) - 2 eta_f) / (1 + c)),
      |r(p)| >= |r^(p)| (1 - c) - c L |p| - eta, the Lipschitz step,
      |r^(-x)| >= (|r(-x)| - c L |x| - eta)(1 - c) and
      f^(-x) >= |r^(-x)|^2 (1 - c) / 2 - eta_f gives: with
          lo = sqrt(2 f^(p) - 2 eta_f)(1 - 2c)
               - L (|x + p| + c (|x| + |p|)) - 2 eta,
      lo > 0 and lo^2 (1 - 3c) / 2 > f^(x) + eta_f rule the flip out.
      _FlipBound evaluates this with 1 - 4c and a factor 1 + c on the
      L term; as c > 64 u, those slacks absorb its own few roundings.
    - A skipped sweep must not be one that would have raised
      DivergenceError.  Its layer outputs and A G(-x) are at most P |x|,
      and its residual at most (rho + L |x + p|) plus rounding, with
      rho = sqrt(2 f^(p)).  The test requires their sum to stay below
      2^400, so no entry, square or sum of the sweep can overflow and
      f^(-x) is finite.

    The spiked margin (_SpikedFlipBound) works with the computed outputs
    g^(y) themselves and needs the sweep error only between two of them:
    - The same induction puts g^(y) within c L_G |y| + eta of G(y), with
      c = gamma_T, T = n_0 + ... + n_d + k + d + 64 and P = prod max(1,
      beta_i).  So |g^(-x) - g^(p)| <= D = L_G (|x + p| + c (|x| + |p|))
      + 2 eta, and |g^(p)| <= h = (1 + c) sqrt(fl(g^(p) . g^(p))).
    - The expanded loss at a computed g lies within E(|g|) =
      (n^2 + 4n + 6) eps (|M|_F^2 + |g|^4) + eta_f (1 + |g|^2) of
      |M - g g^T|_F^2 / 2, with n = n_out, eps = 2u and eta_f =
      (n + 1)^2 2^-1000 for underflow.  The relative part is about four
      times the table's own error (derived next to _spiked_loss_bound in
      the tests), which absorbs the rounding of Instance.m_sq_norm, of h
      and of E itself.
    - |M - g^(p) g^(p)^T|_F >= sqrt(2 (f^(p) - E(h))), and the rank-one
      step costs at most D (2 h + D).  With lo the difference of the two,
      |M - g^(-x) g^(-x)^T|_F >= lo and |g^(-x)| <= h + D, so
      lo > 0 and lo^2 / 2 > f^(x) + E(h + D) rule the flip out.  The
      same 1 - 4c and 1 + c slacks absorb the certificate's roundings.
    - Overflow: the -x sweep's layer outputs stay below P |x|, and M g,
      g . M g, |g|^4 and their sum below (|M|_F + |g|^2)^2.  The test
      requires |M|_F + (h + D)^2 + P |x| < 2^400.
    """
    d = inst.net.depth
    alpha = cfg.c_step * 2.0 ** d / d ** 2
    x = _start_point(inst, cfg)
    bound = _ROWS[inst.kind].certificate(inst)

    rows = []
    negations = []
    stop_reason = "t_max"
    steps = 0
    sign_checks = 0
    other = None  # (point, sweep) last swept on the side not taken

    def record(t, x_cur, ev, neg):
        rows.append((t, ev[0], _norm(x_cur - inst.x_star),
                     _norm(ev[1][-1] - inst.y_star), neg))

    # overflow becomes inf, which the finiteness checks turn into errors
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.t_max):
            ev = _evaluate(inst, x)
            if not math.isfinite(ev[0]):
                raise DivergenceError(t)
            if other is not None and bound.rules_out_flip(ev[0], x, *other):
                neg = 0
            else:
                x_neg = -x
                ev_neg = _evaluate(inst, x_neg)
                sign_checks += 1
                if not math.isfinite(ev_neg[0]):
                    raise DivergenceError(t)
                neg = int(ev_neg[0] < ev[0])
                if neg:  # after the swap, x_neg is the side not taken
                    x, x_neg, ev, ev_neg = x_neg, x, ev_neg, ev
                    negations.append(t)
                other = (x_neg, ev_neg)
            record(t, x, ev, neg)
            x_new = x - alpha * _subgradient_at(inst, *ev[1:])
            if not np.isfinite(x_new).all():
                raise DivergenceError(t)
            small = _norm(x_new - x) <= cfg.rel_step_tol * _norm(x)
            x = x_new
            steps = t + 1
            if small:
                stop_reason = "step_tol"
                break
        ev = _evaluate(inst, x)
        if not math.isfinite(ev[0]):
            raise DivergenceError(steps)
        record(steps, x, ev, 0)

    _, _, latent_err, signal_err, _ = rows[-1]
    ns, ny = _norm(inst.x_star), _norm(inst.y_star)
    return SolveTrace(
        rows=tuple(rows), negations=tuple(negations), n_steps=steps,
        sign_checks=sign_checks, alpha=alpha, stop_reason=stop_reason, final_x=x,
        final_rel_latent_err=latent_err / ns if ns > 0 else float("nan"),
        final_rel_signal_err=signal_err / ny if ny > 0 else float("nan"))
