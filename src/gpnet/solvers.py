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
Lambda_x^T (...) with rate alpha = c_step 2^d / d^2.  For wide enough
random nets the distance to x_star contracts like 1 - (7/8) alpha / 2^d
per step until the noise floor.

An iteration costs three sweeps through the net: one forward sweep at x
and one at -x, each giving the loss, the layer outputs (hence the relu
masks) and the outer residual, then one transposed sweep on the winner's
masks for the subgradient.  The winner's sweep also supplies G(x) for the
trace row, and the final iterate costs one more forward sweep.
"""

from dataclasses import dataclass, fields
import io
import math

import numpy as np

from .errors import DivergenceError, ValidationError
from .net import GenerativeNet, _read_exact, apply_masked_t, forward, load_net, save_net
from .rng import DOMAIN_INSTANCE, DOMAIN_X0, sub_rng, unit_vector

KINDS = ("CS", "PR", "DEN", "SPIKED_WISHART", "SPIKED_WIGNER")

_X_STAR, _A_MAT, _ETA, _SPIKE_U, _SPIKE_Z, _SPIKE_H = range(6)


@dataclass(frozen=True)
class Instance:
    """One recovery problem: model kind, net, planted signal and data."""

    kind: str
    net: GenerativeNet
    x_star: np.ndarray
    y_star: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    m_obs: np.ndarray | None = None
    eta: np.ndarray | None = None
    sigma: float = 0.0
    n_samples: int | None = None
    seed: int = 0


def make_instance(kind, net, *, x_star=None, m=None, sigma=0.0, eta=None,
                  eta_norm=None, n_samples=None, seed=0):
    """Build an Instance, drawing whatever was not supplied.

    x_star defaults to a uniform unit latent.  CS and PR need m (rows of
    the N(0, 1/m) sensing matrix); the spiked kinds need n_samples for
    the Wishart row count (ignored for Wigner).  Noise: pass eta
    directly, or eta_norm for a random direction of exactly that norm,
    or sigma for i.i.d. N(0, sigma^2) entries; for the spiked kinds
    sigma scales the matrix noise.  Component draws use fixed
    sub-streams of seed, so e.g. the sensing matrix does not change when
    a different x_star is provided.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}; expected one of {KINDS}")
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValidationError("sigma must be finite and nonnegative")

    if x_star is None:
        x_star = unit_vector(sub_rng(seed, DOMAIN_INSTANCE, _X_STAR), net.k)
    else:
        x_star = np.asarray(x_star, dtype=np.float64)
        if x_star.shape != (net.k,) or not np.linalg.norm(x_star) > 0.0:
            raise ValidationError("x_star must be a nonzero latent vector")
    y_star = forward(net, x_star)[-1]

    a = None
    m_obs = None
    n_out = net.n_out

    if kind in ("CS", "PR"):
        if m is None or int(m) < 1:
            raise ValidationError(f"kind {kind} needs a positive measurement count m")
        m = int(m)
        a = sub_rng(seed, DOMAIN_INSTANCE, _A_MAT).standard_normal((m, n_out)) \
            / math.sqrt(m)
        noise_dim = m
    elif kind == "DEN":
        noise_dim = n_out
    else:
        noise_dim = None

    if noise_dim is not None:
        if eta is not None:
            eta = np.asarray(eta, dtype=np.float64)
            if eta.shape != (noise_dim,):
                raise ValidationError(f"eta must have length {noise_dim}")
            if not np.all(np.isfinite(eta)):
                raise ValidationError("eta contains non-finite entries")
        elif eta_norm is not None:
            eta_norm = float(eta_norm)
            if not (math.isfinite(eta_norm) and eta_norm >= 0.0):
                raise ValidationError("eta_norm must be finite and nonnegative")
            eta = sub_rng(seed, DOMAIN_INSTANCE, _ETA).standard_normal(noise_dim)
            eta *= eta_norm / np.linalg.norm(eta)
        elif sigma > 0.0:
            eta = sigma * sub_rng(seed, DOMAIN_INSTANCE, _ETA).standard_normal(noise_dim)
        else:
            eta = np.zeros(noise_dim)

    if kind == "CS":
        b = a @ y_star + eta
    elif kind == "PR":
        b = np.abs(a @ y_star) + eta
    elif kind == "DEN":
        b = y_star + eta
    elif kind == "SPIKED_WISHART":
        if n_samples is None or int(n_samples) < 1:
            raise ValidationError("SPIKED_WISHART needs a positive n_samples")
        n_samples = int(n_samples)
        u = sub_rng(seed, DOMAIN_INSTANCE, _SPIKE_U).standard_normal(n_samples)
        z = sub_rng(seed, DOMAIN_INSTANCE, _SPIKE_Z).standard_normal((n_samples, n_out))
        big_b = np.outer(u, y_star) + sigma * z
        raw = big_b.T @ big_b / n_samples - sigma ** 2 * np.eye(n_out)
        m_obs = (raw + raw.T) / 2.0
        b = None
    else:  # SPIKED_WIGNER
        s = sub_rng(seed, DOMAIN_INSTANCE, _SPIKE_H).standard_normal((n_out, n_out))
        h = (s + s.T) / math.sqrt(2.0)  # GOE: offdiag var 1, diag var 2
        raw = np.outer(y_star, y_star) + sigma * h
        m_obs = (raw + raw.T) / 2.0
        b = None

    return Instance(kind=kind, net=net, x_star=x_star, y_star=y_star, a=a, b=b,
                    m_obs=m_obs, eta=eta, sigma=sigma, n_samples=n_samples,
                    seed=int(seed))


def _evaluate(inst, x):
    """(loss, layer outputs, outer residual, A G(x) or None) from one sweep at x."""
    outs = forward(inst.net, x)
    g, ag = outs[-1], None
    if inst.kind in ("CS", "PR"):
        ag = inst.a @ g
        r = inst.b - (ag if inst.kind == "CS" else np.abs(ag))
    elif inst.kind == "DEN":
        r = inst.b - g
    else:
        r = inst.m_obs - np.outer(g, g)
    return 0.5 * float(np.sum(r * r)), outs, r, ag


def _subgradient_at(inst, outs, r, ag):
    """Lambda_x^T w from an _evaluate result, in one transposed sweep."""
    if inst.kind == "CS":
        w = inst.a.T @ (ag - inst.b)
    elif inst.kind == "PR":
        w = inst.a.T @ (np.sign(ag) * (np.abs(ag) - inst.b))
    elif inst.kind == "DEN":
        w = outs[-1] - inst.b
    else:
        w = -2.0 * r @ outs[-1]
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

    alpha = c_step 2^d / d^2; t_max = 0 is allowed and records only the
    starting point.  x0_mode 'gaussian_unit' draws a uniform unit latent
    from the solver sub-stream of seed; 'provided' uses x0.
    trace_stride > 0 stores every stride-th iterate in the trace.
    Equality compares x0 by value.
    """

    c_step: float = 0.2
    t_max: int = 1000
    rel_step_tol: float = 1e-12
    x0_mode: str = "gaussian_unit"
    x0: np.ndarray | None = None
    seed: int = 0
    trace_stride: int = 0

    def __post_init__(self):
        if not self.c_step > 0.0:
            raise ValidationError("c_step must be positive")
        if int(self.t_max) < 0:
            raise ValidationError("t_max must be >= 0")
        if self.rel_step_tol < 0.0:
            raise ValidationError("rel_step_tol must be nonnegative")
        if self.x0_mode not in ("gaussian_unit", "provided"):
            raise ValidationError(f"unknown x0_mode {self.x0_mode!r}")
        if self.x0_mode == "provided" and self.x0 is None:
            raise ValidationError("x0_mode 'provided' needs x0")
        if int(self.trace_stride) < 0:
            raise ValidationError("trace_stride must be >= 0")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.x0, other.x0) and all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self) if f.name != "x0")


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration record of a solve.

    Arrays are aligned: row t holds the post-negation iterate's loss and
    absolute errors; the last row is the final iterate x_T.  negations
    lists the iterations whose sign flip fired.  stop_reason is 't_max'
    or 'step_tol'.
    """

    iters: np.ndarray
    f: np.ndarray
    latent_err: np.ndarray
    signal_err: np.ndarray
    negated: np.ndarray
    negations: tuple
    n_steps: int
    alpha: float
    contraction: float
    stop_reason: str
    final_x: np.ndarray
    final_f: float
    final_latent_err: float
    final_signal_err: float
    final_rel_latent_err: float
    final_rel_signal_err: float
    stored_iterates: tuple = ()

    def csv_text(self):
        buf = io.StringIO()
        buf.write("iter,f,latent_err,signal_err,negated\n")
        for t, fv, le, se, ng in zip(self.iters, self.f, self.latent_err,
                                     self.signal_err, self.negated):
            buf.write(f"{int(t)},{float(fv)!r},{float(le)!r},{float(se)!r},{int(ng)}\n")
        return buf.getvalue()

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write(self.csv_text())


def _start_point(inst, cfg):
    if cfg.x0_mode == "provided":
        x0 = np.asarray(cfg.x0, dtype=np.float64)
        if x0.shape != (inst.net.k,) or not np.linalg.norm(x0) > 0.0:
            raise ValidationError("x0 must be a nonzero latent vector")
        return x0.copy()
    return unit_vector(sub_rng(cfg.seed, DOMAIN_X0, 0), inst.net.k)


def solve(inst, cfg):
    """Run negated subgradient descent; returns the SolveTrace.

    Raises DivergenceError naming the iteration if a loss, iterate or
    subgradient stops being finite.
    """
    d = inst.net.depth
    alpha = cfg.c_step * 2.0 ** d / d ** 2
    contraction = 1.0 - (7.0 / 8.0) * alpha / 2.0 ** d
    x = _start_point(inst, cfg)

    rows = []
    negations = []
    stored = []
    stop_reason = "t_max"
    steps = 0

    def record(t, x_cur, ev, neg):
        rows.append((t, ev[0], float(np.linalg.norm(x_cur - inst.x_star)),
                     float(np.linalg.norm(ev[1][-1] - inst.y_star)), neg))

    # overflow becomes inf, which the finiteness checks turn into errors
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(int(cfg.t_max)):
            ev = _evaluate(inst, x)
            ev_neg = _evaluate(inst, -x)
            if not (math.isfinite(ev[0]) and math.isfinite(ev_neg[0])):
                raise DivergenceError(t)
            neg = int(ev_neg[0] < ev[0])
            if neg:
                x, ev = -x, ev_neg
                negations.append(t)
            del ev_neg  # only the winner's residual stays alive
            record(t, x, ev, neg)
            if cfg.trace_stride > 0 and t % cfg.trace_stride == 0:
                stored.append((t, x.copy()))
            x_new = x - alpha * _subgradient_at(inst, *ev[1:])
            if not np.all(np.isfinite(x_new)):
                raise DivergenceError(t)
            small = np.linalg.norm(x_new - x) <= cfg.rel_step_tol * np.linalg.norm(x)
            x = x_new
            steps = t + 1
            if small:
                stop_reason = "step_tol"
                break
        ev = _evaluate(inst, x)
        if not math.isfinite(ev[0]):
            raise DivergenceError(steps)
        record(steps, x, ev, 0)

    arr = np.asarray(rows, dtype=np.float64)
    ns = float(np.linalg.norm(inst.x_star))
    ny = float(np.linalg.norm(inst.y_star))
    return SolveTrace(
        iters=arr[:, 0].astype(np.int64), f=arr[:, 1], latent_err=arr[:, 2],
        signal_err=arr[:, 3], negated=arr[:, 4].astype(np.int8),
        negations=tuple(negations), n_steps=steps, alpha=alpha,
        contraction=contraction, stop_reason=stop_reason, final_x=x,
        final_f=ev[0], final_latent_err=float(arr[-1, 2]),
        final_signal_err=float(arr[-1, 3]),
        final_rel_latent_err=float(arr[-1, 2]) / ns if ns > 0 else float("nan"),
        final_rel_signal_err=float(arr[-1, 3]) / ny if ny > 0 else float("nan"),
        stored_iterates=tuple(stored))


# ---------------------------------------------------------------------------
# instance persistence
# ---------------------------------------------------------------------------

_INST_MAGIC = b"GPINST1"


def _write_opt(f, arr):
    if arr is None:
        f.write(b"\x00")
        return
    f.write(b"\x01")
    a = np.ascontiguousarray(arr, dtype="<f8")
    np.asarray([a.ndim], dtype="<i4").tofile(f)
    np.asarray(a.shape, dtype="<i4").tofile(f)
    a.tofile(f)


def _read_opt(f):
    flag = _read_exact(f, 1, "presence flag")
    if flag == b"\x00":
        return None
    if flag != b"\x01":
        raise ValidationError("corrupt instance file (bad presence flag)")
    nd = int(np.frombuffer(_read_exact(f, 4, "array rank"), dtype="<i4")[0])
    if not 0 <= nd <= 2:
        raise ValidationError(f"corrupt instance file (array rank {nd})")
    shape = tuple(int(v) for v in
                  np.frombuffer(_read_exact(f, 4 * nd, "array shape"), dtype="<i4"))
    if any(n < 0 for n in shape):
        raise ValidationError(f"corrupt instance file (array shape {shape})")
    count = math.prod(shape)
    raw = _read_exact(f, 8 * count, "array data")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def save_instance(inst, path, net_path):
    """Persist an instance; the net goes to net_path in its own format."""
    save_net(inst.net, net_path)
    with open(path, "wb") as f:
        f.write(_INST_MAGIC)
        kind = inst.kind.encode().ljust(16, b"\x00")
        f.write(kind)
        np.asarray([inst.sigma], dtype="<f8").tofile(f)
        np.asarray([-1 if inst.n_samples is None else inst.n_samples,
                    inst.seed], dtype="<i8").tofile(f)
        for arr in (inst.x_star, inst.a, inst.b, inst.m_obs, inst.eta):
            _write_opt(f, arr)


def load_instance(path, net_path):
    net = load_net(net_path)
    with open(path, "rb") as f:
        if f.read(len(_INST_MAGIC)) != _INST_MAGIC:
            raise ValidationError(f"{path} is not an instance file")
        kind = _read_exact(f, 16, "kind").rstrip(b"\x00").decode(errors="replace")
        if kind not in KINDS:
            raise ValidationError(f"unknown kind {kind!r} in instance file")
        sigma = float(np.frombuffer(_read_exact(f, 8, "sigma"), dtype="<f8")[0])
        n_samples, seed = (int(v) for v in
                           np.frombuffer(_read_exact(f, 16, "n_samples"), dtype="<i8"))
        x_star = _read_opt(f)
        a = _read_opt(f)
        b = _read_opt(f)
        m_obs = _read_opt(f)
        eta = _read_opt(f)
    if x_star is None:
        raise ValidationError("instance file lacks x_star")
    return Instance(kind=kind, net=net, x_star=x_star,
                    y_star=forward(net, x_star)[-1], a=a, b=b, m_obs=m_obs,
                    eta=eta, sigma=sigma,
                    n_samples=None if n_samples < 0 else n_samples, seed=seed)
