"""Averaging kernels with small variation, the Schur-multiplier smoothing map,
the commutator bound, the quantitative band-approximation theorem, and
Rademacher-field diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisViolated,
    KernelInvalid,
    NotAContraction,
)
from .operators import (
    EXACT_BAND_DIST_MAX,
    SpaceOperator,
    eps_propagation_radius,
    eps_propagation_violation,
    operator_norm,
)
# interval_space is unused here, but perfbench/tracer.py wraps propa.interval_space
from .spaces import FiniteMetricSpace, growth, interval_space

ROW_TOL = 1e-12
# above the rounding of a per-row variation sum and the ROW_TOL slack of a
# row's mass, so the closed form never hides a pair the sums would reject
VARIATION_SLACK = 1e-9


@dataclass(frozen=True)
class PropertyAKernel:
    """Row-stochastic kernel mu with supp mu_x in Ball(x, S) and
    ||mu_x - mu_y||_1 < delta whenever dist(x, y) <= R: the one place where
    propa proves kernel facts, which the field and phi_nu then trust."""

    space: FiniteMetricSpace
    mu: np.ndarray  # mu[x, z]
    S: float
    delta: float
    R: float

    def __post_init__(self):
        validate_kernel(self.space, self.mu, self.S, self.delta, self.R)


def validate_kernel(space, mu, S, delta, R) -> None:
    mu = np.asarray(mu)
    n = space.n
    if mu.shape != (n, n):
        raise KernelInvalid("kernel must be a square row-stochastic array over the space")
    # every comparison with NaN is False, so the checks below would pass it
    if not np.isfinite(mu).all():
        raise KernelInvalid("kernel entries must be finite")
    if np.any(mu < 0):
        raise KernelInvalid("kernel rows must be nonnegative")
    if np.abs(mu.sum(axis=1) - 1.0).max() > ROW_TOL:
        raise KernelInvalid("kernel rows must sum to 1")
    if np.any((mu > 0) & ~space.near(S)):
        raise KernelInvalid(f"kernel support leaves the radius-{S} balls")
    close_mask = space.near(R) & ~np.eye(n, dtype=bool)
    for x in _rows_to_sum(mu, close_mask, delta):
        ys = np.flatnonzero(close_mask[x])
        if ys.size == 0:
            continue
        variations = np.abs(mu[ys] - mu[x]).sum(axis=1)
        worst = int(np.argmax(variations))
        if variations[worst] >= delta:
            raise KernelInvalid(
                f"variation at pair ({x},{ys[worst]}) is not below delta={delta}"
            )


def _rows_to_sum(mu, close_mask, delta):
    """Rows x whose variations ||mu_x - mu_y||_1 over close y need summing.

    All rows, unless every row of mu is uniform on its support. Then
    ||mu_x - mu_y||_1 = 2 - 2 |supp x & supp y| / max(|supp x|, |supp y|),
    with the overlap counts from one GEMM of the 0/1 supports (exact for
    integers), and only rows whose worst close pair comes within
    VARIATION_SLACK of delta are left, so a tie is decided by the sums.
    """
    support = mu > 0
    if not np.all((mu == mu.max(axis=1, keepdims=True)) | ~support):
        return range(mu.shape[0])
    ind = support.astype(np.float64)
    size = ind.sum(axis=1)
    closed = 2.0 - 2.0 * (ind @ ind.T) / np.maximum(size[:, None], size[None, :])
    worst = np.where(close_mask, closed, -np.inf).max(axis=1)
    return np.flatnonzero(worst >= delta - VARIATION_SLACK)


def _support_radius(R, delta) -> int:
    """S = ceil(2R/delta), the ball radius of the uniform kernel for (delta, R)."""
    # written negated so that NaN fails too
    if not R >= 0:
        raise ValueError("radius must be nonnegative")
    if not delta > 0:
        raise ValueError("delta must be positive")
    ratio = 2.0 * R / delta
    if ratio == math.inf:  # an infinite R, or a delta too small for a float S
        raise ValueError(f"support radius 2R/delta = 2 * {R} / {delta} is not finite")
    return int(math.ceil(ratio))


def uniform_ball_kernel(space: FiniteMetricSpace, R, delta: float) -> PropertyAKernel:
    """mu_x uniform on Ball(x, S), S = _support_radius(R, delta), truncated to the space.

    For pairs at distance <= R the overlap of the two balls keeps the total
    variation below 2 dist / (2S+1) <= delta; boundary rows renormalize the
    truncated ball and are covered by validate_kernel, which checks every
    close pair.
    """
    S = _support_radius(R, delta)
    within = space.near(S)
    mu = within / within.sum(axis=1, keepdims=True)
    return PropertyAKernel(space=space, mu=mu, S=S, delta=delta, R=R)


@dataclass(frozen=True)
class IsometryField:
    """Square roots f_z = nu_.(z)^(1/2) of a kernel, viewed as multiplication
    operators; built only by isometry_field."""

    kernel: PropertyAKernel
    F: np.ndarray  # F[z, x] = nu_x(z)^(1/2)

    @property
    def T(self) -> float:
        return self.kernel.S

    @property
    def space(self) -> FiniteMetricSpace:
        return self.kernel.space

    @property
    def delta(self) -> float:
        return self.kernel.delta

    def gram(self) -> np.ndarray:
        """k(x, y) = sum_z f_z(x) f_z(y); unit diagonal, psd, support within 2T."""
        return self.F.T @ self.F


def isometry_field(nu: PropertyAKernel) -> IsometryField:
    """The field F[z, x] = nu_x(z)^(1/2); nothing is re-checked, since the
    validated kernel nu proves each property:
    - unit columns: sum_z F[z, x]^2 = sum_z nu_x(z) = 1;
    - support within T = S: F[z, x] > 0 only where nu_x(z) > 0;
    - for dist(x, y) <= R, ||F_x - F_y||^2 <= ||nu_x - nu_y||_1 < delta,
      since (sqrt a - sqrt b)^2 <= |a - b| for a, b >= 0, term by term.
    """
    return IsometryField(kernel=nu, F=np.sqrt(nu.mu.T))


def kernel_chain(space: FiniteMetricSpace, R, delta: float) -> tuple:
    """The two kernel stages on a space: mu for (delta, R), and the field of
    nu for (delta, S), S the support radius of mu. Returns (mu, field)."""
    mu = uniform_ball_kernel(space, R, delta)
    return mu, isometry_field(uniform_ball_kernel(space, mu.S, delta))


def phi_nu(u: SpaceOperator, field: IsometryField) -> SpaceOperator:
    """Schur multiplication by the field's Gram kernel: sum_z f_z u f_z.

    Unital, hermiticity- and positivity-preserving. The output propagation is
    at most 2T unmasked: beyond 2T each term f_z(x) f_z(y) of k(x, y) has an
    exact zero factor and the other is finite, so k(x, y) is exactly 0.
    """
    if u.space.n != field.space.n:
        raise KernelInvalid("operator and field live on different spaces")
    return SpaceOperator(space=u.space, mat=u.mat * field.gram())


def _validate_eps_propagation(u: SpaceOperator, eps: float, R, seed: int = 0) -> str:
    """Check that u has eps-propagation at most R; returns the method used."""
    if u.tail_bound(R) <= eps:
        return "truncation-tail"
    if u.space.n <= EXACT_BAND_DIST_MAX:
        witness = eps_propagation_violation(u, eps, R)
        if witness is not None:
            raise HypothesisViolated(f"rectangle of separation > R={R} has norm above eps (witness {witness})")
        return "exact-scan"
    res = eps_propagation_radius(u, eps, mode="heuristic", seed=seed, budget=300)
    if res.lower > R:
        raise HypothesisViolated(
            f"found rectangle of separation {res.lower} with norm above eps (witness {res.witness})"
        )
    return "heuristic-search"


def commutator_bound_check(u: SpaceOperator, h, R, delta: float, eps: float) -> dict:
    """Verify ||[h, u]|| <= 4 delta ||u|| + 2 eps / delta for slowly varying diagonal h."""
    h = np.asarray(h, dtype=np.float64)
    space = u.space
    if h.shape != (space.n,):
        raise ValueError("h must be a real diagonal over the space")
    if np.any(h < -1e-12) or np.any(h > 1 + 1e-12):
        raise HypothesisViolated("h must take values in [0, 1]")
    close = np.argwhere(space.near(R) & ~np.eye(space.n, dtype=bool))
    for x, y in close:
        if abs(h[x] - h[y]) > delta + 1e-12:
            raise HypothesisViolated(
                f"|h({x}) - h({y})| = {abs(h[x] - h[y]):.6g} > delta at distance <= R"
            )
    method = _validate_eps_propagation(u, eps, R)
    norm_u = operator_norm(u.mat)
    comm = h[:, None] * u.mat - u.mat * h[None, :]
    comm_norm, comm_err = operator_norm(comm, with_err=True)
    bound = 4.0 * delta * norm_u + 2.0 * eps / delta + 1e-9
    return {
        "commutator_norm": comm_norm,
        "bound": bound,
        "holds": bool(comm_norm + comm_err <= bound),
        "slack": bound - comm_norm,
        "norm_u": norm_u,
        "propagation_check": method,
    }


def sz_approximate(u: SpaceOperator, eps: float, R, seed: int = 0) -> tuple:
    """Approximate a contraction of eps-propagation <= R by a band operator.

    Two kernel stages with delta = sqrt(eps): mu for (delta, R), nu for
    (delta, S). The output is the Gram-kernel Schur multiple of u, has
    propagation <= 2T, and its distance to u must stay below 18 eps^(1/4).
    At desk scale the ball radii S and T routinely exceed the diameter; the
    truncated balls remain valid kernels, but when 2T >= diameter every
    operator has propagation <= 2T and the bound says nothing about band
    approximation. The report flags that case as support_covers_space.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    norm_u = operator_norm(u.mat)
    if norm_u > 1 + 1e-9:
        raise NotAContraction(f"||u|| = {norm_u:.6g} exceeds 1")
    _validate_eps_propagation(u, eps, R, seed=seed)
    delta = math.sqrt(eps)
    space = u.space
    mu, field = kernel_chain(space, R, delta)
    approx = phi_nu(u, field)
    error, error_err = operator_norm(u.mat - approx.mat, with_err=True)
    bound = 18.0 * eps ** 0.25
    report = {
        "eps": eps,
        "R": R,
        "delta": delta,
        "S": mu.S,
        "T": field.T,
        "error": error,
        "bound": bound,
        "holds": bool(error + error_err < bound),
        "slack": bound - error,
        "support_covers_space": bool(2 * field.T >= space.diameter),
    }
    return approx, error, report


def _mean_se(x: np.ndarray) -> tuple:
    """Column means of the samples x (one row per trial) and their standard errors."""
    return x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(x.shape[0])


def rademacher_diagnostics(
    field: IsometryField,
    mu: PropertyAKernel,
    trials: int,
    seed: int,
    u: SpaceOperator | None = None,
) -> dict:
    """Moment and perturbation diagnostics for the sign-field analysis.

    Closed-form fourth moments, Monte Carlo second moments, truncation and
    smoothing mean-square errors against their bounds, the per-sample
    Lipschitz estimate, and (optionally) convergence of the empirical
    average of f u f to the Schur-multiplier image.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if mu.space.n != field.space.n:
        raise KernelInvalid("smoothing kernel must live on the field's space")
    space = field.space
    n = space.n
    delta = field.delta
    C = delta ** -0.5
    rng = np.random.default_rng(seed)
    signs = (rng.integers(0, 2, size=(trials, n)) * 2 - 1).astype(np.float64)
    f = signs @ field.F  # f_w = sum_z w_z f_z, one row per sign vector w
    g = np.clip(f, -C, C)
    h = g @ mu.mu.T  # h(x) = sum_z mu_x(z) g(z)

    sup_bound = math.sqrt(growth(space, field.T))
    sup_ok = bool(np.abs(f).max() <= sup_bound + 1e-9)

    second, second_se = _mean_se(f ** 2)
    second_ok = bool(np.all(np.abs(second - 1.0) <= 3 * second_se))

    fourth_closed = 3.0 - 2.0 * (field.F ** 4).sum(axis=0)
    fourth_emp, fourth_se = _mean_se(f ** 4)
    fourth_ok = bool(np.all(fourth_closed <= 3.0 + 1e-12))
    fourth_mc_ok = bool(np.all(np.abs(fourth_emp - fourth_closed) <= 4 * fourth_se))

    trunc_emp, trunc_se = _mean_se((f - g) ** 2)
    trunc_bound = 3.0 / C ** 2
    trunc_ok = bool(np.all(trunc_emp <= trunc_bound + 3 * trunc_se + 1e-12))

    smooth_emp, smooth_se = _mean_se((g - h) ** 2)
    smooth_ok = bool(np.all(smooth_emp <= delta + 3 * smooth_se + 1e-12))

    h_sup_ok = bool(np.abs(h).max() <= C + 1e-12)
    close = np.argwhere(space.near(mu.R) & ~np.eye(n, dtype=bool))
    lip = 0.0
    if close.size:
        lip = float(np.abs(h[:, close[:, 0]] - h[:, close[:, 1]]).max())
    lip_ok = bool(lip <= C * delta + 1e-9)

    out = {
        "trials": trials,
        "seed": seed,
        "sup_bound_ok": sup_ok,
        "second_moment_ok": second_ok,
        "second_moment_max_dev": float(np.abs(second - 1.0).max()),
        "fourth_closed_max": float(fourth_closed.max()),
        "fourth_closed_ok": fourth_ok,
        "fourth_mc_ok": fourth_mc_ok,
        "truncation_mean_square_max": float(trunc_emp.max()),
        "truncation_bound": trunc_bound,
        "truncation_ok": trunc_ok,
        "smoothing_mean_square_max": float(smooth_emp.max()),
        "smoothing_bound": delta,
        "smoothing_ok": smooth_ok,
        "h_sup_ok": h_sup_ok,
        "lipschitz_max": lip,
        "lipschitz_bound": C * delta,
        "lipschitz_ok": lip_ok,
    }
    if u is not None:
        emp_gram = f.T @ f / trials
        emp = u.mat * emp_gram
        target = phi_nu(u, field).mat
        out["reconstruction_gap"] = operator_norm(emp - target)
    return out
