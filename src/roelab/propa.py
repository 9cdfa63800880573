"""Averaging kernels with small variation, the Schur-multiplier smoothing map,
the commutator bound, the quantitative band-approximation theorem, and
Rademacher-field diagnostics."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .errors import (
    HypothesisViolated,
    KernelInvalid,
    NotAContraction,
)
from .operators import (
    EXACT_EPSPROP_MAX,
    Entries,
    SpaceOperator,
    eps_propagation_brackets,
    eps_propagation_violation,
    operator_norm,
)
# interval_space is unused here, but perfbench/tracer.py wraps propa.interval_space
from .spaces import FiniteMetricSpace, growth, interval_space

# rademacher_diagnostics takes its Lipschitz max over this many close pairs at a time
LIP_PAIRS = 32
# _overlaps gathers at most this many 64-bit support words at a time
OVERLAP_WORDS = 1 << 16


@dataclass(frozen=True)
class PropertyAKernel:
    """The uniform-ball kernel mu_x = 1_{B_x} / |B_x|, B_x = Ball(x, S), proved
    to have ||mu_x - mu_y||_1 < delta whenever dist(x, y) <= R: the one place
    where propa proves kernel facts, which the field and phi_nu then trust.

    Each mu_x is a probability vector on B_x, which holds x, by construction.
    For a close pair let m = max(|B_x|, |B_y|) = |B_x| say, and
    ov = |B_x & B_y|. Summing |mu_x - mu_y| over B_x & B_y, B_x - B_y and
    B_y - B_x gives ov (1/|B_y| - 1/m) + (m - ov)/m + (|B_y| - ov)/|B_y|, so

        ||mu_x - mu_y||_1 = 2 (m - ov) / m,

    and the kernel is proved iff 2 (m - ov) < delta m on every close pair.
    Both sides are exact: m and ov are integer bit counts of the packed
    supports, taken only on close pairs x < y of distinct supports (equal
    supports have variation 0 < delta), and delta m is compared in floats
    wherever the two sides differ by more than its rounding, else in
    Fraction(delta). So a variation exactly equal to delta is rejected, as
    the strict bound asks, whatever a float sum of the row would read.

    The dense n x n kernel mu is built only on first use.
    """

    space: FiniteMetricSpace
    S: float
    delta: float
    R: float
    # B_x as bit rows, little-endian in 64-bit words (zero-padded to whole words)
    supports: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _support_radius(self.R, self.delta)
        n = self.space.n
        words = np.zeros((n, -(-n // 64)), np.uint64)
        words.view(np.uint8)[:, : -(-n // 8)] = np.packbits(self.space.near(self.S), axis=1, bitorder="little")
        object.__setattr__(self, "supports", words)
        pair = self._first_reaching_delta()
        if pair is not None:
            raise KernelInvalid(f"variation at pair {pair} is not below delta={self.delta}")

    @cached_property
    def sizes(self) -> np.ndarray:
        """|B_x| for each x."""
        return np.bitwise_count(self.supports).sum(axis=1, dtype=np.int64)

    @cached_property
    def mu(self) -> np.ndarray:
        """mu[x, z] = mu_x(z), the dense kernel."""
        packed = self.supports.view(np.uint8)
        within = np.unpackbits(packed, axis=1, count=self.space.n, bitorder="little").view(bool)
        return within / within.sum(axis=1, keepdims=True)

    def _first_reaching_delta(self):
        """The first close pair (x, y), x < y, with 2 (m - ov) >= delta m, or None."""
        words = self.supports
        n = len(words)
        # one number per distinct support: a lexicographic sort of the packed rows
        order = np.lexsort(words.T)
        ranked = words[order]
        fresh = np.ones(n, bool)
        fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        ids = np.empty(n, np.intp)
        ids[order] = np.cumsum(fresh)
        if not fresh[1:].any():  # one support (balls covering the space): no pair varies,
            return None  # and near(R) would list about n^2 close pairs to drop
        x, y = np.nonzero(self.space.near(self.R))
        x, y = np.compress((y > x) & (ids[x] != ids[y]), [x, y], axis=1)
        m = np.maximum(self.sizes[x], self.sizes[y])
        twice_gap = 2 * (m - _overlaps(words, x, y))
        product = self.delta * m
        reach = twice_gap >= product
        # fl(delta m) lies within 2^-53 delta m of delta m unless it underflows, and
        # then 2 (m - ov) >= 2 (the supports differ) is far above it: floats
        # decide every pair off this band
        for i in np.flatnonzero(np.abs(twice_gap - product) <= product * 2.0 ** -52):
            reach[i] = int(twice_gap[i]) >= Fraction(self.delta) * int(m[i])
        hits = np.flatnonzero(reach)
        return (int(x[hits[0]]), int(y[hits[0]])) if hits.size else None


def _overlaps(words, x, y) -> np.ndarray:
    """|supp x & supp y| for each pair (x[i], y[i]) of packed support rows,
    counted exactly by np.bitwise_count, OVERLAP_WORDS words at a time."""
    out = np.empty(len(x), np.int64)
    step = max(1, OVERLAP_WORDS // words.shape[1])
    for lo in range(0, len(x), step):
        pair = slice(lo, lo + step)
        out[pair] = np.bitwise_count(words[x[pair]] & words[y[pair]]).sum(axis=1)
    return out


def _support_radius(R, delta) -> int:
    """S = ceil(2R/delta), the ball radius of the uniform kernel for (delta, R)."""
    # written negated so that NaN fails too
    if not R >= 0:
        raise ValueError("radius must be nonnegative")
    if not delta > 0:
        raise ValueError("delta must be positive")
    if delta == math.inf:  # S would be 0, and no exact delta m compares with it
        raise ValueError("delta must be finite")
    ratio = 2.0 * R / delta
    if ratio == math.inf:  # an infinite R, or a delta too small for a float S
        raise ValueError(f"support radius 2R/delta = 2 * {R} / {delta} is not finite")
    return int(math.ceil(ratio))


def uniform_ball_kernel(space: FiniteMetricSpace, R, delta: float) -> PropertyAKernel:
    """mu_x uniform on Ball(x, S), S = _support_radius(R, delta), truncated to the space.

    Away from the boundary two balls at distance d <= R overlap in all but
    d of their 2S + 1 points, so the variation is 2d / (2S + 1) < delta;
    PropertyAKernel proves every close pair, truncated boundary balls
    included, from its closed form.
    """
    S = _support_radius(R, delta)
    return PropertyAKernel(space=space, S=S, delta=delta, R=R)


def isometry_field(nu: PropertyAKernel) -> np.ndarray:
    """The field of square roots f_z = nu_.(z)^(1/2) as the dense n x n array
    F[z, x] = nu_x(z)^(1/2) = 1_{B_x}(z) / sqrt|B_x|. Only rademacher_diagnostics
    builds it: phi_nu works from the kernel's packed supports. Nothing is
    re-checked, since the proved kernel nu gives each property:
    - unit columns: sum_z F[z, x]^2 = sum_z nu_x(z) = 1;
    - support within T = S: F[z, x] > 0 only on B_x = Ball(x, S);
    - for dist(x, y) <= R, ||F_x - F_y||^2 <= ||nu_x - nu_y||_1 < delta,
      since (sqrt a - sqrt b)^2 <= |a - b| for a, b >= 0, term by term.
    """
    return np.sqrt(nu.mu.T)


def kernel_chain(space: FiniteMetricSpace, R, delta: float) -> tuple:
    """The two kernel stages on a space: mu for (delta, R), and nu for
    (delta, S), S the support radius of mu, whose square roots are the
    isometry field. Returns (mu, nu)."""
    mu = uniform_ball_kernel(space, R, delta)
    return mu, uniform_ball_kernel(space, mu.S, delta)


def phi_nu(u: SpaceOperator, nu: PropertyAKernel) -> SpaceOperator:
    """Schur multiplication by the Gram kernel k(x, y) = sum_z f_z(x) f_z(y) of
    nu's isometry field, that is, sum_z f_z u f_z.

    With f_z(x) = 1_{B_x}(z) / sqrt|B_x| for the balls B_x of the kernel,
    k has the closed form

        k(x, y) = |B_x & B_y| / sqrt(|B_x| |B_y|),

    taken on u's nonzero entries only, from exact integer overlap counts of
    the packed supports. The result lists exactly u's entry positions, in
    u's order, a 0 where k is; sz_approximate relies on that. So:
    - unital exactly: k(x, x) = |B_x| / sqrt(|B_x|^2) = 1.0, since the square
      root of an exact square is exact; likewise k(x, y) = 1.0 wherever
      B_x = B_y, so phi_nu(u) = u when every ball is the whole space;
    - positive semidefinite, being the Gram matrix of the unit vectors
      1_{B_x} / sqrt|B_x|; hence hermiticity- and positivity-preserving;
    - propagation at most 2T unmasked: beyond 2T the balls of radius T are
      disjoint, the count is 0 and k(x, y) is exactly 0.
    """
    if u.space.n != nu.space.n:
        raise KernelInvalid("operator and kernel live on different spaces")
    size = nu.sizes
    e = u.entries
    k = _overlaps(nu.supports, e.rows, e.cols) / np.sqrt(size[e.rows] * size[e.cols])
    return SpaceOperator(u.space, Entries(e.shape, e.rows, e.cols, e.vals * k))


def _validate_eps_propagation(u: SpaceOperator, eps: float, R, seed: int = 0) -> str:
    """Check that u has eps-propagation at most R; returns the method used."""
    if u.tail_bound(R) <= eps:
        return "truncation-tail"
    if u.space.n <= EXACT_EPSPROP_MAX:
        witness = eps_propagation_violation(u, eps, R)
        if witness is not None:
            raise HypothesisViolated(f"rectangle of separation > R={R} has norm above eps (witness {witness})")
        return "exact-scan"
    res = eps_propagation_brackets(u, [eps], seed=seed, budget=300)[0]
    if res.lower > R:
        raise HypothesisViolated(
            f"found rectangle of separation {res.lower} with norm above eps (witness {res.witness})"
        )
    return "heuristic-search"


def commutator_bound_check(u: SpaceOperator, h, R, delta: float, eps: float) -> dict:
    """Verify ||[h, u]|| <= 4 delta ||u|| + 2 eps / delta for slowly varying diagonal h."""
    h = np.asarray(h, dtype=np.float64)
    # a NaN fails every comparison below, and surfaced as an SVD that did not converge
    if not np.isfinite(h).all():
        raise ValueError("h must be finite")
    space = u.space
    if h.shape != (space.n,):
        raise ValueError("h must be a real diagonal over the space")
    if np.any(h < -1e-12) or np.any(h > 1 + 1e-12):
        raise HypothesisViolated("h must take values in [0, 1]")
    x, y = np.nonzero(space.near(R))
    jump = np.abs(h[x] - h[y])
    steep = np.flatnonzero(jump > delta + 1e-12)
    if steep.size:
        i = steep[0]
        raise HypothesisViolated(f"|h({x[i]}) - h({y[i]})| = {jump[i]:.6g} > delta at distance <= R")
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
    approximation. The report flags that case as support_covers_space. A
    bound of at least 2 says nothing either: Schur multiplication by the
    unit-diagonal PSD Gram kernel is a contraction, so ||u - phi_nu(u)|| <= 2
    for every contraction u. `vacuous` flags either case. When every T-ball
    is the whole space, every Gram entry is exactly 1.0, phi_nu(u) = u, and
    the error is exactly 0.0.

    The contraction check compares the value of u.norm(): the pair that
    SpaceOperator.normalised carried, else a fresh operator_norm.
    """
    # an infinite eps would make S = T = 0 and the bound infinite: a vacuous PASS
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    norm_u, _ = u.norm()
    if norm_u > 1 + 1e-9:
        raise NotAContraction(f"||u|| = {norm_u:.6g} exceeds 1")
    method = _validate_eps_propagation(u, eps, R, seed=seed)
    delta = math.sqrt(eps)
    space = u.space
    mu, nu = kernel_chain(space, R, delta)
    approx = phi_nu(u, nu)
    # u - phi_nu(u) vanishes off u's positions, which phi_nu keeps, so it is taken there alone
    e = u.entries
    diff = e.vals - approx.entries.vals
    live = diff != 0
    error, error_err = 0.0, 0.0
    if live.any():
        error, error_err = operator_norm(Entries(e.shape, e.rows[live], e.cols[live], diff[live]), with_err=True)
    bound = 18.0 * eps ** 0.25
    covers = bool(2 * nu.S >= space.diameter)
    report = {
        "eps": eps,
        "R": R,
        "delta": delta,
        "S": mu.S,
        "T": nu.S,
        "error": error,
        "bound": bound,
        "holds": bool(error + error_err < bound),
        "slack": bound - error,
        "support_covers_space": covers,
        "propagation_check": method,
        "vacuous": bound >= 2 or covers,
    }
    return approx, error, report


def _mean_se(x: np.ndarray) -> tuple:
    """Column means of the samples x (one row per trial) and their standard errors."""
    return x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(x.shape[0])


def _bonferroni_z(k: float, n: int) -> float:
    """The threshold z with P(Z > z) = P(Z > k) / n, Z standard normal: a
    k-sigma test run at n points at once, corrected (Bonferroni) so that the n
    of them together fail correct data no more often than one test at k does.
    z(k, 1) = k, and z grows with n."""
    normal = NormalDist()
    return -normal.inv_cdf(normal.cdf(-k) / n)


def rademacher_diagnostics(
    nu: PropertyAKernel, mu: PropertyAKernel, trials: int, seed: int, u: SpaceOperator
) -> dict:
    """Moment and perturbation diagnostics for the sign-field analysis.

    Closed-form fourth moments, Monte Carlo second moments, truncation and
    smoothing mean-square errors against their bounds, the per-sample
    Lipschitz estimate, and the convergence of the empirical average of
    f u f to the Schur-multiplier image. The Monte Carlo checks test every
    point at once, so each allows _bonferroni_z(k, n) standard errors at
    every one of the n points, not k.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if mu.space.n != nu.space.n:
        raise KernelInvalid("smoothing kernel must live on the field's space")
    space = nu.space
    n = space.n
    delta = nu.delta
    F = isometry_field(nu)
    C = delta ** -0.5
    rng = np.random.default_rng(seed)
    signs = (rng.integers(0, 2, size=(trials, n)) * 2 - 1).astype(np.float64)
    f = signs @ F  # f_w = sum_z w_z f_z, one row per sign vector w
    g = np.clip(f, -C, C)
    h = g @ mu.mu.T  # h(x) = sum_z mu_x(z) g(z)

    sup_bound = math.sqrt(growth(space, nu.S))
    sup_ok = bool(np.abs(f).max() <= sup_bound + 1e-9)

    z3, z4 = _bonferroni_z(3, n), _bonferroni_z(4, n)
    power = f ** 2
    second, second_se = _mean_se(power)
    second_ok = bool(np.all(np.abs(second - 1.0) <= z3 * second_se))

    fourth_closed = 3.0 - 2.0 * (F ** 4).sum(axis=0)
    # f^4 as the square of f^2, in place: no libm pow, and no second array
    fourth_emp, fourth_se = _mean_se(np.square(power, out=power))
    del power  # freed before the arrays below, so the peak does not grow
    fourth_ok = bool(np.all(fourth_closed <= 3.0 + 1e-12))
    fourth_mc_ok = bool(np.all(np.abs(fourth_emp - fourth_closed) <= z4 * fourth_se))

    trunc_emp, trunc_se = _mean_se((f - g) ** 2)
    trunc_bound = 3.0 / C ** 2
    trunc_ok = bool(np.all(trunc_emp <= trunc_bound + z3 * trunc_se + 1e-12))

    smooth_emp, smooth_se = _mean_se((g - h) ** 2)
    smooth_ok = bool(np.all(smooth_emp <= delta + z3 * smooth_se + 1e-12))

    h_sup_ok = bool(np.abs(h).max() <= C + 1e-12)
    close = np.argwhere(space.near(mu.R) & ~np.eye(n, dtype=bool))
    lip = 0.0
    # LIP_PAIRS pairs at a time, so that no trials x |close| array is gathered
    for start in range(0, len(close), LIP_PAIRS):
        x, y = close[start : start + LIP_PAIRS].T
        lip = float(np.maximum(lip, np.abs(h[:, x] - h[:, y]).max()))
    lip_ok = bool(lip <= C * delta + 1e-9)

    emp = u.mat * (f.T @ f / trials)
    return {
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
        "reconstruction_gap": operator_norm(emp - phi_nu(u, nu).mat),
    }
