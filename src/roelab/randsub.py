"""Random subspaces of R^d and Monte Carlo checks of restricted projection norms."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .operators import first_largest, largest_candidates, sigma_max_stack

# restricted_norm_max scans every subset up to this many, and searches greedily above
EXACT_AFFORDABLE = 20_000
SUBSET_CELLS = 1 << 18
_SWAP_CAP = 500


def formal_bound(delta: float, c0: float) -> float:
    """c0 * sqrt(delta log(1/delta)); the certified threshold for restricted norms."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not c0 > 0:
        raise ValueError("c0 must be positive")
    return c0 * math.sqrt(delta * math.log(1.0 / delta))


def vacuous_threshold(eps: float) -> bool:
    """True when no restricted projection norm (at most 1) can reach eps. At
    eps = 1 a norm of 1 still fails `< eps`, so that threshold is not vacuous."""
    return eps > 1.0 + 1e-9


def trial_seed(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator; order-independent aggregation."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), int(index)]))


@dataclass(frozen=True)
class SubspaceSample:
    d: int
    n: int
    vectors: np.ndarray  # (n, d) unit rows, the sampled sphere points
    basis: np.ndarray  # (d, n) orthonormal columns spanning the subspace
    seed: int


def sample_subspace(d: int, n: int, seed: int) -> SubspaceSample:
    """Span of n independent uniform points on the unit sphere of R^d, drawn
    once; the basis is their Q factor. A zero Gaussian row or a
    rank-deficient frame (probability zero, drawn by no seed) fails the rank
    check on R, which NaN fails too, and raises RankDeficient."""
    if not 1 <= n < d:
        raise ValueError("need 1 <= n < d")
    g = np.random.default_rng(seed).standard_normal((n, d))
    x = g / np.linalg.norm(g, axis=1)[:, None]
    q, r = np.linalg.qr(x.T)
    if not np.all(np.abs(np.diag(r)) >= 1e-10):
        raise RankDeficient(f"the {n} sampled points span less than {n} dimensions of R^{d}")
    return SubspaceSample(d=d, n=n, vectors=x, basis=q, seed=seed)


@dataclass(frozen=True)
class RestrictedNormReport:
    delta: float
    k: int
    mode: str
    value: float
    E_witness: tuple


def _forward_select(basis: np.ndarray, k: int) -> list:
    """Deterministic forward selection: add the row maximizing the restricted norm."""
    d = basis.shape[0]
    E: list = []
    remaining = list(range(d))
    for _ in range(k):
        trials = np.empty((len(remaining), len(E) + 1), dtype=np.intp)
        trials[:, :-1] = E
        trials[:, -1] = remaining
        vals = sigma_max_stack(basis[trials])
        j = int(np.argmax(vals))
        E.append(remaining.pop(j))
    return E


def _hill_climb(basis: np.ndarray, E0: list) -> tuple:
    """Best-improvement single-swap ascent from a starting subset, capped swaps."""
    d = basis.shape[0]
    k = len(E0)
    E = list(E0)
    taken = set(E)
    out = [i for i in range(d) if i not in taken]
    best_val = float(sigma_max_stack(basis[np.array(E)][None])[0])
    swaps = 0
    improved = True
    while improved and swaps < _SWAP_CAP:
        improved = False
        for a in range(k):
            trials = np.tile(np.array(E, dtype=np.intp), (len(out), 1))
            trials[:, a] = out
            vals = sigma_max_stack(basis[trials])
            j = int(np.argmax(vals))
            if vals[j] > best_val + 1e-12:
                out_elem = out[j]
                out[j] = E[a]
                E[a] = out_elem
                best_val = float(vals[j])
                swaps += 1
                improved = True
                if swaps >= _SWAP_CAP:
                    break
    return best_val, E


def subset_grams(F: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(c, r, r) stack of F[A]^* F[A] = sum over a in A of f_a f_a^*, f_a the
    conjugated row a of the d x r factor F and A the True entries of each
    boolean row of `rows` (c, d): one GEMM of the rows against the flattened
    outer products f_a f_a^*; _subset_bounds and quasilocal both read it."""
    d, r = F.shape
    outer = (F.conj()[:, :, None] * F[:, None, :]).reshape(d, r * r)
    return (rows.astype(outer.dtype) @ outer).reshape(len(rows), r, r)


def _subset_bounds(basis: np.ndarray, k: int):
    """E -> (lower, upper) of ||basis[E[i]]|| for each row of a (c, k) index
    array E, the bounds of largest_candidates' premise.

    With G the Gram of basis[E] on its smaller side, ||basis[E]||^2 =
    lambda_max(G). G is Hermitian PSD with eigenvalues l_j, so
    ||G||_F^2 / tr G = sum l_j^2 / sum l_j <= lambda_max(G), and
    lambda_max(G) is at most ||G||_F and, by Gershgorin, the largest row sum
    of |G|. G is k x k where k <= n, the (E, E) block of the d x d row Gram,
    and else n x n, subset_grams of the rows in E: a gather or one GEMM per
    chunk. tr G is the sum of the rows' squared norms
    either way. An entry of G is a sum of products; its error is at most
    O(k n eps_mach) times the product of two row norms, which is at most
    lambda_max(G), so each bound is computed to a relative O(k n eps_mach),
    but for products below the normal range, which are off by up to 2^-1074
    each, and so the sums by less than tiny = 2^-1022: lower takes tiny off
    ||G||_F^2 and adds it to tr G, and upper adds it to both of its sums, so
    that each is off its exact bound by no more than the relative rounding.
    A zero basis[E] gives lower 0.
    """
    d, n = basis.shape
    leverage = np.einsum("ij,ij->i", basis.conj(), basis).real
    if k <= n:
        gram = np.abs(basis @ basis.conj().T)

        def abs_gram(E):
            return gram[E[:, :, None], E[:, None, :]]

    else:

        def abs_gram(E):
            rows = np.zeros((len(E), d), dtype=bool)
            np.put_along_axis(rows, E, True, axis=1)
            return np.abs(subset_grams(basis, rows))

    tiny = np.finfo(float).tiny

    def bounds(E):
        g = abs_gram(E)
        f2 = (g * g).sum(axis=(1, 2))
        lower = np.sqrt(np.maximum(f2 - tiny, 0.0) / (leverage[E].sum(axis=1) + tiny))
        return lower, np.sqrt(np.minimum(np.sqrt(f2 + tiny), g.sum(axis=2).max(axis=1) + tiny))

    return bounds


def _exact_max(basis: np.ndarray, k: int) -> tuple:
    """(value, E) maximising ||basis[E]|| over all k-subsets, in chunks of at
    most SUBSET_CELLS gathered entries, updated by operators.first_largest.

    Each chunk is bounded first (_subset_bounds), and one LAPACK pass norms
    only the subsets that operators.largest_candidates keeps; its docstring
    proves that the value and E are those of a scan that norms every subset.
    """
    chunk = max(1, SUBSET_CELLS // (k * basis.shape[1]))
    combos = itertools.combinations(range(basis.shape[0]), k)
    bounds = _subset_bounds(basis, k)
    best_val, best_E = -1.0, None
    while True:
        E = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, chunk)), dtype=np.intp)
        if not E.size:
            return best_val, best_E
        E = E.reshape(-1, k)
        run = largest_candidates(*bounds(E), best_val)
        vals = np.full(len(E), -np.inf)
        vals[run] = sigma_max_stack(basis[E[run]])
        i = first_largest(vals, best_val)
        if i is not None:
            best_val, best_E = float(vals[i]), tuple(E[i].tolist())


def _greedy_max(basis: np.ndarray, k: int) -> tuple:
    """(value, E) of the better single-swap ascent, from the k largest leverage
    scores and from forward selection: a lower bound on the maximum."""
    leverage = np.einsum("ij,ij->i", basis, basis)
    best_val, best_E = -1.0, None
    for E0 in (list(np.argsort(leverage)[::-1][:k]), _forward_select(basis, k)):
        val, E = _hill_climb(basis, E0)
        if val > best_val:
            best_val, best_E = val, tuple(sorted(E))
    return best_val, best_E


def exact_affordable(d: int, k: int) -> bool:
    """The one rule that picks the method: scan all C(d, k) subsets if affordable."""
    return math.comb(d, k) <= EXACT_AFFORDABLE


def restricted_norm_max(sample: SubspaceSample, delta: float) -> RestrictedNormReport:
    """Maximum of ||P_V|l2(E)|| over coordinate subsets with |E| = k = floor(delta d).

    The exact scan gives the maximum where `exact_affordable(d, k)`, a greedy
    search a lower bound on it above; the report's `mode` names which ran.
    """
    k = int(math.floor(delta * sample.d))
    if not 1 <= k <= sample.d:
        raise ValueError(f"floor(delta d) = {k} must lie in 1..{sample.d}")
    mode = "exact" if exact_affordable(sample.d, k) else "greedy"
    value, E = (_exact_max if mode == "exact" else _greedy_max)(sample.basis, k)
    return RestrictedNormReport(delta, k, mode, value, tuple(int(i) for i in E))


@dataclass(frozen=True)
class MonteCarloReport:
    d: int
    n: int
    delta: float
    c0: float
    trials: int
    seed: int
    bound: float
    vacuous: bool
    empirical_probability: float
    values: tuple


def mc_lemma_random(
    d: int, n: int, delta: float, c0: float, trials: int, seed: int
) -> MonteCarloReport:
    """Fraction of random subspaces whose restricted norm stays under the bound.

    Where `restricted_norm_max` searches greedily its values are lower bounds
    and the fraction an upper estimate. With the CLI's default c0 = 100 the
    bound exceeds 1 at desk scale and the probability is exactly 1; the report
    flags that regime as vacuous.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    bound = formal_bound(delta, c0)
    values = []
    for t in range(trials):
        rng = trial_seed(seed, t)
        sample = sample_subspace(d, n, int(rng.integers(0, 2 ** 63)))
        values.append(restricted_norm_max(sample, delta).value)
    values = np.array(values)
    prob = float(np.mean(values < bound))
    return MonteCarloReport(
        d=d,
        n=n,
        delta=delta,
        c0=c0,
        trials=trials,
        seed=seed,
        bound=bound,
        vacuous=vacuous_threshold(bound),
        empirical_probability=prob,
        values=tuple(float(v) for v in values),
    )


@dataclass(frozen=True)
class LevyReport:
    d: int
    delta: float
    k: int
    trials: int
    seed: int
    median: float
    median_bound: float
    median_ok: bool
    mean_square: float
    mean_square_se: float
    mean_square_ok: bool
    tails: dict


def levy_median_check(d: int, delta: float, trials: int, seed: int) -> LevyReport:
    """Concentration of ||1_E x|| for uniform sphere points and a fixed coordinate set E."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k = int(math.floor(delta * d))
    if k < 1:
        raise ValueError("floor(delta d) must be at least 1")
    if trials < 2:
        raise ValueError("the standard error of the mean square needs at least 2 trials")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((trials, d))
    x = g / np.linalg.norm(g, axis=1)[:, None]
    norms = np.linalg.norm(x[:, :k], axis=1)
    median = float(np.median(norms))
    median_bound = math.sqrt(delta) + 12.0 / math.sqrt(d)
    mean_sq = float(np.mean(norms ** 2))
    se = float(np.std(norms ** 2, ddof=1) / math.sqrt(trials))
    exact_mean_sq = k / d  # expectation of ||1_E x||^2 by symmetry
    tails = {}
    for t in (0.05, 0.1):
        frac = float(np.mean(norms > median + t))
        tails[t] = {"fraction": frac, "bound": 2.0 * math.exp(-(t ** 2) * d / 2.0)}
    return LevyReport(
        d=d,
        delta=delta,
        k=k,
        trials=trials,
        seed=seed,
        median=median,
        median_bound=median_bound,
        median_ok=bool(median <= median_bound),
        mean_square=mean_sq,
        mean_square_se=se,
        mean_square_ok=bool(abs(mean_sq - exact_mean_sq) <= 3 * se),
        tails=tails,
    )


def entropy_count_bound(d: int, delta: float):
    """(log C(d, delta d), H(delta) d), natural logs: the count and its binary
    entropy bound, which `randsub entropy` compares for its verdict."""
    k = delta * d
    if not 0 < delta < 1 or abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise ValueError("delta d must be a positive integer with 0 < delta < 1")
    k = int(round(k))
    log_binomial = math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)
    H = -delta * math.log(delta) - (1.0 - delta) * math.log(1.0 - delta)
    return log_binomial, H * d
