"""Random subspaces of R^d and Monte Carlo checks of restricted projection norms."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, TooLargeForExact
from .operators import sigma_max_stack

DEFAULT_C0 = 100.0
EXACT_SUBSET_CAP = 1_000_000
SUBSET_CELLS = 1 << 18
_SWAP_CAP = 500


def formal_bound(delta: float, c0: float = DEFAULT_C0) -> float:
    """c0 * sqrt(delta log(1/delta)); the certified threshold for restricted norms."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return c0 * math.sqrt(delta * math.log(1.0 / delta))


def trial_seed(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator; order-independent aggregation."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), int(index)]))


@dataclass(frozen=True)
class SubspaceSample:
    d: int
    n: int
    vectors: np.ndarray  # (n, d) unit rows, the sampled sphere points
    basis: np.ndarray  # (d, n) orthonormal columns spanning the subspace
    P: np.ndarray  # (d, d) orthogonal projection
    seed: int


def sample_subspace(d: int, n: int, seed: int, max_tries: int = 20) -> SubspaceSample:
    """Span of n independent uniform points on the unit sphere of R^d."""
    if not 1 <= n < d:
        raise ValueError("need 1 <= n < d")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        g = rng.standard_normal((n, d))
        norms = np.linalg.norm(g, axis=1)
        if np.any(norms == 0):
            continue
        x = g / norms[:, None]
        q, r = np.linalg.qr(x.T)
        if np.min(np.abs(np.diag(r))) < 1e-10:
            continue
        P = q @ q.T
        if (
            np.abs(P @ P - P).max() > 1e-9
            or np.abs(P - P.T).max() > 1e-9
            or abs(np.trace(P) - n) > 1e-9
        ):
            continue
        return SubspaceSample(d=d, n=n, vectors=x, basis=q, P=P, seed=seed)
    raise RankDeficient(f"no full-rank {n}-frame in R^{d} after {max_tries} tries")


@dataclass(frozen=True)
class RestrictedNormReport:
    delta: float
    k: int
    mode: str
    value: float
    E_witness: tuple
    bound: float
    formal_bound_holds: bool
    vacuous: bool


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
    out = [i for i in range(d) if i not in set(E)]
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


def restricted_norm_max(
    sample: SubspaceSample, delta: float, mode: str = "exact", c0: float = DEFAULT_C0
) -> RestrictedNormReport:
    """Maximum of ||P_V|l2(E)|| over coordinate subsets with |E| = floor(delta d).

    exact enumerates every subset in chunks of at most SUBSET_CELLS gathered
    basis entries, one LAPACK pass per chunk; greedy seeds E with the largest
    leverage scores and improves by single swaps, giving a lower bound for
    the true maximum.
    """
    d, basis = sample.d, sample.basis
    k = int(math.floor(delta * d))
    if k < 1:
        raise ValueError("floor(delta d) must be at least 1")
    bound = formal_bound(delta, c0)
    if mode == "exact":
        if math.comb(d, k) > EXACT_SUBSET_CAP:
            raise TooLargeForExact(f"C({d},{k}) subsets exceed the exact cap")
        # each chunk is gathered by one fancy index; the first largest value
        # wins, across chunks too
        chunk = max(1, SUBSET_CELLS // (k * basis.shape[1]))
        combos = itertools.combinations(range(d), k)
        best_val, best_E = -1.0, None
        while True:
            E = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, chunk)), dtype=np.intp)
            if not E.size:
                break
            E = E.reshape(-1, k)
            vals = sigma_max_stack(basis[E])
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val, best_E = float(vals[i]), tuple(E[i].tolist())
    elif mode == "greedy":
        leverage = np.einsum("ij,ij->i", basis, basis)
        starts = [list(np.argsort(leverage)[::-1][:k]), _forward_select(basis, k)]
        best_val, best_E = -1.0, None
        for E0 in starts:
            val, E = _hill_climb(basis, E0)
            if val > best_val:
                best_val, best_E = val, tuple(sorted(E))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return RestrictedNormReport(
        delta=delta,
        k=k,
        mode=mode,
        value=best_val,
        E_witness=tuple(int(i) for i in best_E),
        bound=bound,
        formal_bound_holds=bool(best_val < bound),
        vacuous=bool(bound >= 1.0),
    )


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

    With the default c0 = 100 the bound exceeds 1 at desk scale and the
    probability is exactly 1; the report flags that regime as vacuous.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    k = int(math.floor(delta * d))
    mode = "exact" if math.comb(d, k) <= 20_000 else "greedy"
    bound = formal_bound(delta, c0)
    values = []
    for t in range(trials):
        rng = trial_seed(seed, t)
        sample = sample_subspace(d, n, int(rng.integers(0, 2 ** 63)))
        values.append(restricted_norm_max(sample, delta, mode=mode, c0=c0).value)
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
        vacuous=bool(bound >= 1.0),
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
    k = int(math.floor(delta * d))
    if k < 1:
        raise ValueError("floor(delta d) must be at least 1")
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
    """log C(d, delta d) against the binary entropy bound H(delta) d (natural logs)."""
    k = delta * d
    if not 0 < delta < 1 or abs(k - round(k)) > 1e-9:
        raise ValueError("delta d must be a positive integer with 0 < delta < 1")
    k = int(round(k))
    log_binomial = math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)
    H = -delta * math.log(delta) - (1.0 - delta) * math.log(1.0 - delta)
    H_bound = H * d
    if log_binomial > H_bound + 1e-9:
        raise AssertionError("entropy bound violated; this is a bug")
    return log_binomial, H_bound
