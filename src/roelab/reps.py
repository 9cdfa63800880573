"""Finite group unitary representations, the averaging bound, and the band-gap certificate."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AlphaOutOfBall, DimensionMismatch, NotPrime, TooLarge
from .operators import SpaceOperator, _sigma_max, operator_norm, sigma_max_stack
from .spaces import FiniteMetricSpace, growth
from .translations import decompose_band

CERT_TOL = 1e-7
_ASSOC_SAMPLES = 200


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            return False
    return True


class FiniteGroup:
    """Finite group addressed by element indices 0..order-1."""

    order: int
    identity: int = 0

    def mult(self, i, j):
        raise NotImplementedError

    def inv(self, i):
        raise NotImplementedError

    def validate(self, seed: int = 0) -> None:
        """Identity and inverse laws on all elements; associativity on sampled triples."""
        g = np.arange(self.order)
        e = self.identity
        if not (np.all(self.mult(e, g) == g) and np.all(self.mult(g, e) == g)):
            raise ValueError("identity law fails")
        gi = self.inv(g)
        if not (np.all(self.mult(g, gi) == e) and np.all(self.mult(gi, g) == e)):
            raise ValueError("inverse law fails")
        rng = np.random.default_rng(seed)
        a, b, c = rng.integers(0, self.order, size=(3, _ASSOC_SAMPLES))
        if not np.all(self.mult(self.mult(a, b), c) == self.mult(a, self.mult(b, c))):
            raise ValueError("associativity fails on sampled triples")


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=np.int64)
        self.order = table.shape[0]
        self.table = table
        ids = [e for e in range(self.order) if np.all(table[e] == np.arange(self.order))]
        if len(ids) != 1:
            raise ValueError("multiplication table has no unique identity")
        self.identity = ids[0]
        self._inv = np.empty(self.order, dtype=np.int64)
        for g in range(self.order):
            hits = np.flatnonzero(table[g] == self.identity)
            if hits.size != 1:
                raise ValueError(f"element {g} has no unique inverse")
            self._inv[g] = hits[0]
        self.validate()

    def mult(self, i, j):
        return self.table[i, j]

    def inv(self, i):
        return self._inv[i]


class HeisenbergGroup(FiniteGroup):
    """Mod-p Heisenberg group of order p^3, elements encoded as a*p^2 + b*p + c."""

    def __init__(self, p: int):
        self.p = p
        self.order = p ** 3
        self.identity = 0
        self.validate()

    def decode(self, i):
        i = np.asarray(i)
        p = self.p
        return i // (p * p), (i // p) % p, i % p

    def encode(self, a, b, c):
        p = self.p
        return (np.asarray(a) % p) * p * p + (np.asarray(b) % p) * p + np.asarray(c) % p

    def mult(self, i, j):
        a1, b1, c1 = self.decode(i)
        a2, b2, c2 = self.decode(j)
        return self.encode(a1 + a2, b1 + b2, c1 + c2 + b1 * a2)

    def inv(self, i):
        a, b, c = self.decode(i)
        return self.encode(-a, -b, -c + a * b)


class UnitaryRep:
    """Unitary representation with enough structure hooks for large monomial cases."""

    group: FiniteGroup
    dim: int
    structure: str = "generic"

    def matrix(self, i) -> np.ndarray:
        raise NotImplementedError

    def average_image(self, alpha: np.ndarray) -> np.ndarray:
        """|G|^-1 sum_g alpha_g pi(g)."""
        raise NotImplementedError

    def entry_vector(self, row: int, col: int) -> np.ndarray:
        """The matrix coefficient g -> pi(g)[row, col] as a vector over the group."""
        raise NotImplementedError

    def band_residual_max(self, offmask: np.ndarray) -> float:
        """max_g || pi(g) restricted entrywise to offmask ||."""
        raise NotImplementedError

    def char_sum(self) -> float:
        """|G|^-1 sum_g |tr pi(g)|^2; equals 1 exactly for irreducibles."""
        raise NotImplementedError

    def invariant_projection(self) -> np.ndarray:
        """P = |G|^-1 sum_g pi(g) (x) conj(pi(g)), materialized."""
        n, order = self.dim, self.group.order
        if n * n > 256 or order > 10_000:
            raise TooLarge("invariant projection too large to materialize")
        P = np.zeros((n * n, n * n), dtype=np.complex128)
        for g in range(order):
            m = self.matrix(g)
            P += np.kron(m, m.conj())
        return P / order

    def certificate(self, seed: int = 0, full_projection: bool | None = None) -> dict:
        """Irreducibility and unitarity certificate.

        Always: unitarity and homomorphism deviations on sampled elements, and
        the character sum (= trace of the invariant projection). When the
        projection is small enough to materialize, also its trace and
        idempotency deviation.
        """
        rng = np.random.default_rng(seed)
        order = self.group.order
        k = min(order, 50)
        sample = rng.choice(order, size=k, replace=False)
        eye = np.eye(self.dim)
        unit_dev = 0.0
        for g in sample:
            m = self.matrix(g)
            unit_dev = max(unit_dev, float(np.abs(m.conj().T @ m - eye).max()))
        hom_dev = 0.0
        for g, h in zip(rng.choice(order, k), rng.choice(order, k)):
            lhs = self.matrix(g) @ self.matrix(h)
            rhs = self.matrix(int(self.group.mult(int(g), int(h))))
            hom_dev = max(hom_dev, float(np.abs(lhs - rhs).max()))
        cs = self.char_sum()
        report = {
            "unitarity_dev": unit_dev,
            "homomorphism_dev": hom_dev,
            "char_sum": cs,
            "irreducible": abs(cs - 1.0) <= 1e-8,
        }
        if full_projection is None:
            full_projection = self.dim * self.dim <= 256 and order <= 10_000
        if full_projection:
            P = self.invariant_projection()
            report["projection_trace"] = float(np.real(np.trace(P)))
            report["projection_idempotency_dev"] = float(np.abs(P @ P - P).max())
            report["projection_norm"] = operator_norm(P)
        report["ok"] = (
            report["irreducible"]
            and unit_dev <= 1e-10
            and hom_dev <= 1e-10
            and report.get("projection_idempotency_dev", 0.0) <= 1e-8
            and abs(report.get("projection_trace", 1.0) - 1.0) <= 1e-8
        )
        return report


class DenseRep(UnitaryRep):
    """Representation stored as a dense stack of matrices."""

    def __init__(self, group: FiniteGroup, matrices: np.ndarray, structure: str = "generic"):
        self.group = group
        self.mats = np.asarray(matrices, dtype=np.complex128)
        if self.mats.shape[0] != group.order:
            raise DimensionMismatch("one matrix per group element required")
        self.dim = self.mats.shape[1]
        self.structure = structure

    def matrix(self, i):
        return self.mats[i]

    def average_image(self, alpha):
        return np.tensordot(np.asarray(alpha), self.mats, axes=1) / self.group.order

    def entry_vector(self, row, col):
        return self.mats[:, row, col].copy()

    def band_residual_max(self, offmask):
        # one LAPACK pass over the group; fmax skips NaN as max() did
        residuals = sigma_max_stack(np.where(offmask, self.mats, 0.0))
        return float(np.fmax.reduce(residuals, initial=0.0))

    def char_sum(self):
        traces = np.einsum("gii->g", self.mats)
        return float(np.mean(np.abs(traces) ** 2))


class HeisenbergRep(UnitaryRep):
    """Dimension-p monomial irreducible of the mod-p Heisenberg group.

    pi(a,b,c) maps the basis vector at t to omega^(c + b t) times the basis
    vector at t + a, with omega = exp(2 pi i / p). Matrices are generated on
    demand; averages use the (a,b,c) structure instead of a per-element walk.
    """

    structure = "monomial"

    def __init__(self, p: int):
        self.group = HeisenbergGroup(p)
        self.p = p
        self.dim = p
        w = np.exp(2j * np.pi / p)
        self._w_pow = w ** np.arange(p)
        self._dft = w ** np.outer(np.arange(p), np.arange(p))  # [b, s] -> omega^(b s)

    def matrix(self, i):
        p = self.p
        a, b, c = (int(v) for v in self.group.decode(int(i)))
        m = np.zeros((p, p), dtype=np.complex128)
        s = np.arange(p)
        m[(s + a) % p, s] = self._w_pow[(c + b * s) % p]
        return m

    def average_image(self, alpha):
        p = self.p
        A = np.asarray(alpha, dtype=np.complex128).reshape(p, p, p)  # [a, b, c]
        B = A @ self._w_pow  # sum over c of A[a,b,c] omega^c
        C = B @ self._dft  # [a, s] -> sum over b of B[a,b] omega^(b s)
        out = np.zeros((p, p), dtype=np.complex128)
        s = np.arange(p)
        for a in range(p):
            out[(s + a) % p, s] = C[a]
        return out / self.group.order

    def entry_vector(self, row, col):
        p = self.p
        out = np.zeros((p, p, p), dtype=np.complex128)
        a0 = (row - col) % p
        out[a0] = np.outer(self._dft[:, col], self._w_pow)  # omega^(b col) omega^c
        return out.reshape(-1)

    def band_residual_max(self, offmask):
        # entries have modulus exactly 1, so the residual per element is 0 or 1
        p = self.p
        s = np.arange(p)
        for a in range(p):
            if np.any(offmask[(s + a) % p, s]):
                return 1.0
        return 0.0

    def char_sum(self):
        # only shift-free elements (a = 0) have diagonal support
        p = self.p
        s = np.arange(p)
        traces = np.empty((p, p), dtype=np.complex128)  # [b, c]
        for b in range(p):
            phases = self._w_pow[(b * s) % p].sum()
            traces[b] = phases * self._w_pow
        return float((np.abs(traces) ** 2).sum() / self.group.order)


def heisenberg_rep(p: int) -> HeisenbergRep:
    """The dimension-p irreducible of the order-p^3 Heisenberg group."""
    if not _is_prime(p) or p < 3:
        raise NotPrime(f"{p} is not an odd prime >= 3")
    return HeisenbergRep(p)


def symmetric_standard_rep(m: int) -> DenseRep:
    """The (m-1)-dimensional irreducible of S_m on the mean-zero subspace of l2[m]."""
    if not 2 <= m <= 7:
        raise TooLarge("symmetric group path materializes m! elements; need 2 <= m <= 7")
    perms = list(itertools.permutations(range(m)))
    index = {s: i for i, s in enumerate(perms)}
    table = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, s in enumerate(perms):
        for j, t in enumerate(perms):
            table[i, j] = index[tuple(s[t[k]] for k in range(m))]
    group = TableGroup(table)
    centered = np.eye(m) - np.full((m, m), 1.0 / m)
    q, _ = np.linalg.qr(centered[:, : m - 1])
    mats = np.empty((len(perms), m - 1, m - 1), dtype=np.complex128)
    for i, s in enumerate(perms):
        perm_mat = np.zeros((m, m))
        for j in range(m):
            perm_mat[s[j], j] = 1.0
        mats[i] = q.T @ perm_mat @ q
    return DenseRep(group, mats)


def averaged_norm(rep: UnitaryRep, alpha) -> float:
    """|| |G|^-1 sum_g alpha_g pi(g) || for coefficients in the unit ball."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    if alpha.shape != (rep.group.order,):
        raise DimensionMismatch("alpha must have one coefficient per group element")
    if np.abs(alpha).max() > 1 + 1e-12:
        raise AlphaOutOfBall("coefficients must have modulus at most 1")
    return operator_norm(rep.average_image(alpha))


def gap_lower_bound(n: float, N: float) -> float:
    """Solve (1 - eps)/(2N) < (1 + eps)/sqrt(n) for eps, clamped at 0."""
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    rn = math.sqrt(n)
    return max(0.0, (rn - 2.0 * N) / (rn + 2.0 * N))


def theorem_a_radius(n: int, space: FiniteMetricSpace):
    """Largest integer radius R with N_X(R) < sqrt(n)/8, minus 1; -1 if none."""
    threshold = math.sqrt(n) / 8.0
    best = None
    for R in range(int(math.ceil(space.diameter)) + 1):
        if growth(space, R) < threshold:
            best = R
    return -1 if best is None else best - 1


@dataclass(frozen=True)
class CertificateReport:
    n: int
    group_order: int
    growth_N: int
    eps_achieved: float
    gap_bound: float
    tensor_value: float
    per_translation_sup: tuple
    pair_count: int
    checks: dict
    verdict: str
    half_form_lower: float


def gap_certificate(
    rep: UnitaryRep,
    space: FiniteMetricSpace,
    R,
    placement=None,
    approximants=None,
    corner_terms=None,
    tol: float = CERT_TOL,
) -> CertificateReport:
    """Numeric certificate for the band-approximation obstruction chain.

    Places the representation as a coordinate block in l2(X), approximates
    each pi(g) by a band operator c_g (default: its R-band truncation), and
    verifies the inequality chain:

      L = || avg_g c_g (x) conj(pi(g)) || >= 1 - eps - tol,
      per-translation sup of pairwise averaged norms <= (1 + eps)/sqrt(n) + tol,
      eps >= gap_lower_bound(n, N_X(R)) - tol,

    with eps = max_g || pi(g) + b_g - c_g || and corner terms b_g defaulting
    to zero. A FAIL verdict is a numerical counterexample to the averaging
    lemma and should be treated as a bug.
    """
    n = rep.dim
    order = rep.group.order
    if placement is None:
        placement = np.arange(n)
    pts = np.asarray(placement, dtype=int)
    if pts.size != n or len(set(pts.tolist())) != n:
        raise DimensionMismatch("placement must list one distinct point per dimension")
    if pts.max() >= space.n:
        raise DimensionMismatch("placement points outside the space")
    D = space.dist[np.ix_(pts, pts)]
    offmask = D > R  # offmask[j, i]: entry (row j, col i) outside the band

    if approximants is None:
        if corner_terms is not None:
            raise DimensionMismatch("corner terms require explicit approximants")
        eps_achieved = rep.band_residual_max(offmask)
    else:
        if len(approximants) != order:
            raise DimensionMismatch("one approximant per group element required")
        eps_achieved = 0.0
        for g in range(order):
            diff = rep.matrix(g) - approximants[g]
            if corner_terms is not None:
                diff = diff + corner_terms[g]
            eps_achieved = max(eps_achieved, _sigma_max(diff))

    # band pairs inside the placement block, organized by translation part
    decomposition = decompose_band(space, R)
    pos = {int(p): i for i, p in enumerate(pts)}
    per_part_pairs = []
    for part in decomposition.parts:
        pairs = []
        for x, y in part.graph():
            if x in pos and y in pos:
                pairs.append((pos[x], pos[y]))  # (col i, row j) in block coordinates
        per_part_pairs.append(pairs)

    def pair_alpha(i, j):
        # matrix coefficient of c_g at block entry (row j, col i)
        if approximants is None:
            return rep.entry_vector(j, i)
        return np.array([approximants[g][j, i] for g in range(order)])

    sups = []
    sup_uppers = []  # value + err per part, for the upper-bound check
    blocks = {}
    for pairs in per_part_pairs:
        best = best_upper = 0.0
        for i, j in pairs:
            alpha = pair_alpha(i, j)
            block = np.conj(rep.average_image(np.conj(alpha)))  # avg alpha_g conj(pi(g))
            blocks[(j, i)] = block
            value, err = operator_norm(block, with_err=True)
            best = max(best, value)
            best_upper = max(best_upper, value + err)
        sups.append(best)
        sup_uppers.append(best_upper)
    pair_count = len(blocks)

    # assemble avg_g c_g (x) conj(pi(g)) over the placement block
    if blocks:
        rows, cols, vals = [], [], []
        beta, alf = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        for (j, i), block in blocks.items():
            rows.append((j * n + beta).reshape(-1))
            cols.append((i * n + alf).reshape(-1))
            vals.append(block.reshape(-1))
        big = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n * n, n * n),
        ).tocsr()
        tensor_value = operator_norm(big)
    else:
        tensor_value = 0.0

    N = growth(space, R)
    gap = gap_lower_bound(n, N)
    sup_bound = (1.0 + eps_achieved) / math.sqrt(n) + tol
    checks = {
        "tensor_lower": bool(tensor_value >= 1.0 - eps_achieved - tol),
        "translation_sups": bool(all(s <= sup_bound for s in sup_uppers)),
        "gap": bool(eps_achieved >= gap - tol),
    }
    verdict = "PASS" if all(checks.values()) else "FAIL"
    return CertificateReport(
        n=n,
        group_order=order,
        growth_N=N,
        eps_achieved=float(eps_achieved),
        gap_bound=float(gap),
        tensor_value=float(tensor_value),
        per_translation_sup=tuple(float(s) for s in sups),
        pair_count=pair_count,
        checks=checks,
        verdict=verdict,
        half_form_lower=max(0.0, float(gap) - 0.1),
    )
