"""Finite group unitary representations, the averaging bound, and the band-gap certificate."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfBall, DimensionMismatch, HypothesisViolated, NotPrime, TooLarge
from .operators import operator_norm, sigma_max_stack
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
    """Finite group addressed by element indices 0..order-1.

    Each subclass provides mult(i, j) -> the index of i j, elementwise over
    index arrays. Only a validated group (TableGroup) also provides
    inv(i) -> the index of i^-1, which validate reads to check the group
    laws.
    """

    order: int
    identity: int = 0

    def validate(self) -> None:
        """Identity and inverse laws on all elements; associativity on sampled triples."""
        g = np.arange(self.order)
        e = self.identity
        if not (np.all(self.mult(e, g) == g) and np.all(self.mult(g, e) == g)):
            raise ValueError("identity law fails")
        gi = self.inv(g)
        if not (np.all(self.mult(g, gi) == e) and np.all(self.mult(gi, g) == e)):
            raise ValueError("inverse law fails")
        rng = np.random.default_rng(0)
        a, b, c = rng.integers(0, self.order, size=(3, _ASSOC_SAMPLES))
        if not np.all(self.mult(self.mult(a, b), c) == self.mult(a, self.mult(b, c))):
            raise ValueError("associativity fails on sampled triples")


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table)
        if table.dtype.kind not in "iu":
            raise ValueError("multiplication table entries must be integers")
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        self.order = table.shape[0]
        if table.min() < 0 or table.max() >= self.order:
            raise ValueError(f"multiplication table entries must lie in 0..{self.order - 1}")
        self.table = table
        ids = np.flatnonzero((table == np.arange(self.order)).all(axis=1))
        if ids.size != 1:
            raise ValueError("multiplication table has no unique identity")
        self.identity = int(ids[0])
        hits = table == self.identity
        bad = np.flatnonzero(hits.sum(axis=1) != 1)
        if bad.size:
            raise ValueError(f"element {bad[0]} has no unique inverse")
        self._inv = hits.argmax(axis=1)
        self.validate()

    def mult(self, i, j):
        return self.table[i, j]

    def inv(self, i):
        return self._inv[i]


class HeisenbergGroup(FiniteGroup):
    """Mod-p Heisenberg group of order p^3, elements encoded as a*p^2 + b*p + c."""

    def __init__(self, p: int):
        # mult below is a group law by construction, so no validate() here
        self.p = p
        self.order = p ** 3
        self.identity = 0

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


class UnitaryRep:
    """Unitary representation, given as a stack of matrices.

    Each subclass provides one hook, matrices(idx) -> pi(g) for g in idx,
    shape (len(idx), dim, dim). The other methods default to computations
    over the full stack. HeisenbergRep overrides average_image,
    band_residual_max and char_sum with its (a, b, c) structure, because the
    stack of heis:67 (p^3 matrices of size p x p) does not fit in memory.
    """

    group: FiniteGroup
    dim: int

    def average_image(self, alpha: np.ndarray) -> np.ndarray:
        """|G|^-1 sum_g alpha_g pi(g)."""
        mats = self.matrices(np.arange(self.group.order))
        return np.tensordot(np.asarray(alpha), mats, axes=1) / self.group.order

    def band_residual_max(self, offmask: np.ndarray) -> float:
        """max_g || pi(g) restricted entrywise to offmask ||."""
        # one LAPACK pass over the group; fmax skips NaN as max() did
        mats = self.matrices(np.arange(self.group.order))
        residuals = sigma_max_stack(np.where(offmask, mats, 0.0))
        return float(np.fmax.reduce(residuals, initial=0.0))

    def char_sum(self) -> float:
        """|G|^-1 sum_g |tr pi(g)|^2; equals 1 exactly for irreducibles."""
        traces = np.einsum("gii->g", self.matrices(np.arange(self.group.order)))
        return float(np.mean(np.abs(traces) ** 2))

    def invariant_projection(self) -> np.ndarray:
        """P = |G|^-1 sum_g pi(g) (x) conj(pi(g)), materialized."""
        n, order = self.dim, self.group.order
        if n * n > 256 or order > 10_000:
            raise TooLarge("invariant projection too large to materialize")
        m = self.matrices(np.arange(order)).reshape(order, n * n)
        # entry [(i, j), (k, l)] is sum_g pi(g)[i, j] conj(pi(g)[k, l]); kron
        # puts it at row i n + k, column j n + l
        P = (m.T @ m.conj()).reshape(n, n, n, n).transpose(0, 2, 1, 3)
        return P.reshape(n * n, n * n) / order

    def certificate(self, seed: int = 0) -> dict:
        """Irreducibility and unitarity certificate.

        Always: unitarity and homomorphism deviations on sampled elements, and
        the character sum (= trace of the invariant projection). When the
        projection is small enough to materialize, also its trace and
        idempotency deviation.
        """
        rng = np.random.default_rng(seed)
        order = self.group.order
        k = min(order, 50)
        sample = self.matrices(rng.choice(order, size=k, replace=False))
        g, h = rng.choice(order, k), rng.choice(order, k)
        gram = np.swapaxes(sample.conj(), 1, 2) @ sample
        unit_dev = float(np.abs(gram - np.eye(self.dim)).max())
        lhs = self.matrices(g) @ self.matrices(h)
        hom_dev = float(np.abs(lhs - self.matrices(self.group.mult(g, h))).max())
        cs = self.char_sum()
        report = {
            "unitarity_dev": unit_dev,
            "homomorphism_dev": hom_dev,
            "char_sum": cs,
            "irreducible": abs(cs - 1.0) <= 1e-8,
        }
        try:
            P = self.invariant_projection()
        except TooLarge:
            pass
        else:
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

    def __init__(self, group: FiniteGroup, matrices: np.ndarray):
        self.group = group
        self.mats = np.asarray(matrices, dtype=np.complex128)
        shape = self.mats.shape
        if len(shape) != 3 or shape[0] != group.order or shape[1] != shape[2]:
            raise DimensionMismatch(f"matrices must have shape ({group.order}, n, n), got {shape}")
        self.dim = shape[1]

    def matrices(self, idx):
        return self.mats[idx]


class HeisenbergRep(UnitaryRep):
    """Dimension-p monomial irreducible of the mod-p Heisenberg group.

    pi(a,b,c) maps the basis vector at t to omega^(c + b t) times the basis
    vector at t + a, with omega = exp(2 pi i / p). Matrices are generated on
    demand; averages use the (a,b,c) structure instead of the full stack.
    """

    def __init__(self, p: int):
        self.group = HeisenbergGroup(p)
        self.p = p
        self.dim = p
        w = np.exp(2j * np.pi / p)
        self._w_pow = w ** np.arange(p)
        self._dft = w ** np.outer(np.arange(p), np.arange(p))  # [b, s] -> omega^(b s)

    def matrices(self, idx):
        p = self.p
        a, b, c = (v[:, None] for v in self.group.decode(np.asarray(idx)))
        s = np.arange(p)
        out = np.zeros((a.shape[0], p, p), dtype=np.complex128)
        out[np.arange(a.shape[0])[:, None], (s + a) % p, s] = self._w_pow[(c + b * s) % p]
        return out

    def average_image(self, alpha):
        p = self.p
        A = np.asarray(alpha, dtype=np.complex128).reshape(p, p, p)  # [a, b, c]
        B = A @ self._w_pow  # sum over c of A[a,b,c] omega^c
        C = B @ self._dft  # [a, s] -> sum over b of B[a,b] omega^(b s)
        out = np.zeros((p, p), dtype=np.complex128)
        s = np.arange(p)
        out[(s + s[:, None]) % p, s] = C  # entry (s + a, s) of shift a
        return out / self.group.order

    def band_residual_max(self, offmask):
        # entry (r, s) lies on shift a = r - s, where every pi(a, b, c) has an
        # entry of modulus 1; so the residual is 1 iff offmask has any entry
        return float(offmask.any())

    def char_sum(self):
        # only shift-free elements (a = 0) have diagonal support
        p = self.p
        s = np.arange(p)
        phases = self._w_pow[np.outer(s, s) % p].sum(axis=1)  # [b]
        traces = np.outer(phases, self._w_pow)  # [b, c]
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
    # row i of the table is s o t for every t, s = perms[i]; read as base-m
    # numbers the lexicographic permutations increase, so one searchsorted
    # indexes a whole row
    perms = np.array(list(itertools.permutations(range(m))))
    place = m ** np.arange(m - 1, -1, -1)
    codes = perms @ place
    table = np.empty((len(perms), len(perms)), dtype=np.int16)
    centered = np.eye(m) - np.full((m, m), 1.0 / m)
    q, _ = np.linalg.qr(centered[:, : m - 1])
    mats = np.empty((len(perms), m - 1, m - 1), dtype=np.complex128)
    for i, s in enumerate(perms):
        table[i] = np.searchsorted(codes, s[perms] @ place)
        mats[i] = q.T @ np.eye(m)[:, s] @ q  # the permutation matrix sends e_j to e_s[j]
    group = TableGroup(table)
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
    vacuous: dict
    verdict: str
    half_form_lower: float


def gap_certificate(rep: UnitaryRep, space: FiniteMetricSpace, R) -> CertificateReport:
    """Numeric certificate for the band-approximation obstruction chain.

    Places the representation as the coordinate block on points 0..n-1 of X,
    approximates each pi(g) by its R-band truncation c_g there, and verifies
    the inequality chain:

      L = || avg_g c_g (x) conj(pi(g)) || >= 1 - eps - CERT_TOL,
      per-translation sup of pairwise averaged norms <= (1 + eps)/sqrt(n) + CERT_TOL,
      eps >= gap_lower_bound(n, N_X(R)) - CERT_TOL,

    with eps = max_g || pi(g) - c_g || = rep.band_residual_max. A FAIL
    verdict is a numerical counterexample to the averaging lemma and should
    be treated as a bug.

    The averaged terms have closed forms. For unitary irreducible pi, Schur
    orthogonality reads
      avg_g pi(g)[j, i] conj(pi(g)[k, l]) = delta_jk delta_il / n.
    Block (j, i) of the tensor is avg_g c_g[j, i] conj(pi(g)): zero off the
    band and the matrix unit E_ji / n on it. So, with index (a, b) at a n + b,
    the tensor's only nonzero entries are band[j, i] / n at row (j, j) and
    column (i, i): it is the 0/1 band matrix placed on the indices (j, j),
    and L = || band || / n. Every band block has norm 1/n, so the sup of a
    translation part is 1/n if the part holds a pair inside the block and 0
    otherwise. The closed forms need the hypothesis, so a rep whose
    certificate() is not ok raises HypothesisViolated.

    vacuous names the checks that hold whatever the numbers: tensor_lower
    when eps >= 1 - CERT_TOL (it then asks L >= 0), gap when that holds or
    the gap bound is 0, and translation_sups always, as 1/n <= 1/sqrt(n).
    """
    n = rep.dim
    if space.n < n:
        raise DimensionMismatch(f"the space has {space.n} points, fewer than the dimension {n}")
    decomposition = decompose_band(space, R)  # also rejects a negative or NaN R
    cert = rep.certificate()
    if not cert["ok"]:
        raise HypothesisViolated(
            "gap certificate needs a unitary irreducible representation: "
            f"char_sum {cert['char_sum']:.6g}, irreducible {cert['irreducible']}, "
            f"unitarity_dev {cert['unitarity_dev']:.3g}, homomorphism_dev {cert['homomorphism_dev']:.3g}"
        )
    band = space.near(R)[:n, :n]  # band[j, i]: entry (row j, col i) inside the band
    eps_achieved = rep.band_residual_max(~band)
    tensor_value = operator_norm(band.astype(float)) / n
    sups = [
        1.0 / n if any(x < n and y < n for x, y in part.pairs.items()) else 0.0
        for part in decomposition.parts
    ]

    N = growth(space, R)
    gap = gap_lower_bound(n, N)
    sup_bound = (1.0 + eps_achieved) / math.sqrt(n) + CERT_TOL
    checks = {
        "tensor_lower": bool(tensor_value >= 1.0 - eps_achieved - CERT_TOL),
        "translation_sups": bool(all(s <= sup_bound for s in sups)),
        "gap": bool(eps_achieved >= gap - CERT_TOL),
    }
    trivial_eps = bool(eps_achieved >= 1.0 - CERT_TOL)
    vacuous = {"tensor_lower": trivial_eps, "translation_sups": True, "gap": trivial_eps or gap == 0.0}
    verdict = "PASS" if all(checks.values()) else "FAIL"
    return CertificateReport(
        n=n,
        group_order=rep.group.order,
        growth_N=N,
        eps_achieved=float(eps_achieved),
        gap_bound=float(gap),
        tensor_value=float(tensor_value),
        per_translation_sup=tuple(sups),
        pair_count=int(band.sum()),
        checks=checks,
        vacuous=vacuous,
        verdict=verdict,
        half_form_lower=max(0.0, float(gap) - 0.1),
    )
