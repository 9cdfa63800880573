"""Block-diagonal quasi-local operator over an expander family, with profiles and witnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RejectionBudgetExhausted
from .operators import (
    dist_to_band_bounds,
    eps_propagation_brackets,
    operator_norm,
)
from .randsub import (
    exact_affordable,
    formal_bound,
    restricted_norm_max,
    sample_subspace,
    subset_grams,
    trial_seed,
    vacuous_threshold,
)
from .spaces import (
    EXACT_KAPPA_MAX,
    KAPPA_EXACT,
    KAPPA_SPECTRAL,
    ExpanderFamily,
    FiniteMetricSpace,
    coarse_union,
    expansion_kappa,
    piece_slices,
    random_regular,
)

# select_subspaces gives up on a member after this many rejected draws
MAX_REJECTS = 200


def regular_family(sizes, degree: int, seed: int) -> ExpanderFamily:
    """Random regular members with a per-family expansion certificate at radius 1.

    kappa is the worst member constant: exact brute force where the subset
    scan is affordable, spectral lower bound otherwise.
    """
    members = []
    kappas = []
    kinds = []
    for i, size in enumerate(sizes):
        member_seed = int(trial_seed(seed, i).integers(0, 2 ** 63))
        member = random_regular(size, degree, member_seed)
        kappa, kind = expansion_kappa(member, 1, mode="exact" if size <= EXACT_KAPPA_MAX else "spectral")
        members.append(member)
        kappas.append(kappa)
        kinds.append(kind)
    kind = KAPPA_EXACT if all(k == KAPPA_EXACT for k in kinds) else KAPPA_SPECTRAL
    return ExpanderFamily(members=members, kappa=min(kappas), kappa_kind=kind)


def member_dims(family: ExpanderFamily) -> list:
    """Subspace dimension per member: 1, 2, 3, ... in family order."""
    return list(range(1, len(family.members) + 1))


def schedule(K: int, c0: float) -> list:
    """The threshold rows {k, delta: 1/k, eps: c0 sqrt((1/k) log k)} for
    k = 2..K. k = 1 is left out: its threshold degenerates to 0."""
    if not c0 > 0:  # checked here too, as a one-member schedule has no row
        raise ValueError("c0 must be positive")
    return [{"k": k, "delta": 1.0 / k, "eps": formal_bound(1.0 / k, c0)} for k in range(2, K + 1)]


def select_subspaces(family: ExpanderFamily, c0: float, seed: int = 0) -> tuple:
    """Rejection-sample one random subspace per member against the nested share schedule.

    Member number n (dimension n) must satisfy, on every row of schedule
    with k <= n, in increasing k, that the maximal restricted norm over shares
    <= 1/k stays below eps_k; as k <= n < d, each share holds a point. A row
    with a vacuous threshold (see `vacuous_threshold`) is skipped: the
    restricted norm of a projection is at most 1 and cannot reach it.
    `restricted_norm_max` scores each candidate: exactly, so that acceptance
    certifies the row, where the subset count is affordable, and by the greedy
    lower bound above, where acceptance only means "not refuted".
    """
    live = [row for row in schedule(len(family.members), c0) if not vacuous_threshold(row["eps"])]
    samples = []
    reject_counts = []
    for idx, (member, n) in enumerate(zip(family.members, member_dims(family))):
        d = member.n
        if not n < d:
            raise DimensionMismatch(f"member {idx} too small for dimension {n}")
        rejects = 0
        while True:
            rng = trial_seed(seed, idx * 100_000 + rejects)
            sample = sample_subspace(d, n, int(rng.integers(0, 2 ** 63)))
            if all(
                restricted_norm_max(sample, row["delta"]).value < row["eps"]
                for row in live
                if row["k"] <= n
            ):
                samples.append(sample)
                reject_counts.append(rejects)
                break
            rejects += 1
            if rejects > MAX_REJECTS:
                raise RejectionBudgetExhausted(
                    f"member {idx}: no admissible subspace in {MAX_REJECTS} draws; "
                    "c0 is too small at this scale"
                )
    return samples, reject_counts


def _top_norms(grams: np.ndarray) -> np.ndarray:
    """sqrt of the largest eigenvalue of each Hermitian PSD matrix of a stack."""
    return np.sqrt(np.maximum(np.linalg.eigvalsh(grams)[:, -1], 0.0))


def _factored_rect_norms(left: np.ndarray, right: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """||L[A] R[B]^*|| for each pair of boolean rows (A, B), from the d x r
    factors L, R of a rank-r block L R^*, by one r x r eigenproblem per pair.

    With G_A = L[A]^* L[A] and G_B = R[B]^* R[B] = T T^* (T = Q diag(w)^1/2
    from G_B = Q diag(w) Q^*), ||L[A] R[B]^*||^2 = lambda_max(R[B] G_A R[B]^*)
    = lambda_max(G_A G_B) = lambda_max(T^* G_A T), since XY and YX have the
    same nonzero eigenvalues. An empty side makes its Gram exactly 0, and the
    value exactly 0.0.

    Error: the Grams, T, the congruence T^* G_A T and the two Hermitian
    eigensolves are backward stable, so the computed norm^2 has absolute
    error O(eps_mach ||G_A|| ||G_B||), and the norm that error over 2 norm.
    For an assembly R = V is orthonormal, so ||G_B|| <= 1 and ||G_A|| <=
    ||C||^2: norms at or above 1e-4 are good to about 1e-12, and a norm far
    below that only to about sqrt(eps_mach ||G_A||).
    """
    w, Q = np.linalg.eigh(subset_grams(right, cols))
    T = Q * np.sqrt(np.maximum(w, 0.0))[:, None, :]
    return _top_norms(np.swapaxes(T.conj(), 1, 2) @ subset_grams(left, rows) @ T)


@dataclass(frozen=True)
class QuasiLocalAssembly:
    """The assembled block-diagonal u = diag(L_i R_i^*) on the coarse union
    `space` of the family's members, held as its member factors only: member
    i sits on the ambient index range slices[i], L_i = V_i C_i and R_i = V_i,
    where V_i is the (d_i, r_i) orthonormal basis of subspaces[i] and C_i the
    compressed block (I without one). The searches take the assembly as the
    operator: they read only `space` and the two norm hooks, which are
    computed from the factors; no dense ambient matrix is built, so the
    exact scans, which read one, refuse an assembly.
    """

    family: ExpanderFamily
    subspaces: list
    c0: float
    space: FiniteMetricSpace
    slices: tuple
    left: tuple
    right: tuple

    def rect_norms(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distinct members occupy disjoint rows and columns, so 1_A u 1_B is
        the direct sum of the member compressions L_i[A_i] R_i[B_i]^*, with
        A_i, B_i the parts of A, B in slices[i], and
            ||1_A u 1_B|| = max_i ||L_i[A_i] R_i[B_i]^*||,
        each term from _factored_rect_norms (whose docstring bounds its
        error). A member where A_i or B_i is empty adds an exact 0.0 and is
        skipped, so a rectangle whose sides lie in different members has
        norm 0.0 exactly."""
        values = np.zeros(len(rows))
        for sl, L, Rf in zip(self.slices, self.left, self.right):
            live = np.flatnonzero(rows[:, sl].any(axis=1) & cols[:, sl].any(axis=1))
            if live.size:
                norms = _factored_rect_norms(L, Rf, rows[live, sl], cols[live, sl])
                values[live] = np.maximum(values[live], norms)
        return values

    def tail_bound(self, R) -> float:
        """u - band_truncate(u, R) = u o (dist > R) is block diagonal like u,
        and member i's block is (L_i R_i^*) o (dist_i > R), masked by the
        member's near(R), so the tail is the max over members of value + err
        of operator_norm of that d_i x d_i block (LAPACK up to DENSE_NORM_MAX
        points). For a projection assembly L_i = R_i = V_i, and the block
        (V_i V_i^T) o (dist_i > R) is real symmetric, so operator_norm takes
        the symmetric eigensolver for it."""
        return max(
            sum(operator_norm(np.where(member.near(R), 0.0, L @ Rf.conj().T), with_err=True))
            for member, L, Rf in zip(self.family.members, self.left, self.right)
        )

    @property
    def schedule(self) -> list:
        """The threshold rows for k up to the largest subspace dimension, each
        naming the certificate its acceptance carries: "vacuous" (see
        `vacuous_threshold`), "exact" when `restricted_norm_max` scanned every
        subset on each member the row applies to (dimension >= k), else
        "greedy", a lower bound only."""
        dims = list(zip(member_dims(self.family), (m.n for m in self.family.members)))
        rows = schedule(len(self.family.members), self.c0)
        for row in rows:
            if vacuous_threshold(row["eps"]):
                row["certificate"] = "vacuous"
            elif all(exact_affordable(d, math.floor(row["delta"] * d)) for n, d in dims if n >= row["k"]):
                row["certificate"] = "exact"
            else:
                row["certificate"] = "greedy"
        return rows


def assemble(
    family: ExpanderFamily, subspaces: list, blocks: list | None = None, c0: float = 3.0
) -> QuasiLocalAssembly:
    """Block-diagonal operator diag of the subspace projections on the coarse union.

    With `blocks` given (one n x n contraction per member, in the subspace
    basis), assembles diag of the compressed operators V x V^* instead. The
    result holds each member's factors, from which the searches take their
    norms.
    """
    if len(subspaces) != len(family.members):
        raise DimensionMismatch("one subspace per family member required")
    for member, sub in zip(family.members, subspaces):
        if sub.d != member.n:
            raise DimensionMismatch("subspace ambient dimension must match the member size")
    right = tuple(sub.basis for sub in subspaces)
    left = right
    if blocks is not None:
        left = []
        for i, sub in enumerate(subspaces):
            b = np.asarray(blocks[i], dtype=np.complex128)
            if b.shape != (sub.n, sub.n):
                raise DimensionMismatch(f"block {i} must be {sub.n} x {sub.n}")
            left.append(sub.basis @ b)
    space, slices = coarse_union(family.members), tuple(piece_slices(family.members))
    return QuasiLocalAssembly(family, subspaces, c0, space, slices, tuple(left), right)


def projection_invariants(assembly: QuasiLocalAssembly) -> dict:
    """Entrywise deviations of u from a projection, and its trace, per member.

    u = diag(P_i) with P_i = L_i R_i^* is block diagonal, so the cross blocks
    of u^2 - u and u - u^* are exactly 0: each deviation is the max over the
    members of that of P_i, and the trace is the sum of theirs.
    """
    blocks = [L @ Rf.conj().T for L, Rf in zip(assembly.left, assembly.right)]
    return {
        "idempotency_dev": max(float(np.abs(p @ p - p).max()) for p in blocks),
        "self_adjoint_dev": max(float(np.abs(p - p.conj().T).max()) for p in blocks),
        "trace": float(sum(np.real(np.trace(p)) for p in blocks)),
    }


def quasilocality_profile(
    assembly: QuasiLocalAssembly, eps_list, seed: int = 0, budget: int = 300
) -> list:
    """Bracket the eps-propagation radius of the assembled operator per epsilon,
    all from one search (eps_propagation_brackets)."""
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly descending")
    brackets = eps_propagation_brackets(assembly, eps_list, seed=seed, budget=budget)
    return [
        {"eps": float(eps), "R_lower": float(res.lower), "R_upper": float(res.upper), "witness": res.witness}
        for eps, res in zip(eps_list, brackets)
    ]


def mechanism_check(assembly: QuasiLocalAssembly, samples: int, seed: int = 0) -> dict:
    """Sampled verification of the rectangle mechanism behind quasi-locality.

    For random separated rectangles inside one member with the smaller share
    below delta_k, checks the exact submultiplicative inequality
    ||1_A u 1_B|| <= min(||1_A P||, ||P 1_B||) and the schedule inequality
    min(...) < eps_k. All rectangles are drawn first (no draw depends on a
    norm); their three norms are then computed per member from its factors,
    and the failures are recorded in draw order. The first is
    _factored_rect_norms; P = V V^* with V orthonormal, so ||1_A P|| =
    ||V[A]|| and ||P 1_B|| = ||V[B]||, the square roots of the top
    eigenvalues of r x r Grams.
    """
    rng = np.random.default_rng(seed)
    dims = member_dims(assembly.family)
    draws = []  # (member, delta_k, A_loc, B_loc)
    while len(draws) < samples:
        i = int(rng.integers(0, len(assembly.family.members)))
        member = assembly.family.members[i]
        # a dimension-1 member is checked at k = 2, a row that a one-member
        # family's schedule does not hold
        delta_k = 1.0 / max(dims[i], 2)
        d = member.n
        small = max(1, int(rng.integers(1, max(2, int(delta_k * d) + 1))))
        perm = rng.permutation(d)
        A_loc = np.sort(perm[:small])
        rest = perm[small:]  # distinct points, so all at positive distance from A_loc
        b_size = int(rng.integers(1, rest.size + 1))
        B_loc = np.sort(rng.choice(rest, size=b_size, replace=False))
        draws.append((i, delta_k, A_loc, B_loc))
    member_of = np.array([i for i, *_ in draws], dtype=int)
    norms = np.zeros((3, len(draws)))  # ||1_A u 1_B||, ||1_A P||, ||P 1_B||
    for i in np.unique(member_of):
        idx = np.flatnonzero(member_of == i)
        L, V = assembly.left[i], assembly.right[i]
        rows = np.zeros((len(idx), len(V)), dtype=bool)
        cols = np.zeros_like(rows)
        for r, j in enumerate(idx):
            rows[r, draws[j][2]] = True
            cols[r, draws[j][3]] = True
        norms[:, idx] = [
            _factored_rect_norms(L, V, rows, cols),
            _top_norms(subset_grams(V, rows)),
            _top_norms(subset_grams(V, cols)),
        ]
    submult_failures = []
    schedule_failures = []
    min_gap = math.inf
    for (i, delta_k, A_loc, B_loc), (val, left, right) in zip(draws, norms.T.tolist()):
        cap = min(left, right)
        if val > cap + 1e-9:
            submult_failures.append((i, tuple(A_loc.tolist()), tuple(B_loc.tolist()), val, cap))
        eps_k = formal_bound(delta_k, assembly.c0)
        if not cap < eps_k:
            schedule_failures.append((i, tuple(A_loc.tolist()), tuple(B_loc.tolist()), cap, eps_k))
        min_gap = min(min_gap, cap - val)
    return {
        "samples": len(draws),
        "submultiplicative_ok": not submult_failures,
        "schedule_ok": not schedule_failures,
        "submult_failures": submult_failures[:10],
        "schedule_failures": schedule_failures[:10],
        "min_slack": float(min_gap),
    }


def non_band_witness(assembly: QuasiLocalAssembly, R, budget: int = 1000, seed: int = 0):
    """Lower bound on the distance from the assembled operator to the R-band set.

    dist_to_band_bounds on the ambient, with the seeds of its random
    rectangles drawn from the largest member. Only the seeds come from that
    member: the closure takes B = far(A) over the whole ambient, so it grows
    into the other members, which lie farther than R from every point of it.
    At the README config (members 16,32,64,128, seed 2, R = 2) 240 of the 500
    draws close to A = the whole 128-point member and B = the 112 points of
    the others, a cross-member rectangle of u, whose norm is exactly 0. Closing
    inside the seed member would spend the budget on rectangles that can
    witness something, but it moves the seeded witnesses, so it waits for the
    next change to the benchmark's reference results.
    """
    largest = assembly.slices[-1]
    if not R < assembly.family.members[-1].diameter:
        raise ValueError("R must stay below the largest member diameter")
    pool = np.arange(largest.start, largest.stop)
    return dist_to_band_bounds(assembly, R, budget=budget, seed=seed, pool=pool)
