"""Block-diagonal quasi-local operator over an expander family, with profiles and witnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RejectionBudgetExhausted
from .operators import (
    SpaceOperator,
    _rect_norms,
    dist_to_band_bounds,
    eps_propagation_brackets,
)
from .randsub import (
    SubspaceSample,
    formal_bound,
    restricted_norm_max,
    sample_subspace,
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


def regular_family(sizes, degree: int, seed: int, R0: float = 1.0) -> ExpanderFamily:
    """Random regular members with a per-family expansion certificate.

    kappa is the worst member constant: exact brute force where the subset
    scan is affordable, spectral lower bound otherwise.
    """
    members = []
    kappas = []
    kinds = []
    for i, size in enumerate(sizes):
        member_seed = int(trial_seed(seed, i).integers(0, 2 ** 63))
        member = random_regular(size, degree, member_seed)
        kappa, kind = expansion_kappa(member, R0, mode="exact" if size <= EXACT_KAPPA_MAX else "spectral")
        members.append(member)
        kappas.append(kappa)
        kinds.append(kind)
    kind = KAPPA_EXACT if all(k == KAPPA_EXACT for k in kinds) else KAPPA_SPECTRAL
    return ExpanderFamily(members=members, R0=R0, kappa=min(kappas), kappa_kind=kind)


def schedule_radius(kappa: float, R0: float, delta: float) -> int:
    """Smallest radius the separation bound certifies for share threshold delta."""
    if not kappa > 1:
        raise ValueError("separation radius needs kappa > 1")
    return int(math.ceil(2.0 * R0 * math.log(1.0 / delta) / math.log(kappa)))


def member_dims(family: ExpanderFamily) -> list:
    """Subspace dimension per member: 1, 2, 3, ... in family order."""
    return list(range(1, len(family.members) + 1))


def select_subspaces(
    family: ExpanderFamily, c0: float, max_rejects: int = 200, seed: int = 0
) -> tuple:
    """Rejection-sample one random subspace per member against the nested share schedule.

    Member number n (dimension n) must satisfy, for every k = 2..n, that
    the maximal restricted norm over shares <= 1/k stays below
    c0 sqrt((1/k) log k). k = 1 is skipped: its threshold degenerates to 0.
    So is every k with a vacuous threshold (see `vacuous_threshold`): the
    restricted norm of a projection is at most 1 and cannot reach it.
    Greedy search scores each candidate.
    """
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
            ok = True
            for k in range(2, n + 1):
                delta_k = 1.0 / k
                if int(delta_k * d) < 1:
                    continue
                eps_k = formal_bound(delta_k, c0)
                if vacuous_threshold(eps_k):
                    continue
                found = restricted_norm_max(sample, delta_k, mode="greedy", c0=c0).value
                if found >= eps_k:
                    ok = False
                    break
            if ok:
                samples.append(sample)
                reject_counts.append(rejects)
                break
            rejects += 1
            if rejects > max_rejects:
                raise RejectionBudgetExhausted(
                    f"member {idx}: no admissible subspace in {max_rejects} draws; "
                    "c0 is too small at this scale"
                )
    return samples, reject_counts


@dataclass
class QuasiLocalAssembly:
    family: ExpanderFamily
    ambient: FiniteMetricSpace
    subspaces: list
    c0: float
    u: SpaceOperator
    slices: list

    @property
    def schedule(self) -> list:
        """(k, delta_k, eps_k) rows for k up to the largest subspace dimension."""
        K = max(member_dims(self.family))
        return [
            {"k": k, "delta": 1.0 / k, "eps": formal_bound(1.0 / k, self.c0)}
            for k in range(2, K + 1)
        ]

    @property
    def schedule_vacuous(self) -> list:
        """One flag per schedule row: its threshold cannot be reached."""
        return [vacuous_threshold(row["eps"]) for row in self.schedule]


def assemble(
    family: ExpanderFamily, subspaces: list, blocks: list | None = None, c0: float = 3.0
) -> QuasiLocalAssembly:
    """Block-diagonal operator diag of the subspace projections on the coarse union.

    With `blocks` given (one n x n contraction per member, in the subspace
    basis), assembles diag of the compressed operators instead.
    """
    if len(subspaces) != len(family.members):
        raise DimensionMismatch("one subspace per family member required")
    for member, sub in zip(family.members, subspaces):
        if sub.d != member.n:
            raise DimensionMismatch("subspace ambient dimension must match the member size")
    ambient = coarse_union(family.members)
    slices = piece_slices(family.members)
    mat = np.zeros((ambient.n, ambient.n), dtype=np.complex128)
    for i, (sub, sl) in enumerate(zip(subspaces, slices)):
        if blocks is None:
            mat[sl, sl] = sub.P
        else:
            b = np.asarray(blocks[i], dtype=np.complex128)
            if b.shape != (sub.n, sub.n):
                raise DimensionMismatch(f"block {i} must be {sub.n} x {sub.n}")
            mat[sl, sl] = sub.basis @ b @ sub.basis.conj().T
    u = SpaceOperator(space=ambient, mat=mat)
    return QuasiLocalAssembly(
        family=family, ambient=ambient, subspaces=subspaces, c0=c0, u=u, slices=slices
    )


def projection_invariants(assembly: QuasiLocalAssembly) -> dict:
    m = assembly.u.mat
    return {
        "idempotency_dev": float(np.abs(m @ m - m).max()),
        "self_adjoint_dev": float(np.abs(m - m.conj().T).max()),
        "trace": float(np.real(np.trace(m))),
    }


def quasilocality_profile(
    assembly: QuasiLocalAssembly, eps_list, seed: int = 0, budget: int = 300
) -> list:
    """Bracket the eps-propagation radius of the assembled operator per epsilon,
    all from one search (eps_propagation_brackets)."""
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly descending")
    brackets = eps_propagation_brackets(assembly.u, eps_list, seed=seed, budget=budget)
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
    norm); their three norms are then computed per member, one LAPACK pass
    per shape group, and the failures are recorded in draw order.
    """
    rng = np.random.default_rng(seed)
    dims = member_dims(assembly.family)
    draws = []  # (member, delta_k, A_loc, B_loc)
    while len(draws) < samples:
        i = int(rng.integers(0, len(assembly.family.members)))
        member = assembly.family.members[i]
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
        P = assembly.subspaces[i].P
        rows = np.zeros((len(idx), len(P)), dtype=bool)
        cols = np.zeros_like(rows)
        for r, j in enumerate(idx):
            rows[r, draws[j][2]] = True
            cols[r, draws[j][3]] = True
        sl = assembly.slices[i]
        full = np.ones_like(rows)
        norms[:, idx] = [
            _rect_norms(assembly.u.mat[sl, sl], rows, cols), _rect_norms(P, rows, full), _rect_norms(P, full, cols)
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

    Rectangles are searched inside the largest member, where the expander
    separation bound forces one side of any far pair to be small.
    """
    largest = assembly.slices[-1]
    if not R < assembly.family.members[-1].diameter:
        raise ValueError("R must stay below the largest member diameter")
    pool = np.arange(largest.start, largest.stop)
    bounds = dist_to_band_bounds(assembly.u, R, budget=budget, seed=seed, pool=pool)
    return bounds
