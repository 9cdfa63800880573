"""Acceptance suite: one test per headline guarantee, each printing a PASS/FAIL line.

Golden values frozen in GOLDEN were produced by the same configurations on the
reference environment and guard against silent numerical drift.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    eps_propagation_oracle_scan,
    propagation_oracle,
    random_connected_graph_space,
    random_operator,
)
from roelab.cli import run
from roelab.operators import band_truncate, eps_propagation_radius
from roelab.propa import (
    commutator_bound_check,
    rademacher_diagnostics,
    sz_approximate,
    uniform_ball_kernel,
)
from roelab.quasilocal import (
    assemble,
    mechanism_check,
    non_band_witness,
    projection_invariants,
    quasilocality_profile,
    regular_family,
    select_subspaces,
)
from roelab import randsub
from roelab.randsub import (
    entropy_count_bound,
    levy_median_check,
    mc_lemma_random,
    sample_subspace,
)
from roelab.report import report_diff, results_bytes
from roelab.reps import (
    averaged_norm,
    gap_certificate,
    gap_lower_bound,
    heisenberg_rep,
    symmetric_standard_rep,
)
from roelab.spaces import far_points, growth, interval_space, torus_space
from roelab.translations import decompose_band, schur_restrict
from roelab.operators import SpaceOperator, operator_norm

GOLDEN = {
    # non_band_witness(R=2) on members 16/32/64/128, degree 4, family seed 2,
    # c0 = 3, search budget 500, search seed 2
    "ql_witness_lower": 0.3053800302689332,
    # rademacher reconstruction gap ceiling: torus 60, R=2, delta=0.5,
    # 2000 trials, seed 7, banded contraction seed 0 (observed 0.02163...)
    "rademacher_gap_max": 0.03,
}


def verdict(number, ok, detail=""):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_band_decomposition_partitions():
    """500 seeded graphs, |X| <= 64, R in {1,2,3}: exact disjoint partition, count cap."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    ok = True
    for i in range(500):
        n = int(rng.integers(4, 65))
        space = random_connected_graph_space(rng, n)
        R = 1 + i % 3
        dec = decompose_band(space, R)
        count = np.zeros((n, n), dtype=np.int64)
        for part in dec.parts:
            for x, y in part.tolist():
                count[y, x] += 1
        if not np.array_equal(count == 1, space.near(R)) or np.any(count > 1):
            ok = False
            break
        if len(dec.parts) > 2 * growth(space, R):
            ok = False
            break
    elapsed = time.monotonic() - start
    verdict(1, ok and elapsed < 30.0, f"500 graphs in {elapsed:.1f}s (< 30s)")


def test_criterion_02_averaging_bound():
    """1000 random alpha per rep stay under 1/sqrt(n) + 1e-9; projection certificate."""
    start = time.monotonic()
    rng = np.random.default_rng(202)
    ok = True
    worst_margin = math.inf
    reps = [heisenberg_rep(p) for p in (3, 5, 7)]
    reps += [symmetric_standard_rep(m) for m in (3, 4, 5)]
    for rep in reps:
        cert = rep.certificate(seed=0)
        if not cert["ok"]:
            ok = False
            break
        if abs(cert["projection_trace"] - 1.0) > 1e-8:
            ok = False
            break
        if cert["projection_idempotency_dev"] > 1e-8:
            ok = False
            break
        bound = 1.0 / math.sqrt(rep.dim) + 1e-9
        for _ in range(1000):
            alpha = np.exp(2j * np.pi * rng.random(rep.group.order))
            value = averaged_norm(rep, alpha)
            worst_margin = min(worst_margin, bound - value)
            if value > bound:
                ok = False
                break
        if not ok:
            break
    elapsed = time.monotonic() - start
    verdict(2, ok and elapsed < 60.0, f"min margin {worst_margin:.3e}, {elapsed:.1f}s (< 60s)")


def test_criterion_03_gap_certificate_chain():
    """Certificate chain at p=5 and p=67; the boundary identity eps > 3/5."""
    start = time.monotonic()
    c5 = gap_certificate(heisenberg_rep(5), far_points(5), R=2)
    ok = c5["verdict"] == "PASS" and c5["eps_achieved"] == 1.0
    ok = ok and c5["gap_bound"] == pytest.approx(gap_lower_bound(5, 1))
    c67 = gap_certificate(heisenberg_rep(67), far_points(67), R=2)
    expected67 = (math.sqrt(67) - 2.0) / (math.sqrt(67) + 2.0)
    ok = ok and c67["verdict"] == "PASS" and c67["eps_achieved"] == 1.0
    ok = ok and c67["gap_bound"] == pytest.approx(expected67, abs=1e-12)
    # boundary identity: growth exactly sqrt(n)/8 forces eps > 3/5
    for n in (64.0, 256.0, 1024.0):
        ok = ok and gap_lower_bound(n, math.sqrt(n) / 8.0) == pytest.approx(0.6, abs=1e-12)
    # formula evaluation cross-check at n=25, N=1
    ok = ok and gap_lower_bound(25, 1) == pytest.approx(3.0 / 7.0, abs=1e-12)
    elapsed = time.monotonic() - start
    verdict(3, ok and elapsed < 300.0, f"p=67 gap {c67['gap_bound']:.4f}, {elapsed:.1f}s (< 5min)")


def test_criterion_04_band_projection_identity():
    """Sum of translation restrictions equals band truncation exactly, 100 triples."""
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 22))
        space = random_connected_graph_space(rng, n)
        R = int(rng.integers(0, 4))
        u = random_operator(rng, space)
        total = np.zeros_like(u.mat)
        for part in decompose_band(space, R).parts:
            total += schur_restrict(u, part).mat
        if not np.array_equal(total, band_truncate(u, R).mat):
            ok = False
            break
    verdict(4, ok, "100 exact reassemblies")


def test_criterion_05_eps_propagation_oracle():
    """Exact mode agrees with the independent 2^|X| scan oracle on 50 instances."""
    rng = np.random.default_rng(505)
    ok = True
    for i in range(50):
        n = int(rng.integers(6, 13))
        space = random_connected_graph_space(rng, n)
        banded = rng.random() < 0.5
        u = random_operator(rng, space, R=int(rng.integers(1, 3)) if banded else None)
        eps = float(rng.uniform(0.2, 2.0))
        res = eps_propagation_radius(u, eps)
        oracle = eps_propagation_oracle_scan(u, eps)
        if res.lower != oracle or res.upper != oracle:
            ok = False
            break
    verdict(5, ok, "50 instances, |X| <= 12")


def test_criterion_06_random_subspace_ingredients():
    """Levy median window, entropy grid, vacuous c0=100 flag, exact-vs-greedy gap."""
    start = time.monotonic()
    d, delta = 400, 0.04
    levy = levy_median_check(d=d, delta=delta, trials=2000, seed=606)
    lo = math.sqrt(delta) - 3.0 / math.sqrt(d)
    hi = math.sqrt(delta) + 12.0 / math.sqrt(d)
    ok = lo <= levy["median"] <= hi
    for dd in (40, 80, 120, 200, 320, 400, 500, 640, 800, 1000):
        for frac in (0.1, 0.2, 0.25, 0.4, 0.5):
            k = int(round(frac * dd))
            log_binomial, H_bound = entropy_count_bound(dd, k / dd)
            ok = ok and log_binomial <= H_bound + 1e-9
    mc = mc_lemma_random(d=30, n=4, delta=0.2, c0=100.0, trials=10, seed=606)
    ok = ok and mc["vacuous"] and mc["bound"] > 1.0
    worst_gap = 0.0
    for seed in range(50):
        s = sample_subspace(d=12, n=2, seed=seed)
        exact, _ = randsub._exact_max(s.basis, 3)
        greedy, _ = randsub._greedy_max(s.basis, 3)
        worst_gap = max(worst_gap, exact - greedy)
    ok = ok and worst_gap <= 0.05
    elapsed = time.monotonic() - start
    verdict(
        6,
        ok and elapsed < 120.0,
        f"median {levy['median']:.3f} in [{lo:.3f},{hi:.3f}], greedy gap {worst_gap:.3e}, "
        f"{elapsed:.1f}s (< 2min)",
    )


def test_criterion_07_quasilocal_assembly():
    """Members 16/32/64/128: invariants, monotone profile, mechanism, golden witness."""
    start = time.monotonic()
    family = regular_family([16, 32, 64, 128], degree=4, seed=2)
    ok = family.kappa > 1
    subs, _ = select_subspaces(family, c0=3.0, seed=2)
    assembly = assemble(family, subs, c0=3.0)
    inv = projection_invariants(assembly)
    ok = ok and inv["idempotency_dev"] <= 1e-8 and inv["self_adjoint_dev"] <= 1e-8
    rows = quasilocality_profile(assembly, [0.5, 0.25, 0.1, 0.02], seed=0, budget=200)
    lowers = [r["R_lower"] for r in rows]
    uppers = [r["R_upper"] for r in rows]
    ok = ok and all(l <= u for l, u in zip(lowers, uppers))
    ok = ok and all(a <= b for a, b in zip(lowers, lowers[1:]))
    ok = ok and all(a <= b for a, b in zip(uppers, uppers[1:]))
    mech = mechanism_check(assembly, samples=1000, seed=0)
    ok = ok and mech["submultiplicative_ok"] and mech["schedule_ok"]
    w1 = non_band_witness(assembly, R=2, budget=500, seed=2)
    w2 = non_band_witness(assembly, R=2, budget=500, seed=2)
    ok = ok and w1.lower > 0 and w1.lower == w2.lower
    ok = ok and w1.lower == pytest.approx(GOLDEN["ql_witness_lower"], abs=1e-9)
    elapsed = time.monotonic() - start
    verdict(7, ok and elapsed < 300.0, f"witness {w1.lower:.6f}, {elapsed:.1f}s (< 5min)")


def test_criterion_08_band_approximation_theorem():
    """Error under 18 eps^(1/4) on 80 contractions; commutator bound on 200 instances."""
    start = time.monotonic()
    rng = np.random.default_rng(808)
    ok = True
    for N in (200, 300):
        space = interval_space(N)
        for eps in (1e-2, 1e-4):
            for _ in range(20):
                R = int(rng.integers(1, 4))
                m = np.where(space.dist <= R, rng.standard_normal((N, N)), 0.0).astype(complex)
                m /= operator_norm(m) / float(rng.uniform(0.5, 1.0))
                u = SpaceOperator(space=space, mat=m)
                approx, error, report = sz_approximate(u, eps, R)
                if not (error < 18.0 * eps ** 0.25):
                    ok = False
                if propagation_oracle(approx, 0.0) > 2 * report["T"]:
                    ok = False
        if not ok:
            break
    lip_ok = True
    for _ in range(200):
        n = int(rng.integers(30, 80))
        space = interval_space(n)
        R = int(rng.integers(1, 4))
        delta = float(rng.uniform(0.1, 0.9))
        m = np.where(space.dist <= R, rng.standard_normal((n, n)), 0.0).astype(complex)
        m /= operator_norm(m) / float(rng.uniform(0.3, 1.0))
        u = SpaceOperator(space=space, mat=m)
        steps = rng.uniform(-delta / R, delta / R, size=n - 1)
        h = np.clip(np.concatenate([[0.5], 0.5 + np.cumsum(steps)]), 0.0, 1.0)
        out = commutator_bound_check(u, h, R=R, delta=delta, eps=1e-9)
        if not out["holds"]:
            lip_ok = False
            break
    elapsed = time.monotonic() - start
    verdict(8, ok and lip_ok and elapsed < 180.0, f"{elapsed:.1f}s (< 3min)")


def test_criterion_09_rademacher_diagnostics():
    """Moment checks on constructed fields; reconstruction gap under the golden ceiling."""
    ok = True
    for space in (torus_space(40), interval_space(50), torus_space(60)):
        mu = uniform_ball_kernel(space, R=2, delta=0.5)
        nu = uniform_ball_kernel(space, mu.S, 0.5)
        u = SpaceOperator(space=space, mat=np.eye(space.n, dtype=complex))
        out = rademacher_diagnostics(nu, mu, trials=1000, seed=9, u=u)
        ok = ok and out["fourth_closed_max"] <= 3.0 + 1e-12
        ok = ok and out["second_moment_ok"] and out["fourth_closed_ok"]
    space = torus_space(60)
    mu = uniform_ball_kernel(space, R=2, delta=0.5)
    nu = uniform_ball_kernel(space, mu.S, 0.5)
    rng = np.random.default_rng(0)
    m = np.where(space.dist <= 2, rng.standard_normal((60, 60)), 0.0).astype(complex)
    m /= operator_norm(m)
    u = SpaceOperator(space=space, mat=m)
    out = rademacher_diagnostics(nu, mu, trials=2000, seed=7, u=u)
    gap = out["reconstruction_gap"]
    ok = ok and gap < GOLDEN["rademacher_gap_max"]
    verdict(9, ok, f"reconstruction gap {gap:.4f} < {GOLDEN['rademacher_gap_max']}")


def test_criterion_10_determinism():
    """Every golden config reruns to a byte-identical results section."""
    golden_configs = [
        ["space", "kappa", "--space", "regular:16:4:2", "--mode", "exact"],
        ["translations", "decompose", "--space", "regular:24:3:1", "-R", "2"],
        ["oper", "eps-prop", "--space", "interval:40", "--eps", "0.1", "-R", "3", "--seed", "4"],
        ["oper", "band-dist", "--space", "interval:30", "-R", "2", "--budget", "200"],
        ["reps", "irr-check", "--group", "heis:5", "--trials", "50"],
        ["reps", "gap-cert", "--group", "heis:5", "--space", "far:5", "-R", "2"],
        ["randsub", "mc", "--d", "20", "--n", "3", "--delta", "0.2", "--c0", "3", "--trials", "10"],
        ["randsub", "levy", "--d", "400", "--delta", "0.04", "--trials", "500"],
        ["randsub", "entropy", "--d", "100", "--delta", "0.2"],
        ["ql", "build", "--members", "16,32,64", "--degree", "4", "--c0", "3", "--seed", "2"],
        ["ql", "witness", "--members", "16,32,64", "--degree", "4", "--seed", "2", "-R", "2"],
        ["propa", "sz", "--N", "120", "--eps", "0.0001", "-R", "2"],
        ["propa", "rademacher", "--N", "60", "--delta", "0.5", "-R", "1", "--trials", "300"],
        ["all", "smoke", "--seed", "0"],
    ]
    ok = True
    for argv in golden_configs:
        first, code1 = run(argv)
        second, code2 = run(argv)
        if code1 != 0 or code2 != 0:
            ok = False
            break
        if results_bytes(first["results"]) != results_bytes(second["results"]):
            ok = False
            break
        if report_diff(first, second) != []:
            ok = False
            break
    verdict(10, ok, f"{len(golden_configs)} golden configs byte-identical")
