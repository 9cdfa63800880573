import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph_space, random_operator
from roelab.errors import (
    HypothesisViolated,
    KernelInvalid,
    NotAContraction,
)
from roelab import operators
from roelab.operators import (
    SpaceOperator,
    band_truncate,
    dist_to_band_bounds,
    eps_propagation_radius,
    operator_norm,
    propagation,
)
from roelab.reps import gap_certificate, heisenberg_rep
from roelab.spaces import far_points, interval_space, torus_space
from roelab import propa
from roelab.propa import (
    PropertyAKernel,
    commutator_bound_check,
    isometry_field,
    phi_nu,
    rademacher_diagnostics,
    sz_approximate,
    uniform_ball_kernel,
    validate_kernel,
)


def banded_contraction(rng, space, R, scale=0.99):
    u = random_operator(rng, space, R=R)
    return SpaceOperator(space=space, mat=u.mat / operator_norm(u.mat) * scale)


class TestSpaces:
    def test_interval(self):
        sp = interval_space(6)
        assert sp.dist[0, 5] == 5
        assert sp.diameter == 5

    def test_torus(self):
        sp = torus_space(6)
        assert sp.dist[0, 5] == 1
        assert sp.dist[0, 3] == 3


class TestKernels:
    def test_uniform_ball_rows_are_probabilities(self):
        sp = interval_space(40)
        nu = uniform_ball_kernel(sp, R=2, delta=0.5)
        assert nu.S == 8
        assert np.abs(nu.mu.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(nu.mu >= 0)

    def test_support_in_balls(self):
        sp = interval_space(30)
        nu = uniform_ball_kernel(sp, R=1, delta=0.4)
        assert np.all((nu.mu > 0) <= (sp.dist <= nu.S))

    def test_variation_below_delta(self):
        sp = torus_space(50)
        nu = uniform_ball_kernel(sp, R=2, delta=0.5)
        close = np.argwhere((sp.dist <= 2) & (sp.dist > 0))
        for x, y in close:
            assert np.abs(nu.mu[x] - nu.mu[y]).sum() < 0.5

    def test_large_delta_allows_tiny_support(self):
        sp = interval_space(20)
        nu = uniform_ball_kernel(sp, R=3, delta=2.5)
        assert nu.S == 3  # ceil(2R/delta)

    def test_nan_or_negative_radius_and_delta_rejected(self):
        sp = interval_space(10)
        for R, delta in [(math.nan, 0.5), (-1, 0.5), (1, math.nan), (1, 0.0), (1, -0.5)]:
            with pytest.raises(ValueError):
                uniform_ball_kernel(sp, R=R, delta=delta)
            with pytest.raises(ValueError):
                uniform_ball_kernel(interval_space(100), R=R, delta=delta)
        # an infinite R, or a delta so small that 2R/delta overflows, has no
        # integer support radius
        for R, delta in [(math.inf, 0.5), (1, 1e-320)]:
            with pytest.raises(ValueError, match="not finite"):
                uniform_ball_kernel(sp, R=R, delta=delta)
        # a kernel proved for some R does not pass for a NaN or negative one,
        # which used to read as "no close pairs"
        nu = uniform_ball_kernel(sp, R=1, delta=0.5)
        for R in (math.nan, -1):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                PropertyAKernel(space=sp, mu=nu.mu, S=nu.S, delta=nu.delta, R=R)
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                validate_kernel(sp, nu.mu, R, nu.delta, 1)

    def test_invalid_kernel_rejected(self):
        sp = interval_space(6)
        mu = np.eye(6)  # variation 2 between distinct points at distance <= R
        with pytest.raises(KernelInvalid):
            PropertyAKernel(space=sp, mu=mu, S=0, delta=0.5, R=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # a NaN fails no comparison, so only the finiteness check can catch it
        nu = uniform_ball_kernel(interval_space(10), 1, 0.9)
        mu = nu.mu.copy()
        mu[3, 3] = bad
        with pytest.raises(KernelInvalid, match="finite"):
            PropertyAKernel(space=nu.space, mu=mu, S=nu.S, delta=nu.delta, R=nu.R)


def reference_validate_kernel(space, mu, S, delta, R) -> None:
    """Per-row variation sums over every row: validate_kernel before the
    closed form, kept as the oracle."""
    mu = np.asarray(mu)
    n = space.n
    if mu.shape != (n, n):
        raise KernelInvalid("kernel must be a square row-stochastic array over the space")
    if np.any(mu < 0):
        raise KernelInvalid("kernel rows must be nonnegative")
    if np.abs(mu.sum(axis=1) - 1.0).max() > 1e-12:
        raise KernelInvalid("kernel rows must sum to 1")
    if np.any((mu > 0) & (space.dist > S)):
        raise KernelInvalid(f"kernel support leaves the radius-{S} balls")
    close_mask = (space.dist <= R) & ~np.eye(n, dtype=bool)
    for x in range(n):
        ys = np.flatnonzero(close_mask[x])
        if ys.size == 0:
            continue
        variations = np.abs(mu[ys] - mu[x]).sum(axis=1)
        worst = int(np.argmax(variations))
        if variations[worst] >= delta:
            raise KernelInvalid(
                f"variation at pair ({x},{ys[worst]}) is not below delta={delta}"
            )


def _verdict(check, *args):
    try:
        check(*args)
    except KernelInvalid as exc:
        return str(exc)
    return None


def _max_variation(space, mu, R) -> float:
    """Largest per-row variation sum over close pairs, summed as the oracle sums."""
    close = (space.dist <= R) & ~np.eye(space.n, dtype=bool)
    worst = -1.0
    for x in range(space.n):
        ys = np.flatnonzero(close[x])
        if ys.size:
            worst = max(worst, float(np.abs(mu[ys] - mu[x]).sum(axis=1).max()))
    return worst


@st.composite
def kernel_cases(draw):
    kind = draw(st.sampled_from(["interval", "torus", "graph"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "graph":
        space = random_connected_graph_space(rng, draw(st.integers(2, 18)))
    else:
        N = draw(st.integers(2, 40))
        space = interval_space(N) if kind == "interval" else torus_space(N)
    S = draw(st.integers(0, int(space.diameter) + 1))
    R = draw(st.sampled_from([1, 2, 3, 5, 0.5]))
    within = space.dist <= S
    shape = draw(st.sampled_from(["uniform", "heavy", "light", "perturbed"]))
    if shape == "perturbed":  # not uniform on its support: the per-row path
        w = within * rng.uniform(0.5, 1.5, size=within.shape)
        mu = w / w.sum(axis=1, keepdims=True)
    else:
        mu = within / within.sum(axis=1, keepdims=True)
        # row mass 1 +- 5e-13, inside the row tolerance, moves the sums off the closed form
        mu = mu * {"uniform": 1.0, "heavy": 1.0 + 5e-13, "light": 1.0 - 5e-13}[shape]
    worst = _max_variation(space, mu, R)
    if worst < 0:
        delta = draw(st.floats(0.01, 2.0))
    else:
        step = draw(st.sampled_from(["tie", "up", "down", "1e-10", "-1e-10", "1e-3", "0.3"]))
        if step == "tie":
            delta = worst
        elif step == "up":
            delta = float(np.nextafter(worst, np.inf))
        elif step == "down":
            delta = float(np.nextafter(worst, -np.inf))
        else:
            delta = worst + float(step)
        delta = max(delta, 1e-6)
    return space, mu, S, delta, R


class TestValidateKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_raises_exactly_when_the_per_row_sums_do(self, case):
        assert _verdict(validate_kernel, *case) == _verdict(reference_validate_kernel, *case)

    @pytest.mark.parametrize("N,R,delta", [(300, 1, 0.1), (300, 20, 0.1), (200, 3, 0.01)])
    def test_cli_sized_kernels_agree(self, N, R, delta):
        space = interval_space(N)
        mu = uniform_ball_kernel(space, R, delta)
        nu = uniform_ball_kernel(space, mu.S, delta)
        for k in (mu, nu):
            args = (space, k.mu, k.S, k.delta, k.R)
            assert _verdict(validate_kernel, *args) is None
            assert _verdict(reference_validate_kernel, *args) is None
            tie = _max_variation(space, k.mu, k.R)
            assert _verdict(validate_kernel, space, k.mu, k.S, tie, k.R) == _verdict(
                reference_validate_kernel, space, k.mu, k.S, tie, k.R
            ) is not None

    def test_closed_form_leaves_no_rows_away_from_delta(self):
        space = interval_space(100)
        nu = uniform_ball_kernel(space, R=2, delta=0.5)
        close = (space.dist <= 2) & ~np.eye(100, dtype=bool)
        assert len(propa._rows_to_sum(nu.mu, close, 0.5)) == 0
        # a tie at the worst pair sends exactly the rows that reach it
        worst = _max_variation(space, nu.mu, 2)
        rows = propa._rows_to_sum(nu.mu, close, worst)
        assert 0 < len(rows) < 100

    def test_non_uniform_rows_are_all_summed(self):
        space = interval_space(30)
        nu = uniform_ball_kernel(space, R=1, delta=0.5)
        mu = nu.mu.copy()
        mu[0, 0] += 0.1  # row 0 stays stochastic but is no longer uniform
        mu[0, 1] -= 0.1
        close = (space.dist <= 1) & ~np.eye(30, dtype=bool)
        assert list(propa._rows_to_sum(mu, close, 0.5)) == list(range(30))


def random_valid_kernel(seed) -> PropertyAKernel:
    """A validated kernel that is not uniform on its supports, so that
    validate_kernel sums every row."""
    rng = np.random.default_rng(seed)
    kind = ("interval", "torus", "graph")[seed % 3]
    if kind == "graph":
        space = random_connected_graph_space(rng, int(rng.integers(4, 18)))
    else:
        N = int(rng.integers(4, 40))
        space = interval_space(N) if kind == "interval" else torus_space(N)
    S = int(rng.integers(1, int(space.diameter) + 1))
    R = (0.5, 1, 2, 3)[int(rng.integers(4))]
    w = (space.dist <= S) * rng.uniform(0.5, 1.5, size=space.dist.shape)
    mu = w / w.sum(axis=1, keepdims=True)
    delta = max(_max_variation(space, mu, R), 0.0) + 1e-3
    close = (space.dist <= R) & ~np.eye(space.n, dtype=bool)
    assert list(propa._rows_to_sum(mu, close, delta)) == list(range(space.n))
    return PropertyAKernel(space=space, mu=mu, S=S, delta=delta, R=R)


class TestIsometryField:
    @pytest.mark.parametrize("seed", range(24))
    def test_properties_follow_from_the_kernel(self, seed):
        # isometry_field checks nothing; these are the facts its docstring proves
        nu = random_valid_kernel(seed)
        field = isometry_field(nu)
        space, F = nu.space, field.F
        assert field.T == nu.S
        assert np.abs((F ** 2).sum(axis=0) - 1.0).max() <= 1e-12
        assert not np.any((F > 0) & (space.dist > field.T))
        for x, y in np.argwhere((space.dist <= nu.R) & ~np.eye(space.n, dtype=bool)):
            qv = ((F[:, x] - F[:, y]) ** 2).sum()
            assert qv <= np.abs(nu.mu[x] - nu.mu[y]).sum() + 1e-12

    def test_columns_unit_norm(self):
        sp = interval_space(30)
        field = isometry_field(uniform_ball_kernel(sp, R=2, delta=0.5))
        assert np.abs((field.F ** 2).sum(axis=0) - 1.0).max() < 1e-12

    def test_gram_psd_unit_diagonal(self):
        sp = torus_space(24)
        field = isometry_field(uniform_ball_kernel(sp, R=1, delta=0.5))
        g = field.gram()
        assert np.abs(np.diag(g) - 1.0).max() < 1e-12
        assert np.linalg.eigvalsh(g).min() > -1e-9

    def test_quadratic_variation_below_delta(self):
        sp = interval_space(40)
        nu = uniform_ball_kernel(sp, R=2, delta=0.3)
        field = isometry_field(nu)
        close = np.argwhere((sp.dist <= 2) & (sp.dist > 0))
        for x, y in close:
            assert ((field.F[:, x] - field.F[:, y]) ** 2).sum() < 0.3


class TestPhiNu:
    def test_unital(self):
        sp = interval_space(25)
        field = isometry_field(uniform_ball_kernel(sp, R=1, delta=0.5))
        ident = SpaceOperator(space=sp, mat=np.eye(25, dtype=complex))
        assert np.abs(phi_nu(ident, field).mat - np.eye(25)).max() < 1e-12

    def test_output_propagation(self):
        rng = np.random.default_rng(0)
        sp = interval_space(40)
        field = isometry_field(uniform_ball_kernel(sp, R=1, delta=1.0))
        u = random_operator(rng, sp)
        out = phi_nu(u, field)
        assert propagation(out, tol=0.0) <= 2 * field.T

    def test_contraction(self):
        rng = np.random.default_rng(1)
        sp = torus_space(30)
        field = isometry_field(uniform_ball_kernel(sp, R=1, delta=0.8))
        u = random_operator(rng, sp)
        assert operator_norm(phi_nu(u, field).mat) <= operator_norm(u.mat) + 1e-9

    def test_positivity_preserved(self):
        rng = np.random.default_rng(2)
        sp = interval_space(15)
        field = isometry_field(uniform_ball_kernel(sp, R=1, delta=0.7))
        a = rng.standard_normal((15, 15))
        pos = SpaceOperator(space=sp, mat=(a @ a.T).astype(complex))
        out = phi_nu(pos, field)
        assert np.linalg.eigvalsh(out.mat).min() > -1e-9


class TestCommutatorBound:
    def test_holds_on_banded_contractions(self):
        rng = np.random.default_rng(3)
        sp = interval_space(50)
        for _ in range(5):
            u = banded_contraction(rng, sp, R=3)
            h = np.linspace(0.0, 1.0, 50)
            out = commutator_bound_check(u, h, R=3, delta=0.2, eps=1e-9)
            assert out["holds"], out

    def test_rejects_fast_varying_h(self):
        sp = interval_space(10)
        u = banded_contraction(np.random.default_rng(0), sp, R=1)
        h = np.tile([0.0, 1.0], 5)
        with pytest.raises(HypothesisViolated):
            commutator_bound_check(u, h, R=1, delta=0.1, eps=1e-9)

    def test_rejects_h_out_of_range(self):
        sp = interval_space(10)
        u = banded_contraction(np.random.default_rng(0), sp, R=1)
        with pytest.raises(HypothesisViolated):
            commutator_bound_check(u, np.full(10, 2.0), R=1, delta=0.5, eps=1e-9)

    def test_rejects_wrong_propagation(self):
        sp = interval_space(10)
        u = banded_contraction(np.random.default_rng(1), sp, R=6)
        with pytest.raises(HypothesisViolated):
            commutator_bound_check(u, np.linspace(0, 1, 10), R=1, delta=0.9, eps=1e-6)


    def test_exact_scan_raises_with_its_witness(self):
        # |X| = 10 takes the exact scan at R; the tail bound exceeds eps
        u = banded_contraction(np.random.default_rng(1), interval_space(10), R=6)
        witness = operators.eps_propagation_violation(u, 1e-6, 1)
        assert witness.separation > 1 and witness.value > 1e-6
        with pytest.raises(HypothesisViolated, match=re.escape(str(witness))):
            propa._validate_eps_propagation(u, 1e-6, 1)


class TestSz:
    def test_error_within_bound(self):
        rng = np.random.default_rng(4)
        for N in (60, 120):
            sp = interval_space(N)
            for eps in (1e-2, 1e-4):
                u = banded_contraction(rng, sp, R=2)
                approx, error, report = sz_approximate(u, eps, R=2)
                assert report["holds"]
                assert error < 18.0 * eps ** 0.25
                assert propagation(approx, tol=0.0) <= 2 * report["T"]

    def test_delta_is_sqrt_eps(self):
        sp = interval_space(50)
        u = banded_contraction(np.random.default_rng(5), sp, R=1)
        _, _, report = sz_approximate(u, 0.01, R=1)
        assert report["delta"] == pytest.approx(0.1)
        assert report["S"] == math.ceil(2 * 1 / 0.1)

    def test_rejects_non_contraction(self):
        sp = interval_space(20)
        u = SpaceOperator(space=sp, mat=2.0 * np.eye(20, dtype=complex))
        with pytest.raises(NotAContraction):
            sz_approximate(u, 0.01, R=1)

    def test_support_covers_space_flag(self):
        # one point: T = 40000 covers the space, so the PASS is vacuous
        u = banded_contraction(np.random.default_rng(6), interval_space(1), R=1)
        _, _, report = sz_approximate(u, 1e-4, R=1)
        assert report["T"] == 40000
        assert report["support_covers_space"] is True
        # eps = 1/4: S = 4, T = 16, and N = 40 > 2T leaves diameter 39 > 32
        u = banded_contraction(np.random.default_rng(6), interval_space(40), R=1)
        _, _, report = sz_approximate(u, 0.25, R=1)
        assert (report["S"], report["T"]) == (4, 16)
        assert report["support_covers_space"] is False

    def test_eps_validation(self):
        sp = interval_space(10)
        u = banded_contraction(np.random.default_rng(0), sp, R=1)
        with pytest.raises(ValueError):
            sz_approximate(u, 0.0, R=1)


@pytest.fixture(scope="module")
def setup():
    sp = torus_space(40)
    mu = uniform_ball_kernel(sp, R=2, delta=0.5)
    nu = uniform_ball_kernel(sp, mu.S, 0.5)
    field = isometry_field(nu)
    return sp, mu, field


class TestRademacher:
    def test_all_checks_pass(self, setup):
        sp, mu, field = setup
        u = SpaceOperator(space=sp, mat=np.eye(40, dtype=complex) * 0.5)
        out = rademacher_diagnostics(field, mu, trials=1500, seed=0, u=u)
        for key, value in out.items():
            if key.endswith("_ok"):
                assert value, (key, out)

    def test_fourth_moment_closed_form(self, setup):
        sp, mu, field = setup
        out = rademacher_diagnostics(field, mu, trials=500, seed=1)
        assert out["fourth_closed_max"] <= 3.0 + 1e-12

    def test_reconstruction_gap_small_at_many_trials(self, setup):
        sp, mu, field = setup
        u = SpaceOperator(space=sp, mat=np.eye(40, dtype=complex))
        out = rademacher_diagnostics(field, mu, trials=20_000, seed=2, u=u)
        # empirical average of f u f approaches the Schur-multiplier image
        assert out["reconstruction_gap"] < 0.05

    def test_trials_validation(self, setup):
        sp, mu, field = setup
        with pytest.raises(ValueError):
            rademacher_diagnostics(field, mu, trials=10, seed=0)


@pytest.fixture
def wide_err(monkeypatch):
    """operator_norm with its values unchanged and its err raised by 1."""
    exact = operators._norm_with_err

    def widened(mat):
        value, err = exact(mat)
        return value, err + 1.0

    monkeypatch.setattr(operators, "_norm_with_err", widened)


class TestErrorBars:
    """Upper-bound verdicts use value + err; lower-bound ones the value alone."""

    def test_sz_holds_needs_the_upper_estimate(self, wide_err):
        u = banded_contraction(np.random.default_rng(4), interval_space(60), R=2)
        _, error, report = sz_approximate(u, 1e-4, R=2)  # bound 1.8
        assert error + 1.0 < report["bound"] and report["holds"]
        _, error, report = sz_approximate(u, 1e-6, R=2)  # bound 0.57
        assert error < report["bound"] < error + 1.0 and not report["holds"]

    def test_contraction_test_uses_the_value(self, wide_err):
        u = banded_contraction(np.random.default_rng(4), interval_space(60), R=2, scale=1.0)
        sz_approximate(u, 1e-2, R=2)  # no NotAContraction from value + err

    def test_commutator_holds_needs_the_upper_estimate(self, wide_err):
        u = banded_contraction(np.random.default_rng(3), interval_space(50), R=3)
        out = commutator_bound_check(u, np.linspace(0.0, 1.0, 50), R=3, delta=0.2, eps=1e-9)
        assert out["commutator_norm"] <= out["bound"]
        assert not out["holds"]

    def test_truncation_tail_needs_the_upper_estimate(self, wide_err):
        # tail 0, so only err keeps the cheap check from certifying eps = 0.1
        u = banded_contraction(np.random.default_rng(5), interval_space(10), R=1)
        assert propa._validate_eps_propagation(u, 0.1, 1) == "exact-scan"
        assert propa._validate_eps_propagation(u, 1.5, 1) == "truncation-tail"

    def test_band_distance_upper_and_heuristic_radius(self, wide_err, monkeypatch):
        u = banded_contraction(np.random.default_rng(6), interval_space(30), R=3)
        widened = dist_to_band_bounds(u, 1, budget=20)
        heuristic = eps_propagation_radius(u, 0.45, mode="heuristic", budget=20)
        monkeypatch.undo()
        plain = dist_to_band_bounds(u, 1, budget=20)
        assert widened.upper == pytest.approx(plain.upper + 1.0, abs=1e-12)
        assert widened.lower == plain.lower
        # every tail + 1 exceeds 0.45, so the upper radius is the diameter
        assert heuristic.upper == 29.0
        assert eps_propagation_radius(u, 0.45, mode="heuristic", budget=20).upper < 29.0

    def test_gap_certificate(self, wide_err):
        cert = gap_certificate(heisenberg_rep(5), far_points(5), R=2)
        assert cert.checks["tensor_lower"]  # the value, a lower estimate
