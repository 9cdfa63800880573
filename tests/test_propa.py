import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    propagation_oracle,
    random_connected_graph_space,
    random_operator,
    reference_gram,
    reference_variations,
)
from roelab.errors import (
    HypothesisViolated,
    KernelInvalid,
    NotAContraction,
)
from roelab import operators
from roelab.cli import _band_contraction, _cmd_propa_sz, main
from roelab.operators import (
    SpaceOperator,
    band_truncate,
    dist_to_band_bounds,
    eps_propagation_brackets,
    operator_norm,
)
from roelab.reps import gap_certificate, heisenberg_rep
from roelab.spaces import far_points, interval_space, random_regular, torus_space
from roelab import propa
from roelab.propa import (
    PropertyAKernel,
    commutator_bound_check,
    isometry_field,
    phi_nu,
    rademacher_diagnostics,
    sz_approximate,
    uniform_ball_kernel,
)


def banded_contraction(rng, space, R, scale=0.99):
    u = random_operator(rng, space, R=R)
    return SpaceOperator(space=space, mat=u.mat / operator_norm(u.mat) * scale)


def leaky_contraction(rng, space, R, leak=1e-3):
    """A contraction with Gaussian entries within R and entries leak times
    smaller beyond it, so that every truncation tail below the diameter is
    small but nonzero, and is normed."""
    m = random_operator(rng, space).mat
    m = np.where(space.dist <= R, m, leak * m)
    return SpaceOperator(space=space, mat=m / operator_norm(m) * 0.99)


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
                PropertyAKernel(space=sp, S=nu.S, delta=nu.delta, R=R)

    def test_invalid_kernel_rejected(self):
        sp = interval_space(6)
        # point masses: variation 2 between distinct points at distance <= R
        with pytest.raises(KernelInvalid):
            PropertyAKernel(space=sp, S=0, delta=0.5, R=1)

    def test_exact_tie_is_rejected(self):
        """The bound is strict, so a variation equal to delta is rejected. On
        interval:6 at S = 2, the pair (0, 1) has |B_0| = 3, |B_1| = m = 4 and
        ov = 3: variation 2 (m - ov) / m = 0.5 exactly, which a float sum of
        the rows reads as 0.49999999999999994 and passed."""
        sp = interval_space(6)
        mu = sp.near(2) / sp.near(2).sum(axis=1, keepdims=True)
        assert np.abs(mu[0] - mu[1]).sum() < 0.5
        with pytest.raises(KernelInvalid, match=re.escape("pair (0, 1) is not below delta=0.5")):
            PropertyAKernel(space=sp, S=2, delta=0.5, R=1)
        PropertyAKernel(space=sp, S=2, delta=float(np.nextafter(0.5, 1)), R=1)

    @pytest.mark.parametrize(
        "space,delta",
        # point masses have variation 2 at every close pair of the interval,
        # yet no variation compares >= NaN; far_points(4) has no close pair
        # at R = 1, so no variation is compared at all
        [(interval_space(10), math.nan), (far_points(4), -1.0), (far_points(4), 0.0)],
    )
    def test_delta_not_positive_rejected(self, space, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            PropertyAKernel(space=space, S=0, delta=delta, R=1)

    def test_kernel_chain_allocates_no_dense_float_array(self):
        """Both stages at N = 2000 (S = 20, T = 400) peak below one n x n
        float64 array: the kernels are packed bit rows, and mu and F are built
        only on first use."""
        space = interval_space(2000)
        tracemalloc.start()
        try:
            mu, field = propa.kernel_chain(space, 1, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (mu.S, field.T) == (20, 400)
        assert peak < 8 * space.n ** 2


def reference_validate_kernel(space, mu, S, delta, R) -> None:
    """Per-row variation sums over every row: the kernel proof before the
    closed form, kept as the oracle, with its delta > 0 precondition."""
    if not delta > 0:
        raise KernelInvalid("delta must be positive")
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


def _raises(check, *args) -> bool:
    try:
        check(*args)
    except KernelInvalid:
        return True
    return False


def _uniform_rows(space, S):
    within = space.near(S)
    return within / within.sum(axis=1, keepdims=True)


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
    worst = _max_variation(space, _uniform_rows(space, S), R)
    if worst < 0:
        delta = draw(st.floats(0.01, 2.0))
    else:
        step = draw(st.sampled_from(["1e-8", "-1e-8", "1e-3", "-1e-3", "0.3", "-0.3"]))
        delta = max(worst + float(step), 1e-6)
    return space, S, delta, R


def _float_neighbours(v) -> list:
    """The float nearest the Fraction v > 0 and the floats on either side; none if v = 0."""
    near = float(v)
    return [float(d) for d in (np.nextafter(near, -np.inf), near, np.nextafter(near, np.inf))] if v else []


def _decided_exactly(space, S, delta, R) -> bool:
    """Whether PropertyAKernel raises, from the exact GEMM variations."""
    return any(v >= Fraction(delta) for v in reference_variations(space, S, R).values())


class TestValidateKernel:
    """The kernel proof against the per-row sums and the GEMM closed form it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_raises_exactly_when_the_per_row_sums_do(self, case):
        space, S, delta, R = case
        mu = _uniform_rows(space, S)
        # off ties: the sums round by far less than 1e-9
        assume(abs(_max_variation(space, mu, R) - delta) > 1e-9)
        raised = _raises(PropertyAKernel, space, S, delta, R)
        assert raised == _raises(reference_validate_kernel, space, mu, S, delta, R)

    @pytest.mark.parametrize("N,R,delta", [(300, 1, 0.1), (300, 20, 0.1), (200, 3, 0.01)])
    def test_cli_sized_kernels_agree(self, N, R, delta):
        space = interval_space(N)
        mu = uniform_ball_kernel(space, R, delta)
        nu = uniform_ball_kernel(space, mu.S, delta)
        for k in (mu, nu):
            assert not _raises(reference_validate_kernel, space, k.mu, k.S, k.delta, k.R)
            # at the float neighbours of the worst variation the proof is exact
            worst = max(reference_variations(space, k.S, k.R).values())
            for d in _float_neighbours(worst):
                assert _raises(PropertyAKernel, space, k.S, d, k.R) == (Fraction(d) <= worst)

    def test_closed_form_leaves_no_rows_away_from_delta(self, monkeypatch):
        """Floats decide every pair off delta; only pairs whose variation lies
        within the rounding of delta m take the exact product."""
        exact = []
        monkeypatch.setattr(propa, "Fraction", lambda d: exact.append(d) or Fraction(d))
        space = interval_space(100)
        nu = uniform_ball_kernel(space, R=2, delta=0.5)
        assert exact == []
        variations = reference_variations(space, nu.S, 2)
        below = _float_neighbours(max(variations.values()))[0]
        with pytest.raises(KernelInvalid):
            PropertyAKernel(space=space, S=nu.S, delta=below, R=2)
        assert 0 < len(exact) < len(variations)

    @pytest.mark.parametrize(
        "space,S,R,delta",
        # no close pair: nothing is compared, whatever delta is
        [(far_points(4), 0, 1, 1e-9), (interval_space(1), 0, 5, 1e-9),
         # every ball is the whole space: all supports equal, variation 0
         (interval_space(7), 6, 3, 1e-9), (torus_space(9), 4, 2, 1e-9)],
    )
    def test_equal_or_no_supports_pass_any_delta(self, space, S, R, delta):
        PropertyAKernel(space=space, S=S, delta=delta, R=R)


def seeded_kernel(seed) -> PropertyAKernel:
    """A proved uniform-ball kernel on a seeded interval, torus or graph, with
    a seeded S and R, and delta 1e-3 above its worst variation."""
    rng = np.random.default_rng(seed)
    kind = ("interval", "torus", "graph")[seed % 3]
    if kind == "graph":
        space = random_connected_graph_space(rng, int(rng.integers(4, 18)))
    else:
        N = int(rng.integers(4, 40))
        space = interval_space(N) if kind == "interval" else torus_space(N)
    S = int(rng.integers(1, int(space.diameter) + 1))
    R = (0.5, 1, 2, 3)[int(rng.integers(4))]
    worst = max(reference_variations(space, S, R).values(), default=0)
    return PropertyAKernel(space=space, S=S, delta=float(worst) + 1e-3, R=R)


class TestIsometryField:
    @pytest.mark.parametrize("seed", range(24))
    def test_properties_follow_from_the_kernel(self, seed):
        # isometry_field checks nothing; these are the facts its docstring proves
        nu = seeded_kernel(seed)
        field = isometry_field(nu)
        space, F = nu.space, field.F
        assert field.T == nu.S
        assert np.abs((F ** 2).sum(axis=0) - 1.0).max() <= 1e-12
        assert not np.any((F > 0) & (space.dist > field.T))
        for x, y in np.argwhere((space.dist <= nu.R) & ~np.eye(space.n, dtype=bool)):
            qv = ((F[:, x] - F[:, y]) ** 2).sum()
            assert qv <= np.abs(nu.mu[x] - nu.mu[y]).sum() + 1e-12
            assert qv < nu.delta

    def test_columns_unit_norm(self):
        sp = interval_space(30)
        field = isometry_field(uniform_ball_kernel(sp, R=2, delta=0.5))
        assert np.abs((field.F ** 2).sum(axis=0) - 1.0).max() < 1e-12

    def test_gram_psd_unit_diagonal(self):
        # phi_nu of the all-ones operator is the Gram kernel on every pair
        sp = torus_space(24)
        field = isometry_field(uniform_ball_kernel(sp, R=1, delta=0.5))
        g = phi_nu(SpaceOperator(space=sp, mat=np.ones((24, 24))), field).mat
        assert np.all(np.diag(g) == 1.0)
        assert np.all(g.imag == 0) and np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g.real).min() > -1e-9

    def test_quadratic_variation_below_delta(self):
        sp = interval_space(40)
        nu = uniform_ball_kernel(sp, R=2, delta=0.3)
        field = isometry_field(nu)
        close = np.argwhere((sp.dist <= 2) & (sp.dist > 0))
        for x, y in close:
            assert ((field.F[:, x] - field.F[:, y]) ** 2).sum() < 0.3


def seeded_space(seed):
    """An interval, a torus or a random 4-regular graph of a seeded size."""
    rng = np.random.default_rng(seed)
    N = 2 * int(rng.integers(5, 60))
    kind = seed % 3
    if kind == 2:
        return random_regular(N, 4, seed)
    return interval_space(N) if kind == 0 else torus_space(N)


class TestPackedOverlaps:
    """The packed overlap counts against the GEMM closed forms they replaced."""

    @pytest.mark.parametrize("seed", range(18))
    def test_rows_match_the_gemm_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        space = seeded_space(seed)
        S = int(rng.integers(0, int(space.diameter) + 2))
        R = (0.5, 1, 2, 3)[seed % 4]
        nu = PropertyAKernel(space=space, S=S, delta=2.5, R=R)  # every variation is <= 2
        assert np.array_equal(nu.sizes, space.near(S).sum(axis=1))
        assert np.array_equal(nu.mu, _uniform_rows(space, S))
        worst = max(reference_variations(space, S, R).values(), default=0)
        for delta in _float_neighbours(worst) + [float(worst) + 1e-10, float(worst) - 1e-10, 1e-3, 0.3, 2.5]:
            if delta > 0:
                assert _raises(PropertyAKernel, space, S, delta, R) == _decided_exactly(space, S, delta, R)

    @pytest.mark.parametrize("R, S", [(1, 20), (2, 40), (3, 7)])
    def test_interval_300_rows(self, R, S):
        space = interval_space(300)
        variations = reference_variations(space, S, R)
        verdicts = set()
        for delta in (0.02, 0.0476, 0.05, 0.3):
            first = next((pair for pair, v in variations.items() if v >= Fraction(delta)), None)
            try:
                PropertyAKernel(space=space, S=S, delta=delta, R=R)
            except KernelInvalid as exc:
                assert f"pair {first} " in str(exc)
            else:
                assert first is None
            verdicts.add(first)
        # the boundary pairs fail first: (0, 1), or (0, 2) once delta is past
        # the variation of (0, 1) but not of (0, 2); None when every pair passes
        expected = {(1, 20): {(0, 1), None}, (2, 40): {(0, 1), (0, 2), None}, (3, 7): {(0, 1), (0, 2)}}
        assert verdicts == expected[R, S]

    @pytest.mark.parametrize("seed", range(12))
    def test_phi_nu_is_the_gram_schur_multiple(self, seed):
        rng = np.random.default_rng(seed)
        space = seeded_space(seed)
        R = (1, 2)[seed % 2]
        field = isometry_field(uniform_ball_kernel(space, R, (0.3, 0.6, 1.2, 2.5)[seed % 4]))
        gram = reference_gram(field)
        k = phi_nu(SpaceOperator(space=space, mat=np.ones((space.n, space.n))), field).mat
        assert np.all(np.diag(k) == 1.0)
        assert np.abs(k - gram).max() <= 1e-12
        u = random_operator(rng, space, R=(None, 2 * field.T)[seed % 2])
        out = phi_nu(u, field).mat
        support = u.mat != 0
        assert np.all(out[~support] == 0)
        assert np.abs(out - u.mat * gram)[support].max() <= 1e-12


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
        assert propagation_oracle(out, 0.0) <= 2 * field.T

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
        with pytest.raises(HypothesisViolated, match=re.escape("|h(0) - h(1)| = 1 > delta")):
            commutator_bound_check(u, h, R=1, delta=0.1, eps=1e-9)

    def test_rejects_h_out_of_range(self):
        sp = interval_space(10)
        u = banded_contraction(np.random.default_rng(0), sp, R=1)
        with pytest.raises(HypothesisViolated):
            commutator_bound_check(u, np.full(10, 2.0), R=1, delta=0.5, eps=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_h(self, bad):
        # a NaN fails every comparison, so it passed the [0, 1] and close-pair
        # checks and surfaced as "SVD did not converge"
        u = banded_contraction(np.random.default_rng(0), interval_space(8), R=1)
        h = np.linspace(0.0, 1.0, 8)
        h[3] = bad
        with pytest.raises(ValueError, match="h must be finite"):
            commutator_bound_check(u, h, R=1, delta=0.5, eps=0.1)

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
                assert propagation_oracle(approx, 0.0) <= 2 * report["T"]

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
        assert report["vacuous"] is True  # the bound 18 eps^(1/4) = 12.7 is above 2

    def test_eps_validation(self):
        sp = interval_space(10)
        u = banded_contraction(np.random.default_rng(0), sp, R=1)
        with pytest.raises(ValueError):
            sz_approximate(u, 0.0, R=1)
        # an infinite eps gave S = T = 0 and an infinite bound: a vacuous PASS
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                sz_approximate(u, eps, R=1)


@pytest.fixture
def recorded_norms(monkeypatch):
    """(matrix, (value, err)) of each operator_norm call that propa makes."""
    calls = []

    def recorded(m, with_err=False):
        pair = operator_norm(m, with_err=True)
        calls.append((m, pair))
        return pair if with_err else pair[0]

    monkeypatch.setattr(propa, "operator_norm", recorded)
    return calls


class TestSzNorms:
    """The Lanczos norms that propa sz and propa rademacher report, against
    LAPACK: sigma_max lies within err + max(p, q) eps_mach value of each."""

    @staticmethod
    def _assert_brackets_lapack(dense, value, err):
        sigma = np.linalg.svd(dense, compute_uv=False)[0]
        assert abs(sigma - value) <= err + max(dense.shape) * np.finfo(float).eps * value

    def test_nonzero_sz_error(self, recorded_norms):
        # T = 400 < 599: the one benchmark config whose error matrix is not zero
        u = _band_contraction(interval_space(600), 1, 0)
        approx, error, report = sz_approximate(u, 1e-2, 1.0, seed=0)
        ((m, (value, err)),) = recorded_norms
        dense = u.mat - approx.mat
        assert min(m.shape) > operators.DENSE_NORM_MAX
        assert np.array_equal(m.toarray(), dense)  # the entries of the dense difference
        assert value == error == report["error"] > 0
        self._assert_brackets_lapack(dense, value, err)

    def test_rademacher_reconstruction_gap(self, recorded_norms, monkeypatch):
        shapes = []
        lanczos = operators._lanczos_top
        monkeypatch.setattr(operators, "_lanczos_top", lambda e: shapes.append(e.shape) or lanczos(e))
        assert main(["propa", "rademacher", "--N", "200", "--seed", "2"]) == 0
        ((m, (value, err)),) = recorded_norms
        assert isinstance(m, np.ndarray) and m.shape == (200, 200)
        assert shapes == [(200, 200)] * 2  # normalising u, then emp - phi_nu(u)
        self._assert_brackets_lapack(m, value, err)

    @staticmethod
    def _sz_peak(N):
        """The tracemalloc peak of one propa sz run (eps 1e-2, R 1, seed 0)."""
        tracemalloc.start()
        try:
            _cmd_propa_sz({"N": N, "eps": 1e-2, "R": 1.0, "seed": 0})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    def test_sz_peak_memory(self):
        """At N = 600 the peak is 6.3 MiB: the int64 distance matrix and the
        float64 draw buffer, 2.7 MiB each. A complex n x n array alive there,
        as the dense contraction once was, adds 5.5 MiB, and a float one
        2.7 MiB; the bound sits a quarter of a complex array above the peak."""
        assert self._sz_peak(600) < 6.3 * 2**20 + 600 * 600 * 16 / 4

    def test_sz_at_2000_points_allocates_no_complex_square(self):
        """At N = 2000 the peak is 61.3 MiB, the distance matrix and the draw
        buffer; one complex n x n array is 61 MiB (the dense construction
        peaked at 156 MiB)."""
        assert self._sz_peak(2000) < 70 * 2**20

    def test_sz_builds_no_dense_matrix(self, monkeypatch):
        u = _band_contraction(interval_space(300), 2, 1)
        approx, _, _ = sz_approximate(u, 1e-4, 2.0, seed=1)
        assert "mat" not in vars(u) and "mat" not in vars(approx)
        # nor does a whole command above DENSE_NORM_MAX densify an entry list
        monkeypatch.setattr(operators.Entries, "toarray", None)
        _, holds = _cmd_propa_sz({"N": 600, "eps": 1e-2, "R": 1.0, "seed": 0})
        assert holds


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
        u = SpaceOperator(space=sp, mat=np.eye(40, dtype=complex))
        out = rademacher_diagnostics(field, mu, trials=500, seed=1, u=u)
        assert out["fourth_closed_max"] <= 3.0 + 1e-12

    def test_reconstruction_gap_small_at_many_trials(self, setup):
        sp, mu, field = setup
        u = SpaceOperator(space=sp, mat=np.eye(40, dtype=complex))
        out = rademacher_diagnostics(field, mu, trials=20_000, seed=2, u=u)
        # empirical average of f u f approaches the Schur-multiplier image
        assert out["reconstruction_gap"] < 0.05

    def test_trials_validation(self, setup):
        sp, mu, field = setup
        u = SpaceOperator(space=sp, mat=np.eye(40, dtype=complex))
        with pytest.raises(ValueError):
            rademacher_diagnostics(field, mu, trials=10, seed=0, u=u)

    def test_lipschitz_max_is_the_same_in_any_block(self, setup, monkeypatch):
        sp, mu, field = setup
        u = SpaceOperator(space=sp, mat=np.eye(40, dtype=complex))
        whole = rademacher_diagnostics(field, mu, trials=300, seed=3, u=u)
        for pairs in (1, 7):  # 160 close pairs on torus:40 at R = 2
            monkeypatch.setattr(propa, "LIP_PAIRS", pairs)
            assert rademacher_diagnostics(field, mu, trials=300, seed=3, u=u) == whole

    def test_lipschitz_blocks_bound_the_peak(self):
        # gathering two trials x |close| arrays at once peaked at 33 MiB here
        tracemalloc.start()
        try:
            assert main(["propa", "rademacher", "--N", "200", "--seed", "2"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 * 2 ** 20

    def test_one_point_keeps_the_plain_threshold(self):
        assert propa._bonferroni_z(3, 1) == pytest.approx(3, abs=1e-9)
        assert propa._bonferroni_z(4, 1) == pytest.approx(4, abs=1e-9)
        z = [propa._bonferroni_z(3, n) for n in (1, 2, 10, 100, 1000)]
        assert all(a < b for a, b in zip(z, z[1:]))

    def test_checks_are_corrected_for_testing_every_point(self):
        """E f^2 = 1 holds exactly, yet a 3-sigma test at each of the 100
        points at once failed this seed (second_moment_ok false, exit 2)."""
        assert main(["propa", "rademacher", "--N", "100", "--seed", "1"]) == 0


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

    def test_sz_holds_needs_the_upper_estimate(self, wide_err, monkeypatch):
        # every T-ball covers the 60 points, so phi_nu(u) = u; a phi_nu that
        # halves u on its positions makes the error ||u|| / 2, a norm taken with its err
        def halved(u, field):
            e = u.entries
            return SpaceOperator.of_entries(u.space, operators.Entries(e.shape, e.rows, e.cols, e.vals / 2))

        monkeypatch.setattr(propa, "phi_nu", halved)
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

    def test_zero_error_and_tail_take_no_norm(self, wide_err):
        # a matrix with no nonzero entry has norm exactly 0.0, with no err
        u = banded_contraction(np.random.default_rng(4), interval_space(60), R=2)
        _, error, report = sz_approximate(u, 1e-6, R=2)  # bound 0.57
        assert error == 0.0 and report["holds"]
        assert u.tail_bound(2) == 0.0
        assert propa._validate_eps_propagation(u, 1e-12, 2) == "truncation-tail"

    def test_truncation_tail_needs_the_upper_estimate(self, wide_err):
        # tail about 1e-3, so only err keeps the cheap check from certifying eps = 0.1
        u = leaky_contraction(np.random.default_rng(5), interval_space(10), R=1)
        assert propa._validate_eps_propagation(u, 0.1, 1) == "exact-scan"
        assert propa._validate_eps_propagation(u, 1.5, 1) == "truncation-tail"

    @pytest.mark.parametrize("n", [14, 16])
    def test_exact_scan_up_to_its_own_limit(self, n, wide_err):
        # above the band-distance limit of 12 points and within the scan's own
        # of 20, a tail above eps is settled by the exact scan: cleared ...
        u = leaky_contraction(np.random.default_rng(5), interval_space(n), R=1)
        assert propa._validate_eps_propagation(u, 0.1, 1) == "exact-scan"
        # ... or refuted with the scan's own witness
        u = banded_contraction(np.random.default_rng(1), interval_space(n), R=6)
        witness = operators.eps_propagation_violation(u, 1e-6, 1)
        with pytest.raises(HypothesisViolated, match=re.escape(str(witness))):
            propa._validate_eps_propagation(u, 1e-6, 1)

    def test_band_distance_upper_and_heuristic_radius(self, wide_err, monkeypatch):
        u = leaky_contraction(np.random.default_rng(6), interval_space(30), R=3)
        widened = dist_to_band_bounds(u, 1, budget=20)
        heuristic = eps_propagation_brackets(u, [0.45], budget=20)[0]
        monkeypatch.undo()
        plain = dist_to_band_bounds(u, 1, budget=20)
        assert widened.upper == pytest.approx(plain.upper + 1.0, abs=1e-12)
        assert widened.lower == plain.lower
        # every tail below the diameter is nonzero, and with its err + 1 exceeds
        # 0.45, so the upper radius is the diameter
        assert heuristic.upper == 29.0
        assert eps_propagation_brackets(u, [0.45], budget=20)[0].upper < 29.0

    def test_gap_certificate(self, wide_err):
        cert = gap_certificate(heisenberg_rep(5), far_points(5), R=2)
        assert cert.checks["tensor_lower"]  # the value, a lower estimate
