"""Gaussian packets, box probabilities and the localization factor.

Closed-form box probabilities are checked against adaptive 1-d quadrature of
the Gaussian density (scipy.integrate.quad), and the 6-d quadrature path is
checked against the closed-form product path.  The quadrature's split of its
slabs over two threads is checked against a serial loop.
"""

import ast
import inspect
import math
import sys
import textwrap

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from bellspace import spatial
from bellspace.cli import setup_from_dict
from bellspace.spatial import (
    BoxRegion,
    GaussianPacket,
    LocalizationFactor,
    QuadratureError,
    SpatialSetup,
    expanded_width,
    g_decay_curve,
    g_factor_quadrature,
    packet_probability_in_box,
    product_density,
    separated_gaussian_setup,
    setup_g_factor,
)

# (Phi(1) - Phi(-1))^3 and its sixth power, frozen from the quad oracle below
ONE_SIGMA_CUBE_PROB = 0.31817763901728086
BENCHMARK_G = 0.10123700997061108


def one_axis_quad(width_param: float, lo: float, hi: float, center: float = 0.0) -> float:
    """Independent 1-d quadrature of the Gaussian position density."""

    def density(x: float) -> float:
        return math.sqrt(width_param**2 / (2 * math.pi)) * math.exp(
            -(width_param**2) * (x - center) ** 2 / 2
        )

    value, err = integrate.quad(density, lo, hi, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-12
    return value


class TestPacketProbability:
    def test_whole_space_normalization(self):
        packet = GaussianPacket((0.3, -1.0, 2.0), width_param=2.0)
        big = 1e9 / 2.0  # +- 2e9 sigma
        region = BoxRegion((-big, -big, -big), (big, big, big))
        assert packet_probability_in_box(packet, region, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_one_sigma_cube_vs_quad_oracle(self):
        packet = GaussianPacket((0.0, 0.0, 0.0), width_param=1.0)
        region = BoxRegion((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        prob = packet_probability_in_box(packet, region, 0.0)
        oracle = one_axis_quad(1.0, -1.0, 1.0) ** 3
        assert prob == pytest.approx(oracle, abs=1e-12)
        assert prob == pytest.approx(ONE_SIGMA_CUBE_PROB, abs=1e-12)

    def test_far_box_is_negligible(self):
        packet = GaussianPacket((0.0, 0.0, 0.0), width_param=1.0)
        region = BoxRegion((20.0, -0.5, -0.5), (21.0, 0.5, 0.5))
        assert packet_probability_in_box(packet, region, 0.0) < 1e-50

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("lo, hi", [(7.0, 8.0), (8.0, 9.0), (9.0, 10.0)])
    def test_far_tail_boxes_match_erfc(self, lo, hi, side):
        # no cancellation on either side: [9, 10] sigma is 1.13e-19, not 0
        packet = GaussianPacket((0.0, 0.0, 0.0), width_param=1.0)
        x_lo, x_hi = sorted((side * lo, side * hi))
        region = BoxRegion((x_lo, -40.0, -40.0), (x_hi, 40.0, 40.0))
        exact = 0.5 * (math.erfc(lo / math.sqrt(2)) - math.erfc(hi / math.sqrt(2)))
        got = packet_probability_in_box(packet, region, 0.0)
        assert got == pytest.approx(exact, rel=1e-9, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        center=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        width_param=st.floats(0.25, 4.0),
        edges=st.lists(
            st.tuples(st.floats(-30.0, 29.9), st.floats(0.1, 60.0)), min_size=3, max_size=3
        ),
    )
    def test_random_boxes_vs_mpmath(self, center, width_param, edges):
        # edges within +-30 sigma, widths >= 0.1 sigma; 60-digit reference
        packet = GaussianPacket(center, width_param=width_param)
        lo_sigma = [lo for lo, _ in edges]
        hi_sigma = [min(lo + width, 30.0) for lo, width in edges]
        sigma = 1.0 / width_param
        lo = tuple(c + x * sigma for c, x in zip(center, lo_sigma))
        hi = tuple(c + x * sigma for c, x in zip(center, hi_sigma))
        with mpmath.workdps(60):
            reference = mpmath.mpf(1)
            for c, a, b in zip(center, lo, hi):
                x_lo = (mpmath.mpf(a) - mpmath.mpf(c)) * mpmath.mpf(width_param)
                x_hi = (mpmath.mpf(b) - mpmath.mpf(c)) * mpmath.mpf(width_param)
                if x_lo > 0:
                    # the naive ncdf(hi) - ncdf(lo) cancels to 0 out here
                    reference *= mpmath.ncdf(-x_lo) - mpmath.ncdf(-x_hi)
                else:
                    reference *= mpmath.ncdf(x_hi) - mpmath.ncdf(x_lo)
            reference = float(reference)
        assume(reference > 1e-290)  # below this the float product loses bits
        got = packet_probability_in_box(packet, BoxRegion(lo, hi), 0.0)
        assert got == pytest.approx(reference, rel=1e-11, abs=0.0)

    def test_random_boxes_vs_quad_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.uniform(0.5, 3.0)
            center = rng.uniform(-2, 2, 3)
            packet = GaussianPacket(tuple(center), width_param=m)
            lo = center + rng.uniform(-3, 0, 3) / m
            hi = lo + rng.uniform(0.5, 4, 3) / m
            region = BoxRegion(tuple(lo), tuple(hi))
            oracle = 1.0
            for axis in range(3):
                oracle *= one_axis_quad(m, lo[axis], hi[axis], center[axis])
            assert packet_probability_in_box(packet, region, 0.0) == pytest.approx(
                oracle, abs=1e-11
            )


class TestSetupFromDict:
    def test_matches_separated_gaussian_setup(self):
        spec = {"width_param": 2.0, "separation": [0, 30, 0], "mass": 3.0}
        assert setup_from_dict(spec) == separated_gaussian_setup(2.0, (0, 30, 0), mass=3.0)

    @pytest.mark.parametrize(
        "spec",
        [
            {"separation": [100, 0, 0]},
            {"width_param": 1.0, "separation": 100},
            {"width_param": 1.0, "separation": [100, 0, 0], "typo": 1},
            {"width_param": None, "separation": [100, 0, 0]},
            [1.0, 2.0],
        ],
    )
    def test_malformed_block_is_value_error(self, spec):
        with pytest.raises(ValueError):
            setup_from_dict(spec)


class TestGFactorProduct:
    def test_benchmark_setup_value(self):
        setup = separated_gaussian_setup(1.0, (100.0, 0.0, 0.0))
        g = setup_g_factor(setup, 0.0).g
        oracle = one_axis_quad(1.0, -1.0, 1.0) ** 6
        assert g == pytest.approx(oracle, abs=1e-12)
        assert g == pytest.approx(BENCHMARK_G, abs=1e-9)

    def test_benchmark_setup_below_bounds(self):
        setup = separated_gaussian_setup(1.0, (100.0, 0.0, 0.0))
        g = setup_g_factor(setup, 0.0).g
        assert g < (2 / math.pi) ** 3
        assert g < 0.5

    def test_disjoint_far_regions(self):
        packet = GaussianPacket((0.0, 0.0, 0.0), width_param=1.0)
        far = BoxRegion((50.0, 50.0, 50.0), (51.0, 51.0, 51.0))
        near = BoxRegion((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        assert setup_g_factor(SpatialSetup(packet, packet, far, near)).g < 1e-100

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            shift = rng.uniform(-5, 5, 3)
            m = rng.uniform(0.5, 2.0)
            pa = GaussianPacket((0.0, 0.0, 0.0), m)
            pb = GaussianPacket((12.0, 0.0, 0.0), m)
            ra = BoxRegion.centered_cube((0.0, 0.0, 0.0), 1.0)
            rb = BoxRegion.centered_cube((12.0, 0.0, 0.0), 1.0)
            g0 = setup_g_factor(SpatialSetup(pa, pb, ra, rb), 0.5).g
            pa2 = GaussianPacket(tuple(shift), m)
            pb2 = GaussianPacket(tuple(shift + [12.0, 0.0, 0.0]), m)
            ra2, rb2 = (BoxRegion(tuple(np.add(r.lo, shift)), tuple(np.add(r.hi, shift)))
                        for r in (ra, rb))
            g1 = setup_g_factor(SpatialSetup(pa2, pb2, ra2, rb2), 0.5).g
            assert g1 == pytest.approx(g0, abs=1e-12)

    def test_region_growth_never_decreases_g(self):
        rng = np.random.default_rng(13)
        packet_a = GaussianPacket((0.0, 0.0, 0.0), 1.0)
        packet_b = GaussianPacket((8.0, 0.0, 0.0), 1.5)
        for _ in range(200):
            lo = rng.uniform(-3, 0, 3)
            hi = lo + rng.uniform(0.1, 3, 3)
            grow_lo = lo - rng.uniform(0, 2, 3)
            grow_hi = hi + rng.uniform(0, 2, 3)
            small = BoxRegion(tuple(lo), tuple(hi))
            large = BoxRegion(tuple(grow_lo), tuple(grow_hi))
            region_b = BoxRegion.centered_cube((8.0, 0.0, 0.0), 1.0)
            g_small = setup_g_factor(SpatialSetup(packet_a, packet_b, small, region_b)).g
            g_large = setup_g_factor(SpatialSetup(packet_a, packet_b, large, region_b)).g
            assert g_large >= g_small - 1e-15

    def test_bounds_always_hold(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            pa = GaussianPacket(tuple(rng.uniform(-2, 2, 3)), rng.uniform(0.3, 3))
            pb = GaussianPacket(tuple(rng.uniform(-2, 2, 3)), rng.uniform(0.3, 3))
            lo = rng.uniform(-4, 2, 3)
            region = BoxRegion(tuple(lo), tuple(lo + rng.uniform(0.1, 5, 3)))
            g = setup_g_factor(SpatialSetup(pa, pb, region, region), rng.uniform(0, 3)).g
            assert 0.0 <= g <= 1.0


class TestQuadraturePath:
    def test_matches_product_path_benchmark(self):
        setup = separated_gaussian_setup(1.0, (15.0, 0.0, 0.0))
        density = product_density(setup.packet_a, setup.packet_b)
        g_quad = g_factor_quadrature(density, setup.region_a, setup.region_b, tol=1e-9)
        g_prod = setup_g_factor(setup, 0.0)
        assert g_quad.g == pytest.approx(g_prod.g, abs=1e-8)

    def test_matches_product_path_random_configs(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m_a, m_b = rng.uniform(0.6, 2.0, 2)
            c_a = rng.uniform(-1, 1, 3)
            c_b = rng.uniform(4, 6, 3)
            pa = GaussianPacket(tuple(c_a), m_a)
            pb = GaussianPacket(tuple(c_b), m_b)
            ra = BoxRegion(tuple(c_a - rng.uniform(0.3, 2, 3) / m_a),
                           tuple(c_a + rng.uniform(0.3, 2, 3) / m_a))
            rb = BoxRegion(tuple(c_b - rng.uniform(0.3, 2, 3) / m_b),
                           tuple(c_b + rng.uniform(0.3, 2, 3) / m_b))
            t = rng.uniform(0, 1)
            tol = 1e-6
            g_quad = g_factor_quadrature(product_density(pa, pb, t), ra, rb, tol=tol)
            g_prod = setup_g_factor(SpatialSetup(pa, pb, ra, rb), t)
            assert abs(g_quad.g - g_prod.g) < 2 * tol

    def test_zero_density(self):
        def zero(r1, r2):
            return np.zeros(r1.shape[:-1])

        region = BoxRegion((-1, -1, -1), (1, 1, 1))
        assert g_factor_quadrature(zero, region, region, tol=1e-10).g == 0.0

    def test_symmetric_density_swap(self):
        pa = GaussianPacket((0.0, 0.0, 0.0), 1.0)
        pb = GaussianPacket((6.0, 0.0, 0.0), 1.0)

        def symmetric(r1, r2):
            return 0.5 * (pa.density(r1) * pb.density(r2) + pb.density(r1) * pa.density(r2))

        ra = BoxRegion.centered_cube((0.0, 0.0, 0.0), 1.2)
        rb = BoxRegion.centered_cube((6.0, 0.0, 0.0), 0.8)
        tol = 1e-8
        g1 = g_factor_quadrature(symmetric, ra, rb, tol=tol).g
        g2 = g_factor_quadrature(symmetric, rb, ra, tol=tol).g
        assert abs(g1 - g2) < 2 * tol

    def test_nonconvergence_reports_best_estimate(self):
        packet = GaussianPacket((0.0, 0.0, 0.0), 1.0)

        def wiggly(r1, r2):
            return packet.density(r1) * packet.density(r2) * np.cos(80.0 * r1[..., 0]) ** 2

        region = BoxRegion((-1, -1, -1), (1, 1, 1))
        with pytest.raises(QuadratureError) as excinfo:
            g_factor_quadrature(wiggly, region, region, tol=1e-12, orders=(4, 6, 8))
        assert math.isfinite(excinfo.value.best_estimate)
        assert excinfo.value.error_bound > 0


def serial_tensor_gl_6d(density, region_a, region_b, order):
    """The 6-d quadrature as one serial loop over the (i0, i1) slabs, on a grid
    built with meshgrid; each slab's term formed as the engine forms it."""
    nodes, weights = [], []
    for lo, hi in list(zip(region_a.lo, region_a.hi)) + list(zip(region_b.lo, region_b.hi)):
        x, w = np.polynomial.legendre.leggauss(order)
        half = 0.5 * (hi - lo)
        nodes.append(lo + half * (x + 1.0))
        weights.append(half * w)
    inner = np.stack([axis.ravel() for axis in np.meshgrid(*nodes[2:], indexing="ij")], axis=-1)
    wg = np.meshgrid(*weights[2:], indexing="ij")
    inner_w = (wg[0] * wg[1] * wg[2] * wg[3]).ravel()
    r2 = np.ascontiguousarray(inner[:, 1:])
    total = 0.0
    for i0 in range(order):
        for i1 in range(order):
            r1 = np.column_stack([
                np.full(len(inner), nodes[0][i0]), np.full(len(inner), nodes[1][i1]), inner[:, 0]
            ])
            slab = float(np.einsum("i,i->", density(r1, r2), inner_w))
            total += weights[0][i0] * weights[1][i1] * slab
    return total


def random_density(rng, components):
    """A product of two random packets (one component) or a weighted sum of such
    products, which correlates r1 with r2."""
    def packet():
        return GaussianPacket(tuple(rng.uniform(-1.0, 1.0, 3)), rng.uniform(0.5, 2.0))

    if components == 1:
        return product_density(packet(), packet())
    parts = [(rng.uniform(0.5, 1.5), packet(), packet()) for _ in range(components)]

    def density(r1, r2):
        return sum(w * a.density(r1) * b.density(r2) for w, a, b in parts)

    return density


def random_box(rng):
    lo = rng.uniform(-2.0, 0.0, 3)
    return BoxRegion(tuple(lo), tuple(lo + rng.uniform(0.5, 3.0, 3)))


class TestThreadedQuadrature:
    """_tensor_gl_6d gives the lower half of its i0 slabs to the caller and the
    upper half to the worker thread; neither the value nor the error raised may
    depend on that split or on the threads' timing."""

    REGION = BoxRegion((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    PACKET = GaussianPacket((0.2, 0.0, -0.1), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_matches_the_serial_loop_bit_for_bit(self, order, components, seed):
        rng = np.random.default_rng(seed)
        density = random_density(rng, components)
        region_a, region_b = random_box(rng), random_box(rng)
        got = spatial._tensor_gl_6d(density, region_a, region_b, order)
        assert got == serial_tensor_gl_6d(density, region_a, region_b, order)

    def test_repeated_runs_give_identical_floats(self, fast_thread_switching):
        density = random_density(np.random.default_rng(23), 3)
        region_a, region_b = (random_box(np.random.default_rng(seed)) for seed in (24, 25))
        runs = [
            (spatial._tensor_gl_6d(density, region_a, region_b, 11),
             g_factor_quadrature(density, region_a, region_b, tol=1e-6, orders=(6, 10)).g)
            for _ in range(5)
        ]
        assert all(run == runs[0] for run in runs[1:])
        assert runs[0][0] == serial_tensor_gl_6d(density, region_a, region_b, 11)

    @pytest.mark.parametrize("bad, worker_calls", [((2,), 32), ((6,), 17), ((1, 5), 9), ((3, 4), 1)])
    def test_raises_the_error_a_serial_loop_meets_first(
        self, bad, worker_calls, fast_thread_switching
    ):
        # order 8: slabs i0 = 0..3 run on the caller, 4..7 on the worker, which
        # stops at its first bad slab or else makes all 4 * 8 of its calls
        order = 8
        nodes, _ = spatial._mapped_gl(order, -1.0, 1.0)
        calls = []

        def density(r1, r2):
            i0 = int(np.flatnonzero(nodes == r1[0, 0])[0])
            calls.append(i0)
            if i0 in bad:
                raise ValueError(f"slab {i0}")
            return self.PACKET.density(r1) * self.PACKET.density(r2)

        for _ in range(5):
            calls.clear()
            with pytest.raises(ValueError, match=f"^slab {bad[0]}$"):
                spatial._tensor_gl_6d(density, self.REGION, self.REGION, order)
            # the worker's half is over before the error leaves
            assert sum(i0 >= order // 2 for i0 in calls) == worker_calls
        density_ok = product_density(self.PACKET, self.PACKET)
        assert spatial._tensor_gl_6d(density_ok, self.REGION, self.REGION, order) == (
            serial_tensor_gl_6d(density_ok, self.REGION, self.REGION, order))

    REENTRANT_PROBE = (
        "import numpy as np\n"
        "from bellspace.lhv import HiddenVariableModel\n"
        "from bellspace.qkd import LhvEveChannel, QkdConfig, run_session\n"
        "from bellspace.spatial import BoxRegion, GaussianPacket, g_factor_quadrature, product_density\n"
        "packet = GaussianPacket((0.0, 0.0, 0.0), 1.0)\n"
        "region = BoxRegion((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))\n"
        "inner = product_density(packet, packet)\n"
        "def g():\n"
        "    return g_factor_quadrature(inner, region, region, tol=1.0, orders=(2, 3)).g\n"
        "def density(r1, r2):\n"
        "    return inner(r1, r2) * g()\n"
        "outer = g_factor_quadrature(density, region, region, tol=1.0, orders=(2, 3)).g\n"
        "model = HiddenVariableModel(xi=lambda alpha, lam: g() * np.cos(alpha - lam),\n"
        "                            eta=lambda beta, lam: np.cos(beta - lam))\n"
        "report = run_session(QkdConfig(channel=LhvEveChannel(model), n_rounds=1000, seed=3))\n"
        "print(outer / g() ** 2, report.n_rounds)\n"
    )

    def test_density_and_response_may_call_the_quadrature(self, fresh_interpreter):
        # the outer quadrature's worker half and the Eve session's xi run on the
        # worker thread, so their inner quadratures must not queue behind them
        ratio, n_rounds = fresh_interpreter(self.REENTRANT_PROBE)
        assert float(ratio) == pytest.approx(1.0, rel=1e-12)
        assert int(n_rounds) == 1000

    def test_slab_sum_calls_no_blas(self):
        # a BLAS reduction starts its own threads, which oversubscribe the cores
        # the two slab threads already use
        blas = {"dot", "vdot", "inner", "matmul", "tensordot", "multi_dot", "einsum_path"}
        tree = ast.parse(textwrap.dedent(inspect.getsource(spatial._tensor_gl_6d)))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        names = {getattr(call.func, "attr", getattr(call.func, "id", None)) for call in calls}
        assert "einsum" in names and not names & blas
        # einsum dispatches to BLAS only when asked to optimize
        assert all(kw.arg != "optimize" for call in calls for kw in call.keywords)
        assert not any(
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            for node in ast.walk(tree)
        )


class TestBenchmarkSetup:
    def test_geometry(self):
        setup = separated_gaussian_setup(1.0, (100.0, 0.0, 0.0))
        assert setup.region_a.lo == (-1.0, -1.0, -1.0)
        assert setup.region_a.hi == (1.0, 1.0, 1.0)
        assert setup.region_b.lo == (99.0, -1.0, -1.0)
        assert setup.region_b.hi == (101.0, 1.0, 1.0)
        assert setup.packet_b.center == (100.0, 0.0, 0.0)

    def test_width_scaling(self):
        setup = separated_gaussian_setup(2.0, (50.0, 0.0, 0.0))
        assert setup.region_a.hi == (0.5, 0.5, 0.5)

    def test_separation_too_small(self):
        with pytest.raises(ValueError):
            separated_gaussian_setup(1.0, (5.0, 0.0, 0.0))
        # exactly at the limit is allowed
        separated_gaussian_setup(1.0, (10.0, 0.0, 0.0))


@st.composite
def ratio_inputs(draw):
    """(epsilon, mass, t, hbar) as mantissa * 2^exponent, any exponent of each
    input, each next one drawn so that the running exponent of
    hbar * t / mass / epsilon stays normal (the mantissas can still push a
    step just past the range)."""
    lo, hi = -1074, 1023  # the exponents of positive floats, subnormals included
    e_hbar = draw(st.integers(lo, hi))
    e_t = draw(st.integers(max(lo, -1023 - e_hbar), min(hi, 1023 - e_hbar)))
    e_mass = draw(st.integers(max(lo, e_hbar + e_t - 1023), min(hi, e_hbar + e_t + 1023)))
    e_eps = draw(st.integers(max(lo, e_hbar + e_t - e_mass - 1023),
                             min(hi, e_hbar + e_t - e_mass + 1023)))
    mantissa = st.floats(1.0, 2.0, exclude_max=True)
    hbar, t, mass, epsilon = (math.ldexp(draw(mantissa), e) for e in (e_hbar, e_t, e_mass, e_eps))
    return epsilon, mass, t, hbar


class TestExpandedWidth:
    def test_zero_time(self):
        assert expanded_width(1.0, 1.0, 0.0, 1.0) == 1.0
        assert expanded_width(0.37, 2.1, 0.0, 0.9) == 0.37

    def test_unit_substitution(self):
        assert expanded_width(1.0, 1.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(2.0), abs=1e-15
        )

    def test_ballistic_asymptote(self):
        t = 1e6
        width = expanded_width(1.0, 1.0, t, 1.0)
        assert width / t == pytest.approx(1.0, abs=1e-6)

    def test_strictly_increasing(self):
        widths = [expanded_width(0.5, 1.3, t, 1.0) for t in (0.0, 0.1, 1.0, 5.0, 50.0)]
        assert all(w2 > w1 for w1, w2 in zip(widths, widths[1:]))

    @settings(max_examples=500, deadline=None)
    @given(ratio_inputs())
    def test_matches_the_plain_ratio_where_it_is_normal(self, inputs):
        # the exponent-scaled ratio is bit-identical to hbar * t / mass / epsilon
        # wherever that expression never leaves the normal floats
        epsilon, mass, t, hbar = inputs
        steps = [hbar * t]
        steps.append(steps[-1] / mass)
        steps.append(steps[-1] / epsilon)
        assume(all(math.isfinite(s) and abs(s) >= sys.float_info.min for s in steps))
        assert expanded_width(epsilon, mass, t, hbar) == math.hypot(epsilon, steps[-1])

    def test_ratio_past_the_float_range_in_its_first_step(self):
        # hbar * t / mass = 1e310 overflows; the width 1e300 does not
        assert expanded_width(1e10, 1e-10, 1e300, 1.0) == pytest.approx(1e300, rel=1e-15)
        assert expanded_width(1e-5, 1.0, 1e306, 1.0) == math.inf

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expanded_width(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            expanded_width(1.0, 1.0, -1.0, 1.0)


class TestDecayCurve:
    def test_t0_matches_static(self):
        setup = separated_gaussian_setup(1.0, (100.0, 0.0, 0.0))
        curve = g_decay_curve(setup, [0.0, 1.0, 2.0])
        assert curve[0][1] == setup_g_factor(setup, 0.0).g

    def test_monotone_and_below_half(self):
        setup = separated_gaussian_setup(1.0, (100.0, 0.0, 0.0))
        times = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4]
        curve = g_decay_curve(setup, times)
        values = [g for _, g in curve]
        assert all(g2 <= g1 + 1e-15 for g1, g2 in zip(values, values[1:]))
        assert all(g < 0.5 for g in values)
        assert values[-1] < 1e-6

    def test_grid_validation(self):
        setup = separated_gaussian_setup(1.0, (100.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            g_decay_curve(setup, [1.0, 0.5])
        with pytest.raises(ValueError):
            g_decay_curve(setup, [-1.0, 0.5])


class TestTypes:
    def test_localization_factor_bounds(self):
        with pytest.raises(ValueError):
            LocalizationFactor(1.2)
        with pytest.raises(ValueError):
            LocalizationFactor(-0.01)
        assert LocalizationFactor(0.25).g == 0.25

    def test_box_region_validation(self):
        with pytest.raises(ValueError):
            BoxRegion((0.0, 0.0, 0.0), (1.0, 0.0, 1.0))

    def test_packet_validation(self):
        with pytest.raises(ValueError):
            GaussianPacket((0.0, 0.0, 0.0), width_param=-1.0)
        with pytest.raises(ValueError):
            GaussianPacket((0.0, 0.0), width_param=1.0)

    def test_packet_density_normalized(self):
        packet = GaussianPacket((0.5, -0.5, 1.0), 1.3)
        # integrate the density over a generous box by quadrature product
        prob = packet_probability_in_box(
            packet, BoxRegion.centered_cube(packet.center, 40.0), 0.0
        )
        assert prob == pytest.approx(1.0, abs=1e-12)
