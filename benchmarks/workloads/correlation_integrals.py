"""correlation_integrals: the spatial and hidden-variable integrals, plus spin.

Per batch:
* ``g_factor_quadrature`` on the product density of a separated Gaussian
  setup (converges at order 10) and on a seeded mixture of product Gaussians
  (non-product; its exact g is a weighted sum of closed-form box products).
  The mixture's width and the tolerance are chosen so the default order
  ladder stops at 16 and never reaches 24 for any seed: over 20 000 seeds the
  6->10 delta stayed above 2.7e-7 and the 10->16 delta below 9.2e-10.
* a ``g_decay_curve`` and a ``packet_probability_in_box`` sweep of off-centre
  boxes out to 10 sigma on both sides (boxes past 6 sigma are a known-defect
  probe for tail cancellation);
* cosine models at several g <= 1/2, random bounded models and one model
  whose responses count their lambda points, each followed by exact CHSH;
  exact and Monte Carlo expectations;
* ``quantum_chsh``, ``chsh_statistic`` and the threshold report over a g sweep.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import checks
from harness import Ops, Tracer, max_rss_mb, median

from bellspace import (
    BoxRegion,
    GaussianPacket,
    HiddenVariableModel,
    canonical_chsh_settings,
    chsh_statistic,
    cosine_model,
    detectability_threshold_report,
    g_decay_curve,
    g_factor_quadrature,
    model_chsh,
    model_expectation_exact,
    model_expectation_mc,
    packet_probability_in_box,
    product_density,
    quantum_chsh,
    random_bounded_model,
    separated_gaussian_setup,
)

MIXTURE_SIGMA = 0.5  # component width, in units of the detector half-width
MIXTURE_OFFSET = 0.3  # component centres stay within this of the box centre
MIXTURE_COMPONENTS = 3
MIXTURE_TOL = 1.6e-8
PRODUCT_TOL = 1e-8
TAIL_SIGMAS = 10
PROBE_BEYOND = 6  # boxes with an edge past this many sigma are tail probes
BOX_REL_TOL = 1e-6


class CountingDensity:
    """A joint density that counts its points and, when traced, spans its calls."""

    def __init__(self, fn, tracer: Tracer):
        self.fn, self.tracer = fn, tracer
        self.points = 0
        self.orders: list[int] = []

    def __call__(self, r1, r2):
        n = r1.shape[0]
        self.points += n
        order = round(n ** 0.25)  # the engine evaluates order^4 points per call
        if not self.orders or self.orders[-1] != order:
            self.orders.append(order)
        with self.tracer.span("spatial.quadrature_density"):
            return self.fn(r1, r2)


class GaussianMixture:
    """Sum of weighted product Gaussians over (r1, r2) in R^6: a correlated density."""

    def __init__(self, weights, means, sigma: float):
        self.weights = [float(w) for w in weights]
        self.means = np.asarray(means, dtype=float)
        self.sigma = sigma
        self.norm = (2.0 * math.pi * sigma * sigma) ** -3.0

    def __call__(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        x = np.concatenate([r1, r2], axis=-1)
        total = np.zeros(x.shape[:-1])
        for w, mu in zip(self.weights, self.means):
            z = (x - mu) / self.sigma
            total += w * self.norm * np.exp(-0.5 * np.einsum("...i,...i->...", z, z))
        return total


class CountingCosine:
    """A cosine response that counts the lambda points it is evaluated on."""

    def __init__(self, amplitude: float):
        self.amplitude = amplitude
        self.evals = 0

    def __call__(self, angle, lam):
        values = self.amplitude * np.cos(angle - lam)
        self.evals += np.size(values)
        return values


class CorrelationIntegrals:
    name = "correlation_integrals"
    why = ("6-d quadrature (product and correlated mixture), hidden-variable model "
           "construction and expectations: light or absent in every other workload")

    def __init__(self, seed: int, tiny: bool, tracer: Tracer, root: Path):
        self.tracer, self.tiny = tracer, tiny
        rng = np.random.default_rng(seed)
        m = float(rng.uniform(0.8, 1.25))
        self.setup = separated_gaussian_setup(m, (float(rng.uniform(10.0, 30.0)) / m, 0.0, 0.0))
        self.times = [0.0] + sorted(float(t) for t in rng.uniform(0.0, 8.0, 7))

        half = 1.0 / m  # mixture lives on the same detector boxes
        self.lo = self.setup.region_a.lo + self.setup.region_b.lo
        self.hi = self.setup.region_a.hi + self.setup.region_b.hi
        centre = np.array(self.setup.packet_a.center + self.setup.packet_b.center)
        weights = rng.uniform(0.5, 1.5, MIXTURE_COMPONENTS)
        self.mix_weights = list(weights / weights.sum())
        self.mix_means = centre + rng.uniform(-MIXTURE_OFFSET, MIXTURE_OFFSET,
                                              (MIXTURE_COMPONENTS, 6)) * half
        self.mix_sigma = MIXTURE_SIGMA * half

        self.box_packet = GaussianPacket(tuple(float(c) for c in rng.uniform(-3.0, 3.0, 3)),
                                         float(rng.uniform(0.5, 2.0)))
        self.box_sigma = 1.0 / self.box_packet.width_param
        self.cosine_gs = [float(g) for g in rng.uniform(0.05, 0.5, 3)]
        self.counting_g = float(rng.uniform(0.05, 0.5))
        self.random_seed = int(rng.integers(0, 2**32))
        self.pairs = [tuple(float(v) for v in rng.uniform(0.0, 2 * math.pi, 2)) for _ in range(8)]
        self.mc_n = 20_000 if tiny else 1_000_000
        self.mc_seed = int(rng.integers(0, 2**32))
        self.g_sweep = [float(g) for g in np.sort(rng.uniform(0.0, 1.0, 64))]
        self.p_sweep = rng.uniform(-1.0, 1.0, (64, 4))

        self.density_calls: dict[str, CountingDensity] = {}
        self.probe_evals = 0
        # warm-up: one call into every timed routine, at the cheapest size
        density = product_density(self.setup.packet_a, self.setup.packet_b)
        g_factor_quadrature(density, self.setup.region_a, self.setup.region_b, tol=1.0, orders=(2, 3))
        g_decay_curve(self.setup, [0.0, 1.0])
        packet_probability_in_box(self.box_packet, self.setup.region_a)
        warm = cosine_model(0.25)
        model_chsh(warm, canonical_chsh_settings())
        model_chsh(random_bounded_model(np.random.default_rng(0)), canonical_chsh_settings())
        model_expectation_mc(warm, 0.0, 1.0, 1000, np.random.default_rng(0))
        model_chsh(warm, canonical_chsh_settings(), mode="mc", n=1000, rng=np.random.default_rng(0))
        quantum_chsh(canonical_chsh_settings(), 0.5)
        detectability_threshold_report([0.5])

    def batch(self, ops: Ops, index: int) -> None:
        self._quadrature(ops)
        self._spatial_sweeps(ops)
        self._models(ops, index)
        self._spin(ops)

    # -- spatial ----------------------------------------------------------------

    def _quadrature(self, ops: Ops) -> None:
        s = self.setup
        product = CountingDensity(product_density(s.packet_a, s.packet_b), self.tracer)
        mixture = CountingDensity(GaussianMixture(self.mix_weights, self.mix_means, self.mix_sigma),
                                  self.tracer)
        self.density_calls = {"product": product, "mixture": mixture}
        self.tracer.next_op()
        ok, g_product = ops.call("spatial.g_factor_quadrature_s.product", g_factor_quadrature,
                                 product, s.region_a, s.region_b, tol=PRODUCT_TOL)
        if ok:
            sigma = 1.0 / s.packet_a.width_param
            exact = (checks.box_probability(s.packet_a.center, sigma, s.region_a.lo, s.region_a.hi)
                     * checks.box_probability(s.packet_b.center, sigma, s.region_b.lo, s.region_b.hi))
            ops.later("quadrature product", lambda g=g_product.g, e=exact:
                      checks.close("product g", g, e, PRODUCT_TOL))
        self.tracer.next_op()
        ok, g_mixture = ops.call("spatial.g_factor_quadrature_s.mixture", g_factor_quadrature,
                                 mixture, s.region_a, s.region_b, tol=MIXTURE_TOL)
        if ok:
            ops.later("quadrature mixture", lambda g=g_mixture.g: self.check_mixture(g, mixture.orders))

    def check_mixture(self, g: float, orders: list[int], weights=None) -> list[str]:
        exact = checks.mixture_g(weights or self.mix_weights, self.mix_means, self.mix_sigma,
                                 self.lo, self.hi)
        problems = checks.close("mixture g", g, exact, MIXTURE_TOL)
        if orders[-1:] != [16]:
            problems.append(f"quadrature ladder stopped at orders {orders}, expected to end at 16")
        return problems

    def _spatial_sweeps(self, ops: Ops) -> None:
        s = self.setup
        self.tracer.next_op()
        ok, curve = ops.call("spatial.g_decay_curve_s", g_decay_curve, s, self.times)
        if ok:
            ops.later("g decay curve", lambda c=curve: self._check_curve(c))
        packet, sigma = self.box_packet, self.box_sigma
        c = packet.center
        wide = 8.0 * sigma
        for j in range(-TAIL_SIGMAS, TAIL_SIGMAS):
            region = BoxRegion((c[0] + j * sigma, c[1] - wide, c[2] - wide),
                               (c[0] + (j + 1) * sigma, c[1] + wide, c[2] + wide))
            self.tracer.next_op()
            ok, prob = ops.call("spatial.packet_probability_in_box",
                                packet_probability_in_box, packet, region)
            if ok:
                want = (checks.normal_interval(float(j), float(j + 1))
                        * checks.normal_interval(-8.0, 8.0) ** 2)
                probe = max(abs(j), abs(j + 1)) > PROBE_BEYOND
                ops.later(f"box [{j},{j + 1}] sigma", lambda p=prob, w=want, jj=j:
                          checks.rel_close(f"P(box [{jj},{jj + 1}] sigma)", p, w, BOX_REL_TOL),
                          probe=probe)

    def _check_curve(self, curve) -> list[str]:
        problems = []
        half = 1.0 / self.setup.packet_a.width_param
        for t, g in curve:
            sigma = checks.width_at(self.setup.packet_a.width_param, t)
            one = checks.box_probability((0.0, 0.0, 0.0), sigma, (-half,) * 3, (half,) * 3)
            problems += checks.rel_close(f"g(t={t:.3g})", g, one * one, 1e-9)
        gs = [g for _, g in curve]
        if any(b > a for a, b in zip(gs, gs[1:])):
            problems.append("g decay curve increases")
        return problems

    # -- hidden-variable models -------------------------------------------------

    def _counting_model(self) -> HiddenVariableModel:
        amplitude = math.sqrt(2.0 * self.counting_g)
        xi, eta = CountingCosine(amplitude), CountingCosine(amplitude)
        model = HiddenVariableModel(xi=xi, eta=eta, label="counting-cosine")
        self.probe_evals = xi.evals + eta.evals
        return model

    def _build_and_chsh(self, ops: Ops, kind: str, build, *args):
        model = ops.timed(kind, build, *args)
        return model, ops.timed("lhv.model_chsh_s.exact", model_chsh, model, canonical_chsh_settings())

    def _models(self, ops: Ops, index: int) -> None:
        builds = [("lhv.cosine_model_s", cosine_model, g, checks.TWO_SQRT2 * g) for g in self.cosine_gs]
        rng = np.random.default_rng(np.random.SeedSequence(self.random_seed, spawn_key=(index,)))
        builds += [("lhv.random_bounded_model_s", random_bounded_model, rng, None)] * 2
        builds += [("lhv.counting_model_s", self._counting_model, None, checks.TWO_SQRT2 * self.counting_g)]
        cosine = None
        for kind, build, arg, want in builds:
            self.tracer.next_op()
            args = () if arg is None else (arg,)
            ok, out = ops.call("lhv_chsh", self._build_and_chsh, ops, kind, build, *args)
            if not ok:
                continue
            model, s_value = out
            if kind == "lhv.cosine_model_s" and cosine is None:
                cosine, g_cos = model, arg
            if want is None:
                ops.later("random model CHSH", lambda s=s_value: [] if s <= 2.0 + 1e-9 else
                          [f"random bounded model CHSH {s!r} > 2"])
            else:
                ops.later(f"{kind} CHSH", lambda s=s_value, w=want: checks.close("model CHSH", s, w, 1e-12))
        if cosine is None:
            return
        for alpha, beta in self.pairs:
            self.tracer.next_op()
            ok, value = ops.call("lhv.model_expectation_exact_s", model_expectation_exact,
                                 cosine, alpha, beta)
            if ok:
                ops.later("exact expectation", lambda v=value, w=g_cos * math.cos(alpha - beta):
                          checks.close("exact expectation", v, w, 1e-12))
        mc_rng = np.random.default_rng(np.random.SeedSequence(self.mc_seed, spawn_key=(index,)))
        for alpha, beta in self.pairs[:4]:
            self.tracer.next_op()
            ok, est = ops.call("lhv.model_expectation_mc_s", model_expectation_mc, cosine, alpha, beta, self.mc_n, mc_rng)
            if ok:
                ops.later("mc expectation", lambda e=est, w=g_cos * math.cos(alpha - beta):
                          checks.within_sigma("mc expectation", e.mean, w, e.std_error))
        self.tracer.next_op()
        n_chsh = self.mc_n // 4
        ok, s_mc = ops.call("lhv.model_chsh_s.mc", model_chsh,
                            cosine, canonical_chsh_settings(), mode="mc", n=n_chsh, rng=mc_rng)
        if ok:
            # four estimates of products bounded by 2g: combined 5 sigma <= 5 * 2 * 2g / sqrt(n)
            ops.later("mc CHSH", lambda s=s_mc: checks.close(
                "mc CHSH", s, checks.TWO_SQRT2 * g_cos, 20.0 * g_cos / math.sqrt(n_chsh)))

    # -- spin -------------------------------------------------------------------

    def _spin(self, ops: Ops) -> None:
        settings = canonical_chsh_settings()
        self.tracer.next_op()
        for g in self.g_sweep:
            ok, s = ops.call("spin.quantum_chsh", quantum_chsh, settings, g)
            if ok:
                ops.later("quantum_chsh", lambda s=s, g=g: checks.close(
                    "quantum_chsh", s, checks.TWO_SQRT2 * g, 1e-12))
        for p in self.p_sweep:
            ok, s = ops.call("spin.chsh_statistic", chsh_statistic, *map(float, p))
            if ok:
                ops.later("chsh_statistic", lambda s=s, p=p: checks.close(
                    "chsh_statistic", s, checks.chsh(*map(float, p)), 1e-15))
        ok, rows = ops.call("qkd.detectability_threshold_report", detectability_threshold_report,
                            self.g_sweep)
        if ok:
            ops.later("threshold report", lambda r=rows: [
                f"g={row['g']!r}: {row['regime']!r}" for row in r
                if row["regime"] != checks.regime(row["g"])
                or abs(row["chsh_max"] - checks.TWO_SQRT2 * row["g"]) > 1e-12])

    # -- metrics ----------------------------------------------------------------

    def finish(self, ops: Ops) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return max_rss_mb()

    def metrics(self, ops: Ops) -> dict[str, float]:
        times = ops.times
        quad = [p + m for p, m in zip(times["spatial.g_factor_quadrature_s.product"],
                                      times["spatial.g_factor_quadrature_s.mixture"])]
        mc = sum(times["lhv.model_expectation_mc_s"])
        values = {
            "g_quadrature_s": median(quad),
            "lhv_chsh_s": median(times["lhv_chsh"]),
            "lhv_mc_draws_per_s": self.mc_n * len(times["lhv.model_expectation_mc_s"]) / mc,
            "lhv.probe_evals": float(self.probe_evals),
            "spatial.quadrature_points.product": float(self.density_calls["product"].points),
            "spatial.quadrature_points.mixture": float(self.density_calls["mixture"].points),
            "spatial.quadrature_orders.mixture": float(len(self.density_calls["mixture"].orders)),
            "spin.quantum_chsh_us": 1e6 * median(times["spin.quantum_chsh"]),
            "spin.chsh_statistic_us": 1e6 * median(times["spin.chsh_statistic"]),
            "spatial.packet_probability_in_box_us": 1e6 * median(
                times["spatial.packet_probability_in_box"]),
        }
        for kind in ("spatial.g_factor_quadrature_s.product", "spatial.g_factor_quadrature_s.mixture",
                     "spatial.g_decay_curve_s", "lhv.cosine_model_s", "lhv.random_bounded_model_s",
                     "lhv.model_expectation_exact_s", "lhv.model_chsh_s.exact",
                     "lhv.model_expectation_mc_s", "lhv.model_chsh_s.mc"):
            values[kind] = median(times[kind])
        if self.tracer.enabled:
            batches = len(quad)
            density = sum(self.tracer.durations("spatial.quadrature_density")) / batches
            busy = sum(quad) / batches
            values["spatial.quadrature_density_s"] = density
            values["spatial.quadrature_self_s"] = busy - density
        return values
