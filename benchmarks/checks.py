"""Independent checks of library outputs.

Each check returns a list of problems (empty when the output is right).
References are computed here from first principles (``math.erfc``, explicit
enumeration, closed forms), never by calling the library routine under test.
Tolerances hold for any seed: statistical checks use 5 sigma.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
TWO_SQRT2 = 2.0 * SQRT2


def close(name: str, got, want: float, tol: float) -> list[str]:
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        return [f"{name} = {got!r}, expected {want!r} +- {tol:.3g}"]
    return []


def within_sigma(name: str, got: float, want: float, sigma: float, k: float = 5.0) -> list[str]:
    return close(name, got, want, k * sigma)


def rel_close(name: str, got: float, want: float, rel: float) -> list[str]:
    if got is None or not math.isfinite(got) or abs(got - want) > rel * abs(want):
        return [f"{name} = {got!r}, expected {want!r} (rel tol {rel:.1g})"]
    return []


# --- spatial ------------------------------------------------------------------


def normal_interval(lo: float, hi: float) -> float:
    """P(lo < Z < hi) for a standard normal Z, accurate in both tails."""
    if lo >= 0.0:
        return 0.5 * (math.erfc(lo / SQRT2) - math.erfc(hi / SQRT2))
    if hi <= 0.0:
        return 0.5 * (math.erfc(-hi / SQRT2) - math.erfc(-lo / SQRT2))
    return 1.0 - 0.5 * (math.erfc(-lo / SQRT2) + math.erfc(hi / SQRT2))


def width_at(width_param: float, t: float, mass: float = 1.0, hbar: float = 1.0) -> float:
    eps = 1.0 / width_param
    ratio = hbar * t / (mass * eps * eps)
    return eps * math.sqrt(1.0 + ratio * ratio)


def box_probability(center, sigma: float, lo, hi) -> float:
    prob = 1.0
    for c, a, b in zip(center, lo, hi):
        prob *= normal_interval((a - c) / sigma, (b - c) / sigma)
    return prob


def mixture_g(weights, means, sigma: float, lo, hi) -> float:
    """Exact g of a mixture of product Gaussians over the 6-d box lo..hi."""
    return sum(
        w * math.prod(normal_interval((a - m) / sigma, (b - m) / sigma)
                      for m, a, b in zip(mu, lo, hi))
        for w, mu in zip(weights, means)
    )


# --- lhv / spin ---------------------------------------------------------------


def chsh(p11: float, p12: float, p21: float, p22: float) -> float:
    return abs(p11 - p12) + abs(p21 + p22)


def regime(g: float) -> str:
    if g <= 0.5:
        return "undetectable"
    if g > 1.0 / SQRT2:
        return "violation possible"
    return "open gap"


# --- feasibility --------------------------------------------------------------


def sign_vectors(k: int) -> np.ndarray:
    return np.array([[1.0 if (i >> b) & 1 else -1.0 for b in range(k)] for i in range(2**k)])


def classical_bound(coefficients: np.ndarray) -> float:
    """max over sign vectors s, t of s^T C t, as max over s of ||C^T s||_1."""
    return float(np.max(np.abs(sign_vectors(coefficients.shape[0]) @ coefficients).sum(axis=1)))


def check_mixture(result, matrix: np.ndarray) -> list[str]:
    """A feasible verdict: rebuild sum w s t^T from the reported mixture."""
    if result.weights is None:
        return ["feasible verdict without a mixture"]
    weights = np.array([w.weight for w in result.weights])
    rebuilt = sum(w.weight * np.outer(w.s, w.t) for w in result.weights)
    problems = []
    if np.any(weights < 0.0):
        problems.append(f"negative mixture weight {weights.min()!r}")
    problems += close("mixture weight sum", float(weights.sum()), 1.0, 1e-7)
    residual = float(np.max(np.abs(rebuilt - matrix)))
    if residual > 1e-7:
        problems.append(f"mixture residual {residual!r} > 1e-7")
    return problems


def check_certificate(result, matrix: np.ndarray) -> list[str]:
    """An infeasible verdict: the certificate must separate by our own bound."""
    if result.certificate is None:
        return ["infeasible verdict without a certificate"]
    coeff = np.asarray(result.certificate.coefficients)
    bound = classical_bound(coeff)
    achieved = float(np.sum(coeff * matrix))
    if not achieved - bound > 1e-9:
        return [f"certificate does not separate: value {achieved!r} vs classical bound {bound!r}"]
    return []


def check_verdict(result, matrix: np.ndarray, must_be_feasible: bool = False) -> list[str]:
    if result.status == "feasible":
        return check_mixture(result, matrix)
    if result.status == "infeasible":
        problems = check_certificate(result, matrix)
        if must_be_feasible:
            problems.append("target with g <= 1/2 reported infeasible")
        return problems
    return [f"unknown status {result.status!r}"]


# --- qkd ------------------------------------------------------------------------


def check_quantum_report(report, g: float) -> list[str]:
    problems = []
    if report.verdict != "secure":
        problems.append(f"verdict {report.verdict!r}, expected 'secure'")
    if report.qber != 0.0:
        problems.append(f"qber {report.qber!r}, expected exactly 0")
    est, unc = report.chsh_estimate, report.chsh_unconditioned
    problems += within_sigma("conditioned S", est.s_value, TWO_SQRT2, est.std_error)
    problems += within_sigma("unconditioned S", unc.s_value, TWO_SQRT2 * g, unc.std_error)
    problems += within_sigma("coincidence rate", report.coincidence_rate, g,
                             math.sqrt(g * (1.0 - g) / report.n_rounds))
    return problems


def check_eve_report(report, g: float) -> list[str]:
    problems = []
    if report.verdict != "eve_detected":
        problems.append(f"verdict {report.verdict!r}, expected 'eve_detected'")
    est = report.chsh_estimate
    problems += within_sigma("Eve S", est.s_value, TWO_SQRT2 * g, est.std_error)
    if report.n_detected != report.n_rounds:
        problems.append("Eve channel lost rounds")
    return problems


def check_eve_qber(report, g: float) -> list[str]:
    """A hidden-variable Eve reproducing the singlet law errs on (1 - g)/2 of key bits."""
    want = (1.0 - g) / 2.0
    n = max(report.n_key_rounds, 1)
    return within_sigma("Eve qber", report.qber, want, math.sqrt(want * (1.0 - want) / n))


def check_round_log(csv_text: str, report) -> list[str]:
    lines = csv_text.splitlines()
    problems = []
    if len(lines) != report.n_rounds + 1:
        problems.append(f"round log has {len(lines)} lines, expected {report.n_rounds + 1}")
    if not lines or lines[0] != "round,a_idx,b_idx,detected,s_a,s_b":
        problems.append("round log header changed")
    detected = sum(int(line.split(",")[3]) for line in lines[1:])
    if detected != report.n_detected:
        problems.append(f"detected column sums to {detected}, report says {report.n_detected}")
    return problems
