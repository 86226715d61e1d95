"""High-precision reference values for the postselected probe (mpmath).

A postselected probe is a finite sum of real Gaussian amplitudes with
complex weights,

    phi(p) = sum_k c_k g(p; mu_k, s_k),   g = (2 pi s^2)^(-1/4) exp(-(p - mu)^2 / (4 s^2)),

so its norm, mean and standard deviation follow from the pairwise products
g_j g_k, which are Gaussian densities scaled by an overlap factor:

    g_j g_k = I_jk N(m_jk, v_jk),
    I_jk = sqrt(2 s_j s_k / (s_j^2 + s_k^2)) exp(-(mu_j - mu_k)^2 / (4 (s_j^2 + s_k^2))),
    m_jk = (mu_j s_k^2 + mu_k s_j^2) / (s_j^2 + s_k^2),  v_jk = 2 s_j^2 s_k^2 / (s_j^2 + s_k^2).

Two displaced equal-width pointers (Gaussian probes) and displaced sums of
Gaussians (grid probes) both reduce to this.  Everything is evaluated at
DPS decimal digits from the exact binary values of the float inputs, so a
reference measures the program's own numerical error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp

DPS = 60

# CODATA 2018, the values the package states in its units module.
G_NEWTON = mp.mpf("6.67430e-11")
HBAR = mp.mpf("1.054571817e-34")
HBAR_FLOAT = 1.054571817e-34


@dataclass(frozen=True)
class Stats:
    probability: float
    mean: float
    std: float


def _mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(mp.mpf(z.real), mp.mpf(z.imag))


def _stats(terms) -> Stats:
    """Core closed form over (c, mu, s) terms already converted to mpmath."""
    m0 = m1 = m2 = mp.mpf(0)
    for j, (cj, mj, sj) in enumerate(terms):
        for k in range(j, len(terms)):
            ck, mk, sk = terms[k]
            weight = (mp.conj(cj) * ck).real * (1 if j == k else 2)
            if weight == 0:
                continue
            ssum = sj * sj + sk * sk
            overlap = mp.sqrt(2 * sj * sk / ssum) * mp.exp(-((mj - mk) ** 2) / (4 * ssum))
            center = (mj * sk * sk + mk * sj * sj) / ssum
            var = 2 * sj * sj * sk * sk / ssum
            w = weight * overlap
            m0 += w
            m1 += w * center
            m2 += w * (var + center * center)
    mean = m1 / m0
    return Stats(float(m0), float(mean), float(mp.sqrt(m2 / m0 - mean * mean)))


def gaussian_sum_stats(terms: list[tuple[complex, float, float]]) -> Stats:
    """Squared norm, mean and std of sum_k c_k g(p; mu_k, s_k); terms are (c, mu, s)."""
    with mp.workdps(DPS):
        return _stats([(_mpc(c), mp.mpf(mu), mp.mpf(s)) for c, mu, s in terms])


@dataclass(frozen=True)
class Protocol:
    """Float inputs of one two-branch protocol run, as the program receives them."""

    pre_a: complex
    pre_b: complex
    post_a: complex
    post_b: complex
    delta_a: float
    delta_b: float
    phi_a: float = 0.0
    phi_b: float = 0.0


def _branches(proto: Protocol):
    """(w_X, delta_X) with w_X = conj(post_X) pre_X exp(i phi_X), at the working precision."""
    return [
        (mp.conj(_mpc(post)) * _mpc(pre) * mp.expj(mp.mpf(phi)), mp.mpf(delta))
        for post, pre, phi, delta in (
            (proto.post_a, proto.pre_a, proto.phi_a, proto.delta_a),
            (proto.post_b, proto.pre_b, proto.phi_b, proto.delta_b),
        )
    ]


def protocol_stats(proto: Protocol, probe: list[tuple[complex, float, float]]) -> Stats:
    """Postselected P, mean and std for a probe given as Gaussian terms (c, mu, s).

    The conditional pointer is w_A probe(p - delta_A) + w_B probe(p - delta_B);
    the shifts are applied exactly.
    """
    with mp.workdps(DPS):
        return _stats([
            (w * _mpc(c), mp.mpf(mu) + delta, mp.mpf(s))
            for w, delta in _branches(proto)
            for c, mu, s in probe
        ])


def conditional_amplitude(proto: Protocol, sigma: float, p) -> list[complex]:
    """Normalized conditional amplitude of a Gaussian probe (std sigma) at momenta p."""
    probability = protocol_stats(proto, [(1.0, 0.0, sigma)]).probability
    with mp.workdps(DPS):
        s = mp.mpf(sigma)
        scale = (2 * mp.pi * s * s) ** mp.mpf(-0.25) / mp.sqrt(mp.mpf(probability))
        branches = _branches(proto)
        return [
            complex(scale * sum(w * mp.exp(-((mp.mpf(x) - d) ** 2) / (4 * s * s))
                                for w, d in branches))
            for x in p
        ]


@dataclass(frozen=True)
class WeakValues:
    projector: complex
    effective_kick: float
    gain: float
    overlap: complex


def weak_values(proto: Protocol) -> WeakValues:
    """First-order quantities from the pre- and postselected source states alone."""
    with mp.workdps(DPS):
        a = mp.conj(_mpc(proto.post_a)) * _mpc(proto.pre_a)
        b = mp.conj(_mpc(proto.post_b)) * _mpc(proto.pre_b)
        ov = a + b
        d_ef = ((a * mp.mpf(proto.delta_a) + b * mp.mpf(proto.delta_b)) / ov).real
        gain = -d_ef / mp.mpf(proto.delta_a) if proto.delta_a != 0.0 else mp.nan
        return WeakValues(complex(a / ov), float(d_ef), float(gain), complex(ov))


# --- scenario documents -> float inputs ---


def _amplitudes_for_gain(gain, kick_ratio):
    t = (kick_ratio + gain) / (1 + gain)
    beta = 1 / mp.sqrt(1 + t * t)
    return t * beta, beta


def kicks_si(M, m, T, x_a, x_b):
    """(delta_A, delta_B) = G M m T / x^2 at DPS digits."""
    with mp.workdps(DPS):
        base = G_NEWTON * mp.mpf(M) * mp.mpf(m) * mp.mpf(T)
        return base / mp.mpf(x_a) ** 2, base / mp.mpf(x_b) ** 2


def spreading_time(m, W):
    with mp.workdps(DPS):
        return mp.mpf(m) * mp.mpf(W) ** 2 / (2 * HBAR)


def from_doc(doc: dict) -> tuple[Protocol, float]:
    """Resolve a scenario document the way its schema defines it.

    Returns the protocol inputs and the probe's momentum spread sigma = hbar/W.
    Source and postselection amplitudes are rounded to double, as the
    document's semantics prescribe (alpha = sqrt(1 - beta^2),
    [-e^{i phi_A}, e^{i phi_B}] / sqrt(2)); the kicks are exact.
    """
    kicks = doc["kicks"]
    width = float(doc.get("probe", {}).get("W", 1.0))
    with mp.workdps(DPS):
        if "delta_A" in kicks:
            sigma = 1.0 / width
            d_a, d_b = mp.mpf(kicks["delta_A"]), mp.mpf(kicks["delta_B"])
        else:
            sigma = HBAR_FLOAT / width
            T = kicks.get("T")
            if T is None:
                T = spreading_time(kicks["m"], width)
            d_a, d_b = kicks_si(kicks["M"], kicks["m"], T, kicks["x_A"], kicks["x_B"])
        source = doc["source"]
        if "gain" in source:
            alpha, beta = _amplitudes_for_gain(mp.mpf(source["gain"]), d_b / d_a)
            alpha, beta = float(alpha), float(beta)
        else:
            beta = float(source["beta"])
            alpha = math.sqrt(1.0 - beta * beta)
        phases = doc.get("phases", {})
        phi_a, phi_b = float(phases.get("phi_A", 0.0)), float(phases.get("phi_B", 0.0))
        post = doc.get("postselection", "paper-default")
        if post == "paper-default":
            post_a = -cmath.exp(1j * phi_a) / math.sqrt(2.0)
            post_b = cmath.exp(1j * phi_b) / math.sqrt(2.0)
        else:
            post_a, post_b = _entry(post["amp_A"]), _entry(post["amp_B"])
            n = math.sqrt(abs(post_a) ** 2 + abs(post_b) ** 2)
            post_a, post_b = post_a / n, post_b / n
        proto = Protocol(
            pre_a=alpha, pre_b=beta, post_a=post_a, post_b=post_b,
            delta_a=float(d_a), delta_b=float(d_b), phi_a=phi_a, phi_b=phi_b,
        )
    return proto, sigma


def _entry(value) -> complex:
    return complex(value) if isinstance(value, (int, float)) else complex(value[0], value[1])


@dataclass(frozen=True)
class FeasibilityRow:
    delta_a: float
    delta_b: float
    ratio: float
    tau: float
    ps_prob: float


def feasibility_row(M, m, T, x_a, x_b, W, g) -> FeasibilityRow:
    """Kicks, amplified ratio, spreading time and the exact paper-postselection P."""
    with mp.workdps(DPS):
        d_a, d_b = kicks_si(M, m, T, x_a, x_b)
        M, m, T, x_a, W, g = (mp.mpf(v) for v in (M, m, T, x_a, W, g))
        ratio = -g * G_NEWTON * M * m * W * T / (HBAR * x_a * x_a)
        sigma = HBAR / W
        alpha, beta = _amplitudes_for_gain(g, d_b / d_a)
        overlap = mp.exp(-((d_a - d_b) ** 2) / (8 * sigma * sigma))
        ps = ((beta - alpha) ** 2 + 2 * alpha * beta * (1 - overlap)) / 2
        return FeasibilityRow(float(d_a), float(d_b), float(ratio),
                              float(spreading_time(m, W)), float(ps))


def ratio_for(M, m, T, x_a, W, g) -> float:
    """|ratio| = g G M m W T / (hbar x_A^2), the quantity `feasibility --solve` inverts."""
    with mp.workdps(DPS):
        M, m, T, x_a, W, g = (mp.mpf(v) for v in (M, m, T, x_a, W, g))
        return float(g * G_NEWTON * M * m * W * T / (HBAR * x_a * x_a))


def rel_error(value, ref, floor: float = 0.0) -> float:
    """|value - ref| / max(|ref|, floor), for real or complex values.

    A floor keeps the error of a near-zero mean finite."""
    scale = max(abs(ref), floor)
    if scale == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - ref) / scale


def self_check(tests_dir: str) -> list[str]:
    """Compare the closed forms with the frozen reference values in tests/refvals.py."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("_bench_refvals", f"{tests_dir}/refvals.py")
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    r = 1.0 / math.sqrt(2.0)
    fig2 = Protocol(ref.FIG2_ALPHA, ref.FIG2_BETA, -r, r, ref.FIG2_DELTA_A, ref.FIG2_DELTA_B)
    got = protocol_stats(fig2, [(1.0, 0.0, 1.0)])
    amp = Protocol(ref.AMP_ALPHA, ref.AMP_BETA, -r, r, 0.0, 0.0)
    amp_kicked = Protocol(ref.AMP_ALPHA, ref.AMP_BETA, -r, r, 1e-5, 1e-6)
    pairs = [
        ("FIG2_PROBABILITY", got.probability, ref.FIG2_PROBABILITY),
        ("FIG2_MEAN", got.mean, ref.FIG2_MEAN),
        ("FIG2_STD", got.std, ref.FIG2_STD),
        ("AMP_PROBABILITY_LIMIT", protocol_stats(amp, [(1.0, 0.0, 1.0)]).probability,
         ref.AMP_PROBABILITY_LIMIT),
        ("FIG2_DELTA_EF", weak_values(fig2).effective_kick, ref.FIG2_DELTA_EF),
        ("AMP_GAIN", weak_values(amp_kicked).gain, ref.AMP_GAIN),
    ]
    return [
        f"oracle self-check {name}: {value!r} vs {want!r}"
        for name, value, want in pairs
        if rel_error(value, want) > 1e-9
    ]


def quadrature_check(tests_dir: str, cases: int = 4) -> list[str]:
    """Cross-check gaussian_sum_stats against the scipy quadratures of tests/oracles.py."""
    import importlib.util
    import random
    import warnings

    spec = importlib.util.spec_from_file_location("_bench_oracles", f"{tests_dir}/oracles.py")
    quad = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(quad)
    rng = random.Random(2602)
    problems = []
    for _ in range(cases):
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        centers = [rng.uniform(-2, 2) for _ in range(3)]
        sigma = rng.uniform(0.5, 2.0)
        with warnings.catch_warnings():  # quad reports its own round-off at 1e-13; 1e-9 is met
            warnings.simplefilter("ignore")
            want = quad.superposition_stats(coeffs, centers, sigma)
        got = gaussian_sum_stats([(c, mu, sigma) for c, mu in zip(coeffs, centers)])
        for label, value, ref in zip(("P", "mean", "std"), (got.probability, got.mean, got.std),
                                     want):
            if rel_error(value, ref, floor=1e-6 * sigma) > 1e-9:
                problems.append(f"quadrature check {label}: {value!r} vs {ref!r}")
    return problems
