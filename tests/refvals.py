"""Frozen reference values for the test suite.

Each number was computed once from an independent route (closed-form
arithmetic or the adaptive-quadrature oracles in tests/oracles.py) and
frozen here; the suite asserts the library reproduces them.
"""

import math

# Interferometer scenario of the decomposition figure (natural units).
FIG2_BETA = 0.9
FIG2_ALPHA = math.sqrt(1.0 - FIG2_BETA**2)  # sqrt(0.19)
FIG2_DELTA_A = 0.7
FIG2_DELTA_B = 0.1

# exp(-(0.7-0.1)^2/8); equal-width displaced-Gaussian overlap
FIG2_POINTER_OVERLAP = 0.9559974818331

# Adaptive quadrature over |beta psi(p-0.1) - alpha psi(p-0.7)|^2 / 2
FIG2_MEAN = -0.34423027808394185
FIG2_STD = 0.8979046263732164
FIG2_PROBABILITY = 0.12496132277691413

# 0.1 - sqrt(0.19) * 0.6 / (0.9 - sqrt(0.19)), evaluated by hand
FIG2_DELTA_EF = -0.4635170047599939
FIG2_ABS_ERROR = 0.11928672667605206  # |FIG2_MEAN - FIG2_DELTA_EF|
FIG2_PROJECTOR_WV = -0.9391950079333232  # -alpha / (beta - alpha)

# Amplified configuration: beta = 1/sqrt(2) + 3e-4, delta_A = 10 delta_B
AMP_BETA = 1.0 / math.sqrt(2.0) + 0.0003
AMP_ALPHA = math.sqrt(1.0 - AMP_BETA**2)
AMP_GAIN = 1059.8850285404656  # -(0.1 - 0.9 alpha/(beta-alpha))
AMP_PROBABILITY_LIMIT = 1.8007640805973666e-07  # (beta-alpha)^2 / 2
AMP_WEIGHT_DIFFERENCE = 0.0008487081374234928  # beta^2 - alpha^2

# Displaced-Gaussian overlap at separation 0.6 sigma: exp(-0.045)
OVERLAP_06 = 0.9559974818331

# Spreading times m W^2 / (2 hbar)
TAU_CESIUM = 0.10904899803519026  # m = 2.3e-25 kg, W = 10 um
TAU_CASE_B = 0.47412607841387044  # m = 1e-20 kg, W = 0.1 um

# -g G M m W T / (hbar x_A^2) for the heavier-probe case
CASE_B_RATIO = -0.0019777873032235604

# Source mass giving |ratio| = 1e-3 for the cold-atom case (T = tau)
CASE_A_MASS = 1.5749288197490457e-08

# G M m T / x^2 at M = 1e-14, m = 1e-20, T = 0.5, x = 4e-7
DELTA_KICK_EXAMPLE = 2.08571875e-32

# One natural momentum unit (hbar / W) at W = 1e-5 m
MOMENTUM_UNIT_W_1E5 = 1.054571817e-29

# sha256 of sweep.csv from `sweep --scenario caseB --axis M=1e-15:1e-13:6
# --axis2 x_A=2e-7:1e-6:5`, written by the per-point sweep before the column rewrite
SWEEP_CSV_SHA256_CASE_B = "3add0efc2cd48d3ef1319318dcafdedfcc6345961c26bcb019e0b88a4d9a9e7d"

# sha256 of bundle members that the shared SVG frame, the sampler CDF and the
# ratio-based solve write, each frozen from the code before those rewrites:
# `fig2` (fig2.svg, fig2.csv), `sweep.svg` of the caseB 6x5 sweep above with --svg,
# `montecarlo --scenario fig2` (histogram.csv), `simulate --scenario fig2`
# (wavefunction.csv), and caseB `feasibility --solve F --target 1e-3` (summary.csv).
# wavefunction.csv was re-taken when the Gaussian samples moved to `math.exp`: these
# are the bytes numpy's non-AVX-512 `exp` wrote before, now written on every CPU.
FIG2_SVG_SHA256 = "cae92cc77fa94d610efe5333298878f4234d82159b6499153f8d4c1510c32a3a"
FIG2_CSV_SHA256 = "c4a5775818c5ab83460a0e9be7903ef1b22e2a6532a5b034c0c7386d8bd46f19"
SWEEP_SVG_SHA256_CASE_B = "b6cf50a7e3857cce178efb85def9aa3c45712739d1e2a312b49cca8de9a8d21b"
HISTOGRAM_CSV_SHA256_FIG2 = "8fb293d931da19a06510f3c332df0b3887b7334b873923f777114fcdf74dbd7b"
WAVEFUNCTION_CSV_SHA256_FIG2 = "cf1cbd2df79d61b0b56e99bf1eaf9c8c7bcde5a719596915b8b36d5c9e891806"
SOLVE_SUMMARY_SHA256_CASE_B = {
    "M": "8e760bfe60c845140b9477629cf9127ac2011e2e696c0f52f8bca0c43aca6131",
    "m": "05c898335df7b79029fbf11dfeffebda0339475b3b79e61261299d5062f51500",
    "W": "aa00a7eafc73a1a20b5a2ea4e9089933aedef90e63a70093f04c7446b7621a78",
    "T": "370616603c7243b33d8995f3d86c698017efc49c747f58a95ce81fe137224681",
    "x_A": "d1aeea919a748cc8cea9f3c9274c46d6221ac9e727376dfa4453b43229257cd5",
    "g": "fba0118a738a92e0e877104aabc5abbae7d5ab810113105eeeb1a62922470b32",
}

# sha256 of `simulate` summary.csv, frozen from the code before the weak values
# were formed in one pass: the fig2 and amplification presets, and PHASED_DOC, whose
# first-order rows leave out the interaction phases (delta_ef +2.59782390e-03
# against exact_mean -4.63502851e-03).
SIMULATE_SUMMARY_SHA256 = {
    "fig2": "89b4571b28d7f39f70496e01a3e07a7718ac70b602ab38c983250275e89c5795",
    "amplification": "b5c6de437f5de05d21a763982e7d51753d1259fe96257ae8b730fc22d33a11e6",
    "phased": "07ace634000a9b21dcf53528756801883572953a6d3d8f1590babd6a34ebd4fa",
}
PHASED_DOC = {
    "units": "natural",
    "source": {"beta": 0.9},
    "probe": {"W": 1.0},
    "kicks": {"delta_A": 0.007, "delta_B": 0.001},
    "phases": {"phi_A": 1, "phi_B": -1},
    "postselection": "paper-default",
}

# The SI documents behind the caseA/caseB values and digests above: the two SI
# presets as they stood at x_A = 5 W and 4 W.  The tests that assert those values
# read these documents, so the shipped presets can move without changing them.
CASE_A_DOC = {
    "units": "si",
    "source": {"gain": 1000},
    "probe": {"W": 1e-05},
    "kicks": {"M": 2e-08, "m": 2.3e-25, "T": None, "x_A": 5e-05, "x_B": 0.000158113883008419},
    "postselection": "paper-default",
    "montecarlo": {"trials": 100000, "seed": 11, "bins": 64},
}
CASE_B_DOC = {
    "units": "si",
    "source": {"gain": 100},
    "probe": {"W": 1e-07},
    "kicks": {"M": 1e-14, "m": 1e-20, "T": 0.5, "x_A": 4e-07, "x_B": 1.2649110640673517e-06},
    "postselection": "paper-default",
    "montecarlo": {"trials": 100000, "seed": 11, "bins": 64},
}
