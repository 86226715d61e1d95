import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravkick.protocol import gaussian_postselection
from gravkick.wavepacket import (
    GaussianPacket,
    GridPacket,
    displace,
    moments,
    superpose,
    to_csv,
)

from . import oracles
from .probes import grid_probe
from .refvals import (
    FIG2_ALPHA,
    FIG2_BETA,
    FIG2_DELTA_A,
    FIG2_DELTA_B,
    FIG2_MEAN,
    FIG2_POINTER_OVERLAP,
    OVERLAP_06,
)


both_probes = pytest.mark.parametrize(
    "psi", [GaussianPacket(0.0, 1.0), grid_probe(GaussianPacket(0.0, 1.0), -4.0, 4.0, n=64)],
    ids=["gaussian", "grid"])


def fig2_superposition(n=2048):
    psi = GaussianPacket(0.0, 1.0, 1.0)
    return superpose(
        [(FIG2_BETA, displace(psi, FIG2_DELTA_B)), (-FIG2_ALPHA, displace(psi, FIG2_DELTA_A))],
        n=n,
    )


class TestGaussian:
    def test_moments_closed_form(self):
        m = moments(GaussianPacket(0.25, 2.0, 1.0))
        assert m.norm == 1.0
        assert m.mean == 0.25
        assert m.std == 0.5  # hbar / W

    def test_center_is_exact_translation(self):
        assert GaussianPacket(0.3, 1.0).center == 0.3

    def test_grid_norm_after_construction(self):
        grid = grid_probe(GaussianPacket(0.0, 1.0, 1.0), -10.0, 10.0)
        assert moments(grid).norm == pytest.approx(1.0, abs=1e-10)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            GaussianPacket(0.0, -1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_width_or_hbar_rejected(self, value):
        with pytest.raises(ValueError, match="width parameter must be positive and finite"):
            GaussianPacket(0.0, value)
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            GaussianPacket(0.0, 1.0, value)

    @pytest.mark.parametrize("width, hbar, sigma",
                             [(1e-300, 1e300, "inf"), (1e300, 1e-300, "0.0")])
    def test_spread_outside_the_doubles_rejected(self, width, hbar, sigma):
        # width and hbar are each fine, but hbar/width overflows or underflows
        with pytest.raises(ValueError, match=f"hbar/width = .* is {sigma}, outside the positive"):
            GaussianPacket(0.0, width, hbar)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValueError, match=f"center must be finite, got {center!r}"):
            GaussianPacket(center, 1.0)

    @pytest.mark.parametrize("center, delta", [(1e308, 1e308), (-1e308, -1e308)])
    def test_shift_out_of_the_double_range_rejected(self, center, delta):
        # the shifted center overflows to +-inf; each shift alone is finite
        with pytest.raises(ValueError, match="center must be finite, got -?inf"):
            displace(GaussianPacket(center, 1.0), delta)

    def test_zero_shift_returns_the_packet(self):
        psi = GaussianPacket(0.3, 1.2)
        assert displace(psi, 0.0) is psi


class TestDisplace:
    def test_analytic_center_shift(self):
        assert moments(displace(GaussianPacket(0.0, 1.0), 0.4)).mean == 0.4

    def test_zero_displacement_identity_on_grid(self):
        grid = grid_probe(GaussianPacket(0.0, 1.0, 1.0), -10.0, 10.0)
        assert np.allclose(displace(grid, 0.0).amps, grid.amps, atol=1e-14)

    def test_grid_matches_analytic(self):
        # spectral shift of a sampled gaussian vs direct sampling of the shifted one;
        # the strip [p_min, p_min + delta) has no sampled pre-image (true tail values
        # there are ~1e-7) so the pointwise bound applies where data determines it
        grid = grid_probe(GaussianPacket(0.0, 1.0, 1.0), -8.0, 8.0, n=1024)
        shifted = displace(grid, 0.3)
        expected = GaussianPacket(0.3, 1.0, 1.0)(shifted.p)
        determined = shifted.p - 0.3 >= grid.p[0]
        assert np.max(np.abs(shifted.amps - expected)[determined]) < 1e-8
        assert np.max(np.abs(shifted.amps - expected)) < 2e-7

    def test_grid_matches_analytic_full_default_window(self):
        grid = grid_probe(GaussianPacket(0.0, 1.0, 1.0), -10.0, 10.0)  # +-10 sigma, n=2048
        shifted = displace(grid, 0.3)
        expected = GaussianPacket(0.3, 1.0, 1.0)(shifted.p)
        assert np.max(np.abs(shifted.amps - expected)) < 1e-8

    def test_guard_range(self):
        grid = grid_probe(GaussianPacket(0.0, 1.0, 1.0), -8.0, 8.0, n=256)
        with pytest.raises(ValueError, match="guard"):
            displace(grid, 5.0)

    @pytest.mark.parametrize("n", [16, 17, 2048, 2049])
    def test_matches_direct_phase_ramp(self, n):
        # random amplitudes weight every frequency bin, the Nyquist bin of even n included
        rng = np.random.default_rng(n)
        p = np.linspace(-3.0, 5.0, n)
        grid = GridPacket(p=p, amps=rng.normal(size=n) + 1j * rng.normal(size=n))
        xi = np.fft.fftfreq(n, grid.dp)
        quarter = grid.span / 4.0
        for delta in (-0.37, -quarter * (1.0 - 1e-9), 1e-13, quarter * (1.0 - 1e-9)):
            direct = np.fft.ifft(np.fft.fft(grid.amps) * np.exp(-2j * math.pi * xi * delta))
            assert np.max(np.abs(displace(grid, delta).amps - direct)) < 1e-12

    @pytest.mark.parametrize("n", [16, 17, 2048, 2049])
    def test_sum_form_matches_direct_phase_ramps(self, n):
        # sum_i w_i psi(p - delta_i) in one pass against the direct exp(-2 pi i xi delta_i)
        rng = np.random.default_rng(n + 1)
        p = np.linspace(-3.0, 5.0, n)
        grid = GridPacket(p=p, amps=rng.normal(size=n) + 1j * rng.normal(size=n))
        xi = np.fft.fftfreq(n, grid.dp)
        quarter = grid.span / 4.0
        for shifts in ((-0.37, 1.21), (quarter * (1.0 - 1e-9), 1e-13, -quarter * (1.0 - 1e-9)),
                       (0.0, 0.0), (0.8,)):
            weights = tuple(complex(*rng.normal(size=2)) for _ in shifts)
            ramps = sum(w * np.exp(-2j * math.pi * xi * d) for w, d in zip(weights, shifts))
            direct = np.fft.ifft(np.fft.fft(grid.amps) * ramps)
            summed = displace(grid, shifts, weights=weights)
            assert summed.p is grid.p
            assert np.max(np.abs(summed.amps - direct)) < 1e-12

    def test_sum_form_needs_a_grid(self):
        with pytest.raises(ValueError, match="needs a grid packet"):
            displace(GaussianPacket(0.2, 1.3), (0.4, -0.1), weights=(0.6, -0.8j))

    @pytest.mark.parametrize("bad, message", [
        (math.inf, "displacement must be finite"),
        (-math.inf, "displacement must be finite"),
        (math.nan, "displacement must be finite"),
        (2.0, "exceeds the guard range"),  # exactly span/4
        (-2.5, "exceeds the guard range"),
    ])
    def test_sum_form_checks_each_shift(self, bad, message):
        grid = grid_probe(GaussianPacket(0.0, 1.0), -4.0, 4.0, n=64)
        with pytest.raises(ValueError, match=message):
            displace(grid, (0.1, bad), weights=(0.5, 0.5))

    @pytest.mark.parametrize("weight", [math.inf, complex(0.0, math.nan)])
    def test_sum_form_refuses_non_finite_weights(self, weight):
        grid = grid_probe(GaussianPacket(0.0, 1.0), -4.0, 4.0, n=64)
        with pytest.raises(ValueError, match="weights must be finite"):
            displace(grid, (0.1, 0.2), weights=(0.5, weight))

    @pytest.mark.parametrize("delta, weights", [(0.3, (1.0,)), ((0.3, 0.1), (1.0,)), ((), ())])
    def test_weights_need_a_tuple_of_as_many_shifts(self, delta, weights):
        grid = grid_probe(GaussianPacket(0.0, 1.0), -4.0, 4.0, n=64)
        with pytest.raises(ValueError, match="shift"):
            displace(grid, delta, weights=weights)

    @both_probes
    @pytest.mark.parametrize("delta", [(0.1, 0.2), (0.1,), (), [0.1, 0.2], [0.1], [],
                                       np.array([0.1, 0.2]), np.array([0.1])])
    def test_tuple_of_shifts_needs_weights(self, psi, delta):
        with pytest.raises(ValueError, match="weights need a tuple of as many shifts"):
            displace(psi, delta)

    @both_probes
    @pytest.mark.parametrize("delta", [np.float64(0.3), np.array(0.3)], ids=["float64", "0-d"])
    def test_zero_dimensional_delta_is_one_shift(self, psi, delta):
        shifted, reference = displace(psi, delta), displace(psi, 0.3)
        assert moments(shifted) == moments(reference)
        if isinstance(psi, GridPacket):
            assert np.array_equal(shifted.amps, reference.amps)

    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        center=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_unitarity_on_grid(self, delta, center):
        grid = grid_probe(GaussianPacket(center, 1.0, 1.0), -14.0, 14.0, n=512)
        assert moments(displace(grid, delta)).norm == pytest.approx(
            moments(grid).norm, abs=1e-10
        )


def pointer_overlap(d):
    """Overlap I of two unit-sigma Gaussian pointers d apart, read off the closed-form
    acceptance (1 + I)/2 of their equal-weight sum."""
    return 2.0 * gaussian_postselection(0.5, 0.5, 0.0, d, 1.0)[0] - 1.0


class TestOverlap:
    def test_self_overlap_is_one(self):
        assert gaussian_postselection(0.5, 0.5, 0.7, 0.7, 1.0)[0] == 1.0

    def test_displaced_gaussians_closed_form(self):
        probability = gaussian_postselection(0.5, 0.5, 0.0, 0.6, 1.0)[0]
        assert probability == pytest.approx((1.0 + OVERLAP_06) / 2.0, abs=1e-12)

    def test_against_quadrature_oracle(self):
        assert pointer_overlap(1.3) == pytest.approx(oracles.overlap_oracle(0.0, 1.3, 1.0),
                                                     abs=1e-10)

    def test_decays_monotonically(self):
        # strictly while I is resolved next to the 1 of (1 + I)/2, and to 0 after
        values = [pointer_overlap(d) for d in np.linspace(0.0, 20.0, 41)]
        assert all(a > b or a < 1e-15 for a, b in zip(values, values[1:]))
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-20

    @settings(max_examples=50, deadline=None)
    @given(
        c1=st.floats(min_value=-2, max_value=2),
        c2=st.floats(min_value=-2, max_value=2),
        phase=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_cauchy_schwarz(self, c1, c2, phase):
        # |e^{i phase} psi_1 + psi_2|^2 / 4 = (1 + Re(e^{i phase} <psi_2|psi_1>)) / 2 <= 1
        # for every phase is |<psi_2|psi_1>| <= 1
        grid = grid_probe(GaussianPacket(c1, 1.0), -16.0, 16.0, n=512)
        other = grid_probe(GaussianPacket(c2, 1.0), -16.0, 16.0, n=512)
        summed = grid._with_amps(0.5 * np.exp(1j * phase) * grid.amps + 0.5 * other.amps)
        assert moments(summed).norm <= 1.0 + 1e-12


class TestSuperpose:
    @pytest.mark.parametrize("kinds", [("grid",), ("grid", "grid"), ("gaussian", "grid"),
                                       ("grid", "gaussian")])
    def test_renders_gaussian_pointers_only(self, kinds):
        psi = GaussianPacket(0.0, 1.0)
        packets = {"gaussian": psi, "grid": grid_probe(psi, -8.0, 8.0, n=128)}
        with pytest.raises(ValueError, match=r"^superpose renders Gaussian pointers; "
                                             r"sum grid packets with displace\(psi, shifts, "):
            superpose([(1.0, packets[kind]) for kind in kinds])

    @pytest.mark.parametrize("n", [8, 15, 2048.5, pytest.param("16", id="str-16")])
    def test_grid_size_refused(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer of at least 16, got "):
            superpose([(1.0, GaussianPacket(0.0))], n=n)

    @pytest.mark.parametrize("n", [16, np.int64(16)])
    def test_smallest_grid_size_renders(self, n):
        grid = superpose([(1.0, GaussianPacket(0.0))], n=n)
        assert grid.p.size == 16 and (grid.p[0], grid.p[-1]) == (-10.0, 10.0)


class TestMoments:
    def test_fig2_superposition_mean(self):
        m = moments(fig2_superposition())
        # closed form (b^2 dB + a^2 dA - a b (dA+dB) I) / (1 - 2 a b I)
        closed = (
            FIG2_BETA**2 * FIG2_DELTA_B
            + FIG2_ALPHA**2 * FIG2_DELTA_A
            - FIG2_ALPHA * FIG2_BETA * (FIG2_DELTA_A + FIG2_DELTA_B) * FIG2_POINTER_OVERLAP
        ) / (1 - 2 * FIG2_ALPHA * FIG2_BETA * FIG2_POINTER_OVERLAP)
        assert m.mean == pytest.approx(closed, abs=1e-10)
        assert m.mean == pytest.approx(FIG2_MEAN, abs=1e-10)

    def test_fig2_superposition_against_oracle(self):
        m = moments(fig2_superposition())
        _, mean, std = oracles.superposition_stats(
            [FIG2_BETA, -FIG2_ALPHA], [FIG2_DELTA_B, FIG2_DELTA_A]
        )
        assert m.mean == pytest.approx(mean, abs=1e-9)
        assert m.std == pytest.approx(std, abs=1e-9)

    def test_common_displacement_factors_out(self):
        psi = GaussianPacket(0.0, 1.0)
        for a, b in [(0.3, 0.8), (0.6, 0.5)]:
            mixed = superpose([(b, displace(psi, 0.4)), (-a, displace(psi, 0.4))])
            assert moments(mixed).mean == pytest.approx(0.4, abs=1e-10)

    def test_fig2_mean_is_negative(self):
        assert moments(fig2_superposition()).mean < 0

    def test_grid_agrees_with_analytic(self):
        psi = GaussianPacket(0.35, 1.0, 1.0)
        grid = grid_probe(psi, 0.35 - 10.0, 0.35 + 10.0, n=2048)
        mg, ma = moments(grid), moments(psi)
        assert mg.norm == pytest.approx(ma.norm, abs=1e-6)
        assert mg.mean == pytest.approx(ma.mean, abs=1e-6)
        assert mg.std == pytest.approx(ma.std, abs=1e-6)
        assert np.trapezoid(np.conj(grid.amps) * psi(grid.p), grid.p).real == pytest.approx(
            1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [16, 17, 2048, 2049])
    def test_grid_moments_match_trapezoid(self, n):
        # the kept moments take np.trapezoid's arithmetic, so they are equal, not close
        grid = grid_probe(GaussianPacket(0.3, 1.2), -12.0, 12.0, n=n)
        shifted = displace(grid, 0.7)
        summed = displace(grid, (0.0, 0.7), weights=(0.6, 0.8j))
        for psi in (grid, shifted, summed, fig2_superposition(n)):
            w = np.abs(psi.amps) ** 2
            dp = np.diff(psi.p)
            norm2 = float(np.trapezoid(w, dx=dp))
            mean = float(np.trapezoid(psi.p * w, dx=dp)) / norm2
            var = float(np.trapezoid((psi.p - mean) ** 2 * w, dx=dp)) / norm2
            got = moments(psi)
            assert (got.norm, got.mean, got.std) == (math.sqrt(norm2), mean, math.sqrt(var))


class TestGridValidation:
    def test_too_few_points(self):
        with pytest.raises(ValueError, match="16"):
            GridPacket(p=np.linspace(0, 1, 8), amps=np.zeros(8, dtype=complex))

    def test_nonuniform_grid(self):
        p = np.array([0.0, 0.1, 0.3, 0.35] + list(np.linspace(0.4, 2.0, 14)))
        with pytest.raises(ValueError, match="uniform"):
            GridPacket(p=p, amps=np.zeros(p.size, dtype=complex))

    @pytest.mark.parametrize("offset, ok", [(2e-9, False), (5e-10, True)])
    def test_uniformity_tolerance(self, offset, ok):
        # one step of a unit-step grid is off by `offset` relative; the bound is 1e-9
        p = np.arange(32.0)
        p[20:] += offset
        if ok:
            GridPacket(p=p, amps=np.zeros(32, dtype=complex))
        else:
            with pytest.raises(ValueError, match="uniform"):
                GridPacket(p=p, amps=np.zeros(32, dtype=complex))

    def test_nonfinite_amplitudes(self):
        p = np.linspace(-1, 1, 32)
        amps = np.zeros(32, dtype=complex)
        amps[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GridPacket(p=p, amps=amps)

    def test_derived_packets_skip_the_grid_checks(self, monkeypatch):
        # displace keeps the checked grid of its input, one shift or a weighted sum, and checks
        # only the new amplitudes; a packet built from user arrays checks its grid
        grid = grid_probe(GaussianPacket(0.0, 1.0), -4, 4, n=64)
        diffs = []
        original = np.diff
        monkeypatch.setattr(np, "diff", lambda *a, **k: diffs.append(1) or original(*a, **k))
        shifted = displace(grid, 0.3)
        summed = displace(grid, (0.0, 0.3), weights=(1.0, 0.5j))
        assert diffs == [] and shifted.p is grid.p and summed.p is grid.p
        assert not (shifted.amps.flags.writeable or summed.amps.flags.writeable)
        GridPacket(p=grid.p, amps=summed.amps)
        assert diffs == [1]

    def test_derived_packets_check_their_amplitudes(self):
        grid = grid_probe(GaussianPacket(0.0, 1.0), -4, 4, n=64)
        with pytest.raises(ValueError, match="grid samples must be finite"):
            grid._with_amps(math.nan * grid.amps)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_momenta(self, bad):
        p = np.linspace(-1, 1, 32)
        p[7] = bad
        with pytest.raises(ValueError, match="grid samples must be finite"):
            GridPacket(p=p, amps=np.zeros(32, dtype=complex))

    def test_constructor_copies_the_callers_arrays(self):
        p = np.linspace(-6.0, 6.0, 64)
        amps = GaussianPacket(0.2, 1.0)(p).astype(complex)
        grid = GridPacket(p=p, amps=amps)
        kept = (grid.amps.copy(), np.fft.fft(grid.amps), moments(grid))
        assert grid._spectrum is grid._spectrum and not grid._spectrum.flags.writeable
        assert p.flags.writeable and amps.flags.writeable
        p[0], amps[0] = -7.0, 5.0
        assert np.array_equal(grid.amps, kept[0]) and grid.p[0] == -6.0
        assert np.array_equal(grid._spectrum, kept[1]) and moments(grid) == kept[2]

    def test_immutable_after_construction(self):
        grid = grid_probe(GaussianPacket(0.0, 1.0), -4, 4, n=64)
        with pytest.raises(ValueError):
            grid.amps[0] = 1.0


class TestCsv:
    def test_round_trip(self):
        grid = grid_probe(GaussianPacket(0.2, 1.0, 1.0), -6, 6, n=128)
        buf = io.StringIO()
        to_csv(grid, buf, units="natural", width=1.0)
        assert buf.getvalue().startswith("# units=natural, W=1.0\n")
        p, re, im = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=2,
                               unpack=True)
        assert np.array_equal(p, grid.p)
        assert np.array_equal(re + 1j * im, grid.amps)

    def test_header_and_metadata_lines(self):
        buf = io.StringIO()
        to_csv(grid_probe(GaussianPacket(0.0, 1.0), -4, 4, n=32), buf, units="si", width=1e-7)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# units=si, W=")
        assert lines[1] == "p,re,im"
        assert len(lines) == 2 + 32
