"""1D momentum-space wavefunctions: analytic Gaussians and sampled grids.

Two representations coexist on purpose.  The analytic Gaussian gives exact
closed forms (moments, displacement), so every grid result can be
checked against it; the grid generalizes to the non-Gaussian superpositions
that postselection produces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TextIO, Union

import numpy as np

from .output import table_csv
from .units import DEFAULT_GRID_POINTS, MIN_GRID_POINTS, UNITS
DEFAULT_HALFSPAN_SIGMAS = 10.0  # Gaussian mass outside +/-10 sigma < 1e-22


@dataclass(frozen=True)
class GaussianPacket:
    """Normalized Gaussian psi(p) ~ exp(-(p - center)^2 W^2 / (4 hbar^2)).

    The momentum standard deviation is exactly hbar/width, which must be a positive
    double, neither 0 nor inf.  The center must be finite.
    """

    center: float
    width: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _finite("center", self.center)
        if not 0 < self.width < math.inf:
            raise ValueError(f"width parameter must be positive and finite, got {self.width}")
        if not 0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"momentum spread hbar/width = {self.hbar!r}/{self.width!r} is "
                             f"{self.sigma!r}, outside the positive doubles")

    @property
    def sigma(self) -> float:
        return self.hbar / self.width

    def __call__(self, p: np.ndarray) -> np.ndarray:
        """Evaluate the (real, positive) normalized amplitude at momenta p."""
        s = self.sigma
        norm = (2.0 * math.pi * s * s) ** (-0.25)
        exponent = -((p - self.center) ** 2) / (4.0 * s * s)
        # libm's exp, the same on every CPU: numpy's AVX-512 exp differs in the last bit
        return norm * np.fromiter(map(math.exp, exponent.tolist()), float, exponent.size)


@dataclass(frozen=True, eq=False)
class GridPacket:
    """Complex amplitudes sampled on a uniform momentum grid.

    The constructor copies `p` and `amps`; packets derived from a checked packet
    share its grid.  Every array is read-only, so the grid steps, the spectrum and
    the moments are taken once per packet.
    """

    p: np.ndarray
    amps: np.ndarray
    steps: np.ndarray = field(init=False, repr=False)  # np.diff(p)

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float)
        if p.ndim != 1 or p.size < MIN_GRID_POINTS:
            raise ValueError(f"grid needs at least {MIN_GRID_POINTS} points")
        if not np.all(np.isfinite(p)):
            raise ValueError("grid samples must be finite")
        steps = np.diff(p)
        # each sample rounds at the grid's magnitude: far from zero that, not the step, bounds
        tolerance = 1e-9 * steps[0] + 2.0 * np.spacing(max(abs(p[0]), abs(p[-1])))
        if steps[0] <= 0 or not np.all(np.abs(steps - steps[0]) <= tolerance):
            raise ValueError("momentum grid must be uniform and increasing")
        amps = _checked_amps(p, np.array(self.amps, dtype=complex))
        p.setflags(write=False)
        steps.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "amps", amps)

    def _with_amps(self, amps: np.ndarray) -> "GridPacket":
        """A packet on this already checked grid; only the new amplitudes are checked."""
        packet = object.__new__(GridPacket)
        object.__setattr__(packet, "p", self.p)
        object.__setattr__(packet, "steps", self.steps)
        object.__setattr__(packet, "amps", _checked_amps(self.p, amps))
        return packet

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    @property
    def span(self) -> float:
        return float(self.p[-1] - self.p[0])

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """np.fft.fft(amps), read-only, taken on first read."""
        spectrum = np.fft.fft(self.amps)
        spectrum.setflags(write=False)
        return spectrum

    @cached_property
    def _moments(self) -> Moments:
        """The `moments` of this packet, taken on first read."""
        # in place, with the arithmetic (so the bytes) of |amps|**2, p * w and (p - mean)**2 * w
        w = np.abs(self.amps)
        np.square(w, out=w)
        norm2 = self._trapezoid(w)
        if norm2 <= 0.0:
            raise ValueError("cannot take moments of an identically zero wavepacket")
        y = np.multiply(self.p, w)
        mean = self._trapezoid(y) / norm2
        np.subtract(self.p, mean, out=y)
        np.multiply(np.square(y, out=y), w, out=y)
        var = self._trapezoid(y) / norm2
        return Moments(norm=math.sqrt(norm2), mean=mean, std=math.sqrt(max(var, 0.0)))

    def _trapezoid(self, y: np.ndarray) -> float:
        """np.trapezoid(y, dx=self.steps), the same arithmetic without its per-call setup."""
        mid = np.add(y[1:], y[:-1])
        np.multiply(self.steps, mid, out=mid)
        return float(np.divide(mid, 2.0, out=mid).sum())


def _checked_amps(p: np.ndarray, amps) -> np.ndarray:
    """`amps` as a read-only complex array, refused unless it matches `p` and is finite."""
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != p.shape:
        raise ValueError("amplitude array must match the momentum grid")
    if not np.all(np.isfinite(amps)):
        raise ValueError("grid samples must be finite")
    amps.setflags(write=False)
    return amps


Wavepacket = Union[GaussianPacket, GridPacket]


@dataclass(frozen=True)
class Moments:
    norm: float  # L2 norm, sqrt(integral |psi|^2 dp)
    mean: float
    std: float


def _phase_ramp(n: int, c: float) -> np.ndarray:
    """exp(i c k) for the signed FFT frequency index k of each of n bins.

    The half k = 0..n//2 is the outer product of exp(i c b q) and exp(i c r)
    for k = q b + r, so it takes about 2 sqrt(n/2) complex exponentials
    instead of n; the negative frequencies are its mirrored conjugate.
    """
    half = n // 2 + 1
    b = math.isqrt(half - 1) + 1
    q = -(-half // b)
    coarse = np.exp(1j * c * np.arange(0, q * b, b))
    table = np.outer(coarse, np.exp(1j * c * np.arange(b))).ravel()
    ramp = np.empty(n, dtype=complex)
    pos = (n + 1) // 2
    ramp[:pos] = table[:pos]
    np.conjugate(table[n // 2:0:-1], out=ramp[pos:])
    return ramp


def displace(
    psi: Wavepacket,
    delta: Union[float, tuple[float, ...]],
    weights: tuple[complex, ...] | None = None,
) -> Wavepacket:
    """Return psi(p - delta), or sum_i w_i psi(p - delta_i) given a tuple of shifts and weights.

    A delta of dimension 0 is one shift; anything else is a sequence of shifts, which must
    be a tuple with as many weights.  A zero shift returns psi.  Gaussians shift their
    center exactly; a sum of shifts needs a grid.  Grid packets are multiplied by the
    phase ramp exp(-2 pi i xi delta) between one fft and one ifft, which is exact for
    band-limited data; shifting commutes with the transform, so a sum of shifts takes the
    same two transforms with the weighted sum of the ramps.  The fft is the packet's kept
    spectrum, so a packet already transformed takes only the ifft.  Each shift is limited
    to a quarter of the grid span to guard against wrap-around.  `_phase_ramp` builds each
    ramp from a two-level table; against mpmath its worst error was 1.2e-12 at n = 8192
    (the direct exp form: 1.5e-12).  A non-finite shift or weight is refused.
    """
    if weights is None and np.ndim(delta) == 0:
        if _finite("displacement", delta) == 0.0:
            return psi
        if isinstance(psi, GaussianPacket):
            return GaussianPacket(center=psi.center + delta, width=psi.width, hbar=psi.hbar)
        delta, weights = (delta,), (1.0,)  # one shift of a grid: the one-term sum
    if not (isinstance(delta, tuple) and delta and weights is not None
            and len(weights) == len(delta)):
        raise ValueError("weights need a tuple of as many shifts")
    if not all(map(cmath.isfinite, weights)):
        raise ValueError(f"displacement weights must be finite, got {weights!r}")
    if isinstance(psi, GaussianPacket):
        raise ValueError("a sum of shifts needs a grid packet; superpose Gaussian shifts")
    for d in delta:
        if abs(_finite("displacement", d)) >= psi.span / 4.0:
            raise ValueError(
                f"grid displacement {d!r} exceeds the guard range (span/4 = {psi.span / 4.0!r})"
            )
    n = psi.p.size
    kernel = None  # the first weighted ramp becomes the result; later ones are added to it
    for w, d in zip(weights, delta):
        ramp = _phase_ramp(n, -2.0 * math.pi * d / (n * psi.dp))
        # w first, as in w * ramp: `ramp *= w` takes another SIMD kernel and another last bit
        np.multiply(w, ramp, out=ramp)
        kernel = ramp if kernel is None else np.add(kernel, ramp, out=kernel)
    np.multiply(psi._spectrum, kernel, out=kernel)
    return psi._with_amps(np.fft.ifft(kernel, out=kernel))


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _grid_points(n: int) -> int:
    """n, refused unless it is an integer of at least MIN_GRID_POINTS."""
    if not (isinstance(n, (int, np.integer)) and n >= MIN_GRID_POINTS):
        raise ValueError(f"n must be an integer of at least {MIN_GRID_POINTS}, got {n!r}")
    return n


def moments(psi: Wavepacket) -> Moments:
    """L2 norm, mean momentum and momentum standard deviation (a grid's are kept)."""
    if isinstance(psi, GaussianPacket):
        return Moments(norm=1.0, mean=psi.center, std=psi.sigma)
    return psi._moments


def superpose(
    terms: list[tuple[complex, GaussianPacket]],
    n: int = DEFAULT_GRID_POINTS,
) -> GridPacket:
    """sum_i c_i psi_i of Gaussian pointers on n points over the hull of their +/- 10 sigma
    supports (unnormalized).  Grid packets are summed by displace(psi, shifts, weights=...)."""
    if not terms:
        raise ValueError("superpose needs at least one term")
    if not all(isinstance(psi, GaussianPacket) for _, psi in terms):
        raise ValueError("superpose renders Gaussian pointers; "
                         "sum grid packets with displace(psi, shifts, weights=...)")
    lo = min(psi.center - DEFAULT_HALFSPAN_SIGMAS * psi.sigma for _, psi in terms)
    hi = max(psi.center + DEFAULT_HALFSPAN_SIGMAS * psi.sigma for _, psi in terms)
    p = np.linspace(lo, hi, _grid_points(n))
    amps = np.zeros(n, dtype=complex)
    for coeff, psi in terms:
        amps += coeff * psi(p)
    return GridPacket(p=p, amps=amps)


# --- CSV serialization (header `p,re,im`, metadata comment line) ---


def to_csv(psi: GridPacket, dest: TextIO, units: str = "natural", width: float = 1.0) -> None:
    """Write a grid packet to the text stream `dest` as CSV rows `p,re,im` with a unit
    metadata comment."""
    if units not in UNITS:
        raise ValueError(f"units must be 'natural' or 'si', got {units!r}")
    rows = table_csv("p,re,im", (psi.p, psi.amps.real, psi.amps.imag), float_format="%r")
    dest.write(f"# units={units}, W={float(width)!r}\n" + rows)
