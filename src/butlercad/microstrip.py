"""Closed-form quasi-static synthesis and analysis of microstrip lines.

All lengths are meters, frequencies Hz, impedances ohms, angles radians.
The model is quasi-static: the effective permittivity carries no frequency
dispersion, conductor thickness and losses are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SynthesisRangeError

C0 = 299_792_458.0  # free-space speed of light, m/s


@dataclass(frozen=True)
class Substrate:
    """Dielectric slab under the conductor: relative permittivity and height."""

    epsilon_r: float
    height_h: float  # meters

    def __post_init__(self):
        if not (self.epsilon_r >= 1.0):
            raise ValueError(f"epsilon_r must be >= 1, got {self.epsilon_r}")
        if not (self.height_h > 0.0):
            raise ValueError(f"height_h must be > 0, got {self.height_h}")


@dataclass(frozen=True)
class MicrostripLineSpec:
    """Physical description of one designed line section."""

    substrate: Substrate
    z0: float
    width_w: float
    length_l: float
    eps_reff: float
    electrical_length: float  # radians at the design frequency

    def __post_init__(self):
        if self.z0 <= 0 or self.width_w <= 0 or self.length_l < 0:
            raise ValueError("line dimensions must be positive")
        if not (1.0 <= self.eps_reff <= self.substrate.epsilon_r + 1e-12):
            raise ValueError(
                f"eps_reff {self.eps_reff} outside [1, epsilon_r={self.substrate.epsilon_r}]"
            )


def _wide_strip_ratio(z0: float, er: float) -> float:
    # Wheeler synthesis, wide-strip branch: valid when the result is > 2
    b = 60.0 * math.pi**2 / (z0 * math.sqrt(er))
    if b <= 1.0:
        return math.nan
    return (2.0 / math.pi) * (
        b - 1.0 - math.log(2.0 * b - 1.0)
        + (er - 1.0) / (2.0 * er) * (math.log(b - 1.0) + 0.39 - 0.61 / er)
    )


def _narrow_strip_ratio(z0: float, er: float) -> float:
    # Wheeler synthesis, narrow-strip branch: valid when the result is < 2
    a = z0 / 60.0 * math.sqrt((er + 1.0) / 2.0) + (er - 1.0) / (er + 1.0) * (
        0.23 + 0.11 / er
    )
    try:
        denom = math.exp(2.0 * a) - 2.0
        if denom <= 0.0:
            return math.nan
        return 8.0 * math.exp(a) / denom
    except OverflowError:
        return math.nan


def synthesize_width(z0: float, substrate: Substrate) -> float:
    """Conductor width (meters) realizing characteristic impedance ``z0``.

    Wheeler synthesis, both branches::

        wide strip (valid when W/h > 2):
            B   = 60*pi^2 / (z0*sqrt(er))
            W/h = (2/pi)*(B - 1 - ln(2B - 1)
                          + (er-1)/(2er)*(ln(B - 1) + 0.39 - 0.61/er))
        narrow strip (valid when W/h < 2):
            A   = (z0/60)*sqrt((er+1)/2) + (er-1)/(er+1)*(0.23 + 0.11/er)
            W/h = 8*exp(A) / (exp(2A) - 2)

    Both are evaluated and the self-consistent one is kept: the wide-strip
    result is trusted only when it lands above W/h = 2 and the narrow-strip
    result only below.  Near the crossover, where both or neither are
    self-consistent, the branch whose ``analyze_impedance`` round trip is
    closer to ``z0`` wins.
    """
    if z0 <= 0:
        raise ValueError(f"z0 must be > 0, got {z0}")
    er = substrate.epsilon_r
    wide = _wide_strip_ratio(z0, er)
    narrow = _narrow_strip_ratio(z0, er)
    wide_ok = math.isfinite(wide) and wide > 2.0
    narrow_ok = math.isfinite(narrow) and 0.0 < narrow < 2.0

    if wide_ok and not narrow_ok:
        ratio = wide
    elif narrow_ok and not wide_ok:
        ratio = narrow
    else:
        candidates = [r for r in (wide, narrow) if math.isfinite(r) and r > 0.0]
        if not candidates:
            raise SynthesisRangeError(
                f"z0 = {z0:g} ohm is outside the validity of the width synthesis"
            )
        ratio = min(
            candidates,
            key=lambda r: abs(analyze_impedance(r * substrate.height_h, substrate) - z0),
        )
    width = ratio * substrate.height_h
    if not math.isfinite(width) or width <= 0.0:
        raise SynthesisRangeError(
            f"z0 = {z0:g} ohm is outside the validity of the width synthesis"
        )
    return width


def analyze_impedance(width_w: float, substrate: Substrate) -> float:
    """Characteristic impedance (ohms) of a line of width ``width_w``.

    Hammerstad's quasi-static approximation; the inverse companion of
    :func:`synthesize_width` (round-trip error below 1% for common
    geometries).
    """
    if width_w <= 0:
        raise ValueError(f"width_w must be > 0, got {width_w}")
    u = width_w / substrate.height_h
    ee = effective_permittivity(width_w, substrate)
    if u <= 1.0:
        return 60.0 / math.sqrt(ee) * math.log(8.0 / u + u / 4.0)
    return 120.0 * math.pi / (math.sqrt(ee) * (u + 1.393 + 0.667 * math.log(u + 1.444)))


def effective_permittivity(width_w: float, substrate: Substrate) -> float:
    """Effective permittivity seen by the quasi-TEM mode.

    eps_reff = (er+1)/2 + (er-1)/2 * (1 + 12 h/W)^-0.5, bounded by
    [(er+1)/2, er] and increasing with W/h.
    """
    if width_w <= 0:
        raise ValueError(f"width_w must be > 0, got {width_w}")
    er = substrate.epsilon_r
    return (er + 1.0) / 2.0 + (er - 1.0) / 2.0 / math.sqrt(
        1.0 + 12.0 * substrate.height_h / width_w
    )


def guided_wavelength(frequency: float, eps_reff: float) -> float:
    """Wavelength (meters) inside the line: lambda0 / sqrt(eps_reff)."""
    if frequency <= 0:
        raise ValueError(f"frequency must be > 0, got {frequency}")
    if eps_reff < 1.0:
        raise ValueError(f"eps_reff must be >= 1, got {eps_reff}")
    # a Python float overflows to inf silently, where a numpy scalar would warn
    lam = C0 / float(frequency) / math.sqrt(eps_reff)
    if lam == math.inf:
        raise ValueError(f"frequency {float(frequency)!r} Hz gives an infinite wavelength")
    return lam


def quarter_wave_length(frequency: float, eps_reff: float) -> float:
    """Physical length of a 90 degree section: guided wavelength over four."""
    return guided_wavelength(frequency, eps_reff) / 4.0


def phase_shift_length(phi: float, frequency: float, eps_reff: float) -> float:
    """Physical length giving transmission phase ``phi`` (radians): phi*lambda/(2*pi)."""
    if phi <= 0:
        raise ValueError(f"phi must be > 0, got {phi}")
    return phi * guided_wavelength(frequency, eps_reff) / (2.0 * math.pi)


def design_line(
    z0: float,
    frequency: float,
    substrate: Substrate,
    electrical_length: float = math.pi / 2.0,
) -> MicrostripLineSpec:
    """Synthesize a full line record for the given impedance and phase."""
    width = synthesize_width(z0, substrate)
    ee = effective_permittivity(width, substrate)
    length = phase_shift_length(electrical_length, frequency, ee)
    return MicrostripLineSpec(
        substrate=substrate,
        z0=z0,
        width_w=width,
        length_l=length,
        eps_reff=ee,
        electrical_length=electrical_length,
    )
