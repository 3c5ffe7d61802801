"""Beam directions and far-field cuts of the fed line array.

Sign convention, fixed across the toolkit: element k sits at x = k*d and
the array factor is AF(theta) = sum_k a_k exp(+j k beta d sin(theta)).  An
excitation whose phase falls by alpha from one element to the next
therefore peaks at sin(theta) = +alpha/(beta*d); mirror-image patterns are
obtained by conjugating the excitation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import element_pattern
from .errors import DegeneratePatternError, GratingLobeError
from .microstrip import C0

DEFAULT_GRID_DEG = 0.05  # fine enough for 0.2 degree peak tolerances

HALF_POWER = 1.0 / math.sqrt(2.0)  # -3.01 dB in field amplitude


@dataclass(frozen=True)
class ArrayGeometry:
    """Equally spaced line array: element count, spacing (m), frequency (Hz)."""

    n_elements: int
    spacing_d: float
    frequency: float

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError("need at least 2 elements")
        if self.spacing_d <= 0 or self.frequency <= 0:
            raise ValueError("spacing and frequency must be positive")

    @property
    def wavenumber(self) -> float:
        """Free-space beta = 2*pi/lambda0."""
        return 2.0 * math.pi * self.frequency / C0


def half_wave_geometry(frequency: float, n_elements: int = 4) -> ArrayGeometry:
    """The d = lambda0/2 reference geometry at the given frequency."""
    return ArrayGeometry(n_elements, C0 / frequency / 2.0, frequency)


def inter_element_phase(i: int, n: int) -> float:
    """Progressive phase magnitude of beam ``i`` for an n-element matrix: i*pi/n."""
    if not (1 <= i <= n - 1):
        raise ValueError(f"beam index {i} outside 1..{n - 1}")
    return i * math.pi / n


def beam_angle(alpha: float, geometry: ArrayGeometry) -> float:
    """Steering angle theta = arcsin(alpha / (beta*d)) in radians."""
    bd = geometry.wavenumber * geometry.spacing_d
    x = alpha / bd
    if abs(x) > 1.0:
        raise GratingLobeError(
            f"progression {math.degrees(alpha):.2f} deg needs sin(theta) = {x:.3f}, "
            "beam is outside visible space"
        )
    return math.asin(x)


@dataclass(frozen=True)
class PatternCut:
    """Sampled field magnitude versus angle for one excited port."""

    angles: np.ndarray  # radians, strictly increasing, within [-pi/2, pi/2]
    magnitude: np.ndarray
    input_port_label: str = ""

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        mag = np.asarray(self.magnitude, dtype=float)
        if ang.shape != mag.shape or ang.ndim != 1:
            raise ValueError("angles and magnitude must be 1-d arrays of equal length")
        if not np.all(np.diff(ang) > 0):
            raise ValueError("angles must be strictly increasing")
        if ang.size and (ang[0] < -math.pi / 2 - 1e-12 or ang[-1] > math.pi / 2 + 1e-12):
            raise ValueError("angles must stay within [-pi/2, pi/2]")
        ang.setflags(write=False)
        mag.setflags(write=False)
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "magnitude", mag)

    def to_csv(self, stream) -> None:
        """Write `angle_deg,magnitude_linear,magnitude_db` rows, LF endings."""
        stream.write("angle_deg,magnitude_linear,magnitude_db\n")
        for ang, mag in zip(self.angles, self.magnitude):
            db = 20.0 * math.log10(max(mag, 1e-300))
            stream.write(
                f"{math.degrees(ang):.9g},{mag:.9g},{db:.9g}\n"
            )


def default_angle_grid(step_deg: float = DEFAULT_GRID_DEG) -> np.ndarray:
    """Radian grid over [-90, +90] degrees at the given step."""
    n = int(round(180.0 / step_deg)) + 1
    return np.radians(np.linspace(-90.0, 90.0, n))


def array_factor(
    excitations,
    geometry: ArrayGeometry,
    angles: np.ndarray | None = None,
    element_model: str = "isotropic",
    normalize: bool = False,
    label: str = "",
) -> PatternCut:
    """Superpose element waves into a pattern cut.

    magnitude(theta) = element(theta) * |sum_k a_k exp(j k beta d sin theta)|
    """
    a = np.asarray(excitations, dtype=complex)
    if a.shape != (geometry.n_elements,):
        raise ValueError(
            f"need {geometry.n_elements} excitations, got shape {a.shape}"
        )
    th = default_angle_grid() if angles is None else np.asarray(angles, dtype=float)
    bd = geometry.wavenumber * geometry.spacing_d
    phase = np.outer(np.arange(geometry.n_elements), bd * np.sin(th))
    field = np.abs(a @ np.exp(1j * phase)) * element_pattern(th, element_model)
    if normalize:
        peak = float(np.max(field))
        if peak > 0.0:
            field = field / peak
    return PatternCut(angles=th, magnitude=field, input_port_label=label)


@dataclass(frozen=True)
class PatternMetrics:
    peak_angle_deg: float
    peak_magnitude: float
    hpbw_deg: float
    sidelobe_db: float | None  # None when no sidelobe exists in the cut


def _parabolic_peak(x: np.ndarray, y_db: np.ndarray, m: int) -> float:
    if m == 0 or m == len(x) - 1:
        return float(x[m])
    y1, y2, y3 = y_db[m - 1], y_db[m], y_db[m + 1]
    curv = y1 - 2.0 * y2 + y3
    if curv >= 0.0:
        return float(x[m])
    delta = 0.5 * (y1 - y3) / curv
    return float(x[m] + delta * (x[m + 1] - x[m]))


def _crossing(x0, y0, x1, y1, level):
    # linear interpolation of the angle where y crosses level between samples
    if y1 == y0:
        return x0
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def pattern_metrics(cut: PatternCut) -> PatternMetrics:
    """Peak angle (parabolic refined), half-power width, highest sidelobe."""
    mag = cut.magnitude
    peak = float(np.max(mag))
    if peak <= 0.0 or (peak - float(np.min(mag))) <= 1e-12 * peak:
        raise DegeneratePatternError("pattern has no distinct main lobe")
    deg = np.degrees(cut.angles)
    db = 20.0 * np.log10(np.maximum(mag, 1e-300))
    m = int(np.argmax(mag))
    peak_angle = _parabolic_peak(deg, db, m)

    # half-power crossings on both sides of the main lobe
    level = peak * HALF_POWER
    left = math.nan
    for k in range(m, 0, -1):
        if mag[k - 1] < level <= mag[k]:
            left = _crossing(deg[k - 1], mag[k - 1], deg[k], mag[k], level)
            break
    right = math.nan
    for k in range(m, len(mag) - 1):
        if mag[k + 1] < level <= mag[k]:
            right = _crossing(deg[k], mag[k], deg[k + 1], mag[k + 1], level)
            break
    hpbw = right - left  # NaN propagates if either side never crosses

    # main lobe ends at the first local minimum on each side
    lo = m
    while lo > 0 and mag[lo - 1] < mag[lo]:
        lo -= 1
    hi = m
    while hi < len(mag) - 1 and mag[hi + 1] < mag[hi]:
        hi += 1
    outside = np.concatenate([mag[:lo], mag[hi + 1 :]])
    sidelobe_db = None
    if outside.size:
        side = float(np.max(outside))
        if side > 0.0:
            sidelobe_db = 20.0 * math.log10(side / peak)

    return PatternMetrics(
        peak_angle_deg=peak_angle,
        peak_magnitude=peak,
        hpbw_deg=float(hpbw),
        sidelobe_db=sidelobe_db,
    )

