"""Closed-form inset-fed rectangular patch design and element pattern.

The resonant length accounts for the fringing extension on both radiating
edges; the inset depth places the 50 ohm tap where the cosine-squared
resistance profile crosses the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DesignRangeError, NoSolutionError
from .microstrip import C0, Substrate, effective_permittivity, synthesize_width

# Edge resistance used by the reference design.  The slot-conductance model
# needed to predict it from geometry is out of scope; this value is
# back-solved so that a 12.7 mm long FR4 patch takes its 50 ohm tap at the
# 4.7 mm inset of the reference design.
EDGE_RESISTANCE_REFERENCE = 317.0

# The reference layout leaves a 3.4 mm gap between patch edges.  Whether
# that figure means edge-to-edge is not settled, so it is recorded here but
# never used in pattern math; the array default stays at half-wave spacing
# and any other pitch (e.g. width + this gap, about 0.35 lambda0 at
# 5.2 GHz) can be passed explicitly.
PATCH_EDGE_GAP_REFERENCE = 3.4e-3


@dataclass(frozen=True)
class PatchDims:
    """Rectangular patch geometry; lengths in meters."""

    width_w: float
    length_l: float
    delta_l: float
    eps_reff: float
    inset_y0: float = 0.0
    feed_line_width: float = 0.0

    def __post_init__(self):
        if self.width_w <= 0 or self.length_l <= 0 or self.delta_l <= 0:
            raise ValueError("patch dimensions must be positive")
        if not (0.0 <= self.inset_y0 < self.length_l / 2.0):
            raise ValueError(
                f"inset_y0 = {self.inset_y0} outside [0, L/2 = {self.length_l / 2.0})"
            )


def design_patch(fr: float, substrate: Substrate) -> PatchDims:
    """Patch width and resonant length for resonance at ``fr``.

    W      = (c / 2 fr) * sqrt(2 / (er + 1))
    eps    = quasi-static effective permittivity at W/h
    dL/h   = 0.412 (eps + 0.3)(W/h + 0.264) / [(eps - 0.258)(W/h + 0.8)]
    L      = c / (2 fr sqrt(eps)) - 2 dL

    The inset is not chosen here; see :func:`inset_position`.
    """
    if fr <= 0:
        raise ValueError(f"fr must be > 0, got {fr}")
    er, h = substrate.epsilon_r, substrate.height_h
    width = C0 / (2.0 * fr) * math.sqrt(2.0 / (er + 1.0))
    eps = effective_permittivity(width, substrate)
    u = width / h
    delta_l = 0.412 * h * (eps + 0.3) * (u + 0.264) / ((eps - 0.258) * (u + 0.8))
    length = C0 / (2.0 * fr * math.sqrt(eps)) - 2.0 * delta_l
    if not (math.isfinite(delta_l) and math.isfinite(length)):  # W/h overflowed
        raise DesignRangeError(
            f"patch fringing extension dL/h = 0.412 (eps + 0.3)(W/h + 0.264) / "
            f"[(eps - 0.258)(W/h + 0.8)] is not finite at h = {float(h)!r} m"
        )
    if length <= 0.0:
        raise DesignRangeError(
            f"patch length went non-positive at fr = {fr:g} Hz on this substrate"
        )
    return PatchDims(width_w=width, length_l=length, delta_l=delta_l, eps_reff=eps)


def inset_position(r_edge: float, r_target: float, length_l: float) -> float:
    """Inset depth y0 where the input resistance drops to ``r_target``.

    The resistance profile along the patch is R(y) = R_edge cos^2(pi y / L),
    so y0 = (L / pi) * arccos(sqrt(r_target / r_edge)), always below L/2.
    """
    if r_edge <= 0 or r_target <= 0 or length_l <= 0:
        raise ValueError("resistances and length must be positive")
    if r_target > r_edge:
        raise NoSolutionError(
            f"target {r_target:g} ohm exceeds edge resistance {r_edge:g} ohm"
        )
    return length_l / math.pi * math.acos(math.sqrt(r_target / r_edge))


def with_inset(
    patch: PatchDims,
    r_edge: float = EDGE_RESISTANCE_REFERENCE,
    r_target: float = 50.0,
    substrate: Substrate | None = None,
    feed_z0: float = 50.0,
) -> PatchDims:
    """Fill in the inset depth and, when a substrate is given, the feed width."""
    y0 = inset_position(r_edge, r_target, patch.length_l)
    feed_w = synthesize_width(feed_z0, substrate) if substrate is not None else 0.0
    return replace(patch, inset_y0=y0, feed_line_width=feed_w)


def element_pattern(theta, model: str = "cos"):
    """Element field amplitude versus angle from broadside (radians).

    ``cos`` tapers as cos(theta) and clamps to zero beyond +/-90 degrees, a
    deliberately simple stand-in for a measured element cut.  ``isotropic``
    returns 1 everywhere.  Accepts scalars or arrays.
    """
    th = np.asarray(theta, dtype=float)
    if model == "isotropic":
        out = np.ones_like(th)
    elif model == "cos":
        out = np.where(np.abs(th) <= math.pi / 2.0, np.cos(th), 0.0)
    else:
        raise ValueError(f"unknown element model {model!r}")
    return out if out.ndim else float(out)
