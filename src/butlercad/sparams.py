"""Scattering-matrix value types shared by every network model.

Ports are numbered from 1 in every public interface, matching RF usage
(S21 is the transmission from port 1 into port 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Z_REF_DEFAULT = 50.0

FIDELITY_IDEAL = "ideal"
FIDELITY_CIRCUIT = "circuit"


@dataclass(frozen=True)
class ScatteringMatrix:
    """Square complex wave-ratio matrix at a single frequency."""

    entries: np.ndarray
    z_ref: float = Z_REF_DEFAULT

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"entries must be a square matrix, got shape {m.shape}")
        if not 0 < self.z_ref < math.inf:
            raise ValueError(f"z_ref must be positive and finite, got {self.z_ref}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n_ports(self) -> int:
        return self.entries.shape[0]

    def s(self, i: int, j: int) -> complex:
        """Entry S_ij with 1-based port indices."""
        return complex(self.entries[i - 1, j - 1])

    def magnitude_db(self, i: int, j: int) -> float:
        return 20.0 * math.log10(max(abs(self.s(i, j)), 1e-300))

    def phase_deg(self, i: int, j: int) -> float:
        return math.degrees(np.angle(self.s(i, j)))

    def is_reciprocal(self, tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.T)) <= tol)

    def is_unitary(self, tol: float = 1e-9) -> bool:
        gram = self.entries.conj().T @ self.entries
        return bool(np.max(np.abs(gram - np.eye(self.n_ports))) <= tol)


@dataclass(frozen=True)
class DeviceModel:
    """A multiport evaluable at any positive frequency.

    ``kind`` plus ``params`` fully reconstruct the device, which is what the
    netlist JSON round trip relies on.  ``label`` documents the port
    numbering convention in words.
    """

    label: str
    n_ports: int
    evaluate: Callable[[float], ScatteringMatrix]
    kind: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")

    def at(self, frequency: float) -> ScatteringMatrix:
        """Evaluate and sanity-check the declared port count."""
        if frequency <= 0:
            raise ValueError(f"frequency must be > 0, got {frequency}")
        s = self.evaluate(frequency)
        if s.n_ports != self.n_ports:
            raise ValueError(
                f"device {self.label!r} returned {s.n_ports} ports, declared {self.n_ports}"
            )
        return s


def abcd_to_s(abcd: np.ndarray, z_ref: float = Z_REF_DEFAULT) -> np.ndarray:
    """Convert a 2x2 chain (ABCD) matrix to S-parameters.

    With equal real reference impedance Z at both ports:

        den = A + B/Z + C*Z + D
        S11 = (A + B/Z - C*Z - D) / den      S12 = 2*(A*D - B*C) / den
        S21 = 2 / den                         S22 = (-A + B/Z - C*Z + D) / den
    """
    a, b = abcd[0, 0], abcd[0, 1]
    c, d = abcd[1, 0], abcd[1, 1]
    den = a + b / z_ref + c * z_ref + d
    return np.array(
        [
            [(a + b / z_ref - c * z_ref - d) / den, 2.0 * (a * d - b * c) / den],
            [2.0 / den, (-a + b / z_ref - c * z_ref + d) / den],
        ],
        dtype=complex,
    )
