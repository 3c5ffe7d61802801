"""The device model shared by every network, and the chain-to-S conversion.

An S-matrix is a plain complex ``(n, n)`` ndarray; the reference impedance
it is taken at belongs to the device that produced it.  Ports are numbered
from 1 in every public interface, matching RF usage (S21 is the
transmission from port 1 into port 2); array indices start at 0, so S21 is
``s[1, 0]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable

import numpy as np

Z_REF_DEFAULT = 50.0

FIDELITY_IDEAL = "ideal"
FIDELITY_CIRCUIT = "circuit"


@dataclass(frozen=True)
class DeviceModel:
    """A multiport evaluable at any positive frequency.

    ``evaluate`` returns the complex ``(n_ports, n_ports)`` S-matrix
    referenced to :attr:`z_ref`.  ``kind`` plus ``params`` fully reconstruct
    the device, which is what the netlist JSON round trip relies on.
    """

    n_ports: int
    evaluate: Callable[[float], np.ndarray]
    kind: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        z_ref = self.z_ref
        # a bool is an int to Python, but True is no impedance
        if isinstance(z_ref, bool) or not isinstance(z_ref, Real) or not 0 < z_ref < math.inf:
            raise ValueError(f"z_ref must be a positive finite number, got {z_ref!r}")

    @property
    def z_ref(self) -> float:
        """Reference impedance of every port, ohm (``params["z_ref_ohm"]``, else 50)."""
        return self.params.get("z_ref_ohm", Z_REF_DEFAULT)

    def at(self, frequency: float) -> np.ndarray:
        """Evaluate and sanity-check the shape against the declared port count."""
        if frequency <= 0:
            raise ValueError(f"frequency must be > 0, got {frequency}")
        s = self.evaluate(frequency)
        if s.shape != (self.n_ports, self.n_ports):
            raise ValueError(
                f"device {self.kind!r} returned shape {s.shape}, declared {self.n_ports} ports"
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
