"""The device model shared by every network, and the chain-to-S conversion.

An S-matrix is a plain complex ``(n, n)`` ndarray; the reference impedance
it is taken at belongs to the device that produced it.  A sweep is an
``(F,)`` frequency vector and the ``(F, n, n)`` stack of its matrices.
Ports are numbered from 1 in every public interface, matching RF usage
(S21 is the transmission from port 1 into port 2); array indices start at
0, so S21 is ``s[1, 0]``.
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
    """A multiport evaluable at any positive, finite frequency.

    ``evaluate`` takes an ``(F,)`` float array of frequencies and returns
    the complex ``(F, n_ports, n_ports)`` stack of S-matrices referenced to
    :attr:`z_ref`; a constant device returns ``np.broadcast_to`` of its one
    read-only matrix.  ``kind`` plus ``params`` fully reconstruct the
    device, which is what the netlist JSON round trip relies on.
    """

    n_ports: int
    evaluate: Callable[[np.ndarray], np.ndarray]
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

    def at(self, frequency) -> np.ndarray:
        """S at a scalar frequency, ``(n, n)``, or at an ``(F,)`` vector, ``(F, n, n)``.

        Both go through ``evaluate`` with an ``(F,)`` array; the stack's
        shape is checked against the declared port count.
        """
        fs = np.atleast_1d(np.asarray(frequency, dtype=float))
        if not (fs.min() > 0 and fs.max() < math.inf):  # NaN fails both
            bad = fs[~((fs > 0) & (fs < math.inf))][0]
            raise ValueError(f"frequency must be > 0 and finite, got {bad}")
        s = self.evaluate(fs)
        if s.shape != (len(fs), self.n_ports, self.n_ports):
            raise ValueError(
                f"device {self.kind!r} returned shape {s.shape} for {len(fs)} frequencies, "
                f"declared {self.n_ports} ports"
            )
        return s if np.ndim(frequency) else s[0]


def abcd_to_s(a, b, c, d, z_ref: float = Z_REF_DEFAULT) -> np.ndarray:
    """Convert ``(F,)`` chain (ABCD) entries to the ``(F, 2, 2)`` S stack.

    With equal real reference impedance Z at both ports:

        den = A + B/Z + C*Z + D
        S11 = (A + B/Z - C*Z - D) / den      S12 = 2*(A*D - B*C) / den
        S21 = 2 / den                         S22 = (-A + B/Z - C*Z + D) / den
    """
    bz, cz = b / z_ref, c * z_ref
    den = a + bz + cz + d
    s = np.empty((len(den), 2, 2), dtype=complex)
    s[:, 0, 0] = (a + bz - cz - d) / den
    s[:, 0, 1] = 2.0 * (a * d - b * c) / den
    s[:, 1, 0] = 2.0 / den
    s[:, 1, 1] = (-a + bz - cz + d) / den
    return s
