"""Construction of the 8-port 4x4 Butler beamforming network.

Topology (fixed, both fidelities): the two input hybrids feed (1R, 2L) and
(2R, 1L).  A -45 degree shifter hangs directly on each first-stage through
port (HA.2 and HB.2).  Two crossovers exchange the inner lines between the
stages: X1 swaps HB's shifted through line with HB's coupled line, X2 then
swaps HA's coupled line with the line X1 moved up.  HC receives HA's
shifted through line (port 1) and X2's upper output (port 4); HD receives
X2's lower output (port 1) and X1's lower output (port 4).  The output
hybrids drive the array ports interleaved: A1 = HD.2, A2 = HC.2,
A3 = HD.3, A4 = HC.3.

This placement is the unique arrangement (up to mirror symmetry) of four
hybrids, two crossovers and two -45 degree shifters for which every input
port excites all four array ports at -6.02 dB with a constant adjacent
phase step, the steps across (1R, 2L, 2R, 1L) being (-45, +135, -135, +45)
degrees.  The mapping was found by exhaustive search over the wiring
freedoms and is pinned by the regression tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import beams, components
from .microstrip import Substrate
from .network import Netlist, interconnect
from .sparams import FIDELITY_CIRCUIT, FIDELITY_IDEAL

INPUT_PORT_NAMES = ("1R", "2L", "2R", "1L")
OUTPUT_PORT_NAMES = ("A1", "A2", "A3", "A4")

# adjacent phase step per input port for the ideal network, degrees
IDEAL_PROGRESSIONS_DEG = {"1R": -45.0, "2L": +135.0, "2R": -135.0, "1L": +45.0}

SHIFT_PHI0 = math.pi / 4.0  # -45 degrees at the design frequency


def build_butler_4x4(
    fidelity: str, f0: float, substrate: Substrate | None = None
) -> Netlist:
    """Netlist of the 4x4 matrix: 4 hybrids, 2 crossovers, 2 shifters.

    External ports in order (1R, 2L, 2R, 1L, A1, A2, A3, A4).  ``substrate``
    is required for circuit fidelity and ignored for ideal fidelity.
    """
    if fidelity == FIDELITY_IDEAL:
        hybrid = components.ideal_hybrid()
        crossover = components.ideal_crossover()
    elif fidelity == FIDELITY_CIRCUIT:
        if substrate is None:
            raise ValueError("circuit fidelity needs a substrate")
        hybrid = components.branchline_hybrid_circuit(f0, substrate)
        crossover = components.crossover_circuit(f0, substrate)
    else:
        raise ValueError(f"unknown fidelity {fidelity!r}")
    shifter = components.phase_shifter(SHIFT_PHI0, f0)

    # models hold no state, so identical parts share one object
    net = Netlist()
    for name in ("HA", "HB", "HC", "HD"):
        net.add(name, hybrid)
    for name in ("X1", "X2"):
        net.add(name, crossover)
    for name in ("PSA", "PSB"):
        net.add(name, shifter)

    net.connect(("HA", 2), ("PSA", 1))
    net.connect(("PSA", 2), ("HC", 1))
    net.connect(("HB", 2), ("PSB", 1))
    net.connect(("PSB", 2), ("X1", 1))
    net.connect(("HB", 3), ("X1", 4))
    net.connect(("X1", 2), ("X2", 4))
    net.connect(("X1", 3), ("HD", 4))
    net.connect(("HA", 3), ("X2", 1))
    net.connect(("X2", 2), ("HC", 4))
    net.connect(("X2", 3), ("HD", 1))

    net.expose(
        ("HA", 1),  # 1R
        ("HA", 4),  # 2L
        ("HB", 4),  # 2R
        ("HB", 1),  # 1L
        ("HD", 2),  # A1
        ("HC", 2),  # A2
        ("HD", 3),  # A3
        ("HC", 3),  # A4
    )
    net.validate()
    return net


def adjacent_phase_steps(amplitudes: np.ndarray) -> np.ndarray:
    """Phase differences arg(a[k+1]) - arg(a[k]) in degrees, wrapped to (-180, 180]."""
    steps = np.degrees(np.diff(np.angle(np.asarray(amplitudes))))
    return -((-steps + 180.0) % 360.0 - 180.0)


def progression_deg(amplitudes: np.ndarray) -> float:
    """Mean adjacent phase step of an excitation vector, degrees."""
    return float(np.mean(adjacent_phase_steps(amplitudes)))


def excitation_table(net: Netlist, frequency: float) -> dict[str, np.ndarray]:
    """Waves at the array ports A1..A4 for a unit wave into each input port.

    All other ports are matched.  One solve serves all four inputs: the
    entry of input k is column k of the composite's output rows.
    """
    s = interconnect(net, frequency)
    return {name: s[4:, k] for k, name in enumerate(INPUT_PORT_NAMES)}


def beam_table(
    excitations: dict[str, np.ndarray], frequency: float
) -> dict[str, tuple[float, float]]:
    """Port -> (progression deg, beam angle deg) on a half-wave array at ``frequency``."""
    geometry = beams.half_wave_geometry(frequency)
    table = {}
    for port, amplitudes in excitations.items():
        prog = progression_deg(amplitudes)
        # a falling phase across the elements steers the beam to positive
        # angles, so the steering value entering the arcsin is -progression
        ang = math.degrees(beams.beam_angle(-math.radians(prog), geometry))
        table[port] = (prog, ang)
    return table
