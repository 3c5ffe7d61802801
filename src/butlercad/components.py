"""Scattering models of the beamformer building blocks.

Two fidelities exist side by side: ``ideal`` devices are the frequency
independent textbook matrices, ``circuit`` devices are quarter-wave
transmission-line assemblies that reduce to the ideal behavior at the
design frequency and roll off away from it.

Port conventions (documented per device in its label):

* quadrature hybrid, 4 ports: 1 input, 2 through, 3 coupled, 4 isolated;
  drawn as a square with 1/4 on the left edge and 2/3 on the right.
* crossover, 4 ports: 1/4 left, 2/3 right; transmission pairs (1,3) and
  (4,2), i.e. the diagonals, adjacent ports isolated.
* phase shifter and line, 2 ports: 1 in, 2 out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import microstrip
from .microstrip import Substrate
from .network import Netlist, interconnect
from .sparams import Z_REF_DEFAULT, DeviceModel, abcd_to_s


def _read_only(m: np.ndarray) -> np.ndarray:
    """Freeze ``m``: a constant device hands this one array to every caller."""
    m.setflags(write=False)
    return m


_HYBRID_S = _read_only(np.array(
    [
        [0, 1j, 1, 0],
        [1j, 0, 0, 1],
        [1, 0, 0, 1j],
        [0, 1, 1j, 0],
    ],
    dtype=complex,
) / math.sqrt(2.0))

_CROSSOVER_S = _read_only(np.array(
    [
        [0, 0, 1j, 0],
        [0, 0, 0, 1j],
        [1j, 0, 0, 0],
        [0, 1j, 0, 0],
    ],
    dtype=complex,
))


def ideal_hybrid(z_ref: float = Z_REF_DEFAULT) -> DeviceModel:
    """Lossless 3 dB quadrature hybrid, equal split with 90 degree offset.

    |S21| = |S31| = 1/sqrt(2), port 4 isolated, all ports matched; the
    through arm leads the coupled arm by 90 degrees at every frequency.
    """
    return DeviceModel(
        label="ideal 90deg hybrid (1 in, 2 through, 3 coupled, 4 isolated)",
        n_ports=4,
        evaluate=lambda f: _HYBRID_S,
        kind="ideal_hybrid",
        params={"z_ref_ohm": z_ref},
    )


def ideal_crossover(z_ref: float = Z_REF_DEFAULT) -> DeviceModel:
    """Lossless line crossing: diagonal transmission j, adjacent ports isolated."""
    return DeviceModel(
        label="ideal crossover (1/4 left, 2/3 right, pairs 1-3 and 4-2)",
        n_ports=4,
        evaluate=lambda f: _CROSSOVER_S,
        kind="ideal_crossover",
        params={"z_ref_ohm": z_ref},
    )


def phase_shifter(phi0: float, f0: float, z_ref: float = Z_REF_DEFAULT) -> DeviceModel:
    """Matched line delaying by ``phi0`` radians at ``f0``.

    A fixed physical length shifts phase in proportion to frequency, so
    S21 = exp(-j * phi0 * f / f0) with unit magnitude everywhere.
    """
    if f0 <= 0:
        raise ValueError(f"f0 must be > 0, got {f0}")

    def evaluate(f: float) -> np.ndarray:
        if not math.isfinite(float(f) / f0):  # float: no numpy overflow warning
            raise ValueError(f"phase shifter: f/f0 overflows for f0 = {float(f0)!r} Hz")
        t = np.exp(-1j * phi0 * f / f0)
        return np.array([[0, t], [t, 0]], dtype=complex)

    return DeviceModel(
        label=f"phase shifter -{math.degrees(phi0):g} deg at f0 (1 in, 2 out)",
        n_ports=2,
        evaluate=evaluate,
        kind="phase_shifter",
        params={"phi0_rad": phi0, "f0_hz": f0, "z_ref_ohm": z_ref},
    )


def tline(
    z0: float, length: float, eps_reff: float, z_ref: float = Z_REF_DEFAULT
) -> DeviceModel:
    """Lossless transmission line two-port referenced to ``z_ref``.

    Built from the chain representation of a line of electrical length
    theta = 2*pi*length/lambda(f):

        [A B; C D] = [cos(theta), j*z0*sin(theta); j*sin(theta)/z0, cos(theta)]

    then converted to S-parameters (see :func:`butlercad.sparams.abcd_to_s`).
    """
    if not (z0 > 0 and 0 < length < math.inf and eps_reff >= 1.0):
        raise ValueError("tline needs z0 > 0, a finite length > 0, eps_reff >= 1")

    def evaluate(f: float) -> np.ndarray:
        lam = microstrip.guided_wavelength(f, eps_reff)
        theta = 2.0 * math.pi * length / lam
        abcd = np.array(
            [
                [math.cos(theta), 1j * z0 * math.sin(theta)],
                [1j * math.sin(theta) / z0, math.cos(theta)],
            ],
            dtype=complex,
        )
        return abcd_to_s(abcd, z_ref)

    return DeviceModel(
        label=f"lossless line z0={z0:g} ohm, l={length * 1e3:.4g} mm (1 in, 2 out)",
        n_ports=2,
        evaluate=evaluate,
        kind="tline",
        params={"z0_ohm": z0, "length_m": length, "eps_reff": eps_reff, "z_ref_ohm": z_ref},
    )


def shunt_junction(n_ports: int = 3, z_ref: float = Z_REF_DEFAULT) -> DeviceModel:
    """Ideal parallel junction of ``n_ports`` lines, each of impedance ``z_ref``.

    All ports share one node voltage: S = (2/n) - identity.  Lossless and
    reciprocal; the building block for multi-way corners.
    """
    if n_ports < 2:
        raise ValueError("junction needs at least 2 ports")
    matrix = _read_only(
        np.full((n_ports, n_ports), 2.0 / n_ports, dtype=complex) - np.eye(n_ports)
    )
    return DeviceModel(
        label=f"ideal {n_ports}-way shunt junction",
        n_ports=n_ports,
        evaluate=lambda f: matrix,
        kind="shunt_junction",
        params={"n_ports": n_ports, "z_ref_ohm": z_ref},
    )


_LOAD_S = _read_only(np.zeros((1, 1), dtype=complex))


def matched_load(z_ref: float = Z_REF_DEFAULT) -> DeviceModel:
    """Reflectionless 1-port termination (S = 0)."""
    return DeviceModel(
        label="matched load",
        n_ports=1,
        evaluate=lambda f: _LOAD_S,
        kind="matched_load",
        params={"z_ref_ohm": z_ref},
    )


@dataclass(frozen=True)
class BranchlineDims:
    """Synthesized arm geometry of one branch-line hybrid."""

    series_z0: float
    series_width: float
    series_length: float
    series_eps_reff: float
    shunt_z0: float
    shunt_width: float
    shunt_length: float
    shunt_eps_reff: float


def branchline_dimensions(
    f0: float, substrate: Substrate, z_ref: float = Z_REF_DEFAULT
) -> BranchlineDims:
    """Quarter-wave arm dimensions: series arms at z_ref/sqrt(2), shunt at z_ref."""
    series_z0 = z_ref / math.sqrt(2.0)
    ws = microstrip.synthesize_width(series_z0, substrate)
    wp = microstrip.synthesize_width(z_ref, substrate)
    es = microstrip.effective_permittivity(ws, substrate)
    ep = microstrip.effective_permittivity(wp, substrate)
    return BranchlineDims(
        series_z0=series_z0,
        series_width=ws,
        series_length=microstrip.quarter_wave_length(f0, es),
        series_eps_reff=es,
        shunt_z0=z_ref,
        shunt_width=wp,
        shunt_length=microstrip.quarter_wave_length(f0, ep),
        shunt_eps_reff=ep,
    )


def _branchline_net(f0: float, substrate: Substrate, z_ref: float) -> Netlist:
    junction = shunt_junction(3, z_ref)  # refuses a bad z_ref before the arms use it
    dims = branchline_dimensions(f0, substrate, z_ref)
    series = tline(dims.series_z0, dims.series_length, dims.series_eps_reff, z_ref)
    shunt = tline(dims.shunt_z0, dims.shunt_length, dims.shunt_eps_reff, z_ref)
    net = Netlist()
    for name in ("J1", "J2", "J3", "J4"):
        net.add(name, junction)
    net.add("TOP", series)
    net.add("BOT", series)
    net.add("LEFT", shunt)
    net.add("RIGHT", shunt)
    # square ring: corners J1..J4 are ports 1..4, series arms along top and
    # bottom edges, shunt arms along left and right edges
    net.connect(("J1", 2), ("TOP", 1))
    net.connect(("TOP", 2), ("J2", 2))
    net.connect(("J4", 2), ("BOT", 1))
    net.connect(("BOT", 2), ("J3", 2))
    net.connect(("J1", 3), ("LEFT", 1))
    net.connect(("LEFT", 2), ("J4", 3))
    net.connect(("J2", 3), ("RIGHT", 1))
    net.connect(("RIGHT", 2), ("J3", 3))
    net.expose(("J1", 1), ("J2", 1), ("J3", 1), ("J4", 1))
    return net


def branchline_hybrid_circuit(
    f0: float, substrate: Substrate, z_ref: float = Z_REF_DEFAULT
) -> DeviceModel:
    """Branch-line hybrid as four quarter-wave arms joined in a ring.

    The raw ring response at f0 is the negative of the ideal hybrid matrix
    used by :func:`ideal_hybrid` (its through and coupled phases are -90 and
    -180 degrees).  The returned model carries a fixed 180 degree reference
    rotation, equivalent to moving every port plane an eighth of a guided
    wavelength inward at f0, so the f0 response lines up entrywise with the
    ideal matrix.  Magnitudes, unitarity and reciprocity are unaffected.
    """
    if f0 <= 0:
        raise ValueError(f"f0 must be > 0, got {f0}")
    net = _branchline_net(f0, substrate, z_ref)
    return DeviceModel(
        label="branch-line hybrid circuit (1 in, 2 through, 3 coupled, 4 isolated)",
        n_ports=4,
        evaluate=lambda f: -interconnect(net, f),
        kind="branchline_hybrid",
        params={
            "f0_hz": f0,
            "epsilon_r": substrate.epsilon_r,
            "height_m": substrate.height_h,
            "z_ref_ohm": z_ref,
        },
    )


def crossover_circuit(
    f0: float, substrate: Substrate, z_ref: float = Z_REF_DEFAULT
) -> DeviceModel:
    """Crossover realized as two branch-line hybrids in cascade.

    Hybrid A ports 2/3 feed hybrid B ports 1/4; the equal split of the
    first hybrid recombines in the second so that all power emerges at the
    diagonally opposite port, reproducing the ideal crossover at f0.
    Composite ports: 1 = A.1, 2 = B.2, 3 = B.3, 4 = A.4.
    """
    half = branchline_hybrid_circuit(f0, substrate, z_ref)
    net = Netlist()
    net.add("A", half)
    net.add("B", half)
    net.connect(("A", 2), ("B", 1))
    net.connect(("A", 3), ("B", 4))
    net.expose(("A", 1), ("B", 2), ("B", 3), ("A", 4))

    return DeviceModel(
        label="crossover circuit, two cascaded branch-line hybrids (1/4 left, 2/3 right)",
        n_ports=4,
        evaluate=lambda f: interconnect(net, f),
        kind="crossover_circuit",
        params={
            "f0_hz": f0,
            "epsilon_r": substrate.epsilon_r,
            "height_m": substrate.height_h,
            "z_ref_ohm": z_ref,
        },
    )


def device_from_spec(kind: str, params: dict) -> DeviceModel:
    """Rebuild a device from its JSON (kind, params) record.

    A record without ``z_ref_ohm`` is referenced to 50 ohm, as documents
    written before that key existed were.
    """
    z_ref = params.get("z_ref_ohm", Z_REF_DEFAULT)
    if kind == "ideal_hybrid":
        return ideal_hybrid(z_ref)
    if kind == "ideal_crossover":
        return ideal_crossover(z_ref)
    if kind == "phase_shifter":
        return phase_shifter(params["phi0_rad"], params["f0_hz"], z_ref)
    if kind == "tline":
        return tline(params["z0_ohm"], params["length_m"], params["eps_reff"], z_ref)
    if kind == "shunt_junction":
        return shunt_junction(params.get("n_ports", 3), z_ref)
    if kind == "matched_load":
        return matched_load(z_ref)
    if kind == "branchline_hybrid":
        sub = Substrate(params["epsilon_r"], params["height_m"])
        return branchline_hybrid_circuit(params["f0_hz"], sub, z_ref)
    if kind == "crossover_circuit":
        sub = Substrate(params["epsilon_r"], params["height_m"])
        return crossover_circuit(params["f0_hz"], sub, z_ref)
    raise ValueError(f"unknown device kind {kind!r}")
