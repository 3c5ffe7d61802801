"""Scattering models of the beamformer building blocks.

Two fidelities exist side by side: ``ideal`` devices are the frequency
independent textbook matrices, ``circuit`` devices are quarter-wave
transmission-line assemblies that reduce to the ideal behavior at the
design frequency and roll off away from it.  Each constructor's docstring
gives its device's port numbering.

Every ``evaluate`` takes an ``(F,)`` frequency array and returns the
``(F, n, n)`` stack (see :class:`butlercad.sparams.DeviceModel`); a
constant device returns ``np.broadcast_to`` of its read-only matrix.  A
stack is bit for bit the matrices of its frequencies one at a time, each
as the scalar formula in the device's docstring gives it, because every
entry goes through the same IEEE operations:

- the shifter's transmission is ``np.exp(1j * (-phi0 * f / f0))``;
- the line's chain entries are ``B = 1j * (z0 * sin)`` and
  ``C = 1j * (sin / z0)``;
- every complex product a device forms has at most one nonzero real
  product per part, so numpy's SIMD and scalar complex multiplies agree;
- ``np.cos`` and ``np.sin`` on float64 arrays agree with ``math.cos`` and
  ``math.sin``, which ``tests/test_components.py`` pins.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import microstrip
from .errors import NetlistError
from .microstrip import MicrostripLineSpec, Substrate
from .network import Netlist, compile_netlist
from .sparams import Z_REF_DEFAULT, DeviceModel, abcd_to_s


def _read_only(m: np.ndarray) -> np.ndarray:
    """Freeze ``m``: a constant device hands this one array to every caller."""
    m.setflags(write=False)
    return m


def _constant(m: np.ndarray):
    """``evaluate`` of a frequency-independent device: ``m`` at every frequency."""
    return lambda f: np.broadcast_to(m, (len(f),) + m.shape)


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

    Ports 1 input, 2 through, 3 coupled, 4 isolated, drawn as a square with
    1/4 on the left edge and 2/3 on the right.  |S21| = |S31| = 1/sqrt(2),
    all ports matched; the through arm leads the coupled arm by 90 degrees
    at every frequency.
    """
    return DeviceModel(
        n_ports=4,
        evaluate=_constant(_HYBRID_S),
        kind="ideal_hybrid",
        params={"z_ref_ohm": z_ref},
    )


def ideal_crossover(z_ref: float = Z_REF_DEFAULT) -> DeviceModel:
    """Lossless line crossing, ports 1/4 left and 2/3 right: the diagonals
    (1, 3) and (4, 2) transmit with S = j, adjacent ports are isolated."""
    return DeviceModel(
        n_ports=4,
        evaluate=_constant(_CROSSOVER_S),
        kind="ideal_crossover",
        params={"z_ref_ohm": z_ref},
    )


def phase_shifter(phi0: float, f0: float, z_ref: float = Z_REF_DEFAULT) -> DeviceModel:
    """Matched line, port 1 in and 2 out, delaying by ``phi0`` radians at ``f0``.

    A fixed physical length shifts phase in proportion to frequency, so
    S21 = exp(-j * phi0 * f / f0) with unit magnitude everywhere.
    """
    if f0 <= 0:
        raise ValueError(f"f0 must be > 0, got {f0}")

    def evaluate(f: np.ndarray) -> np.ndarray:
        # f.max() / f0 is the largest ratio; a float division overflows without a warning
        if not math.isfinite(float(f.max()) / f0):
            raise ValueError(f"phase shifter: f/f0 overflows for f0 = {float(f0)!r} Hz")
        s = np.zeros((len(f), 2, 2), dtype=complex)
        s[:, 0, 1] = s[:, 1, 0] = np.exp(1j * (-phi0 * f / f0))
        return s

    return DeviceModel(
        n_ports=2,
        evaluate=evaluate,
        kind="phase_shifter",
        params={"phi0_rad": phi0, "f0_hz": f0, "z_ref_ohm": z_ref},
    )


def tline(
    z0: float, length: float, eps_reff: float, z_ref: float = Z_REF_DEFAULT
) -> DeviceModel:
    """Lossless transmission line, port 1 in and 2 out, referenced to ``z_ref``.

    Built from the chain representation of a line of electrical length
    theta = 2*pi*length/lambda(f):

        [A B; C D] = [cos(theta), j*z0*sin(theta); j*sin(theta)/z0, cos(theta)]

    then converted to S-parameters (see :func:`butlercad.sparams.abcd_to_s`).
    A frequency whose wavelength or theta overflows is refused, naming it.
    """
    if not (0 < z0 < math.inf and 0 < length < math.inf and 1.0 <= eps_reff < math.inf):
        raise ValueError("tline needs finite values: z0 > 0, length > 0 and eps_reff >= 1")

    def evaluate(f: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflow is refused below, naming f
            lam = microstrip.C0 / f / math.sqrt(eps_reff)
            theta = 2.0 * math.pi * length / lam
        for what, x in (("wavelength", lam), ("electrical length", theta)):
            if x.max() == math.inf:
                bad = float(f[x == math.inf][0])
                raise ValueError(f"frequency {bad!r} Hz gives an infinite {what}")
        cos, sin = np.cos(theta).astype(complex), np.sin(theta)
        return abcd_to_s(cos, 1j * (z0 * sin), 1j * (sin / z0), cos, z_ref)

    return DeviceModel(
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
        n_ports=n_ports,
        evaluate=_constant(matrix),
        kind="shunt_junction",
        params={"n_ports": n_ports, "z_ref_ohm": z_ref},
    )


_LOAD_S = _read_only(np.zeros((1, 1), dtype=complex))


def matched_load(z_ref: float = Z_REF_DEFAULT) -> DeviceModel:
    """Reflectionless 1-port termination (S = 0)."""
    return DeviceModel(
        n_ports=1,
        evaluate=_constant(_LOAD_S),
        kind="matched_load",
        params={"z_ref_ohm": z_ref},
    )


def branchline_dimensions(
    f0: float, substrate: Substrate, z_ref: float = Z_REF_DEFAULT
) -> tuple[MicrostripLineSpec, MicrostripLineSpec]:
    """Quarter-wave (series, shunt) arms: series at z_ref/sqrt(2), shunt at z_ref."""

    def arm(z0: float) -> MicrostripLineSpec:
        width = microstrip.synthesize_width(z0, substrate)
        ee = microstrip.effective_permittivity(width, substrate)
        length = microstrip.quarter_wave_length(f0, ee)
        return MicrostripLineSpec(substrate, z0, width, length, ee, math.pi / 2.0)

    return arm(z_ref / math.sqrt(2.0)), arm(z_ref)


def _branchline_net(f0: float, substrate: Substrate, z_ref: float) -> Netlist:
    junction = shunt_junction(3, z_ref)  # refuses a bad z_ref before the arms use it
    series, shunt = (
        tline(arm.z0, arm.length_l, arm.eps_reff, z_ref)
        for arm in branchline_dimensions(f0, substrate, z_ref)
    )
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

    Ports as in :func:`ideal_hybrid`.  The raw ring response at f0 is the
    negative of the ideal hybrid matrix (its through and coupled phases are
    -90 and -180 degrees).  The returned model carries a fixed 180 degree reference
    rotation, equivalent to moving every port plane an eighth of a guided
    wavelength inward at f0, so the f0 response lines up entrywise with the
    ideal matrix.  Magnitudes, unitarity and reciprocity are unaffected.
    """
    if f0 <= 0:
        raise ValueError(f"f0 must be > 0, got {f0}")
    ring = compile_netlist(_branchline_net(f0, substrate, z_ref))
    return DeviceModel(
        n_ports=4,
        evaluate=lambda f: -ring(f),
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
        n_ports=4,
        evaluate=compile_netlist(net),
        kind="crossover_circuit",
        params=dict(half.params),  # the same design as each of its hybrids
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
    if kind in ("branchline_hybrid", "crossover_circuit"):
        sub = Substrate(params["epsilon_r"], params["height_m"])
        circuit = branchline_hybrid_circuit if kind == "branchline_hybrid" else crossover_circuit
        return circuit(params["f0_hz"], sub, z_ref)
    raise ValueError(f"unknown device kind {kind!r}")


# --- JSON persistence -------------------------------------------------------
#
# Document layout (see schemas/netlist.schema.json):
#   {"devices": [{"name": ..., "kind": ..., "params": {...}}, ...],
#    "connections": [[["HA", 2], ["PSA", 1]], ...],
#    "external_ports": [["HA", 1], ...]}

def netlist_to_json(net: Netlist) -> str:
    doc = {
        "devices": [
            {"name": name, "kind": dev.kind, "params": dev.params}
            for name, dev in net.devices.items()
        ],
        "connections": [[list(a), list(b)] for a, b in net.connections],
        "external_ports": [list(p) for p in net.external_ports],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _port_ref(ref) -> tuple[str, int]:
    name, port = ref
    # a JSON integer only: int() would take 1.9 as 1, and True is an int to Python
    if isinstance(port, bool) or not isinstance(port, int):
        raise ValueError(f"port {port!r} is not an integer")
    return name, port


def netlist_from_json(text: str) -> Netlist:
    """Rebuild a netlist written by :func:`netlist_to_json`.

    A malformed document raises :class:`NetlistError` naming the top-level
    key, the device record (index and name) or the connection at fault.
    """
    doc = json.loads(text)
    for key in ("devices", "connections", "external_ports"):
        if not (isinstance(doc, dict) and isinstance(doc.get(key), list)):
            raise NetlistError(f"netlist document has no {key!r} list")
    net = Netlist()
    try:
        for k, entry in enumerate(doc["devices"]):
            name = entry.get("name") if isinstance(entry, dict) else None
            where = f"device record {k} ({name!r})"
            net.add(entry["name"], device_from_spec(entry["kind"], entry.get("params", {})))
        for k, link in enumerate(doc["connections"]):
            where = f"connection {k}"
            net.connect(*[_port_ref(ref) for ref in link])
        where = "external_ports"
        net.expose(*[_port_ref(ref) for ref in doc["external_ports"]])
    except KeyError as e:
        raise NetlistError(f"{where} has no {e.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise NetlistError(f"{where}: {e}") from None
    net.validate()
    return net
