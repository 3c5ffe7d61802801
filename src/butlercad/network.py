"""Multiport S-parameter interconnection by sub-network growth.

A :class:`Netlist` is a set of named devices, a list of port-to-port
connections, and an ordered list of external ports.  ``interconnect``
stacks every device matrix into one block-diagonal matrix S and joins the
connected port pairs one at a time, in place, so every port stays at its
stacked index.  Joining ports p and q (same reference impedance, ideal
junction) updates every entry as

    D     = (1 - S_pq) * (1 - S_qp) - S_pp * S_qq
    S'_ij = S_ij + [ S_pj * S_iq * (1 - S_qp) + S_qj * S_ip * (1 - S_pq)
                     + S_pj * S_qq * S_ip     + S_qj * S_pp * S_iq ] / D

and then zeroes rows and columns p and q, so the joined ports drop out of
every later join.  This is the standard self-connection reduction;
connecting ports of two different sub-blocks is the same formula applied
to the block-diagonal stack (the cross terms are then zero and D collapses
to 1 - S_pp * S_qq).  The external ports are read out of S last, in their
declared order; the result does not depend on the elimination order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NetlistError, ResonantLoopError
from .sparams import ScatteringMatrix, DeviceModel

PortRef = tuple[str, int]  # (device name, 1-based port)

# Passive blocks have |S| <= 1, so |D| bounds how far the pair's 2x2 connection
# matrix is from singular; a lossless result's unitarity residual is ~1.4e-17/|D|.
RESONANCE_TOL = 1e-7


@dataclass
class Netlist:
    """Devices, internal connections, and the ordered external ports."""

    devices: dict[str, DeviceModel] = field(default_factory=dict)
    connections: list[tuple[PortRef, PortRef]] = field(default_factory=list)
    external_ports: list[PortRef] = field(default_factory=list)

    def add(self, name: str, device: DeviceModel) -> None:
        if name in self.devices:
            raise NetlistError(f"duplicate device name {name!r}")
        self.devices[name] = device

    def connect(self, a: PortRef, b: PortRef) -> None:
        self.connections.append((tuple(a), tuple(b)))

    def expose(self, *ports: PortRef) -> None:
        self.external_ports.extend(tuple(p) for p in ports)

    def validate(self) -> None:
        """Check the wiring invariants; raises NetlistError on violation."""
        seen: dict[PortRef, str] = {}

        def claim(ref: PortRef, role: str) -> None:
            name, port = ref
            if name not in self.devices:
                raise NetlistError(f"connection names unknown device {name!r}")
            if not (1 <= port <= self.devices[name].n_ports):
                raise NetlistError(f"device {name!r} has no port {port}")
            if ref in seen:
                raise NetlistError(
                    f"port {name}.{port} used as {role} but already {seen[ref]}"
                )
            seen[ref] = role

        for a, b in self.connections:
            claim(a, "connected")
            claim(b, "connected")
        for ref in self.external_ports:
            claim(ref, "external")
        total = sum(d.n_ports for d in self.devices.values())
        if len(seen) != total:
            dangling = [
                f"{name}.{p}"
                for name, dev in self.devices.items()
                for p in range(1, dev.n_ports + 1)
                if (name, p) not in seen
            ]
            raise NetlistError(f"dangling ports: {', '.join(dangling)}")


def _eliminate_pair(s: np.ndarray, p: int, q: int, tag: str, frequency: float) -> None:
    s_pq, s_qp, s_pp, s_qq = s[p, q], s[q, p], s[p, p], s[q, q]
    denom = (1.0 - s_pq) * (1.0 - s_qp) - s_pp * s_qq
    if abs(denom) < RESONANCE_TOL:
        raise ResonantLoopError(
            f"connection {tag} forms a resonant loop at {frequency / 1e9:.9g} GHz "
            f"(|denominator| = {abs(denom):.3e})"
        )
    col_p, col_q = s[:, p].copy(), s[:, q].copy()
    row_p, row_q = s[p].copy(), s[q].copy()
    s += (
        np.outer(col_q, row_p) * (1.0 - s_qp)
        + np.outer(col_p, row_q) * (1.0 - s_pq)
        + np.outer(col_p, row_p) * s_qq
        + np.outer(col_q, row_q) * s_pp
    ) / denom
    s[[p, q]] = s[:, [p, q]] = 0.0


def interconnect(net: Netlist, frequency: float) -> ScatteringMatrix:
    """S-matrix seen at the external ports, in their declared order."""
    net.validate()
    blocks = {}
    for name, dev in net.devices.items():
        try:
            blocks[name] = dev.at(frequency)
        except ResonantLoopError as e:  # a loop inside a composite device
            raise ResonantLoopError(f"{name}: {e}") from None
    z_refs = {b.z_ref for b in blocks.values()}
    if len(z_refs) > 1:
        raise NetlistError(f"mixed reference impedances {sorted(z_refs)}")

    offset, n_total = {}, 0
    for name, block in blocks.items():
        offset[name], n_total = n_total, n_total + block.n_ports
    s = np.zeros((n_total, n_total), dtype=complex)
    for name, block in blocks.items():
        span = slice(offset[name], offset[name] + block.n_ports)
        s[span, span] = block.entries

    def gidx(ref: PortRef) -> int:
        return offset[ref[0]] + ref[1] - 1

    for a, b in net.connections:
        tag = f"{a[0]}.{a[1]} <-> {b[0]}.{b[1]}"
        _eliminate_pair(s, gidx(a), gidx(b), tag, frequency)
    order = [gidx(ref) for ref in net.external_ports]
    return ScatteringMatrix(s[np.ix_(order, order)], z_ref=z_refs.pop())


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


def netlist_from_json(
    text: str, device_factory: Callable[[str, dict], DeviceModel]
) -> Netlist:
    """Rebuild a netlist; ``device_factory`` maps (kind, params) to a model."""
    doc = json.loads(text)
    net = Netlist()
    for entry in doc["devices"]:
        net.add(entry["name"], device_factory(entry["kind"], entry.get("params", {})))
    for a, b in doc["connections"]:
        net.connect((a[0], int(a[1])), (b[0], int(b[1])))
    net.expose(*[(p[0], int(p[1])) for p in doc["external_ports"]])
    net.validate()
    return net
