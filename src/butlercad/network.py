"""Multiport S-parameter interconnection by sub-network growth.

A :class:`Netlist` is a set of named devices, a list of port-to-port
connections, and an ordered list of external ports.  Every device of a
netlist must share one reference impedance (``DeviceModel.z_ref``), and
``interconnect`` checks this before it evaluates any device.  It then
grows sub-networks: every device starts as a block of its own ports, and
each connection, in list order, either merges the two blocks it names into
their block-diagonal stack or works inside one block.  Joining ports p and
q (same reference impedance, ideal junction) gives, for every other pair
of ports i, j of the block,

    D     = (1 - S_pq) * (1 - S_qp) - S_pp * S_qq
    S'_ij = S_ij + [ S_pj * S_iq * (1 - S_qp) + S_qj * S_ip * (1 - S_pq)
                     + S_pj * S_qq * S_ip     + S_qj * S_pp * S_iq ] / D

and drops p and q, so a block only ever holds live ports.  This is the
standard self-connection reduction; connecting ports of two different
blocks is the same formula applied to their stack (the cross terms are
then zero and D collapses to 1 - S_pp * S_qq).  Which blocks each join
touches, and where its ports sit in them, follows from the topology alone,
so ``interconnect`` plans the joins once per call.  The external ports are
read out of the blocks left at the end, in their declared order, as a
plain complex ndarray referenced to the devices' shared impedance; the
result does not depend on the elimination order.

``interconnect(net, frequencies)`` takes a scalar, giving the ``(n, n)``
matrix, or an ``(F,)`` vector, giving the ``(F, n, n)`` stack; both go
through one code path.  It checks the netlist and plans the joins once,
then solves ``CHUNK`` frequencies at a time: every device is evaluated
over the chunk (``DeviceModel.evaluate`` maps ``(F,)`` to ``(F, n, n)``)
and each join maps a block's ``(F, m, m)`` stack to an ``(F, m - 2, m - 2)``
one.  Each matrix of the stack is bit for bit the matrix one frequency
alone gives, and the one that joining every pair in a fixed index space
of all ports gives (``join_in_order`` in ``tests/oracles.py``), which
keeps every artifact byte.  That rests on four rules of operation order:

- D is built from explicit real products,
  ``re = ar*br - ai*bi`` and ``im = ar*bi + ai*br``, and |D| is
  ``np.hypot`` of its parts.  That is how numpy forms a product and an
  ``abs`` of complex scalars; its SIMD complex array multiply and array
  ``abs`` can differ from them in the last bit.
- The update keeps the per-frequency association:
  ``col_q*row_p*(1 - S_qp)``, then ``+ col_p*row_q*(1 - S_pq)``, then
  ``+ col_p*row_p*S_qq``, then ``+ col_q*row_q*S_pp``, then ``/ D``, then
  ``S +``.  Every array operation keeps its inner loop over one row or one
  matrix of a block, as at one frequency alone.
- No product is formed in place.  A block can shrink to 1x1, and numpy
  2.4.6 multiplies one-element complex128 arrays in place with another
  kernel than every other array product: of 10,000 random products, 4,976
  of the 20,000 parts differed in place at length 1, none in place at
  lengths 2 to 784 and none out of place at length 1.
- A chunk in which a device or a join raises (a ``ButlerCadError``,
  ``ValueError`` or ``ArithmeticError``; a join raises at
  |D| < ``RESONANCE_TOL``) is solved again one frequency at a time, so
  the error is the one the first failing frequency raises on its own,
  naming the same device, pair and frequency.  |D| is tested before the
  division, so no numpy warning leaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ButlerCadError, NetlistError, ResonantLoopError
from .sparams import DeviceModel

PortRef = tuple[str, int]  # (device name, 1-based port)

# Passive blocks have |S| <= 1, so |D| bounds how far the pair's 2x2 connection
# matrix is from singular; a lossless result's unitarity residual is ~1.4e-17/|D|.
RESONANCE_TOL = 1e-7

# frequencies solved together: enough to amortize the per-join Python work,
# while a chunk's blocks stay small (the largest of the Butler matrix, 14
# ports, is a 50 kB (F, m, m) stack)
CHUNK = 16


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


def _eliminate_pair(s: np.ndarray, link: tuple, fs: np.ndarray) -> np.ndarray:
    """Join the last two ports, p then q, of every matrix of the ``(F, m, m)`` stack ``s``.

    Returns the ``(F, m - 2, m - 2)`` stack of the other ports.  ``link``
    is the connection and ``fs`` are the stack's frequencies, for the error
    message.  The operation order is the module docstring's.
    """
    one_pq, one_qp = 1.0 - s[:, -2, -1], 1.0 - s[:, -1, -2]
    s_pp, s_qq = s[:, -2, -2], s[:, -1, -1]
    # D = a*b - c*d with a = 1 - S_pq, b = 1 - S_qp, c = S_pp, d = S_qq
    (ar, ai), (br, bi) = (one_pq.real, one_pq.imag), (one_qp.real, one_qp.imag)
    (cr, ci), (dr, di) = (s_pp.real, s_pp.imag), (s_qq.real, s_qq.imag)
    denom = np.empty(len(fs), dtype=complex)
    denom.real = (ar * br - ai * bi) - (cr * dr - ci * di)
    denom.imag = (ar * bi + ai * br) - (cr * di + ci * dr)
    size = np.hypot(denom.real, denom.imag)
    if size.min() < RESONANCE_TOL:
        k = int(np.argmax(size < RESONANCE_TOL))
        (a, i), (b, j) = link
        raise ResonantLoopError(
            f"connection {a}.{i} <-> {b}.{j} forms a resonant loop at "
            f"{fs[k] / 1e9:.9g} GHz (|denominator| = {size[k]:.3e})"
        )
    col_p, col_q = s[:, :-2, -2, None], s[:, :-2, -1, None]
    row_p, row_q = s[:, None, -2, :-2], s[:, None, -1, :-2]
    terms = col_q * row_p * one_qp[:, None, None]
    terms = terms + col_p * row_q * one_pq[:, None, None]
    terms = terms + col_p * row_p * s_qq[:, None, None]
    terms = terms + col_q * row_q * s_pp[:, None, None]
    return s[:, :-2, :-2] + terms / denom[:, None, None]


def _block_diagonal(blocks: list, n_freq: int) -> np.ndarray:
    """The ``(F, m, m)`` stack with ``blocks`` on its diagonal, zero elsewhere."""
    if len(blocks) == 1:
        return blocks[0]
    s = np.zeros((n_freq,) + (sum(b.shape[1] for b in blocks),) * 2, dtype=complex)
    start = 0
    for b in blocks:
        span = slice(start, start + b.shape[1])
        s[:, span, span] = b
        start = span.stop
    return s


def _join_plan(net: Netlist) -> tuple[list, list, np.ndarray]:
    """The joins of ``net`` as steps on blocks of live ports, from its topology alone.

    Block k starts as device k's ports.  A step is ``(a, b, perm, link)``:
    the joined pair's blocks (``b`` is None inside block ``a``; else ``b``
    is appended to ``a``), the local order that puts the pair last (the
    ports that stay, then p, then q), and the connection.  Returns the
    steps, the blocks left with live ports, and where each external port
    sits in those blocks' stack.
    """
    blocks = [[(name, k) for k in range(1, dev.n_ports + 1)] for name, dev in net.devices.items()]
    home = {ref: k for k, ports in enumerate(blocks) for ref in ports}
    steps = []
    for link in net.connections:
        a, b = home[link[0]], home[link[1]]
        ports = blocks[a]
        if a != b:
            ports = ports + blocks[b]
            for ref in blocks[b]:
                home[ref] = a
            blocks[b] = []
        p, q = ports.index(link[0]), ports.index(link[1])
        keep = [k for k in range(len(ports)) if k != p and k != q]
        blocks[a] = [ports[k] for k in keep]
        steps.append((a, None if a == b else b, np.array(keep + [p, q]), link))
    live = [k for k, ports in enumerate(blocks) if ports]
    at = {ref: i for i, ref in enumerate(ref for k in live for ref in blocks[k])}
    return steps, live, np.array([at[ref] for ref in net.external_ports], dtype=np.intp)


def interconnect(net: Netlist, frequencies) -> np.ndarray:
    """S-matrix seen at the external ports, in their declared order.

    ``frequencies`` is a scalar, giving ``(n, n)``, or an ``(F,)`` vector,
    giving ``(F, n, n)``; see the module docstring.
    """
    net.validate()
    z_refs = {dev.z_ref for dev in net.devices.values()}
    if len(z_refs) > 1:
        raise NetlistError(f"mixed reference impedances {sorted(z_refs)}")
    steps, live, order = _join_plan(net)

    def solve(fs: np.ndarray) -> np.ndarray:
        blocks = []
        for name, dev in net.devices.items():
            try:
                blocks.append(dev.at(fs))
            except ResonantLoopError as e:  # a loop inside a composite device
                raise ResonantLoopError(f"{name}: {e}") from None
        for a, b, perm, link in steps:
            s = blocks[a] if b is None else _block_diagonal([blocks[a], blocks[b]], len(fs))
            blocks[a] = _eliminate_pair(s[:, perm[:, None], perm], link, fs)
        s = _block_diagonal([blocks[k] for k in live], len(fs))
        return s[:, order[:, None], order]

    fs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    out = np.empty((len(fs), len(order), len(order)), dtype=complex)
    for start in range(0, len(fs), CHUNK):
        chunk = fs[start : start + CHUNK]
        try:
            out[start : start + len(chunk)] = solve(chunk)
        except (ButlerCadError, ArithmeticError, ValueError):
            if len(chunk) == 1:
                raise
            for k in range(len(chunk)):  # raises the first failing frequency's error
                out[start + k] = solve(chunk[k : k + 1])[0]
    return out if np.ndim(frequencies) else out[0]
