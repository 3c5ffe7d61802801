"""Multiport S-parameter interconnection by sub-network growth.

A :class:`Netlist` is a set of named devices, a list of port-to-port
connections, and an ordered list of external ports.  Every device of a
netlist must share one reference impedance (``DeviceModel.z_ref``), and
``interconnect`` checks this before it evaluates any device.  It then
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
declared order, as a plain complex ndarray referenced to the devices'
shared impedance; the result does not depend on the elimination order.

``interconnect(net, frequencies)`` takes a scalar, giving the ``(n, n)``
matrix, or an ``(F,)`` vector, giving the ``(F, n, n)`` stack; both go
through one code path.  It checks the netlist and maps its ports once,
then solves ``CHUNK`` frequencies at a time: every device is evaluated
over the chunk (``DeviceModel.evaluate`` maps ``(F,)`` to ``(F, n, n)``)
and each join updates the whole ``(F, n, n)`` stack.  Each matrix of the
stack is bit for bit the matrix one frequency alone gives, which keeps
every artifact byte.  That rests on three rules of operation order:

- D is built from explicit real products,
  ``re = ar*br - ai*bi`` and ``im = ar*bi + ai*br``, and |D| is
  ``np.hypot`` of its parts.  That is how numpy forms a product and an
  ``abs`` of complex scalars; its SIMD complex array multiply and array
  ``abs`` can differ from them in the last bit.
- The update keeps the per-frequency association:
  ``col_q*row_p*(1 - S_qp)``, then ``+ col_p*row_q*(1 - S_pq)``, then
  ``+ col_p*row_p*S_qq``, then ``+ col_q*row_q*S_pp``, then ``/ D``.
  Every array operation keeps its inner loop over one row (length n) or
  one matrix (n*n), as the per-frequency code had.
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
# while a chunk's three (F, n, n) stacks stay small (200 kB each for the
# 28 ports of the Butler matrix)
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


def _eliminate_pair(s: np.ndarray, p: int, q: int, link: tuple, fs: np.ndarray, work) -> None:
    """Join ports p and q of every matrix of the ``(F, n, n)`` stack ``s``, in place.

    ``fs`` are the stack's frequencies, for the error message, and ``work``
    is two ``(F, n, n)`` arrays the update is built in.  The operation
    order is the module docstring's.
    """
    one_pq, one_qp = 1.0 - s[:, p, q], 1.0 - s[:, q, p]
    s_pp, s_qq = s[:, p, p], s[:, q, q]
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
    # views: every term is complete before s is written
    col_p, col_q, row_p, row_q = s[:, :, p, None], s[:, :, q, None], s[:, None, p], s[:, None, q]
    acc, term = work
    np.multiply(col_q, row_p, out=acc)
    acc *= one_qp[:, None, None]
    for col, row, factor in ((col_p, row_q, one_pq), (col_p, row_p, s_qq), (col_q, row_q, s_pp)):
        np.multiply(col, row, out=term)
        term *= factor[:, None, None]
        acc += term
    acc /= denom[:, None, None]
    s += acc
    s[:, p] = s[:, q] = s[:, :, p] = s[:, :, q] = 0.0


def interconnect(net: Netlist, frequencies) -> np.ndarray:
    """S-matrix seen at the external ports, in their declared order.

    ``frequencies`` is a scalar, giving ``(n, n)``, or an ``(F,)`` vector,
    giving ``(F, n, n)``; see the module docstring.
    """
    net.validate()
    z_refs = {dev.z_ref for dev in net.devices.values()}
    if len(z_refs) > 1:
        raise NetlistError(f"mixed reference impedances {sorted(z_refs)}")

    offset, n_total = {}, 0
    for name, dev in net.devices.items():
        offset[name], n_total = n_total, n_total + dev.n_ports

    def gidx(ref: PortRef) -> int:
        return offset[ref[0]] + ref[1] - 1

    links = [(gidx(a), gidx(b), (a, b)) for a, b in net.connections]
    order = [gidx(ref) for ref in net.external_ports]

    def solve(fs: np.ndarray) -> np.ndarray:
        s = np.zeros((len(fs), n_total, n_total), dtype=complex)
        for name, dev in net.devices.items():
            span = slice(offset[name], offset[name] + dev.n_ports)
            try:
                s[:, span, span] = dev.at(fs)
            except ResonantLoopError as e:  # a loop inside a composite device
                raise ResonantLoopError(f"{name}: {e}") from None
        work = np.empty_like(s), np.empty_like(s)
        for p, q, link in links:
            _eliminate_pair(s, p, q, link, fs, work)
        return s[:, order][:, :, order]

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
