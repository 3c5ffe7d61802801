"""Multiport S-parameter interconnection by sub-network growth.

A :class:`Netlist` is a set of named devices, a list of port-to-port
connections, and an ordered list of external ports.  Every device of a
netlist must share one reference impedance (``DeviceModel.z_ref``), and
this is checked before any device is evaluated.  The solve grows
sub-networks: every device starts as a block of its own ports, and each
connection, in list order, either merges the two blocks it names into one
stack, zero between them, or works inside one block.  Joining ports p and
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
so ``compile_netlist`` checks a netlist and plans its joins once and
returns its solve.  ``interconnect(net, f)`` is ``compile_netlist(net)(f)``,
and the composite devices of ``components`` compile their netlists when
they are built, so a sweep plans each netlist once, however many chunks
and nested solves it takes.  The external ports are read out of the
blocks left at the end, in their declared order, as a plain complex
ndarray referenced to the devices' shared impedance; the result does not
depend on the elimination order.

``interconnect(net, frequencies)`` takes a scalar, giving the ``(n, n)``
matrix, or an ``(F,)`` vector, giving the ``(F, n, n)`` stack; both go
through one code path.  The solve takes ``CHUNK`` frequencies at a time:
every device is evaluated over the chunk (``DeviceModel.evaluate`` maps
``(F,)`` to ``(F, n, n)``) and each join maps a block's ``(F, m, m)``
stack to an ``(F, m - 2, m - 2)`` one.  A join inside one block gathers
its ports in the step's order (the ports that stay, then p, then q); a
merge scatters both blocks straight into one zeroed stack in that order.
Either way the blocks taken are released at once, and the plan holds
every index.  Each matrix of the stack is bit for bit the matrix one
frequency alone gives, and the one that joining every pair in a fixed
index space of all ports gives (``join_in_order`` in ``tests/oracles.py``),
which keeps every artifact byte.  That rests on five rules of operation order:

- D is built from explicit real products,
  ``re = ar*br - ai*bi`` and ``im = ar*bi + ai*br``, and |D| is
  ``np.hypot`` of its parts.  That is how numpy forms a product and an
  ``abs`` of complex scalars; its SIMD complex array multiply and array
  ``abs`` can differ from them in the last bit.
- The update keeps the per-frequency association:
  ``col_q*row_p*(1 - S_qp)``, then ``+ col_p*row_q*(1 - S_pq)``, then
  ``+ col_p*row_p*S_qq``, then ``+ col_q*row_q*S_pp``, then ``/ D``, then
  the sum with ``S``.  Every array operation keeps its inner loop over one
  row or one matrix of a block, as at one frequency alone.
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
- Sums may be formed in place, products and quotients may not: the four
  terms accumulate with ``terms +=``, and ``S[keep, keep]`` is added to
  the quotient in place.  IEEE addition is correctly rounded and
  commutative, so ``q += s`` gives the bytes of ``s + q`` whatever the
  kernel: of 10,000 random complex sums at each of the lengths 1, 2, 3, 4,
  7, 16 and 784, in place, out of place and with the operands swapped, no
  part differed, while the same probe found in-place products differing
  at length 1 as above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ButlerCadError, NetlistError, ResonantLoopError
from .sparams import DeviceModel

PortRef = tuple[str, int]  # (device name, 1-based port)

# Passive blocks have |S| <= 1, so |D| bounds how far the pair's 2x2 connection
# matrix is from singular; a lossless result's unitarity residual is ~1.4e-17/|D|.
RESONANCE_TOL = 1e-7

# frequencies solved together.  A chunk pays the per-join Python work once
# (on the circuit Butler, 78 joins and 76 device evaluations), and its working
# set, about four stacks of its largest block, grows with it.  Measured on the
# 121-point circuit_sweep bench workload (bench/run.py, 30 s runs, seed 83,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6), and as the tracemalloc peak of a
# 1001-point circuit Butler sweep, 1.03 MB of which is the result:
#
#   CHUNK                  points/s    peak RSS, MB   tracemalloc, MB
#   16, with the old join  1276-1382   39.52-39.76    1.33
#   32                     2114-2116   39.92-39.97    1.43
#   48                     2260-2274   40.27-40.32    1.63
#   64                     2565-2749   40.50-40.80    1.81
#
# 48 keeps the peak RSS within 2 % of the old join's; 64 read up to 3 % more,
# close to the 5 % the bench allows.
CHUNK = 48


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
    terms += col_p * row_q * one_pq[:, None, None]
    terms += col_p * row_p * s_qq[:, None, None]
    terms += col_q * row_q * s_pp[:, None, None]
    out = terms / denom[:, None, None]
    out += s[:, :-2, :-2]
    return out


def _square(index) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the ``index`` ports of an ``(F, m, m)`` stack."""
    index = np.asarray(index, dtype=np.intp)
    return index[:, None], index


def _arrange(blocks: list, a: int, b: int | None, index: tuple) -> np.ndarray:
    """Take block ``a``, and ``b`` if given, out of ``blocks`` as one stack in a step's order.

    Inside one block ``index`` gathers the order; a merge scatters both
    blocks into one zeroed stack.  Either way the blocks taken are released.
    """
    if b is None:
        s = blocks[a][:, index[0], index[1]]
    else:
        (rows_a, cols_a), (rows_b, cols_b) = index
        m = len(cols_a) + len(cols_b)
        s = np.zeros((len(blocks[a]), m, m), dtype=complex)
        s[:, rows_a, cols_a] = blocks[a]
        s[:, rows_b, cols_b] = blocks[b]
        blocks[b] = None
    blocks[a] = None
    return s


def _join_plan(net: Netlist) -> tuple[list, list]:
    """The joins of ``net`` as steps on blocks of live ports, from its topology alone.

    Block k starts as device k's ports.  A step is ``(a, b, index, link)``:
    the joined pair's blocks (``b`` is None inside block ``a``; else ``b``
    merges into ``a``), the indices that put the block's ports in the
    step's order (the ports that stay, then p, then q), and the connection.
    Inside one block ``index`` gathers that order; for a merge it is the
    pair of places that ``a``'s and ``b``'s ports are scattered to.
    Returns the steps and, for each block left with live ports, the places
    of its ports among the external ports.
    """
    blocks = [[(name, k) for k in range(1, dev.n_ports + 1)] for name, dev in net.devices.items()]
    home = {ref: k for k, ports in enumerate(blocks) for ref in ports}
    steps = []
    for link in net.connections:
        a, b = home[link[0]], home[link[1]]
        ports = blocks[a] if a == b else blocks[a] + blocks[b]
        p, q = ports.index(link[0]), ports.index(link[1])
        order = [k for k in range(len(ports)) if k != p and k != q] + [p, q]
        if a == b:
            steps.append((a, None, _square(order), link))
        else:
            place = sorted(range(len(order)), key=order.__getitem__)  # where each port goes
            split = len(blocks[a])
            steps.append((a, b, (_square(place[:split]), _square(place[split:])), link))
            for ref in blocks[b]:
                home[ref] = a
            blocks[b] = []
        blocks[a] = [ports[k] for k in order[:-2]]
    at = {ref: i for i, ref in enumerate(net.external_ports)}
    final = [(k, _square([at[ref] for ref in ports])) for k, ports in enumerate(blocks) if ports]
    return steps, final


def compile_netlist(net: Netlist) -> Callable[[object], np.ndarray]:
    """Check ``net`` and plan its joins once; returns ``solve(frequencies)``.

    ``solve(f)`` is ``interconnect(net, f)`` for ``net`` as it is now:
    later edits of ``net`` do not reach it.  See the module docstring.
    """
    net.validate()
    z_refs = {dev.z_ref for dev in net.devices.values()}
    if len(z_refs) > 1:
        raise NetlistError(f"mixed reference impedances {sorted(z_refs)}")
    devices = list(net.devices.items())
    steps, final = _join_plan(net)
    n = len(net.external_ports)

    def solve_chunk(fs: np.ndarray, out: np.ndarray) -> None:
        """Write the ``(F, n, n)`` result at ``fs`` into the zeroed ``out``."""
        blocks = []
        for name, dev in devices:
            try:
                blocks.append(dev.at(fs))
            except ResonantLoopError as e:  # a loop inside a composite device
                raise ResonantLoopError(f"{name}: {e}") from None
        for a, b, index, link in steps:
            blocks[a] = _eliminate_pair(_arrange(blocks, a, b, index), link, fs)
        for k, (rows, cols) in final:
            out[:, rows, cols] = blocks[k]

    def solve(frequencies) -> np.ndarray:
        fs = np.atleast_1d(np.asarray(frequencies, dtype=float))
        out = np.zeros((len(fs), n, n), dtype=complex)
        for start in range(0, len(fs), CHUNK):
            chunk = fs[start : start + CHUNK]
            try:
                solve_chunk(chunk, out[start : start + len(chunk)])
            except (ButlerCadError, ArithmeticError, ValueError):
                if len(chunk) == 1:
                    raise
                for k in range(start, start + len(chunk)):  # raises the first failure's error
                    solve_chunk(fs[k : k + 1], out[k : k + 1])
        return out if np.ndim(frequencies) else out[0]

    return solve


def interconnect(net: Netlist, frequencies) -> np.ndarray:
    """S-matrix seen at the external ports, in their declared order.

    ``frequencies`` is a scalar, giving ``(n, n)``, or an ``(F,)`` vector,
    giving ``(F, n, n)``; see the module docstring.
    """
    return compile_netlist(net)(frequencies)
