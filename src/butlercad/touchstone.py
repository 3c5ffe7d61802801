"""Touchstone v1 reader and writer for N-port S-parameter sweeps.

Layout rules implemented (version 1 of the format):

* one option line ``# <unit> S <fmt> R <z_ref>``, fields in any order,
  defaults ``GHz S MA R 50``;
* ``!`` starts a comment anywhere on a line;
* entries are in row-major order, except the two-port order S11 S21 S12
  S22;
* one- and two-port data sit on one line per frequency; from three ports
  up every matrix row starts a new line; no line holds more than four
  complex pairs;
* the port count comes from the ``.sNp`` file extension and is cross
  checked against the token count.

Frequencies and the reference impedance are written with 9 significant
digits and data fields with 12, so a write/read round trip stays below
1e-9 per entry; neither side accepts non-finite numbers.  The comment header
carries the tool name and a content hash, never a timestamp, keeping
identical inputs byte-identical.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from . import __version__
from .errors import TouchstoneError, TouchstoneParseError
from .sparams import ScatteringMatrix

UNIT_SCALE = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
FORMATS = ("RI", "MA", "DB")

_EXT_RE = re.compile(r"\.s(\d+)p$", re.IGNORECASE)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _fmt_data(x: float) -> str:
    # 9 digits are short of the 1e-9 round-trip budget for angles in
    # degrees and for dB values, so data fields carry 12
    return format(float(x), ".12g")


def _pair(value: complex, fmt: str) -> tuple[float, float]:
    if fmt == "RI":
        return value.real, value.imag
    mag = abs(value)
    ang = math.degrees(np.angle(value))
    if fmt == "MA":
        return mag, ang
    return 20.0 * math.log10(max(mag, 1e-300)), ang  # DB


def _unpair(a: float, b: float, fmt: str) -> complex:
    if fmt == "RI":
        return complex(a, b)
    if fmt == "MA":
        return a * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
    return 10.0 ** (a / 20.0) * complex(
        math.cos(math.radians(b)), math.sin(math.radians(b))
    )


def _entry_order(n: int) -> list[tuple[int, int]]:
    """Matrix positions (row, column) in file order for ``n`` ports."""
    if n == 2:
        return [(0, 0), (1, 0), (0, 1), (1, 1)]
    return [(i, j) for i in range(n) for j in range(n)]


def content_hash(sweep: Sequence[tuple[float, ScatteringMatrix]]) -> str:
    """Deterministic digest of the numeric payload."""
    h = hashlib.sha256()
    for f, s in sweep:
        h.update(format(f, ".17g").encode())
        h.update(np.ascontiguousarray(s.entries).tobytes())
    return h.hexdigest()[:12]


def touchstone_write(
    sweep: Sequence[tuple[float, ScatteringMatrix]],
    n_ports: int,
    fmt: str,
    destination: str | Path | TextIO,
    unit: str = "GHz",
) -> None:
    """Emit a Touchstone v1 document for the sweep."""
    fmt = fmt.upper()
    if fmt not in FORMATS:
        raise TouchstoneError(f"format must be one of {FORMATS}, got {fmt!r}")
    unit_key = unit.upper()
    if unit_key not in UNIT_SCALE:
        raise TouchstoneError(f"unknown frequency unit {unit!r}")
    if not sweep:
        raise TouchstoneError("empty sweep")
    freqs = [f for f, _ in sweep]
    if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
        raise TouchstoneError("frequencies must be strictly ascending")
    z_refs = {s.z_ref for _, s in sweep}
    ports = {s.n_ports for _, s in sweep}
    if ports != {n_ports}:
        raise TouchstoneError(f"matrix port counts {sorted(ports)} != n_ports {n_ports}")
    if len(z_refs) != 1:
        raise TouchstoneError(f"mixed reference impedances {sorted(z_refs)}")
    z_ref = z_refs.pop()
    if not (
        math.isfinite(z_ref)
        and all(math.isfinite(f) and np.isfinite(s.entries).all() for f, s in sweep)
    ):
        raise TouchstoneError("non-finite frequency, entry or reference impedance")

    scale = UNIT_SCALE[unit_key]
    unit_names = {"HZ": "Hz", "KHZ": "kHz", "MHZ": "MHz", "GHZ": "GHz"}
    lines = [
        f"! butlercad {__version__} {n_ports}-port S-parameter export",
        f"! content-hash {content_hash(sweep)}",
        f"# {unit_names[unit_key]} S {fmt} R {_fmt(z_ref)}",
    ]
    order = _entry_order(n_ports)
    # from three ports up each matrix row starts a line; 1- and 2-port data share one
    width = n_ports if n_ports > 2 else n_ports * n_ports
    for f, s in sweep:
        head = _fmt(f / scale) + " "
        for r in range(0, len(order), width):
            row = [v for i, j in order[r : r + width] for v in _pair(s.entries[i, j], fmt)]
            for c in range(0, len(row), 8):  # four pairs per line
                lines.append(head + " ".join(_fmt_data(v) for v in row[c : c + 8]))
                head = "  "
    text = "\n".join(lines) + "\n"

    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="ascii")


def _infer_ports_from_name(name: str) -> int | None:
    m = _EXT_RE.search(name)
    return int(m.group(1)) if m else None


def touchstone_read(
    source: str | Path | TextIO, n_ports: int | None = None
) -> list[tuple[float, ScatteringMatrix]]:
    """Parse a Touchstone v1 document into (frequency_hz, matrix) samples."""
    if hasattr(source, "read"):
        text = source.read()
        name = getattr(source, "name", "")
    else:
        path = Path(source)
        text = path.read_text(encoding="ascii")
        name = path.name
    inferred = _infer_ports_from_name(str(name))
    if n_ports is not None and inferred is not None and n_ports != inferred:
        raise TouchstoneParseError(
            f"extension says {inferred} ports but caller says {n_ports}"
        )
    n = n_ports if n_ports is not None else inferred
    if n is None:
        raise TouchstoneParseError(
            "port count unknown: need a .sNp file name or an explicit n_ports"
        )

    unit_scale = UNIT_SCALE["GHZ"]
    fmt = "MA"
    z_ref = 50.0
    seen_option = False
    tokens: list[tuple[float, int]] = []  # (value, line number)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if seen_option:
                raise TouchstoneParseError("second option line", lineno)
            seen_option = True
            fields = line[1:].split()
            k = 0
            while k < len(fields):
                word = fields[k].upper()
                if word in UNIT_SCALE:
                    unit_scale = UNIT_SCALE[word]
                elif word in FORMATS:
                    fmt = word
                elif word == "S":
                    pass
                elif word in ("Y", "Z", "H", "G"):
                    raise TouchstoneParseError(
                        f"unsupported parameter type {word}", lineno
                    )
                elif word == "R":
                    if k + 1 >= len(fields):
                        raise TouchstoneParseError("R with no impedance", lineno)
                    try:
                        z_ref = float(fields[k + 1])
                    except ValueError:
                        z_ref = math.nan
                    if not (math.isfinite(z_ref) and z_ref > 0):
                        raise TouchstoneParseError(
                            f"bad impedance {fields[k + 1]!r}", lineno
                        )
                    k += 1
                else:
                    raise TouchstoneParseError(f"bad option token {word!r}", lineno)
                k += 1
            continue
        for tok in line.split():
            try:
                value = float(tok)
            except ValueError:
                raise TouchstoneParseError(f"non-numeric token {tok!r}", lineno) from None
            if not math.isfinite(value):
                raise TouchstoneParseError(f"non-finite value {tok!r}", lineno)
            tokens.append((value, lineno))

    block = 1 + 2 * n * n
    if not tokens or len(tokens) % block != 0:
        raise TouchstoneParseError(
            f"token count {len(tokens)} is not a multiple of {block} "
            f"expected for {n} ports"
        )

    order = _entry_order(n)
    out: list[tuple[float, ScatteringMatrix]] = []
    prev_f = -math.inf
    for b in range(0, len(tokens), block):
        f = tokens[b][0] * unit_scale
        if f <= prev_f:
            raise TouchstoneParseError(
                "frequency not ascending (arity mismatch?)", tokens[b][1]
            )
        prev_f = f
        vals = [v for v, _ in tokens[b + 1 : b + block]]
        m = np.empty((n, n), dtype=complex)
        for (i, j), k in zip(order, range(0, len(vals), 2)):
            m[i, j] = _unpair(vals[k], vals[k + 1], fmt)
        out.append((f, ScatteringMatrix(m, z_ref=z_ref)))
    return out


def touchstone_convert(
    source: str | Path,
    destination: str | Path,
    fmt: str = "RI",
    unit: str = "GHz",
    n_ports: int | None = None,
) -> None:
    """Re-emit a Touchstone file in another format or frequency unit."""
    sweep = touchstone_read(source, n_ports=n_ports)
    ports = sweep[0][1].n_ports
    touchstone_write(sweep, ports, fmt=fmt, destination=destination, unit=unit)
