"""Touchstone v1 reader and writer for N-port S-parameter sweeps.

A sweep is a strictly ascending frequency vector in Hz, shape ``(F,)``, and
a complex ``(F, n, n)`` stack of S-matrices referenced to one impedance.

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
from typing import TextIO

import numpy as np

from . import __version__
from .errors import TouchstoneError, TouchstoneParseError

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
    if mag == math.inf:  # finite parts whose magnitude is not a float
        raise TouchstoneError(f"|{value}| overflows in {fmt} format")
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


def _entry_order(n: int) -> list[int]:
    """Row-major indices of the flattened matrix, in file order, for ``n`` ports."""
    return [0, 2, 1, 3] if n == 2 else list(range(n * n))


def content_hash(frequencies: np.ndarray, s: np.ndarray) -> str:
    """Deterministic digest of the numeric payload."""
    h = hashlib.sha256()
    for f, m in zip(frequencies, s):
        h.update(format(f, ".17g").encode())
        h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()[:12]


def touchstone_write(
    frequencies: np.ndarray,
    s: np.ndarray,
    fmt: str,
    destination: str | Path | TextIO,
    unit: str = "GHz",
    z_ref: float = 50.0,
) -> None:
    """Emit a Touchstone v1 document for the sweep."""
    fmt = fmt.upper()
    if fmt not in FORMATS:
        raise TouchstoneError(f"format must be one of {FORMATS}, got {fmt!r}")
    unit_key = unit.upper()
    if unit_key not in UNIT_SCALE:
        raise TouchstoneError(f"unknown frequency unit {unit!r}")
    frequencies = np.asarray(frequencies, dtype=float)
    s = np.asarray(s, dtype=complex)
    if s.ndim != 3 or s.shape != frequencies.shape + (s.shape[1],) * 2 or not s.shape[1]:
        raise TouchstoneError(
            f"need frequencies (F,) and matrices (F, n, n), got {frequencies.shape}, {s.shape}"
        )
    if not frequencies.size:
        raise TouchstoneError("empty sweep")
    if np.any(frequencies[1:] <= frequencies[:-1]):
        raise TouchstoneError("frequencies must be strictly ascending")
    if not (0 < z_ref < math.inf and np.isfinite(frequencies).all() and np.isfinite(s).all()):
        raise TouchstoneError("non-finite frequency or entry, or z_ref not in (0, inf)")

    n_ports = s.shape[1]
    scale = UNIT_SCALE[unit_key]
    unit_names = {"HZ": "Hz", "KHZ": "kHz", "MHZ": "MHz", "GHZ": "GHz"}
    lines = [
        f"! butlercad {__version__} {n_ports}-port S-parameter export",
        f"! content-hash {content_hash(frequencies, s)}",
        f"# {unit_names[unit_key]} S {fmt} R {_fmt(z_ref)}",
    ]
    # from three ports up each matrix row starts a line; 1- and 2-port data share one
    width = 2 * n_ports if n_ports > 2 else 2 * n_ports * n_ports
    for f, entries in zip(frequencies, s.reshape(len(s), -1)[:, _entry_order(n_ports)]):
        fields = [v for value in entries for v in _pair(value, fmt)]
        head = _fmt(f / scale) + " "
        for r in range(0, len(fields), width):
            row = fields[r : r + width]
            for c in range(0, width, 8):  # four pairs per line
                lines.append(head + " ".join(_fmt_data(v) for v in row[c : c + 8]))
                head = "  "
    text = "\n".join(lines) + "\n"

    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="ascii")


def touchstone_read(
    source: str | Path | TextIO, n_ports: int | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Parse a Touchstone v1 document into (frequencies in Hz, (F, n, n) stack, z_ref)."""
    if hasattr(source, "read"):
        text = source.read()
        name = getattr(source, "name", "")
    else:
        path = Path(source)
        text = path.read_text(encoding="ascii")
        name = path.name
    m = _EXT_RE.search(str(name))
    inferred = int(m.group(1)) if m else None
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
    block = 1 + 2 * n * n
    values: list[float] = []
    record_lines: list[int] = []  # line number of each record's frequency token

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if seen_option:
                raise TouchstoneParseError("second option line", lineno)
            seen_option = True
            fields = iter(line[1:].split())
            for field in fields:
                word = field.upper()
                if word in UNIT_SCALE:
                    unit_scale = UNIT_SCALE[word]
                elif word in FORMATS:
                    fmt = word
                elif word in ("Y", "Z", "H", "G"):
                    raise TouchstoneParseError(f"unsupported parameter type {word}", lineno)
                elif word == "R":
                    z_text = next(fields, None)
                    if z_text is None:
                        raise TouchstoneParseError("R with no impedance", lineno)
                    try:
                        z_ref = float(z_text)
                    except ValueError:
                        z_ref = math.nan
                    if not 0 < z_ref < math.inf:
                        raise TouchstoneParseError(f"bad impedance {z_text!r}", lineno)
                elif word != "S":
                    raise TouchstoneParseError(f"bad option token {word!r}", lineno)
            continue
        for tok in line.split():
            try:
                value = float(tok)
            except ValueError:
                raise TouchstoneParseError(f"non-numeric token {tok!r}", lineno) from None
            if not math.isfinite(value):
                raise TouchstoneParseError(f"non-finite value {tok!r}", lineno)
            if len(values) % block == 0:
                record_lines.append(lineno)
            values.append(value)

    if not values or len(values) % block != 0:
        raise TouchstoneParseError(
            f"token count {len(values)} is not a multiple of {block} "
            f"expected for {n} ports"
        )

    order = _entry_order(n)
    frequencies = np.array([v * unit_scale for v in values[::block]])
    s = np.empty((len(frequencies), n * n), dtype=complex)
    for k, b in enumerate(range(0, len(values), block)):
        if not math.isfinite(frequencies[k]):
            raise TouchstoneParseError(
                f"frequency {values[b]!r} overflows once scaled to Hz", record_lines[k]
            )
        if k and frequencies[k] <= frequencies[k - 1]:
            raise TouchstoneParseError(
                "frequency not ascending (arity mismatch?)", record_lines[k]
            )
        try:
            s[k, order] = [
                _unpair(values[i], values[i + 1], fmt) for i in range(b + 1, b + block, 2)
            ]
        except OverflowError:  # a DB magnitude above about 6165 dB
            raise TouchstoneParseError(
                "entry overflows in the record starting on this line", record_lines[k]
            ) from None
    return frequencies, s.reshape(-1, n, n), z_ref


def touchstone_convert(
    source: str | Path,
    destination: str | Path,
    fmt: str = "RI",
    unit: str = "GHz",
    n_ports: int | None = None,
) -> None:
    """Re-emit a Touchstone file in another format or frequency unit."""
    frequencies, s, z_ref = touchstone_read(source, n_ports=n_ports)
    touchstone_write(frequencies, s, fmt, destination, unit=unit, z_ref=z_ref)
