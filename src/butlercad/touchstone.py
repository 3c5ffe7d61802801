"""Touchstone v1 reader and writer for N-port S-parameter sweeps.

A sweep is a strictly ascending vector of positive frequencies in Hz,
shape ``(F,)``, and a complex ``(F, n, n)`` stack of S-matrices referenced
to one impedance.

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
1e-9 per entry; neither side accepts non-finite numbers, nor frequencies
that are not positive and strictly ascending as printed.  The comment
header carries the tool name and a content hash, never a timestamp,
keeping identical inputs byte-identical.

Both sides work on whole arrays.  The writer lays a sweep out as one
``(F, 1 + 2 n**2)`` float array of records in file order and prints each with
one ``%`` template.  The reader gathers all numbers in one ``array('d')``,
taking the lines in slabs of ``SLAB``: a slab with no ``!`` and no ``#`` is
joined, split once and converted with ``float``; any other slab, and one
whose conversion fails, is read line by line, so every message and line
number is the line by line reader's.  ``float`` is the one number parser
(it takes ``1_0``, which numpy's text parsers refuse), and no token list
of the whole text is built.  The bytes equal those of per-entry Python
arithmetic because:

* magnitudes are ``np.hypot``, which equals ``abs`` of a complex
  (``np.abs`` differs in the last bit);
* DB values use ``math.log10`` and ``10.0 ** x`` mapped over Python
  floats (``np.log10`` and ``np.power`` round differently, and a numpy
  power overflows to inf instead of raising ``OverflowError``);
* ``np.degrees``, ``np.angle``, ``np.radians``, ``np.cos`` and ``np.sin``
  equal their scalar counterparts;
* an MA or DB entry decodes to ``(a*c - 0.0*s) + (a*s + 0.0*c)j``, the
  parts CPython computes for ``a * complex(c, s)``, signed zeros included.
"""

from __future__ import annotations

import hashlib
import math
import re
from array import array
from contextlib import nullcontext
from itertools import repeat
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import __version__
from .errors import TouchstoneError, TouchstoneParseError

UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_UNIT_NAMES = {name.upper(): name for name in UNITS}  # option lines ignore case
FORMATS = ("RI", "MA", "DB")

_EXT_RE = re.compile(r"\.s(\d+)p$", re.IGNORECASE)

# Lines the reader splits at once (see _slabs).  _parse of a 1001-point
# 8-port MA file (16,019 lines), best and median of 40 interleaved calls,
# and its tracemalloc peak (Python 3.11, 2 vCPUs, shared host):
#
#   SLAB        best ms  median ms  peak MB
#   16            20.0      29.2      2.52
#   64            18.0      26.3      2.54
#   128           17.9      26.9      2.56
#   512           18.1      26.6      2.68
#   4096          22.4      32.8      3.73
#   whole file    29.9      49.6      3.22   (line by line: the file has '#')
SLAB = 128


def polar(z: np.ndarray, db: bool) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude (linear, or dB floored at 1e-300) and phase in degrees of each entry.

    Bit-identical to ``abs(v)``, ``20 * math.log10(max(abs(v), 1e-300))`` and
    ``math.degrees(np.angle(v))`` per entry; a magnitude too large for a
    float is inf.
    """
    with np.errstate(over="ignore"):
        mag = np.hypot(z.real, z.imag)
    if db:
        floored = np.maximum(mag, 1e-300).ravel()
        mag = 20.0 * np.fromiter(map(math.log10, memoryview(floored)), float, floored.size)
    return mag.reshape(z.shape), np.degrees(np.angle(z))


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
    unit_name = _UNIT_NAMES.get(unit.upper())
    if unit_name is None:
        raise TouchstoneError(f"unknown frequency unit {unit!r}")
    frequencies = np.asarray(frequencies, dtype=float)
    s = np.asarray(s, dtype=complex)
    if s.ndim != 3 or s.shape != frequencies.shape + (s.shape[1],) * 2 or not s.shape[1]:
        raise TouchstoneError(
            f"need frequencies (F,) and matrices (F, n, n), got {frequencies.shape}, {s.shape}"
        )
    if not frequencies.size:
        raise TouchstoneError("empty sweep")
    scaled = frequencies / UNITS[unit_name]
    printed = np.array([float("%.9g" % f) for f in scaled.tolist()])  # as the reader sees them
    if printed[0] <= 0 or np.any(printed[1:] <= printed[:-1]):
        raise TouchstoneError(
            f"frequencies must be positive and strictly ascending at 9 digits in {unit_name}"
        )
    if not (0 < z_ref < math.inf and np.isfinite(frequencies).all() and np.isfinite(s).all()):
        raise TouchstoneError("non-finite frequency or entry, or z_ref not in (0, inf)")

    n_ports = s.shape[1]
    n_fields = 2 * n_ports * n_ports
    entries = s.reshape(len(s), -1)[:, _entry_order(n_ports)]
    if fmt == "RI":
        first, second = entries.real, entries.imag
    else:
        first, second = polar(entries, db=fmt == "DB")
        overflow = np.flatnonzero(np.isinf(first))
        if overflow.size:  # finite parts whose magnitude is not a float
            raise TouchstoneError(f"|{entries.flat[overflow[0]]}| overflows in {fmt} format")
    records = np.empty((len(s), 1 + n_fields))
    records[:, 0] = scaled
    records[:, 1::2] = first
    records[:, 2::2] = second

    # from three ports up each matrix row starts a line; 1- and 2-port data
    # share one; four pairs at most per line.  9 digits are short of the 1e-9
    # round-trip budget for angles in degrees and for dB values, so data
    # fields carry 12
    width = 2 * n_ports if n_ports > 2 else n_fields
    matrix_row = "\n  ".join(" ".join(["%.12g"] * min(8, width - c)) for c in range(0, width, 8))
    template = "%.9g " + "\n  ".join([matrix_row] * (n_fields // width)) + "\n"
    header = (
        f"! butlercad {__version__} {n_ports}-port S-parameter export\n"
        f"! content-hash {content_hash(frequencies, s)}\n"
        f"# {unit_name} S {fmt} R {format(float(z_ref), '.9g')}\n"
    )
    # every check is done: stream the records, one string at a time
    with (
        nullcontext(destination) if hasattr(destination, "write")
        else open(destination, "w", encoding="ascii")
    ) as out:
        out.write(header)
        out.writelines(template % tuple(row.tolist()) for row in records)


def _content_lines(lines: list[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line that is not blank once its comment is cut."""
    for lineno, raw in enumerate(lines, start):
        line = raw.split("!", 1)[0].strip()
        if line:
            yield lineno, line


def _locate(text: str, index: int) -> tuple[int, str]:
    """Line number and text of the number at ``index`` among the data tokens."""
    for lineno, line in _content_lines(text.splitlines()):
        if not line.startswith("#"):
            tokens = line.split()
            if index < len(tokens):
                return lineno, tokens[index]
            index -= len(tokens)
    raise IndexError(index)


def _slabs(text: str, values: array) -> Iterator[tuple[int, str]]:
    """Append the numbers of each plain slab of ``text`` to ``values``.

    A slab is ``SLAB`` lines.  One with no ``!``, no ``#`` and only numbers
    is split once; the content lines of any other are yielded, numbered,
    for the caller to read one by one.
    """
    lines = text.splitlines()
    for start in range(0, len(lines), SLAB):
        slab = lines[start : start + SLAB]
        joined = " ".join(slab)
        if "!" not in joined and "#" not in joined:
            size = len(values)
            try:
                values.extend(map(float, joined.split()))
                continue
            except ValueError:  # the line by line pass names the token
                del values[size:]
        yield from _content_lines(slab, start + 1)


def _parse(text: str, values: array) -> tuple[float, str, float]:
    """Append every number of ``text`` to ``values``; return (unit scale, format, z_ref)."""
    unit_scale = UNITS["GHz"]
    fmt = "MA"
    z_ref = 50.0
    seen_option = False
    for lineno, line in _slabs(text, values):
        if line.startswith("#"):
            if seen_option:
                raise TouchstoneParseError("second option line", lineno)
            seen_option = True
            fields = iter(line[1:].split())
            for field in fields:
                word = field.upper()
                if word in _UNIT_NAMES:
                    unit_scale = UNITS[_UNIT_NAMES[word]]
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
        tokens = line.split()
        try:
            values.extend(map(float, tokens))
        except ValueError:
            for tok in tokens:
                try:
                    float(tok)
                except ValueError:
                    raise TouchstoneParseError(f"non-numeric token {tok!r}", lineno) from None
    return unit_scale, fmt, z_ref


def _check_finite(values: array, text: str) -> np.ndarray:
    """``values`` as an array; a ``TouchstoneParseError`` at the first non-finite one."""
    numbers = np.frombuffer(values, dtype=float)
    non_finite = np.flatnonzero(~np.isfinite(numbers))
    if non_finite.size:
        lineno, tok = _locate(text, non_finite[0])
        raise TouchstoneParseError(f"non-finite value {tok!r}", lineno)
    return numbers


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

    values = array("d")
    try:
        unit_scale, fmt, z_ref = _parse(text, values)
    except TouchstoneParseError:
        _check_finite(values, text)  # a non-finite number before the fault comes first
        raise
    numbers = _check_finite(values, text)
    block = 1 + 2 * n * n
    if not numbers.size or numbers.size % block != 0:
        raise TouchstoneParseError(
            f"token count {numbers.size} is not a multiple of {block} "
            f"expected for {n} ports"
        )
    records = numbers.reshape(-1, block)

    with np.errstate(over="ignore"):
        frequencies = records[:, 0] * unit_scale
    bad = ~np.isfinite(frequencies) | (frequencies <= 0)
    bad[1:] |= frequencies[1:] <= frequencies[:-1]
    # records before the first bad frequency decode first: an overflowing
    # entry there is the earlier fault
    stop = int(np.argmax(bad)) if bad.any() else len(records)
    a, b = records[:stop, 1::2], records[:stop, 2::2]
    if fmt == "DB":
        exponents = (a / 20.0).ravel()
        pending = iter(memoryview(exponents))
        try:
            a = np.fromiter(map(pow, repeat(10.0), pending), float, b.size).reshape(b.shape)
        except OverflowError:  # a DB magnitude above about 6165 dB
            entry = exponents.size - 1 - sum(1 for _ in pending)
            raise TouchstoneParseError(
                "entry overflows in the record starting on this line",
                _locate(text, entry // (n * n) * block)[0],
            ) from None
    if stop < len(records):
        lineno = _locate(text, stop * block)[0]
        f = float(records[stop, 0])
        if not math.isfinite(frequencies[stop]):
            raise TouchstoneParseError(f"frequency {f!r} overflows once scaled to Hz", lineno)
        if f <= 0:
            raise TouchstoneParseError(f"frequency {f!r} is not positive", lineno)
        raise TouchstoneParseError("frequency not ascending (arity mismatch?)", lineno)

    s = np.empty((len(records), n * n), dtype=complex)
    order = _entry_order(n)
    if fmt == "RI":
        s.real[:, order], s.imag[:, order] = a, b
    else:
        radians = np.radians(b)
        cos, sin = np.cos(radians), np.sin(radians)
        # the parts of a * complex(cos, sin) as CPython multiplies them
        s.real[:, order] = a * cos - 0.0 * sin
        s.imag[:, order] = a * sin + 0.0 * cos
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
