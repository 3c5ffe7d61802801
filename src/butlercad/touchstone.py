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
one ``%`` template.  A field that keeps one bit pattern over the sweep is
formatted once into that template (``bake``): an ideal Butler holds 96 of
its 128 data fields fixed in every format, so only the other 32 and the
frequency are formatted per record.  A file name whose ``.sNp`` extension
names another port count is refused, as the reader would take the count
from it.  The reader reads a document in one numpy parse: it cuts every
comment, takes out the option line (the one ``#``, the first non-blank
character of its line) and reads the rest with ``np.fromstring(text,
sep=" ")``, which reads a finite double as ``float`` does, bit for bit.  Any
other document goes whole to the line by line loop, which reads with
``float`` and gives every parse message and its line number: one with a
second ``#`` or a ``#`` inside a line, one with a line break other than
LF, and one numpy refuses (a token such as ``1_0`` it does not take
whole), that holds blanks alone (numpy reads them as ``[-1.]``) or a
non-finite value (numpy takes ``nan(1)``, which ``float`` refuses).  numpy
2.4 refuses with a ``ValueError``; numpy 1.x only warns
(``DeprecationWarning``) and returns the numbers before the fault, so that
warning refuses the document too.  ``tests/test_float_contract.py`` pins
each of these numpy rules, and that a comment ends where
``str.splitlines`` ends its line.

Both sides convert each sweep-constant entry once: ``polar`` and the
reader's MA/DB decode compute an entry (on the reader's side, a field)
whose bits equal row 0's in every row from row 0 alone; 48 of the 64
entries of an ideal Butler are sweep-constant.  The bytes equal those of
per-entry Python arithmetic because:

* magnitudes are ``np.hypot``, which equals ``abs`` of a complex
  (``np.abs`` differs in the last bit);
* DB values use ``math.log10`` and ``10.0 ** x`` mapped over Python
  floats (``np.log10`` and ``np.power`` round differently, and a numpy
  power overflows to inf instead of raising ``OverflowError``);
* ``np.degrees``, ``np.angle``, ``np.radians``, ``np.cos`` and ``np.sin``
  equal their scalar counterparts, so an entry's result does not depend
  on where in an array it sits;
* an MA or DB entry decodes to ``(a*c - 0.0*s) + (a*s + 0.0*c)j``, the
  parts CPython computes for ``a * complex(c, s)``, signed zeros included.
"""

from __future__ import annotations

import hashlib
import math
import re
import warnings
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

# a comment: "!" up to the first character at which str.splitlines ends a line
_COMMENT = re.compile(r"![^\n\v\f\r\x1c-\x1e\x85\u2028\u2029]*")
# those line ends but "\n" that ASCII text can hold
_OTHER_BREAKS = "\v\f\r\x1c\x1d\x1e"


def _varying(*parts: np.ndarray) -> np.ndarray:
    """Mask of the entries (all axes but the first) whose bits differ from row 0's.

    An entry is varying when it does so in any one of the same-shaped
    float ``parts``; bits, so ``-0.0`` is not ``0.0``.
    """
    mask = np.zeros(parts[0].shape[1:], dtype=bool)
    for part in parts:
        bits = part.view(np.int64)
        mask |= (bits[1:] != bits[:1]).any(axis=0)
    return mask


def _gather(x: np.ndarray, varying: np.ndarray) -> np.ndarray:
    """Row 0 of ``x``, then the ``varying`` entries of each later row, flat."""
    if varying.all():  # every entry in order: ``x`` itself, not a copy
        return x.ravel()
    return np.concatenate((x[:1].ravel(), x[1:, varying].ravel()))


def _spread(values: np.ndarray, varying: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The float array of ``shape`` that ``_gather`` took ``values`` from.

    Every entry that is not ``varying`` repeats row 0.
    """
    if values.size == math.prod(shape):  # every entry was gathered, in order
        return values.reshape(shape)
    out = np.empty(shape)
    head = out[:1]
    head[...] = values[: head.size].reshape(head.shape)
    out[1:] = head
    out[1:, varying] = values[head.size :].reshape(len(out[1:]), np.count_nonzero(varying))
    return out


def polar(z: np.ndarray, db: bool) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude (linear, or dB floored at 1e-300) and phase in degrees of each entry.

    ``z`` is a sweep: axis 0 runs over frequency.  Bit-identical to
    ``abs(v)``, ``20 * math.log10(max(abs(v), 1e-300))`` and
    ``math.degrees(np.angle(v))`` per entry; a magnitude too large for a
    float is inf.  An entry whose bits equal row 0's in every row is
    converted once, from row 0.
    """
    varying = _varying(z.real, z.imag)
    todo = _gather(z, varying)
    with np.errstate(over="ignore"):
        mag = np.hypot(todo.real, todo.imag)
    if db:
        floored = np.maximum(mag, 1e-300)
        mag = 20.0 * np.fromiter(map(math.log10, memoryview(floored)), float, floored.size)
    return _spread(mag, varying, z.shape), _spread(np.degrees(np.angle(todo)), varying, z.shape)


def bake(records: np.ndarray, specs: list[str]) -> tuple[list[str], np.ndarray]:
    """Template fields for the ``(F, k)`` float ``records``, sweep-constant ones formatted.

    A column whose bits equal row 0's in every row (so ``-0.0`` is not
    ``0.0``) has its field printed once, ``spec % value``; every other field
    keeps its ``%`` spec.  Returns the fields, one per column, and the
    records of the columns left to print.
    """
    if not len(records):  # an empty sweep prints no record
        return list(specs), records
    varying = _varying(records)
    fields = [
        spec if differs else spec % value
        for spec, value, differs in zip(specs, records[0].tolist(), varying.tolist())
    ]
    return fields, records[:, varying]


def _entry_order(n: int) -> list[int] | slice:
    """Row-major indices of the flattened matrix, in file order, for ``n`` ports.

    Every order but the two-port one is row-major itself, so it is a slice
    and indexing with it takes a view, not a copy.
    """
    return [0, 2, 1, 3] if n == 2 else slice(None)


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
    m = _EXT_RE.search(str(getattr(destination, "name", destination)))
    if m and int(m.group(1)) != n_ports:  # the reader takes the port count from it
        raise TouchstoneError(
            f"extension says {int(m.group(1))} ports but the sweep has {n_ports}"
        )

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

    # 9 digits are short of the 1e-9 round-trip budget for angles in degrees
    # and for dB values, so data fields carry 12.  From three ports up each
    # matrix row starts a line; 1- and 2-port data share one; four pairs at
    # most per line
    (head, *fields), varying = bake(records, ["%.9g"] + ["%.12g"] * n_fields)
    width = 2 * n_ports if n_ports > 2 else n_fields
    template = head + " " + "\n  ".join(
        " ".join(fields[c : min(c + 8, r + width)])
        for r in range(0, n_fields, width)
        for c in range(r, r + width, 8)
    ) + "\n"
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
        out.writelines(template % tuple(row.tolist()) for row in varying)


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


def _numbers(text: str) -> np.ndarray | None:
    """The numbers of ``text`` as numpy reads them, or None where ``float`` must.

    None for blanks alone (numpy reads ``[-1.]``), for text numpy refuses
    and for text holding a non-finite value (numpy takes ``nan(1)``).  numpy
    2.4 refuses text it cannot read to its end with a ``ValueError``; numpy
    1.x only warns (``DeprecationWarning``) and returns the numbers before
    the fault, so the warning is raised here and refuses the text too.
    """
    if text.isspace():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            numbers = np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return numbers if np.isfinite(numbers).all() else None


def _options(text: str, lineno: int) -> tuple[float, str, float]:
    """(unit scale, format, z_ref) of an option line's ``text`` after its ``#``."""
    unit_scale, fmt, z_ref = UNITS["GHz"], "MA", 50.0
    fields = iter(text.split())
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
    return unit_scale, fmt, z_ref


def _line_by_line(text: str) -> tuple[np.ndarray, float, str, float]:
    """(numbers, unit scale, format, z_ref) of ``text``, read one line at a time.

    The source of every parse message and line number: each names the
    first fault in reading order.
    """
    values = array("d")
    options = None
    for lineno, line in _content_lines(text.splitlines()):
        if line.startswith("#"):
            if options:
                raise TouchstoneParseError("second option line", lineno)
            options = _options(line[1:], lineno)
            continue
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise TouchstoneParseError(f"non-numeric token {tok!r}", lineno) from None
            if not math.isfinite(values[-1]):
                raise TouchstoneParseError(f"non-finite value {tok!r}", lineno)
    return (np.frombuffer(values), *(options or _options("", 0)))


def _parse(text: str) -> tuple[np.ndarray, float, str, float]:
    """(numbers, unit scale, format, z_ref) of ``text``, at once where numpy can read it.

    Comments are cut and the option line, the first ``#`` if it starts its
    line, is taken out; one ``_numbers`` call reads the rest, which refuses
    any other ``#``.  Any other document goes whole to ``_line_by_line``.
    """
    data = _COMMENT.sub("", text)
    if not data.isascii() or any(c in data for c in _OTHER_BREAKS):
        return _line_by_line(text)
    option, lineno = "", 0
    at = data.find("#")
    if at >= 0:
        start, end = data.rfind("\n", 0, at) + 1, data.find("\n", at)
        if data[start:at].strip():
            return _line_by_line(text)
        option = data[at : None if end < 0 else end]
        lineno = data.count("\n", 0, at) + 1
        data = data.replace(option, "", 1)  # one copy, where slicing around it makes two
    numbers = _numbers(data)
    if numbers is None:
        return _line_by_line(text)
    # a document with a non-finite number went to the loop, which orders that
    # fault against an option line's
    return (numbers, *_options(option[1:], lineno))


def touchstone_read(
    source: str | Path | TextIO, n_ports: int | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Parse a Touchstone v1 document into (frequencies in Hz, (F, n, n) stack, z_ref)."""
    text = source.read() if hasattr(source, "read") else Path(source).read_text(encoding="ascii")
    m = _EXT_RE.search(str(getattr(source, "name", source)))
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
    if n < 1:
        raise TouchstoneParseError(f"port count must be at least 1, got {n}")

    numbers, unit_scale, fmt, z_ref = _parse(text)
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
        varying = _varying(a)
        exponents = _gather(a, varying) / 20.0
        try:
            magnitudes = np.fromiter(map(pow, repeat(10.0), memoryview(exponents)), float,
                                     exponents.size)
        except OverflowError:  # a DB magnitude above about 6165 dB
            for record, row in enumerate((a / 20.0).tolist()):
                try:
                    [10.0**x for x in row]
                except OverflowError:
                    raise TouchstoneParseError(
                        "entry overflows in the record starting on this line",
                        _locate(text, record * block)[0],
                    ) from None
        a = _spread(magnitudes, varying, a.shape)
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
        varying = _varying(b)
        radians = np.radians(_gather(b, varying))
        cos, sin = (_spread(f(radians), varying, b.shape) for f in (np.cos, np.sin))
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
