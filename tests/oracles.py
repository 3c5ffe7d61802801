"""Independent reference computations used to pin expected test values.

Nothing in here calls the library's interconnection engine or its
serialization; the point is to check the engine against straight-line
matrix math, and the array writers and readers against per-entry Python.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SQRT2 = math.sqrt(2.0)

# the textbook component matrices, restated locally on purpose
HYBRID = np.array(
    [[0, 1j, 1, 0], [1j, 0, 0, 1], [1, 0, 0, 1j], [0, 1, 1j, 0]], dtype=complex
) / SQRT2
CROSSOVER = np.array(
    [[0, 0, 1j, 0], [0, 0, 0, 1j], [1j, 0, 0, 0], [0, 1j, 0, 0]], dtype=complex
)


def unitarity_residual(s: np.ndarray) -> float:
    """max |S^H S - I|: zero for a lossless network."""
    return float(np.max(np.abs(s.conj().T @ s - np.eye(s.shape[0]))))


def reciprocity_residual(s: np.ndarray) -> float:
    """max |S - S^T|: zero for a reciprocal network."""
    return float(np.max(np.abs(s - s.T)))


def stage_butler_response(frequency: float, f0: float) -> dict[str, np.ndarray]:
    """Array-port waves per input port by explicit stage multiplication.

    Stage 1 hybrids on (1R, 2L) and (1L, 2R), -45 degree shifters on both
    through lines, the two inner-line crossovers applied as sequential
    pair swaps with a j per transit, stage 2 hybrids, interleaved output
    pick-off.  Mirrors the frozen netlist but through plain block math.
    """
    shift = np.exp(-1j * (math.pi / 4.0) * frequency / f0)
    out = {}
    for k, name in enumerate(("1R", "2L", "2R", "1L")):
        x = np.zeros(4, dtype=complex)
        x[k] = 1.0
        x_1r, x_2l, x_2r, x_1l = x
        # hybrid: (top_in, bot_in) -> (j*t + b, t + j*b)/sqrt(2)
        ha = np.array([1j * x_1r + x_2l, x_1r + 1j * x_2l]) / SQRT2
        hb = np.array([1j * x_1l + x_2r, x_1l + 1j * x_2r]) / SQRT2
        lines = [ha[0] * shift, ha[1], hb[0] * shift, hb[1]]
        lines[2], lines[3] = 1j * lines[3], 1j * lines[2]  # X1 on lines 3,4
        lines[1], lines[2] = 1j * lines[2], 1j * lines[1]  # X2 on lines 2,3
        hc = np.array([1j * lines[0] + lines[1], lines[0] + 1j * lines[1]]) / SQRT2
        hd = np.array([1j * lines[2] + lines[3], lines[2] + 1j * lines[3]]) / SQRT2
        out[name] = np.array([hd[0], hc[0], hd[1], hc[1]])  # A1..A4
    return out


def cascade_two_hybrids() -> np.ndarray:
    """4-port of two quadrature hybrids in cascade (2->1', 3->4').

    Composite ports (1, 2, 3, 4) = (A.1, B.2, B.3, A.4).  Done by solving
    the wave equations of the junction directly.
    """
    comp = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        a = np.zeros(4, dtype=complex)
        a[k] = 1.0
        # iterate the internal reflections to a fixed point (none here, the
        # hybrids are matched, so one pass settles)
        a_a = np.array([a[0], 0.0, 0.0, a[3]], dtype=complex)
        b_a = HYBRID @ a_a
        a_b = np.array([b_a[1], a[1], a[2], b_a[2]], dtype=complex)
        b_b = HYBRID @ a_b
        a_a = np.array([a[0], b_b[0], b_b[3], a[3]], dtype=complex)
        b_a = HYBRID @ a_a
        comp[:, k] = [b_a[0], b_b[1], b_b[2], b_a[3]]
    return comp


def partition_reduce(s: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Reduce a composite matrix by solving the connection constraints.

    With internal ports i joined pairwise by the swap P and external ports
    e, the waves satisfy b_i = S_ie a_e + S_ii P b_i, giving

        S_ext = S_ee + S_ei P (I - S_ii P)^-1 S_ie
    """
    n = s.shape[0]
    internal = [x for pq in pairs for x in pq]
    ext = [i for i in range(n) if i not in internal]
    m = len(internal)
    perm = np.zeros((m, m), dtype=complex)
    index = {p: k for k, p in enumerate(internal)}
    for p, q in pairs:
        perm[index[p], index[q]] = 1.0
        perm[index[q], index[p]] = 1.0
    see = s[np.ix_(ext, ext)]
    sei = s[np.ix_(ext, internal)]
    sie = s[np.ix_(internal, ext)]
    sii = s[np.ix_(internal, internal)]
    solved = np.linalg.solve(np.eye(m) - sii @ perm, sie)
    return see + sei @ perm @ solved


def join_in_order(
    s: np.ndarray, pairs: list[tuple[int, int]], external: list[int]
) -> np.ndarray:
    """Pairwise join of a stacked matrix, the bitwise reference of the engine's.

    Joins each index pair (p, q) in list order with copied rows and columns
    and four outer products,

        S' = S + [ c_q r_p (1 - S_qp) + c_p r_q (1 - S_pq)
                   + c_p r_p S_qq     + c_q r_q S_pp ] / D,

    zeroes rows and columns p and q, and gathers ``external`` in order.
    Without a resonance check: call it only where the engine did not raise.
    """
    s = np.array(s, dtype=complex)
    for p, q in pairs:
        s_pq, s_qp, s_pp, s_qq = s[p, q], s[q, p], s[p, p], s[q, q]
        denom = (1.0 - s_pq) * (1.0 - s_qp) - s_pp * s_qq
        col_p, col_q = s[:, p].copy(), s[:, q].copy()
        row_p, row_q = s[p].copy(), s[q].copy()
        s += (
            np.outer(col_q, row_p) * (1.0 - s_qp)
            + np.outer(col_p, row_q) * (1.0 - s_pq)
            + np.outer(col_p, row_p) * s_qq
            + np.outer(col_q, row_q) * s_pp
        ) / denom
        s[[p, q]] = 0.0
        s[:, [p, q]] = 0.0
    return s[np.ix_(external, external)]


C0 = 299_792_458.0  # m/s, restated so the ring oracle needs no library import


def _abcd_to_s(a, b, c, d, z_ref):
    den = a + b / z_ref + c * z_ref + d
    return (a + b / z_ref - c * z_ref - d) / den, 2.0 / den


def branchline_ring(
    frequency: float,
    series_length: float,
    series_eps_reff: float,
    shunt_length: float,
    shunt_eps_reff: float,
    z_ref: float = 50.0,
) -> np.ndarray:
    """Raw branch-line ring (corner junctions, no reference rotation) by even/odd modes.

    Series arms of z_ref/sqrt(2) join ports 1-2 and 4-3, shunt arms of z_ref
    join 1-4 and 2-3 (Reed & Wheeler 1956; Pozar, Microwave Engineering 7.5).
    The plane between ports 1/2 and 4/3 halves the shunt arms: driving 1 and
    4 in phase leaves each half-length stub open, in antiphase shorted.  A
    half circuit is the series arm between two such stubs, and its
    reflection and transmission give column 1 as
    ((Ge+Go)/2, (Te+To)/2, (Te-To)/2, (Ge-Go)/2); the mirror symmetries
    1<->2 and 1<->4 give the other columns.
    """
    zs, zp = z_ref / SQRT2, z_ref
    theta_s = 2.0 * math.pi * series_length * frequency * math.sqrt(series_eps_reff) / C0
    theta_p = math.pi * shunt_length * frequency * math.sqrt(shunt_eps_reff) / C0
    cs, sn = math.cos(theta_s), math.sin(theta_s)
    modes = []
    for y_stub in (1j * math.tan(theta_p) / zp, -1j / (math.tan(theta_p) * zp)):
        # [1 0; Y 1] [cos, j zs sin; j sin / zs, cos] [1 0; Y 1]
        a = cs + 1j * zs * sn * y_stub
        b = 1j * zs * sn
        c = y_stub * cs + 1j * sn / zs + y_stub * (cs + 1j * zs * sn * y_stub)
        modes.append(_abcd_to_s(a, b, c, a, z_ref))
    (ge, te), (go, to) = modes
    a, b, c, d = (ge + go) / 2, (te + to) / 2, (te - to) / 2, (ge - go) / 2
    return np.array(
        [[a, b, c, d], [b, a, d, c], [c, d, a, b], [d, c, b, a]], dtype=complex
    )


def _block_diagonal(*blocks: np.ndarray) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    k = 0
    for b in blocks:
        out[k : k + b.shape[0], k : k + b.shape[0]] = b
        k += b.shape[0]
    return out


def _reduce_in_order(s, pairs, external):
    """``partition_reduce`` with the external ports returned in ``external`` order."""
    kept = sorted(external)
    reduced = partition_reduce(s, pairs)
    order = [kept.index(p) for p in external]
    return reduced[np.ix_(order, order)]


def circuit_crossover(hybrid: np.ndarray) -> np.ndarray:
    """Two hybrids A, B in cascade: A.2-B.1, A.3-B.4; ports (A.1, B.2, B.3, A.4)."""
    return _reduce_in_order(
        _block_diagonal(hybrid, hybrid), [(1, 4), (2, 7)], [0, 5, 6, 3]
    )


def circuit_butler(frequency: float, f0: float, hybrid: np.ndarray) -> np.ndarray:
    """8x8 Butler of the frozen topology from one hybrid matrix, by partition.

    Stacked ports: HA 0-3, HB 4-7, HC 8-11, HD 12-15, X1 16-19, X2 20-23,
    PSA 24-25, PSB 26-27; external order (1R, 2L, 2R, 1L, A1..A4).
    """
    t = np.exp(-1j * (math.pi / 4.0) * frequency / f0)
    shifter = np.array([[0, t], [t, 0]], dtype=complex)
    crossover = circuit_crossover(hybrid)
    s = _block_diagonal(*[hybrid] * 4, crossover, crossover, shifter, shifter)
    pairs = [
        (1, 24), (25, 8),  # HA.2 - PSA - HC.1
        (5, 26), (27, 16),  # HB.2 - PSB - X1.1
        (6, 19),  # HB.3 - X1.4
        (17, 23),  # X1.2 - X2.4
        (18, 15),  # X1.3 - HD.4
        (2, 20),  # HA.3 - X2.1
        (21, 11),  # X2.2 - HC.4
        (22, 12),  # X2.3 - HD.1
    ]
    return _reduce_in_order(s, pairs, [0, 3, 7, 4, 13, 9, 14, 10])


def invert_width_by_bisection(width: float, substrate, lo=5.0, hi=400.0) -> float:
    """Impedance whose synthesized width equals ``width``; bisection oracle."""
    from butlercad.microstrip import synthesize_width

    f_lo = synthesize_width(lo, substrate) - width
    f_hi = synthesize_width(hi, substrate) - width
    if f_lo * f_hi > 0:
        raise ValueError("width outside bracketed range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = synthesize_width(mid, substrate) - width
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def brute_force_peak(excitations, spacing_over_lambda: float, step_deg: float = 0.01):
    """Peak angle of |sum a_k exp(j k beta d sin theta)| by dense scan."""
    a = np.asarray(excitations, dtype=complex)
    th = np.radians(np.arange(-90.0, 90.0 + step_deg / 2.0, step_deg))
    bd = 2.0 * math.pi * spacing_over_lambda
    field = np.abs(a @ np.exp(1j * np.outer(np.arange(len(a)), bd * np.sin(th))))
    return math.degrees(th[int(np.argmax(field))])


# Touchstone v1 and the excitation CSV, one entry and one field at a time:
# the serialization the library's array code must match byte for byte.
TS_UNITS = {"HZ": ("Hz", 1.0), "KHZ": ("kHz", 1e3), "MHZ": ("MHz", 1e6), "GHZ": ("GHz", 1e9)}


def _ts_order(n: int) -> list[int]:
    return [0, 2, 1, 3] if n == 2 else list(range(n * n))


def touchstone_pair(value: complex, fmt: str) -> tuple[float, float]:
    """The two file fields of one entry."""
    if fmt == "RI":
        return value.real, value.imag
    mag = abs(value)
    ang = math.degrees(np.angle(value))
    if fmt == "MA":
        return mag, ang
    return 20.0 * math.log10(max(mag, 1e-300)), ang


def _ts_unpair(a: float, b: float, fmt: str) -> complex:
    if fmt == "RI":
        return complex(a, b)
    turn = complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
    return (a if fmt == "MA" else 10.0 ** (a / 20.0)) * turn


def touchstone_text(frequencies, s, fmt: str, unit: str, z_ref: float, version: str) -> str:
    """Touchstone v1 document of a valid sweep, written entry by entry."""
    name, scale = TS_UNITS[unit.upper()]
    n = s.shape[1]
    digest = hashlib.sha256()
    for f, m in zip(frequencies, s):
        digest.update(format(f, ".17g").encode())
        digest.update(np.ascontiguousarray(m).tobytes())
    lines = [
        f"! butlercad {version} {n}-port S-parameter export",
        f"! content-hash {digest.hexdigest()[:12]}",
        f"# {name} S {fmt} R {format(float(z_ref), '.9g')}",
    ]
    width = 2 * n if n > 2 else 2 * n * n
    for f, entries in zip(frequencies, s.reshape(len(s), -1)[:, _ts_order(n)]):
        fields = [v for value in entries for v in touchstone_pair(value, fmt)]
        head = format(float(f / scale), ".9g") + " "
        for r in range(0, len(fields), width):
            row = fields[r : r + width]
            for c in range(0, width, 8):
                lines.append(head + " ".join(format(float(v), ".12g") for v in row[c : c + 8]))
                head = "  "
    return "\n".join(lines) + "\n"


def touchstone_values(text: str, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(frequencies in Hz, (F, n, n) stack, z_ref) of a well-formed document."""
    scale, fmt, z_ref = 1e9, "MA", 50.0
    values: list[float] = []
    for raw in text.splitlines():
        line = raw.split("!", 1)[0].strip()
        if line.startswith("#"):
            words = line[1:].upper().split()
            for k, word in enumerate(words):
                if word in TS_UNITS:
                    scale = TS_UNITS[word][1]
                elif word in ("RI", "MA", "DB"):
                    fmt = word
                elif word == "R":
                    z_ref = float(words[k + 1])
        elif line:
            values += [float(tok) for tok in line.split()]
    block = 1 + 2 * n * n
    frequencies = np.array([v * scale for v in values[::block]])
    s = np.empty((len(frequencies), n * n), dtype=complex)
    for k, b in enumerate(range(0, len(values), block)):
        s[k, _ts_order(n)] = [
            _ts_unpair(values[i], values[i + 1], fmt) for i in range(b + 1, b + block, 2)
        ]
    return frequencies, s.reshape(-1, n, n), z_ref


def excitation_csv_text(rows) -> str:
    """Long-form coupling CSV of (port, frequency, output, amplitude) rows."""
    out = ["input_port,frequency_hz,output_port,magnitude_db,phase_deg\n"]
    for port, freq, name, amp in rows:
        mag_db = 20.0 * math.log10(max(abs(amp), 1e-300))
        ph = math.degrees(np.angle(amp))
        out.append(f"{port},{freq:.9g},{name},{mag_db:.9g},{ph:.9g}\n")
    return "".join(out)
