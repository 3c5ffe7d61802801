"""Output checks for benchmark requests, independent of the timed code.

Nothing here imports butlercad: Touchstone files are parsed by a reader
of their own, and every expected value (closed-form microstrip and patch
dimensions, the ideal Butler progressions, beam angles, pattern peaks)
is restated from the textbook formulas.  A check raises
:class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

C0 = 299_792_458.0
PROGRESSIONS_DEG = {"1R": -45.0, "2L": 135.0, "2R": -135.0, "1L": 45.0}
OUTPUTS = ("A1", "A2", "A3", "A4")
UNIT_SCALE = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}

MATRIX_TOL = 1e-8  # 12-digit Touchstone data fields
FREQ_RTOL = 1e-8  # 9-digit frequency fields
CSV_TOL = 1e-6  # 9-digit CSV fields
ANGLE_TOL_DEG = 1e-6
ACCEPT_DB = 0.01  # acceptance criterion 3: couplings and phase steps
ACCEPT_DEG = 0.01  # acceptance criterion 4: beam angles
ACCEPT_Z0 = 0.01  # acceptance criterion 6: synthesis round trip
CLOSED_FORM_RTOL = 1e-9


class CheckFailed(Exception):
    """An artifact or a response does not match what the request implies."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- Touchstone -------------------------------------------------------------

def read_touchstone(path: Path, n_ports: int = 8):
    """(unit, fmt, frequencies_hz, matrices) of a Touchstone v1 file."""
    st = Path(path).stat()
    return _read_touchstone(str(path), st.st_mtime_ns, st.st_size, n_ports)


@functools.lru_cache(maxsize=4)
def _read_touchstone(path: str, mtime_ns: int, size: int, n_ports: int):
    # keyed by file identity: a sweep's .s8p is read once for its own check
    # and once for each of its converts
    path = Path(path)
    option = None
    fields: list[str] = []
    for line in path.read_text(encoding="ascii").splitlines():
        line = line.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            _expect(option is None, f"{path.name}: second option line")
            option = line[1:].split()
        else:
            fields.extend(line.split())
    _expect(option is not None and len(option) == 5, f"{path.name}: option line {option}")
    unit, param, fmt, r, z = option
    _expect(param == "S" and r == "R" and float(z) == 50.0,
            f"{path.name}: option line {option}")
    _expect(unit.upper() in UNIT_SCALE and fmt in ("RI", "MA", "DB"),
            f"{path.name}: option line {option}")
    block = 1 + 2 * n_ports * n_ports
    data = np.array(fields, dtype=float)
    _expect(data.size > 0 and data.size % block == 0,
            f"{path.name}: {data.size} numbers is not a multiple of {block}")
    data = data.reshape(-1, block)
    freqs = data[:, 0] * UNIT_SCALE[unit.upper()]
    a = data[:, 1::2]
    b = data[:, 2::2]
    if fmt == "RI":
        values = a + 1j * b
    else:
        mag = a if fmt == "MA" else 10.0 ** (a / 20.0)
        values = mag * np.exp(1j * np.radians(b))
    return unit, fmt, freqs, values.reshape(-1, n_ports, n_ports)


def check_lossless(name: str, matrices: np.ndarray) -> None:
    """Reciprocal and unitary at every frequency."""
    recip = np.max(np.abs(matrices - np.swapaxes(matrices, 1, 2)))
    _expect(recip <= MATRIX_TOL, f"{name}: max |S - S^T| = {recip:.3e}")
    eye = np.eye(matrices.shape[1])
    gram = np.conj(np.swapaxes(matrices, 1, 2)) @ matrices
    unit = np.max(np.abs(gram - eye))
    _expect(unit <= MATRIX_TOL, f"{name}: max |S^H S - I| = {unit:.3e}")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# --- butler -----------------------------------------------------------------

def beam_angle_deg(progression_deg: float) -> float:
    """Closed-form steering angle for half-wave spacing: arcsin(-prog/180)."""
    return math.degrees(math.asin(-progression_deg / 180.0))


def check_butler(facts: dict, outdir: Path, stdout: str) -> None:
    prefix = f"butler_{facts['fidelity']}"
    ts = outdir / f"{prefix}.s8p"
    exc_csv = outdir / f"{prefix}_excitations.csv"
    beams_csv = outdir / f"{prefix}_beams.csv"
    _expect(stdout.splitlines() == [f"wrote {p}" for p in (ts, exc_csv, beams_csv)],
            f"unexpected stdout {stdout[:120]!r}")

    unit, fmt, freqs, s = read_touchstone(ts)
    _expect(unit.upper() == facts["unit"].upper() and fmt == facts["fmt"],
            f"{ts.name}: option line says {unit} {fmt}")
    grid = np.linspace(facts["f_start"], facts["f_stop"], facts["n_points"])
    _expect(freqs.shape == grid.shape and np.allclose(freqs, grid, rtol=FREQ_RTOL, atol=0),
            f"{ts.name}: frequency grid differs from the requested sweep")
    check_lossless(ts.name, s)

    ports = facts["ports"]
    lines = exc_csv.read_text(encoding="ascii").splitlines()
    _expect(lines[0] == "input_port,frequency_hz,output_port,magnitude_db,phase_deg",
            f"{exc_csv.name}: header {lines[0]!r}")
    rows = [row.split(",") for row in lines[1:]]
    _expect(len(rows) == len(grid) * len(ports) * 4 and all(len(r) == 5 for r in rows),
            f"{exc_csv.name}: {len(rows)} rows")
    # rows run over frequency, then input port, then output port
    labels = [(p, o) for p in ports for o in OUTPUTS] * len(grid)
    _expect([(r[0], r[2]) for r in rows] == labels, f"{exc_csv.name}: port columns")
    num = np.array([(r[1], r[3], r[4]) for r in rows], dtype=float)
    _expect(np.allclose(num[:, 0], np.repeat(freqs, len(ports) * 4), rtol=FREQ_RTOL, atol=0),
            f"{exc_csv.name}: frequency column")
    amp = 10.0 ** (num[:, 1] / 20.0) * np.exp(1j * np.radians(num[:, 2]))
    cols = [list(PROGRESSIONS_DEG).index(p) for p in ports]
    want = s[:, 4:, :][:, :, cols].transpose(0, 2, 1).reshape(-1)
    err = np.max(np.abs(amp - want))
    _expect(err <= CSV_TOL, f"{exc_csv.name}: rows disagree with {ts.name} by {err:.3e}")

    lines = beams_csv.read_text(encoding="ascii").splitlines()
    _expect(lines[0] == "input_port,progression_deg,beam_angle_deg",
            f"{beams_csv.name}: header {lines[0]!r}")
    _expect([row.split(",")[0] for row in lines[1:]] == ports,
            f"{beams_csv.name}: ports {lines[1:]}")
    for row in lines[1:]:
        port, prog, ang = row.split(",")
        want = PROGRESSIONS_DEG[port]
        _expect(abs(float(prog) - want) <= ANGLE_TOL_DEG,
                f"{beams_csv.name}: {port} progression {prog}, expected {want:+g}")
        _expect(abs(float(ang) - beam_angle_deg(float(prog))) <= ANGLE_TOL_DEG,
                f"{beams_csv.name}: {port} beam {ang} is not arcsin(-{prog}/180)")


def check_convert(facts: dict, outdir: Path, stdout: str) -> None:
    dest = outdir / facts["destination"]
    _expect(stdout == f"wrote {dest}\n", f"unexpected stdout {stdout[:120]!r}")
    _, _, f_src, s_src = read_touchstone(Path(facts["source"]))
    unit, fmt, f_dst, s_dst = read_touchstone(dest)
    _expect(unit == facts["unit"] and fmt == facts["fmt"],
            f"{dest.name}: option line says {unit} {fmt}")
    _expect(f_dst.shape == f_src.shape and np.allclose(f_dst, f_src, rtol=FREQ_RTOL, atol=0),
            f"{dest.name}: frequencies differ from the source")
    err = np.max(np.abs(s_dst - s_src))
    _expect(err <= MATRIX_TOL, f"{dest.name}: entries differ from the source by {err:.3e}")


# --- pattern ----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def expected_peak_deg(progression_deg: float, element: str) -> float:
    """Peak of |AF| times the element pattern, half-wave spacing, 4 elements."""
    if element == "isotropic":
        return beam_angle_deg(progression_deg)
    theta = np.radians(np.linspace(-90.0, 90.0, 180_001))  # 0.001 degree grid
    psi = math.radians(progression_deg) + math.pi * np.sin(theta)
    af = np.abs(np.exp(1j * np.outer(np.arange(4), psi)).sum(axis=0))
    return float(np.degrees(theta[np.argmax(af * np.cos(theta))]))


def check_pattern(facts: dict, outdir: Path, stdout: str) -> None:
    path = outdir / "beam.csv"
    _expect(stdout == f"wrote {path}\n", f"unexpected stdout {stdout[:120]!r}")
    lines = path.read_text(encoding="ascii").splitlines()
    _expect(lines[0] == "angle_deg,magnitude_linear,magnitude_db", f"header {lines[0]!r}")
    table = np.array([row.split(",") for row in lines[1:]], dtype=float)
    step = facts["step"]
    grid = np.linspace(-90.0, 90.0, int(round(180.0 / step)) + 1)
    _expect(table.shape == (grid.size, 3), f"{path.name}: shape {table.shape}")
    _expect(np.max(np.abs(table[:, 0] - grid)) <= CSV_TOL, f"{path.name}: angle grid")
    mag = table[:, 1]
    _expect(abs(np.max(mag) - 1.0) <= CSV_TOL, f"{path.name}: peak {np.max(mag)} != 1")
    live = mag > 1e-6
    db_err = np.max(np.abs(table[live, 2] - 20.0 * np.log10(mag[live])))
    _expect(db_err <= CSV_TOL, f"{path.name}: dB column off by {db_err:.3e}")
    peak = table[int(np.argmax(mag)), 0]
    want = expected_peak_deg(PROGRESSIONS_DEG[facts["port"]], facts["element"])
    _expect(abs(peak - want) <= step + ANGLE_TOL_DEG,
            f"{path.name}: peak at {peak} deg, closed form {want:.4f} deg")


# --- design -----------------------------------------------------------------

def _eps_reff(u: float, er: float) -> float:
    return (er + 1.0) / 2.0 + (er - 1.0) / 2.0 / math.sqrt(1.0 + 12.0 / u)


def _z0(u: float, er: float) -> float:
    # Hammerstad's quasi-static analysis
    ee = _eps_reff(u, er)
    if u <= 1.0:
        return 60.0 / math.sqrt(ee) * math.log(8.0 / u + u / 4.0)
    return 120.0 * math.pi / (math.sqrt(ee) * (u + 1.393 + 0.667 * math.log(u + 1.444)))


def check_design(facts: dict, outdir: Path, stdout: str) -> None:
    f, er, h = facts["f0"], facts["er"], facts["h"]
    doc = json.loads((outdir / "report.json").read_text(encoding="ascii"))
    ins = doc["inputs"]
    _expect(ins["frequency_hz"] == f and ins["epsilon_r"] == er and ins["height_m"] == h,
            f"report inputs {ins}")

    roles = []
    for line in doc["microstrip_lines"]:
        u = line["width_m"] / h
        ee = _eps_reff(u, er)
        _expect(_close(line["eps_reff"], ee, CLOSED_FORM_RTOL), f"eps_reff of {line['role']}")
        _expect(abs(_z0(u, er) - line["z0_ohm"]) <= ACCEPT_Z0 * line["z0_ohm"],
                f"width of {line['role']} does not give {line['z0_ohm']:.2f} ohm")
        length = line["electrical_length_deg"] / 360.0 * C0 / (f * math.sqrt(ee))
        _expect(_close(line["length_m"], length, CLOSED_FORM_RTOL), f"length of {line['role']}")
        roles.append((round(line["z0_ohm"], 6), round(line["electrical_length_deg"], 6)))
    _expect(roles == [(50.0, 90.0), (round(50.0 / math.sqrt(2.0), 6), 90.0), (50.0, 45.0)],
            f"line table {roles}")

    p = doc["patch"]
    width = C0 / (2.0 * f) * math.sqrt(2.0 / (er + 1.0))
    u = width / h
    ee = _eps_reff(u, er)
    dl = 0.412 * h * (ee + 0.3) * (u + 0.264) / ((ee - 0.258) * (u + 0.8))
    length = C0 / (2.0 * f * math.sqrt(ee)) - 2.0 * dl
    _expect(_close(p["width_m"], width, CLOSED_FORM_RTOL), "patch width")
    _expect(_close(p["length_m"], length, CLOSED_FORM_RTOL), "patch length")
    r_in = p["edge_resistance_ohm"] * math.cos(math.pi * p["inset_y0_m"] / p["length_m"]) ** 2
    _expect(_close(r_in, 50.0, CLOSED_FORM_RTOL), f"inset gives {r_in:.6f} ohm")
    feed = _z0(p["feed_line_width_m"] / h, er)
    _expect(abs(feed - 50.0) <= ACCEPT_Z0 * 50.0, f"feed line is {feed:.2f} ohm")

    for port, want in PROGRESSIONS_DEG.items():
        waves = doc["excitations"][port]
        _expect([w["output"] for w in waves] == list(OUTPUTS), f"{port} outputs")
        for w in waves:
            _expect(abs(w["magnitude_db"] + 20.0 * math.log10(2.0)) <= ACCEPT_DB,
                    f"{port}->{w['output']} at {w['magnitude_db']:.3f} dB")
        for a, b in zip(waves, waves[1:]):
            step = (b["phase_deg"] - a["phase_deg"] + 180.0) % 360.0 - 180.0
            _expect(abs(step - want) <= ACCEPT_DEG, f"{port} phase step {step:.3f}")
        beam = doc["beam_table"][port]
        _expect(abs(beam["progression_deg"] - want) <= ACCEPT_DEG, f"{port} progression")
        _expect(abs(beam["beam_angle_deg"] - beam_angle_deg(want)) <= ACCEPT_DEG,
                f"{port} beam angle {beam['beam_angle_deg']:.4f}")

    text = stdout.splitlines()
    _expect(text[0] == f"design frequency {f / 1e9:g} GHz on er={er:g}, h={h * 1e3:g} mm",
            f"text header {text[0]!r}")
    for port, row in zip(PROGRESSIONS_DEG, text[-4:]):
        cols = row.split()
        _expect(cols[0] == port, f"text beam row {row!r}")
        beam = doc["beam_table"][port]
        # the text table rounds to 2 decimals
        _expect(abs(float(cols[5]) - beam["progression_deg"]) <= 0.0051
                and abs(float(cols[7]) - beam["beam_angle_deg"]) <= 0.0051,
                f"text beam row {row!r} disagrees with the JSON")


# --- malformed requests -----------------------------------------------------

def check_malformed(stdout: str, stderr: str) -> None:
    _expect(stdout == "", f"stdout {stdout[:120]!r}")
    _expect(stderr.count("\n") == 1 and stderr.endswith("\n")
            and stderr.startswith("butlercad: error: "),
            f"stderr is not one diagnostic line: {stderr[:160]!r}")


CHECKS = {
    "butler": check_butler,
    "convert": check_convert,
    "pattern": check_pattern,
    "design": check_design,
}


def verify(op, rc, stdout: str, stderr: str, escaped: str | None) -> None:
    """Raise CheckFailed unless the response is what the request calls for."""
    _expect(escaped is None, f"exception escaped main: {escaped}")
    if op.kind == "malformed":
        _expect(rc == 2, f"exit status {rc}, expected 2")
        check_malformed(stdout, stderr)
        return
    _expect(rc == 0, f"exit status {rc}: {stderr.strip()[:160]}")
    _expect(stderr == "", f"stderr {stderr[:160]!r}")
    CHECKS[op.kind](op.facts, op.outdir, stdout)


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Relative path -> content of every file under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
