"""Seeded request generators for the three benchmark workloads.

Each generator yields :class:`Op` records: the argv handed to
``butlercad.cli.main`` plus what the output checks need to know about the
request.  The program sees only the argv.  The same seed yields the same
request sequence; how far into the sequence a run gets depends on speed.

Op ``k`` writes its artifacts under ``workdir/op<k>`` through ``--outdir``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("circuit_sweep", "ideal_sweep_io", "point_mix")

# common microwave laminates: relative permittivity and stock heights (mm)
PERMITTIVITIES = (2.2, 2.33, 3.0, 3.38, 3.55, 4.4, 4.9, 6.15, 9.2, 10.2)
HEIGHTS_MM = (0.508, 0.762, 0.787, 1.0, 1.524, 1.6)

INPUT_PORTS = ("1R", "2L", "2R", "1L")
FORMATS = ("RI", "MA", "DB")
UNITS = ("Hz", "kHz", "MHz", "GHz")

# Fixed sweep sizes keep per-request latency comparable across seeds.
# 121 circuit points give 30 or more requests in a 30 s run, enough for 10
# samples beyond the tail percentile.
CIRCUIT_POINTS = 121
IDEAL_POINTS = 1001

# point_mix: one block is 22 requests in seeded order, 6 design, 8 pattern,
# 6 short butler sweeps (30/40/30 of the well-formed ones) and 2 malformed.
# Fixed block contents keep the latency mix, and so the median, the same
# for every seed.
POOL_SIZE = 6
BLOCK = ("design",) * 6 + ("pattern",) * 8 + ("butler",) * 6 + ("malformed",) * 2
PATTERN_STEPS = (0.05, 0.1, 0.15, 0.2, 0.25)
SHORT_POINTS = (2, 5, 8, 11)
MALFORMED_KINDS = ("bad_unit", "unknown_port", "empty_sweep", "bad_step", "resonance")


@dataclass
class Op:
    """One CLI request and the facts its output checks rely on."""

    kind: str  # design | butler | pattern | convert | malformed
    argv: list[str]
    outdir: Path
    points: int = 0  # 8-port frequency points the request delivers
    design: tuple | None = None  # (f0_hz, er, h_m) for the repeat share
    facts: dict = field(default_factory=dict)


def _ghz(f_hz: float) -> str:
    return f"{f_hz / 1e9:.6f}GHz"


def _parse_ghz(text: str) -> float:
    # the CLI scales the number by 1e9 exactly like this
    return float(text[: -len("GHz")]) * 1e9


def _substrate(rng: random.Random) -> tuple[float, float]:
    return rng.choice(PERMITTIVITIES), rng.choice(HEIGHTS_MM) * 1e-3


def _butler(outdir: Path, fidelity: str, f0: float, f_start: float, f_stop: float,
            n: int, substrate=None, fmt="RI", unit="GHz", ports=None) -> Op:
    argv = ["butler", "--fidelity", fidelity, "--f0", _ghz(f0),
            "--f-start", _ghz(f_start), "--f-stop", _ghz(f_stop),
            "--n-points", str(n), "--format", fmt, "--unit", unit]
    design = (_parse_ghz(_ghz(f0)), None, None)
    if substrate is not None:
        er, h = substrate
        argv += ["--er", repr(er), "--h", f"{h * 1e3!r}mm"]
        design = (design[0], er, h)
    if ports is not None:
        argv += ["--ports", ",".join(ports)]
    argv += ["--outdir", str(outdir)]
    facts = {
        "fidelity": fidelity,
        "f0": _parse_ghz(_ghz(f0)),
        "f_start": _parse_ghz(_ghz(f_start)),
        "f_stop": _parse_ghz(_ghz(f_stop)),
        "n_points": n,
        "fmt": fmt,
        "unit": unit,
        "ports": list(ports) if ports is not None else list(INPUT_PORTS),
    }
    return Op("butler", argv, outdir, points=n, design=design, facts=facts)


def circuit_sweep(seed: int, workdir: Path):
    """Distinct circuit-fidelity designs, +-10 % sweeps around f0 in 2-6 GHz."""
    rng = random.Random(seed)
    k = 0
    while True:
        f0 = rng.uniform(2e9, 6e9)
        outdir = workdir / f"op{k:05d}"
        yield _butler(outdir, "circuit", f0, 0.9 * f0, 1.1 * f0, CIRCUIT_POINTS,
                      substrate=_substrate(rng), fmt=FORMATS[k % 3])
        k += 1


def ideal_sweep_io(seed: int, workdir: Path):
    """1001-point ideal sweeps, each followed by two converts of its own .s8p.

    Two converts per sweep put the median and the tail percentile inside
    the convert latencies; with one, the median would fall in the gap
    between converts and sweeps.
    """
    rng = random.Random(seed)
    k = 0
    while True:
        f0 = rng.uniform(2e9, 6e9)
        span = rng.uniform(0.05, 0.2)
        unit = k // 3
        sweep_dir = workdir / f"op{k:05d}"
        yield _butler(sweep_dir, "ideal", f0, f0 * (1 - span), f0 * (1 + span),
                      IDEAL_POINTS, fmt=FORMATS[unit % 3], unit=UNITS[unit % 4])
        k += 1
        source = sweep_dir / "butler_ideal.s8p"
        # the two other formats, each with another unit than the source
        for c in (1, 2):
            to_fmt = FORMATS[(unit + c) % 3]
            to_unit = UNITS[(unit + 1 + rng.randrange(3)) % 4]
            conv_dir = workdir / f"op{k:05d}"
            argv = ["touchstone", "convert", str(source), "converted.s8p",
                    "--format", to_fmt, "--unit", to_unit, "--outdir", str(conv_dir)]
            facts = {"source": str(source), "fmt": to_fmt, "unit": to_unit,
                     "destination": "converted.s8p"}
            yield Op("convert", argv, conv_dir, points=IDEAL_POINTS, facts=facts)
            k += 1


def _design_op(outdir: Path, design: tuple) -> Op:
    f0, er, h = design
    argv = ["design", "--freq", _ghz(f0), "--er", repr(er), "--h", f"{h * 1e3!r}mm",
            "--json-out", "report.json", "--outdir", str(outdir)]
    return Op("design", argv, outdir, design=design,
              facts={"f0": f0, "er": er, "h": h})


def _pattern_op(outdir: Path, design: tuple, fidelity: str, port: str,
                element: str, step: float) -> Op:
    f0, er, h = design
    argv = ["pattern", "--port", port, "--f0", _ghz(f0), "--fidelity", fidelity,
            "--element", element, "--step", repr(step)]
    if fidelity == "circuit":
        argv += ["--er", repr(er), "--h", f"{h * 1e3!r}mm"]
    argv += ["--out", "beam.csv", "--outdir", str(outdir)]
    facts = {"f0": f0, "port": port, "element": element, "step": step}
    return Op("pattern", argv, outdir, design=design, facts=facts)


def _malformed_op(outdir: Path, kind: str, design: tuple, rng: random.Random) -> Op:
    f0, er, h = design
    sub = ["--er", repr(er), "--h", f"{h * 1e3!r}mm"]
    if kind == "bad_unit":
        argv = ["design", "--freq", f"{f0 / 1e9:.6f}Ghzz", *sub]
    elif kind == "unknown_port":
        argv = ["pattern", "--port", rng.choice(("3R", "1X", "R1", "0L")),
                "--f0", _ghz(f0)]
    elif kind == "empty_sweep":
        stop = f0 * rng.choice((1.0, 0.95))
        argv = ["butler", "--fidelity", "ideal", "--f0", _ghz(f0),
                "--f-start", _ghz(f0), "--f-stop", _ghz(stop), "--n-points", "5"]
    elif kind == "bad_step":
        # negative: a zero step is a known defect, see zero_step_probe
        argv = ["pattern", "--port", rng.choice(INPUT_PORTS), "--f0", _ghz(f0),
                "--step", repr(-rng.choice(PATTERN_STEPS)), "--out", "beam.csv"]
    else:  # resonance: the last circuit point is exactly 2 f0
        f = _parse_ghz(_ghz(f0))
        argv = ["butler", "--fidelity", "circuit", "--f0", repr(f), *sub,
                "--f-start", repr(1.9 * f), "--f-stop", repr(2.0 * f),
                "--n-points", "3"]
    argv += ["--outdir", str(outdir)]
    return Op("malformed", argv, outdir, facts={"malformed": kind})


def zero_step_probe(outdir: Path) -> Op:
    """``pattern --step 0``: should exit 2 with one stderr line.

    It lets ZeroDivisionError escape ``main`` today.  Every request of the
    timed loop must succeed, so this one runs once per benchmark run,
    after the timed loop, and is reported apart from ``attempted`` and
    ``failed``.
    """
    argv = ["pattern", "--port", "1R", "--f0", _ghz(3e9), "--step", "0",
            "--out", "beam.csv", "--outdir", str(outdir)]
    return Op("malformed", argv, outdir, facts={"malformed": "zero_step"})


def design_pool(rng: random.Random) -> list[tuple]:
    pool = []
    for _ in range(POOL_SIZE):
        f0 = _parse_ghz(_ghz(rng.uniform(2e9, 6e9)))
        er, h = _substrate(rng)
        pool.append((f0, er, h))
    return pool


def point_mix(seed: int, workdir: Path):
    """Single-operating-point requests over a small pool of designs."""
    rng = random.Random(seed)
    pool = design_pool(rng)
    counters = dict.fromkeys(("pattern", "butler", "malformed"), 0)
    k = 0
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            outdir = workdir / f"op{k:05d}"
            design = rng.choice(pool)
            n = counters.get(kind, 0)
            if kind == "design":
                op = _design_op(outdir, design)
            elif kind == "pattern":
                # fidelity x port covers all 8 combinations in every block
                op = _pattern_op(outdir, design, ("ideal", "circuit")[n % 2],
                                 INPUT_PORTS[(n // 2) % 4],
                                 rng.choice(("cos", "isotropic")),
                                 PATTERN_STEPS[n % len(PATTERN_STEPS)])
            elif kind == "butler":
                f0, er, h = design
                fidelity = ("ideal", "circuit")[n % 2]
                ports = None
                if n % 3 == 2:
                    ports = sorted(rng.sample(INPUT_PORTS, rng.randint(1, 3)),
                                   key=INPUT_PORTS.index)
                op = _butler(outdir, fidelity, f0, 0.95 * f0, 1.05 * f0,
                             SHORT_POINTS[n % len(SHORT_POINTS)],
                             substrate=(er, h) if fidelity == "circuit" else None,
                             fmt=FORMATS[n % 3], ports=ports)
                op.design = design
            else:
                mk = MALFORMED_KINDS[n % len(MALFORMED_KINDS)]
                op = _malformed_op(outdir, mk, design, rng)
            counters[kind] = n + 1
            yield op
            k += 1


GENERATORS = {
    "circuit_sweep": circuit_sweep,
    "ideal_sweep_io": ideal_sweep_io,
    "point_mix": point_mix,
}

# requests per unit of the closed loop, which stops only between units: a
# sweep in each of the three formats with their converts (the six format
# pairs differ up to 2x in convert time), or a whole block of the mix, so
# that every run has the same mix of requests
UNIT_OPS = {"circuit_sweep": 1, "ideal_sweep_io": 9, "point_mix": len(BLOCK)}
# requests that read each other's files or together load every code path:
# a sweep with its converts, or a whole block of the mix.  The untimed
# warm-up runs one group, and the re-run check re-runs the first group of
# a unit, which keeps the checks of ideal_sweep_io short
GROUP_OPS = {"circuit_sweep": 1, "ideal_sweep_io": 3, "point_mix": len(BLOCK)}
