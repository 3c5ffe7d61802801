"""Command-line front end: design, butler, pattern, touchstone convert.

Values with units accept a suffix (``5.2GHz``, ``1.6mm``); bare numbers
are SI.  A JSON scenario file can pre-load any flag of the invoked
subcommand, keyed by the flag's long name; explicit flags win, and a key
the subcommand has no flag for is an error.  Relative output paths land in
``--outdir``, which defaults to $BUTLERCAD_OUTDIR or the working
directory.  Runs are deterministic: the same invocation produces the same
bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, antenna, beams, butler, report
from .errors import ButlerCadError
from .microstrip import Substrate
from .network import Netlist, interconnect
from .sparams import FIDELITY_CIRCUIT, FIDELITY_IDEAL
from .touchstone import FORMATS, UNITS, touchstone_convert, touchstone_write

_FREQ_UNITS = {name.lower(): scale for name, scale in UNITS.items()}
_LEN_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "mil": 25.4e-6}
_NUM_UNIT_RE = re.compile(r"^\s*([+-]?[0-9.]+(?:[eE][+-]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")


class CliError(ButlerCadError):
    """Raised for bad command lines; printed as a single diagnostic."""


def _parse_with_units(value, units: dict[str, float], what: str) -> float:
    if isinstance(value, (int, float)):
        x = float(value)
    else:
        m = _NUM_UNIT_RE.match(str(value))
        if not m:
            raise CliError(f"cannot parse {what} {value!r}")
        number, suffix = m.group(1), m.group(2).lower()
        if suffix and suffix not in units:
            raise CliError(f"unknown {what} unit {suffix!r} in {value!r}")
        try:
            x = float(number) * units.get(suffix, 1.0)
        except ValueError:
            raise CliError(f"cannot parse {what} {value!r}") from None
    if not math.isfinite(x):
        raise CliError(f"{what} {value!r} is not finite")
    return x


def parse_frequency(value) -> float:
    return _parse_with_units(value, _FREQ_UNITS, "frequency")


def parse_length(value) -> float:
    return _parse_with_units(value, _LEN_UNITS, "length")


def _one_of(*choices: str) -> Callable[[object], str]:
    """Converter accepting ``choices`` in any letter case; returns the listed spelling."""
    by_key = {c.lower(): c for c in choices}

    def convert(value) -> str:
        try:
            return by_key[str(value).lower()]
        except KeyError:
            raise CliError(f"{value!r} is not one of {', '.join(choices)}") from None

    return convert


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise CliError(f"must be a finite number, got {value!r}")
    return x


def _whole(value) -> int:
    if isinstance(value, float) and not value.is_integer():  # int() would truncate it
        raise CliError(f"must be a whole number, got {value!r}")
    return int(value)


def _positive_finite(value) -> float:
    x = float(value)
    if not (math.isfinite(x) and x > 0):
        raise CliError(f"must be a positive finite number, got {value!r}")
    return x


_input_port = _one_of(*butler.INPUT_PORT_NAMES)


def _input_ports(value) -> list[str]:
    ports = [_input_port(x.strip()) for x in str(value).split(",") if x.strip()]
    if not ports:
        raise CliError("no input port given")
    for k, port in enumerate(ports):
        if port in ports[:k]:
            raise CliError(f"input port {port} given twice")
    return ports


REQUIRED = object()  # default of a flag that must be given
ARGUMENT = object()  # default of a positional argument, never a scenario key


class Flag(NamedTuple):
    """One entry of a subcommand's table: ``--name``, converter, default, help."""

    name: str
    convert: Callable[[object], object]
    default: object
    help: str


OUTDIR = Flag(
    "outdir", str, None,
    "directory for relative output paths "
    "(default $BUTLERCAD_OUTDIR or the working directory)",
)
F0 = Flag(
    "f0", lambda v: _positive_finite(parse_frequency(v)), REQUIRED,
    "design frequency, e.g. 5.2GHz",
)
FIDELITY = Flag(
    "fidelity", _one_of(FIDELITY_IDEAL, FIDELITY_CIRCUIT), FIDELITY_IDEAL,
    "component models: ideal|circuit",
)
# required by design and by circuit fidelity; see _substrate
ER = Flag("er", _finite, None, "substrate relative permittivity (design, circuit)")
H = Flag("h", parse_length, None, "substrate height, e.g. 1.6mm (design, circuit)")
FORMAT = Flag("format", _one_of(*FORMATS), "RI", "touchstone format RI|MA|DB")
UNIT = Flag("unit", _one_of(*UNITS), "GHz", "touchstone frequency unit")


class _OneLineParser(argparse.ArgumentParser):
    # argparse prints usage plus message; the contract here is one line
    def error(self, message):
        raise CliError(message)


@functools.cache  # a parser keeps no state between parse_args calls
def _build_parser() -> argparse.ArgumentParser:
    p = _OneLineParser(prog="butlercad", description=__doc__)
    p.add_argument("--version", action="version", version=f"butlercad {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    ts = sub.add_parser("touchstone", help="touchstone file utilities")
    groups = {"": sub, "touchstone": ts.add_subparsers(dest="ts_command", required=True)}
    for name, (run, help_text, flags) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        c = groups[group].add_parser(leaf, help=help_text)
        c.set_defaults(run=run, name=name, flags=flags)
        c.add_argument("--scenario", help="JSON file pre-loading the flags below")
        for flag in flags:
            text = flag.help
            if isinstance(flag.default, (str, float)):
                text += f" (default {flag.default})"
            spelled = flag.name if flag.default is ARGUMENT else f"--{flag.name}"
            c.add_argument(spelled, help=text)
    return p


def _load_scenario(path: str | None) -> dict:
    if not path:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"scenario {path}: {e}") from None
    if not isinstance(doc, dict):
        raise CliError(f"scenario {path}: expected a JSON object")
    return doc


def _merge(args: argparse.Namespace) -> SimpleNamespace:
    """Typed value of every flag: explicit flag, else scenario key, else default."""
    scenario = _load_scenario(args.scenario)
    keys = {flag.name for flag in args.flags if flag.default is not ARGUMENT}
    for key in scenario:
        if key not in keys:
            raise CliError(
                f"scenario {args.scenario}: key {key!r} is not a flag of {args.name!r}"
            )
    values = {}
    for flag in args.flags:
        attr = flag.name.replace("-", "_")
        raw = getattr(args, attr)
        if raw is None:
            raw = scenario.get(flag.name)
            if isinstance(raw, (bool, list, dict)):
                raise CliError(
                    f"--{flag.name}: scenario value {raw!r} is not a number or a string"
                )
        if raw is not None:
            try:
                values[attr] = flag.convert(raw)
            except (ButlerCadError, OverflowError, TypeError, ValueError) as e:
                raise CliError(f"--{flag.name}: {e}") from None
        elif flag.default is REQUIRED:
            raise CliError(f"missing required option --{flag.name}")
        else:
            values[attr] = flag.default
    return SimpleNamespace(**values)


def _resolve(path_value: str, v: SimpleNamespace) -> Path:
    p = Path(path_value)
    if not p.is_absolute():
        p = Path(v.outdir or os.environ.get("BUTLERCAD_OUTDIR", ".")) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _substrate(v: SimpleNamespace) -> Substrate:
    for name in ("er", "h"):
        if getattr(v, name) is None:
            raise CliError(f"missing required option --{name}")
    return Substrate(v.er, v.h)


def _butler_net(v: SimpleNamespace) -> Netlist:
    substrate = _substrate(v) if v.fidelity == FIDELITY_CIRCUIT else None
    return butler.build_butler_4x4(v.fidelity, v.f0, substrate)


def _cmd_design(v: SimpleNamespace) -> int:
    rep = report.build_design_report(
        v.freq, _substrate(v), edge_resistance=v.edge_resistance
    )
    sys.stdout.write(rep.to_text())
    if v.json_out:
        _resolve(v.json_out, v).write_text(rep.to_json(), encoding="ascii")
    return 0


def _cmd_butler(v: SimpleNamespace) -> int:
    if not (v.f_start < v.f_stop):
        raise CliError("sweep needs f_start < f_stop")
    if v.n_points < 2:
        raise CliError("sweep needs at least 2 points")
    if v.n_points > sys.maxsize // 1024:  # 1024 bytes per point in the (F, 8, 8) stack
        raise CliError(f"a sweep of {v.n_points:.6g} points is beyond any array's size")
    net = _butler_net(v)
    frequencies = np.linspace(v.f_start, v.f_stop, v.n_points)
    s = interconnect(net, frequencies)

    ts_path = _resolve(f"{v.prefix}_{v.fidelity}.s8p", v)
    touchstone_write(frequencies, s, v.format, ts_path, unit=v.unit)

    csv_path = _resolve(f"{v.prefix}_{v.fidelity}_excitations.csv", v)
    with csv_path.open("w", encoding="ascii", newline="\n") as fh:
        report.excitation_csv((frequencies, s), fh, v.ports)

    excitations = butler.excitation_table(net, v.f0)
    table = butler.beam_table({name: excitations[name] for name in v.ports}, v.f0)
    beam_path = _resolve(f"{v.prefix}_{v.fidelity}_beams.csv", v)
    with beam_path.open("w", encoding="ascii", newline="\n") as fh:
        report.beam_table_csv(table, fh)

    sys.stdout.write(
        f"wrote {ts_path}\nwrote {csv_path}\nwrote {beam_path}\n"
    )
    return 0


def _cmd_pattern(v: SimpleNamespace) -> int:
    if v.spacing is None:
        geometry = beams.half_wave_geometry(v.f0)
    else:
        geometry = beams.ArrayGeometry(4, v.spacing, v.f0)
    angles = beams.default_angle_grid(v.step)
    cut = beams.array_factor(
        butler.excitation_table(_butler_net(v), v.f0)[v.port],
        geometry,
        angles=angles,
        element_model=v.element,
        normalize=True,
    )
    if v.out:
        path = _resolve(v.out, v)
        with path.open("w", encoding="ascii", newline="\n") as fh:
            cut.to_csv(fh)
        sys.stdout.write(f"wrote {path}\n")
    else:
        cut.to_csv(sys.stdout)
    return 0


def _cmd_touchstone_convert(v: SimpleNamespace) -> int:
    destination = _resolve(v.destination, v)
    touchstone_convert(v.source, destination, fmt=v.format, unit=v.unit, n_ports=v.ports)
    sys.stdout.write(f"wrote {destination}\n")
    return 0


# subcommand -> (handler, help, flags); each handler gets the merged values
COMMANDS = {
    "design": (_cmd_design, "closed-form dimension report", (
        Flag("freq", parse_frequency, REQUIRED, "design frequency, e.g. 5.2GHz"),
        ER,
        H,
        Flag("edge-resistance", _finite, antenna.EDGE_RESISTANCE_REFERENCE,
             "patch edge resistance, ohm"),
        Flag("json-out", str, None, "also write the JSON report to this path"),
        OUTDIR,
    )),
    "butler": (_cmd_butler, "composite 8-port run", (
        FIDELITY,
        F0,
        Flag("f-start", parse_frequency, REQUIRED, "sweep start"),
        Flag("f-stop", parse_frequency, REQUIRED, "sweep stop"),
        Flag("n-points", _whole, REQUIRED, "sweep point count"),
        ER,
        H,
        Flag("ports", _input_ports, butler.INPUT_PORT_NAMES,
             "comma list of input ports (default all four)"),
        FORMAT,
        UNIT,
        Flag("prefix", str, "butler", "output file prefix"),
        OUTDIR,
    )),
    "pattern": (_cmd_pattern, "far-field cut for one port", (
        Flag("port", _input_port, REQUIRED, "input port: 1R, 2L, 2R or 1L"),
        F0,
        FIDELITY,
        ER,
        H,
        Flag("spacing", parse_length, None,
             "element spacing, e.g. 28.83mm (default lambda0/2)"),
        Flag("element", _one_of("isotropic", "cos"), "isotropic",
             "element model: isotropic|cos"),
        Flag("step", _positive_finite, beams.DEFAULT_GRID_DEG,
             "angle grid step in degrees, a divisor of 180"),
        Flag("out", str, None, "CSV output path (default stdout)"),
        OUTDIR,
    )),
    "touchstone convert": (_cmd_touchstone_convert, "rewrite format or unit", (
        Flag("source", str, ARGUMENT, "touchstone file to read"),
        Flag("destination", str, ARGUMENT, "touchstone file to write"),
        FORMAT,
        UNIT,
        Flag("ports", _whole, None, "port count when the extension is not .sNp"),
        OUTDIR,
    )),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(_merge(args))
    except (ButlerCadError, ValueError, OSError, MemoryError) as e:
        print(f"butlercad: error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
