"""Deterministic design reports: the dimension tables, couplings and beams
for one operating point, emitted as JSON and as a human-readable text table.

Identical inputs give byte-identical output; nothing time- or
machine-dependent is written.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import antenna, butler, microstrip
from .microstrip import MicrostripLineSpec, Substrate
from .sparams import FIDELITY_IDEAL
from .touchstone import bake, polar


@dataclass(frozen=True)
class DesignReport:
    """Everything the `design` command computes for one run."""

    frequency: float
    substrate: Substrate
    lines: list[tuple[str, MicrostripLineSpec]]
    patch: antenna.PatchDims
    edge_resistance: float
    device_census: dict[str, int]
    excitations: dict[str, np.ndarray]  # input port -> waves at A1..A4
    beam_table: dict[str, tuple[float, float]]  # port -> (progression deg, angle deg)

    def to_json_dict(self) -> dict:
        return {
            "inputs": {
                "frequency_hz": self.frequency,
                "epsilon_r": self.substrate.epsilon_r,
                "height_m": self.substrate.height_h,
            },
            "microstrip_lines": [
                {
                    "role": role,
                    "z0_ohm": spec.z0,
                    "width_m": spec.width_w,
                    "length_m": spec.length_l,
                    "eps_reff": spec.eps_reff,
                    "electrical_length_deg": math.degrees(spec.electrical_length),
                }
                for role, spec in self.lines
            ],
            "patch": {
                "width_m": self.patch.width_w,
                "length_m": self.patch.length_l,
                "delta_l_m": self.patch.delta_l,
                "eps_reff": self.patch.eps_reff,
                "inset_y0_m": self.patch.inset_y0,
                "feed_line_width_m": self.patch.feed_line_width,
                "edge_resistance_ohm": self.edge_resistance,
            },
            "netlist_summary": {
                "device_census": self.device_census,
                "external_ports": list(butler.INPUT_PORT_NAMES)
                + list(butler.OUTPUT_PORT_NAMES),
            },
            "excitations": {
                port: [
                    {
                        "output": out,
                        "magnitude_db": 20.0
                        * math.log10(max(abs(amp), 1e-300)),
                        "phase_deg": math.degrees(np.angle(amp)),
                    }
                    for out, amp in zip(butler.OUTPUT_PORT_NAMES, amplitudes)
                ]
                for port, amplitudes in self.excitations.items()
            },
            "beam_table": {
                port: {"progression_deg": prog, "beam_angle_deg": ang}
                for port, (prog, ang) in self.beam_table.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        mm = 1e3
        out = []
        out.append(
            f"design frequency {self.frequency / 1e9:g} GHz on "
            f"er={self.substrate.epsilon_r:g}, h={self.substrate.height_h * mm:g} mm"
        )
        out.append("")
        out.append("microstrip lines")
        for role, spec in self.lines:
            out.append(
                f"  {role:<38s} z0={spec.z0:7.3f} ohm  W={spec.width_w * mm:6.3f} mm  "
                f"L={spec.length_l * mm:6.3f} mm  eps_reff={spec.eps_reff:.4f}"
            )
        p = self.patch
        out.append("")
        out.append("patch antenna")
        out.append(f"  width  {p.width_w * mm:7.3f} mm")
        out.append(f"  length {p.length_l * mm:7.3f} mm  (fringing dL {p.delta_l * mm:.3f} mm)")
        out.append(f"  inset  {p.inset_y0 * mm:7.3f} mm  (edge R {self.edge_resistance:g} ohm)")
        out.append(f"  feed   {p.feed_line_width * mm:7.3f} mm wide 50 ohm line")
        out.append("")
        census = ", ".join(f"{v} {k}" for k, v in self.device_census.items())
        out.append(f"network: {census}")
        out.append("")
        out.append("port   coupling to A1..A4 (dB)              progression    beam")
        for port in butler.INPUT_PORT_NAMES:
            mags = " ".join(
                f"{20.0 * math.log10(max(abs(a), 1e-300)):7.2f}"
                for a in self.excitations[port]
            )
            prog, ang = self.beam_table[port]
            out.append(f"  {port}  {mags}   {prog:+8.2f} deg   {ang:+7.2f} deg")
        return "\n".join(out) + "\n"


def build_design_report(
    frequency: float,
    substrate: Substrate,
    edge_resistance: float = antenna.EDGE_RESISTANCE_REFERENCE,
) -> DesignReport:
    """Run the reference design chain at one frequency."""
    lines = [
        ("feed / hybrid shunt arm, quarter-wave", microstrip.design_line(50.0, frequency, substrate)),
        (
            "hybrid series arm (z0/sqrt2), quarter-wave",
            microstrip.design_line(50.0 / math.sqrt(2.0), frequency, substrate),
        ),
        (
            "phase shifter 45 deg section",
            microstrip.design_line(50.0, frequency, substrate, electrical_length=math.pi / 4.0),
        ),
    ]
    patch = antenna.with_inset(
        antenna.design_patch(frequency, substrate),
        r_edge=edge_resistance,
        r_target=50.0,
        substrate=substrate,
    )
    net = butler.build_butler_4x4(FIDELITY_IDEAL, frequency)
    excitations = butler.excitation_table(net, frequency)
    census = {"hybrids": 4, "crossovers": 2, "phase_shifters": 2}
    return DesignReport(
        frequency=frequency,
        substrate=substrate,
        lines=lines,
        patch=patch,
        edge_resistance=edge_resistance,
        device_census=census,
        excitations=excitations,
        beam_table=butler.beam_table(excitations, frequency),
    )


def excitation_csv(
    sweep: tuple[np.ndarray, np.ndarray], stream, ports: Sequence[str]
) -> None:
    """Write the coupling rows of a Butler sweep: port, frequency, output, mag dB, phase deg.

    ``sweep`` is the ``(F,)`` frequencies with their ``(F, 8, 8)`` stack.
    Rows run by frequency, then input port in ``ports`` order, then A1..A4.
    A field that holds one bit pattern over the whole sweep is formatted
    once into the template of a frequency's rows (``touchstone.bake``).
    """
    frequencies, s = sweep
    cols = [butler.INPUT_PORT_NAMES.index(port) for port in ports]
    mag_db, phase = polar(s[:, 4:, cols].transpose(0, 2, 1), db=True)
    records = np.stack((mag_db, phase), axis=-1).reshape(len(s), 8 * len(cols))
    fields, varying = bake(records, ["%.9g"] * records.shape[1])
    rows = iter(fields)
    # one frequency's rows as one template, cut where its frequency goes
    pieces = "".join(
        f"{port},\0,{out},{next(rows)},{next(rows)}\n"
        for port in ports
        for out in butler.OUTPUT_PORT_NAMES
    ).split("\0")
    stream.write("input_port,frequency_hz,output_port,magnitude_db,phase_deg\n")
    stream.writelines(
        ("%.9g" % f).join(pieces) % tuple(row.tolist())
        for f, row in zip(frequencies.tolist(), varying)
    )


def beam_table_csv(beam_table: dict[str, tuple[float, float]], stream) -> None:
    stream.write("input_port,progression_deg,beam_angle_deg\n")
    for port, (prog, ang) in beam_table.items():
        stream.write(f"{port},{prog:.9g},{ang:.9g}\n")
