"""butlercad: design and S-parameter simulation of 4x4 Butler-matrix
beamforming networks on microstrip.

Closed-form line and patch synthesis, ideal and circuit-level component
models, general multiport interconnection, beam prediction, Touchstone and
JSON persistence, and a command-line front end.
"""

__version__ = "0.1.0"

from .microstrip import (  # noqa: F401
    C0,
    MicrostripLineSpec,
    Substrate,
    analyze_impedance,
    design_line,
    effective_permittivity,
    guided_wavelength,
    phase_shift_length,
    quarter_wave_length,
    synthesize_width,
)
from .sparams import DeviceModel, ScatteringMatrix  # noqa: F401
from .network import Netlist, interconnect, netlist_from_json, netlist_to_json  # noqa: F401
from .components import (  # noqa: F401
    branchline_hybrid_circuit,
    crossover_circuit,
    device_from_spec,
    ideal_crossover,
    ideal_hybrid,
    matched_load,
    phase_shifter,
    shunt_junction,
    tline,
)
from .butler import (  # noqa: F401
    IDEAL_PROGRESSIONS_DEG,
    INPUT_PORT_NAMES,
    OUTPUT_PORT_NAMES,
    adjacent_phase_steps,
    build_butler_4x4,
    excitation_table,
    progression_deg,
)
from .antenna import (  # noqa: F401
    EDGE_RESISTANCE_REFERENCE,
    PatchDims,
    design_patch,
    element_pattern,
    inset_position,
    with_inset,
)
from .beams import (  # noqa: F401
    ArrayGeometry,
    PatternCut,
    PatternMetrics,
    array_factor,
    beam_angle,
    half_wave_geometry,
    inter_element_phase,
    pattern_metrics,
)
from .touchstone import touchstone_convert, touchstone_read, touchstone_write  # noqa: F401
