"""ReRAM substrate: devices, crossbars, converters, mappings, in-situ engine.

The behavioural analog stack under the FORMS architecture: discrete-level
cells with lognormal variation (with VTEAM device dynamics underneath),
bit-sliced weight storage, crossbar MVM with optional wire parasitics and
nonlinear cell I-V, 1-bit DAC / fragment ADC conversion, the three
signed-weight mapping schemes (FORMS sign-indicator, ISAAC offset, PRIME
dual), and the bit-serial layer engine whose ideal output equals the integer
matmul exactly.
"""

from .bitslice import bit_slice, bit_unslice, num_slices, slice_weights
from .converters import (ADCSpec, DACSpec, SampleHold, paper_adc_bits,
                         required_adc_bits)
from .device import DeviceSpec, ReRAMDevice, codes_to_digital
from .engine import (TIERS, DieCache, EngineStats, InSituLayerEngine,
                     SignIndicator, StatsScope, build_engine,
                     effective_levels)
from .faults import (DieFaultDetected, DieGuard, FaultEvent, FaultInjector,
                     InjectedDispatchError, fragment_sensitivity,
                     rank_engines_by_sensitivity)
from .mapping import SCHEMES, MappedLayer, infer_signs, map_layer
from .nonideal import (LINEAR_CELL, CellIV, FaultModel, IRDropPoint,
                       ReadNoise, WireModel, first_order_currents,
                       fragment_read_error, ideal_currents, ir_drop_study,
                       solve_ir_drop)
from .inference import (InSituConv2d, InSituLinear, build_insitu_network,
                        total_cycles_fed)
from .variation import (VariationResult, apply_variation, clone_model,
                        variation_study)
from .vteam import (ProgramResult, ProgramScheme, VTEAMCell, VTEAMParams,
                    device_spec_from_vteam, program_codes, program_level,
                    write_latency_s)

#: the engine under its robustness-study name: physics is constructor data
NonidealEngine = InSituLayerEngine

__all__ = [
    "DeviceSpec", "ReRAMDevice", "codes_to_digital",
    "ADCSpec", "DACSpec", "SampleHold", "required_adc_bits", "paper_adc_bits",
    "bit_slice", "bit_unslice", "num_slices", "slice_weights",
    "MappedLayer", "map_layer", "infer_signs", "SCHEMES",
    "InSituLayerEngine", "SignIndicator", "EngineStats", "StatsScope",
    "DieCache",
    "build_engine", "effective_levels", "TIERS",
    "apply_variation", "variation_study", "VariationResult", "clone_model",
    "VTEAMParams", "VTEAMCell", "ProgramScheme", "ProgramResult",
    "program_level", "program_codes", "device_spec_from_vteam",
    "write_latency_s",
    "WireModel", "CellIV", "LINEAR_CELL", "solve_ir_drop",
    "first_order_currents", "ideal_currents", "ir_drop_study", "IRDropPoint",
    "FaultModel", "ReadNoise", "fragment_read_error",
    "DieFaultDetected", "DieGuard", "FaultEvent", "FaultInjector",
    "InjectedDispatchError", "fragment_sensitivity",
    "rank_engines_by_sensitivity",
    "NonidealEngine",
    "InSituConv2d", "InSituLinear", "build_insitu_network",
    "total_cycles_fed",
]
