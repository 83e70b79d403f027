"""Unsupervised concept-drift prediction and detection for streaming bipartite graphs.

Two complementary detectors over one streaming-record model:

- the predictor watches the burst-size time-series and signals upcoming
  drifts without ever reading record payloads;
- the detector projects each burst window's young butterflies onto a graph
  of coupled phase oscillators and signals when the phase structure is
  steady while its predicted changes show an extremum.

A drift-injectable synthetic stream generator and a ground-truth
evaluation harness round out the package; the ``sgdrift`` CLI wires them
into reproducible pipelines.
"""

__version__ = "0.1.0"

from .butterfly import BipartiteWindow, ButterflyKey, enumerate_young, young_timestamps
from .genstream import (DriftSchedule, GeneratorConfig, GroundTruth, generate,
                        generate_to_files)
from .harness import DeterminismError, EvalReport, distances, repeated_timing
from .sgdd import SgddConfig, SgddState, cdc_butterfly, run_sgdd, sgdd_step
from .sgdp import (SgdpConfig, SgdpState, cds_bursts, run_sgdp, sgdp_step,
                   suffix_size)
from .signals import DriftSignal
from .stream_model import SGR, BurstProfile, SgrParseError, ingest, parse_sgr
from .uwgo import (OscillatorGraph, assign_phases, butterfly_ident,
                   order_parameter, project, rk4_step)

__all__ = [
    "__version__",
    "SGR", "BurstProfile", "SgrParseError", "ingest", "parse_sgr",
    "BipartiteWindow", "ButterflyKey", "enumerate_young", "young_timestamps",
    "OscillatorGraph", "assign_phases", "butterfly_ident",
    "order_parameter", "project", "rk4_step",
    "DriftSignal",
    "SgdpConfig", "SgdpState", "cds_bursts", "run_sgdp", "sgdp_step", "suffix_size",
    "SgddConfig", "SgddState", "cdc_butterfly", "run_sgdd", "sgdd_step",
    "GeneratorConfig", "DriftSchedule", "GroundTruth", "generate",
    "generate_to_files",
    "DeterminismError", "EvalReport", "distances", "repeated_timing",
]
