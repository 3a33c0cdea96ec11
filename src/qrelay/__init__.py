"""Gate-heralded quantum relay chains over lossy single-photon links.

The package layers are, bottom up:

- fockspace: sparse multimode Fock states and linear-optics transforms.
- circuit: the heralded nondestructive photon-presence device built from a
  polarizing beam splitter, an entangled ancilla pair, and two detector
  packages; it supplies the relay efficiency eta through
  measured_relay_efficiency.
- analytics: the chain configuration and its one (eta, p_dark) validator,
  first-order SNR/QBER expressions, the exact chain's closed form and its
  SNR at the optimal placement (snr_exact), the relay placement, which is
  exactly optimal, range enhancement, raw rates.
- chain: the per-slot step maps through fiber segments and relay stations
  (the relay map is apply_relay) composed into the reference propagation,
  the exact receiver statistics at any positions through the closed form,
  a numeric placement search, and a seeded Monte Carlo cross-check.
- throughput: BB84 secure-key fraction and throughput sweeps.
- reports: deterministic CSV/JSON tables.
- cli: the `qrelay` command.
"""

__version__ = "0.1.0"

from .analytics import (ChainConfig, RangeEnhancement, noise_single_relay,
                        optimal_position_single, optimal_positions,
                        qber_from_snr, range_enhancement, raw_rate,
                        snr_exact, snr_n_relays, snr_no_relay,
                        solve_range_alpha_x)
from .chain import (ChannelEventState, ReceiverReport, SampledReport,
                    apply_relay, chain_noise, initial_state, propagate_chain,
                    propagate_segment, receiver_detect, run_chain,
                    sample_chain, search_positions)
from .circuit import (PackageOutcome, QndReport, derive_feed_forward_table,
                      encoder_postselect, feed_forward_sign,
                      measured_relay_efficiency, multiphoton_gate_probability,
                      qnd_measure, vacuum_gate_probability)
from .errors import ContractViolationError
from .fockspace import (BasisMode, DetectionPattern, LinearModeTransform,
                        ModeBasis, PhotonicState, apply_transform,
                        basis_rotate_fs, enumerate_outcomes, fock_state,
                        identity_transform, make_bell_phi_plus, make_qubit,
                        measure_pattern, pbs_hv, product, vacuum)
from .reports import CurveReport, read_csv, read_json, write_csv, write_json
from .throughput import (EcPaParams, ThroughputPoint, binary_entropy,
                         cutoff_alpha_x, key_fraction, key_fraction_cutoff,
                         normalized_throughput, snr_cutoff, throughput_curve)

__all__ = [
    "__version__",
    "BasisMode", "ModeBasis", "PhotonicState", "LinearModeTransform",
    "DetectionPattern", "vacuum", "fock_state", "make_qubit",
    "make_bell_phi_plus", "product", "apply_transform", "identity_transform",
    "pbs_hv", "basis_rotate_fs", "measure_pattern", "enumerate_outcomes",
    "PackageOutcome", "QndReport", "qnd_measure",
    "encoder_postselect", "feed_forward_sign", "derive_feed_forward_table",
    "vacuum_gate_probability", "multiphoton_gate_probability",
    "measured_relay_efficiency",
    "ChannelEventState", "ReceiverReport", "SampledReport", "initial_state",
    "propagate_segment", "apply_relay", "receiver_detect", "propagate_chain",
    "run_chain", "chain_noise", "search_positions", "sample_chain",
    "ChainConfig", "RangeEnhancement", "qber_from_snr",
    "snr_no_relay", "snr_n_relays", "snr_exact", "noise_single_relay",
    "optimal_position_single", "optimal_positions", "solve_range_alpha_x",
    "range_enhancement", "raw_rate",
    "EcPaParams", "ThroughputPoint", "binary_entropy", "key_fraction",
    "key_fraction_cutoff", "snr_cutoff", "normalized_throughput",
    "throughput_curve", "cutoff_alpha_x",
    "CurveReport", "write_csv", "read_csv", "write_json", "read_json",
    "ContractViolationError",
]
