"""Gate-heralded quantum relay chains over lossy single-photon links.

The package layers are, bottom up:

- fockspace: sparse multimode Fock states and linear-optics transforms.
- circuit: the heralded nondestructive photon-presence device built from a
  polarizing beam splitter, an entangled ancilla pair, and two detector
  packages, applied through its four cached Kraus operators
  (device_operators); it supplies the relay efficiency eta through
  measured_relay_efficiency.
- analytics: the chain configuration and its one (eta, p_dark) validator,
  first-order SNR/QBER expressions, the exact chain's closed form, one
  binomial at the optimal placement (snr_exact), the relay placement, which
  is exactly optimal, range enhancement, raw rates.
- chain: the exact receiver statistics at any positions through the closed
  form, a numeric placement search, and a seeded Monte Carlo cross-check
  that draws the slot count of each event. A relay gates a photon with
  probability eta and false-gates every live slot with probability
  2 p_dark, launching a spurious photon; the rest is vetoed.
- throughput: BB84 key fraction and throughput sweeps; the cutoff range
  inverts the binomial.
- reports: deterministic CSV/JSON tables, rendered as text.
- cli: the `qrelay` command.

Every module runs on the standard library alone; the Monte Carlo sampler
draws its binomials from random.Random. Every layer loads on first access to
one of its names, and each command imports only its own layers: the sweeps
never load the device or the sampler, and verify-circuit never loads chain
or throughput.
"""

__version__ = "0.1.0"

import importlib

# Every public name loads its module on first access, so a process imports
# only the layers it uses: `import qrelay` loads none of them
_LAZY = {
    **dict.fromkeys((
        "ChainConfig", "RangeEnhancement", "noise_single_relay",
        "optimal_position_single", "optimal_positions", "qber_from_snr",
        "range_enhancement", "raw_rate", "snr_exact", "snr_n_relays",
        "snr_no_relay", "solve_range_alpha_x"), "analytics"),
    **dict.fromkeys((
        "ReceiverReport", "SampledReport", "chain_noise", "log_chain_noise",
        "run_chain", "sample_chain", "search_positions"), "chain"),
    **dict.fromkeys((
        "PackageOutcome", "QndReport", "derive_feed_forward_table",
        "encoder_postselect", "feed_forward_sign",
        "measured_relay_efficiency", "multiphoton_gate_probability",
        "qnd_measure", "vacuum_gate_probability"), "circuit"),
    "ContractViolationError": "errors",
    **dict.fromkeys((
        "BasisMode", "DetectionPattern", "LinearModeTransform", "ModeBasis",
        "PhotonicState", "apply_transform", "basis_rotate_fs",
        "enumerate_outcomes", "fock_state", "identity_transform",
        "make_bell_phi_plus", "make_qubit", "measure_pattern", "pbs_hv",
        "product", "vacuum"), "fockspace"),
    **dict.fromkeys(("CurveReport", "read_csv", "read_json"), "reports"),
    **dict.fromkeys((
        "EcPaParams", "ThroughputPoint", "binary_entropy", "cutoff_alpha_x",
        "key_fraction", "key_fraction_cutoff", "normalized_throughput",
        "snr_cutoff", "throughput_curve"), "throughput"),
}


def __getattr__(name: str):
    if name in _LAZY.values():      # the modules themselves
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__),
                    name)
    globals()[name] = value
    return value


__all__ = ["__version__", *_LAZY]
