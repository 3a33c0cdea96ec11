"""Gate-heralded quantum relay chains over lossy single-photon links.

The package layers are, bottom up:

- errors: the contract-violation error and the two input rules, check_int
  for integers and check_real for reals, each with one message form
  (`p_dark must be a number in [0, 0.5), got 0.5`).
- fockspace: sparse multimode Fock states, linear-optics transforms, and
  the one photon-count projection, enumerate_outcomes, whose patterns are
  {BasisMode: count} dicts.
- circuit: the heralded nondestructive photon-presence device built from a
  polarizing beam splitter, an entangled ancilla pair, and two detector
  packages, applied through its four cached Kraus operators
  (device_operators); gate_probability(1) gives its pass probability 1/2,
  the eta that the chain layer's defaults hand-enter.
- analytics: the chain configuration (five fields; relay positions are an
  argument of the chain functions, not a field), its one (eta, p_dark)
  validator, first-order SNR/QBER expressions (S_0 is their N = 0 point),
  the exact chain's closed form at any segments, one binomial at the optimal
  placement (snr_exact), and its inverse at a target SNR, the placement, which
  is exactly optimal, range enhancement, raw rates.
- chain: the exact receiver statistics at any positions from analytics'
  closed form, in one record that also carries ln p_s and ln p_n, a numeric
  placement search, and a seeded Monte Carlo cross-check that draws the
  slot count of each event. A relay gates a photon with
  probability eta and false-gates every live slot with probability
  2 p_dark, launching a spurious photon; the rest is vetoed.
- throughput: the single-photon BB84 key fraction and throughput sweeps;
  each function takes its one parameter, f_ec, as a number (default 1.16)
  and checks it. The cutoff range is analytics' inverse.
- reports: deterministic CSV/JSON tables, rendered as text and never read.
- cli: the `qrelay` command.

A name is public only if a command, a paper result of the acceptance tests
or the README uses it; the test-only references (a one-pattern projection,
state overlaps, number states, report readers) live in tests/oracles.py.

Every module runs on the standard library alone; the Monte Carlo sampler
draws its binomials from random.Random. Every layer loads on first access to
one of its names, and each command imports only its own layers: the sweeps
never load the device or the sampler, and verify-circuit never loads
analytics, chain or throughput.
"""

__version__ = "0.1.0"

import importlib

# Every public name loads its module on first access, so a process imports
# only the layers it uses: `import qrelay` loads none of them
_LAZY = {
    **dict.fromkeys((
        "ChainConfig", "RangeEnhancement", "noise_single_relay",
        "optimal_positions", "qber_from_snr", "range_enhancement",
        "raw_rate", "snr_exact", "snr_n_relays", "solve_range_alpha_x"),
        "analytics"),
    **dict.fromkeys((
        "ReceiverReport", "SampledReport", "run_chain", "sample_chain",
        "search_positions"), "chain"),
    **dict.fromkeys((
        "PackageOutcome", "QndReport", "derive_feed_forward_table",
        "encoder_postselect", "gate_probability", "qnd_measure"), "circuit"),
    "ContractViolationError": "errors",
    **dict.fromkeys((
        "BasisMode", "LinearModeTransform", "ModeBasis", "PhotonicState",
        "apply_transform", "basis_rotate_fs", "enumerate_outcomes",
        "make_bell_phi_plus", "make_qubit", "pbs_hv", "product"), "fockspace"),
    **dict.fromkeys((
        "ThroughputPoint", "binary_entropy", "cutoff_alpha_x", "key_fraction",
        "key_fraction_cutoff", "snr_cutoff", "throughput_curve"),
        "throughput"),
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
