"""Exact and generative engine for walker-induced temporal contact graphs.

Independent random walkers traverse a Markov graph in discrete time;
walkers sharing a state form a clique of the contact graph.  This package
computes exact probability distributions over those graphs, samples
contact-graph sequences, analyzes empirical co-location data against the
clique-union structure, and benchmarks the closed-form evaluation against
its combinatorial oracle.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.  A name is imported on
# first access (PEP 562), so ``import rwig`` and the subcommands load only
# the modules they use.
_MODULE_OF = {
    name: module
    for module, names in {
        "combinatorics": "IntegerPartition SetPartition bell contact_graph_count "
        "expansion_weight integer_partitions multiplicity set_partitions stirling2",
        "contact_graph": "ContactGraph UnlabelledContactGraph any_labelling amass "
        "default_labels enumerate_graphs from_assignment to_unlabelled",
        "markov": "StateVector SteadyStateError TransitionMatrix WalkerEnsemble propagate "
        "steady_state uniform_policy validate_policy",
        "pmf": "GraphDistribution ProbabilityError full_distribution "
        "labelled_steady_state_pmf pmf_bruteforce pmf_closed_form sigma "
        "sigma_expansion_terms unlabelled_steady_state_distribution "
        "unlabelled_steady_state_pmf unlabelled_steady_state_pmf_bruteforce",
        "simulate": "ContactSequence clique_count_distribution clique_size_distribution "
        "empirical_distribution sample_sequence",
        "ingest": "CliqueUnionViolation ColocationParseError SnapshotRecord "
        "dataset_distributions parse_colocation snapshot_graphs validate_clique_union",
    }.items()
    for name in names.split()
}

__all__ = list(_MODULE_OF)


_SUBMODULES = {*_MODULE_OF.values(), "bench", "cli"}


def __getattr__(name: str):
    if name in _SUBMODULES:  # ``import rwig`` once imported every module
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
