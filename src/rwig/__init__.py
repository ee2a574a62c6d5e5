"""Exact and generative engine for walker-induced temporal contact graphs.

Independent random walkers traverse a Markov graph in discrete time;
walkers sharing a state form a clique of the contact graph.  This package
computes exact probability distributions over those graphs, samples
contact-graph sequences, analyzes empirical co-location data against the
clique-union structure, and benchmarks the closed-form evaluation against
its combinatorial oracle.
"""

from .combinatorics import (
    IntegerPartition,
    SetPartition,
    bell,
    contact_graph_count,
    expansion_weight,
    integer_partitions,
    multiplicity,
    set_partitions,
    stirling2,
)
from .contact_graph import (
    ContactGraph,
    UnlabelledContactGraph,
    any_labelling,
    amass,
    default_labels,
    enumerate_graphs,
    from_assignment,
    to_unlabelled,
)
from .markov import (
    StateVector,
    SteadyStateError,
    TransitionMatrix,
    WalkerEnsemble,
    propagate,
    steady_state,
    uniform_policy,
    validate_policy,
)
from .pmf import (
    GraphDistribution,
    ProbabilityError,
    full_distribution,
    labelled_steady_state_pmf,
    pmf_bruteforce,
    pmf_closed_form,
    sigma,
    sigma_expansion_terms,
    unlabelled_steady_state_distribution,
    unlabelled_steady_state_pmf,
    unlabelled_steady_state_pmf_bruteforce,
)
from .simulate import (
    ContactSequence,
    clique_count_distribution,
    clique_size_distribution,
    empirical_distribution,
    sample_sequence,
)
from .ingest import (
    CliqueUnionViolation,
    ColocationParseError,
    SnapshotRecord,
    dataset_distributions,
    parse_colocation,
    snapshot_graphs,
    validate_clique_union,
)

__version__ = "0.1.0"

__all__ = [
    "IntegerPartition",
    "SetPartition",
    "bell",
    "contact_graph_count",
    "expansion_weight",
    "integer_partitions",
    "multiplicity",
    "set_partitions",
    "stirling2",
    "ContactGraph",
    "UnlabelledContactGraph",
    "any_labelling",
    "amass",
    "default_labels",
    "enumerate_graphs",
    "from_assignment",
    "to_unlabelled",
    "StateVector",
    "SteadyStateError",
    "TransitionMatrix",
    "WalkerEnsemble",
    "propagate",
    "steady_state",
    "uniform_policy",
    "validate_policy",
    "GraphDistribution",
    "ProbabilityError",
    "full_distribution",
    "labelled_steady_state_pmf",
    "pmf_bruteforce",
    "pmf_closed_form",
    "sigma",
    "sigma_expansion_terms",
    "unlabelled_steady_state_distribution",
    "unlabelled_steady_state_pmf",
    "unlabelled_steady_state_pmf_bruteforce",
    "ContactSequence",
    "clique_count_distribution",
    "clique_size_distribution",
    "empirical_distribution",
    "sample_sequence",
    "CliqueUnionViolation",
    "ColocationParseError",
    "SnapshotRecord",
    "dataset_distributions",
    "parse_colocation",
    "snapshot_graphs",
    "validate_clique_union",
]
