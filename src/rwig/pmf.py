"""Exact contact-graph probabilities.

Two independent evaluation routes are kept side by side:

* a closed form that expands a graph's probability into a signed sum of
  co-location (sigma) products over all partitions of its cliques, and
* a combinatorial brute force that sums over every ordered assignment of
  cliques to distinct states.

The brute force is the oracle; it is slower by design and must never be
"optimized" into the closed form.  ``full_distribution`` enumerates graphs
once, as blocks of restricted growth strings
(``combinatorics.restricted_growth_strings``), for either route.  The brute
force evaluates each row through the ``ContactGraph`` it describes.  The
closed form never builds a graph object: it takes each graph's clique
walker masks from its row and evaluates batches of graphs with the same
clique count m.  The walker sets of every subset of each graph's cliques
come from one integer product, sigma is computed once per distinct walker
set in one numpy product and cached across batches, and the sum over
partitions is evaluated as a recursion over subsets of cliques
(``combinatorics.subset_expansion(m)``), about 3^(m-1)/2 terms per graph
instead of one per partition.  Either way the resulting distribution keeps
the rows: it sorts and writes from them, and two such distributions are
compared as aligned probability arrays.

In the steady state a graph's probability depends only on its clique sizes
and is a sum of non-negative occupancy terms (the monomial symmetric
polynomial of the stationary vector), so it is evaluated by a dynamic
program over states without the signed expansion and its cancellation.  A
brute force over state assignments is its oracle.

No route checks itself: callers compare a distribution with its oracle's
through ``max_deviation``.
"""

from __future__ import annotations

import functools
import json
import math
from typing import IO, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .combinatorics import (
    contact_graph_count,
    expansion_weight,
    integer_partitions,
    multiplicity,
    restricted_growth_strings,
    rgs_partition,
    set_partitions,
    subset_expansion,
)
from .contact_graph import ContactGraph, UnlabelledContactGraph, amass
from .markov import StateVector, WalkerEnsemble

NEGATIVE_DUST = 1e-10

# Most elements one chunk of a batched expansion holds in its working arrays
# (8 MB of floats), so working memory stays fixed however many graphs share a
# clique count.  A chunk holds at least one graph, which needs about eight
# 2^m-wide arrays (the unions, np.unique's work arrays and inverse, sigma, the
# recursion's values) and three as wide as the widest recursion level.
_GATHER_CAP = 1 << 20

# Entries one step of writing a distribution formats at a time.
_WRITE_ROWS = 4096


class ProbabilityError(RuntimeError):
    """A computed probability left [0, 1] by more than numerical dust."""


def _clamp(p: float, what: Callable[[], str]) -> float:
    """Clamp numerical dust into [0, 1]; ``what()`` names p if it is worse."""
    if p < 0.0:
        if p < -NEGATIVE_DUST:
            raise ProbabilityError(f"{what()} evaluated to {p!r}, well below zero")
        return 0.0
    if p > 1.0:
        if p > 1.0 + NEGATIVE_DUST:
            raise ProbabilityError(f"{what()} evaluated to {p!r}, well above one")
        return 1.0
    return p


def sigma(subset: Iterable[Hashable], ensemble: WalkerEnsemble, k: int) -> float:
    """Probability that all walkers in ``subset`` share a state at time k.

    The entrywise product of the walkers' k-step distributions, summed over
    states.  Singletons give exactly 1.
    """
    rows = [ensemble.index[w] for w in subset]
    if not rows:
        raise ValueError("sigma of an empty walker subset is undefined")
    states = ensemble.state_matrix(k)
    return float(states[rows].prod(axis=0).sum())


def sigma_expansion_terms(
    g: ContactGraph,
) -> Iterator[tuple[int, tuple[frozenset, ...]]]:
    """Symbolic expansion of a graph probability into sigma products.

    Yields one (weight, amassed cliques) pair per partition of g's cliques:
    the integer weight is the product of cell weights and each amassed
    clique is the union of the cliques grouped into one cell.  Summing
    weight * prod(sigma(amassed)) over all terms gives the probability.
    """
    for pi in set_partitions(range(g.n_cliques)):
        yield expansion_weight(pi), tuple(map(frozenset, amass(g, pi).cliques.cells))


def _assignment_sum(weights: list[list[float]], n_states: int) -> float:
    """Sum over ordered tuples of distinct states of prod_c weights[c][i_c].

    The oracles' direct enumeration; no fast path may call it.
    """
    m = len(weights)

    def assign(c: int, used: int, partial: float) -> float:
        if c == m:
            return partial
        row = weights[c]
        subtotal = 0.0
        for i in range(n_states):
            if used >> i & 1:
                continue
            w = row[i]
            if w == 0.0:
                continue
            subtotal += assign(c + 1, used | (1 << i), partial * w)
        return subtotal

    return assign(0, 0, 1.0)


def _check_graph(g: ContactGraph, ensemble: WalkerEnsemble) -> None:
    if g.walkers != frozenset(ensemble.labels):
        raise ValueError("graph does not partition the ensemble's walker set")


def _mask_dtype(n_walkers: int):
    # A walker mask has a bit per walker; int64 holds 63 of them.
    return np.int64 if n_walkers < 64 else object


def _sigmas(masks: list[int], states: np.ndarray) -> np.ndarray:
    """Sigma of each walker mask (bit i for walker i), all in one product.

    Walkers outside a mask contribute a factor 1.0, so each value is the
    product of its walkers' rows summed over states, as ``sigma`` computes it.
    """
    walkers = np.arange(states.shape[0]).astype(_mask_dtype(states.shape[0]))
    step = max(1, _GATHER_CAP // states.size)
    chunks = []
    for lo in range(0, len(masks), step):
        block = np.array(masks[lo : lo + step], dtype=walkers.dtype)
        member = (block[:, None] >> walkers & 1).astype(bool)
        chunks.append(np.where(member[:, :, None], states, 1.0).prod(axis=1).sum(axis=1))
    return np.concatenate(chunks)


def _walker_masks(rows: np.ndarray, walkers: Sequence[int], m: int, dtype) -> np.ndarray:
    """(G, m) clique masks of restricted growth strings with m blocks.

    Clique c of row g holds the positions i with ``rows[g, i] == c``, and
    position i is walker ``walkers[i]`` (bit ``walkers[i]`` of the mask).
    """
    bits = np.array([1 << w for w in walkers], dtype=dtype)
    masks = np.empty((len(rows), m), dtype=dtype)
    for c in range(m):
        masks[:, c] = np.where(rows == c, bits, 0).sum(axis=1)
    return masks


def _closed_form_batch(
    masks: np.ndarray,
    states: np.ndarray,
    cache: dict,
    describe: Callable[[int], list],
) -> np.ndarray:
    """Closed-form probabilities of graphs that all have the same m cliques.

    ``masks[g, c]`` is the walker mask of clique c of graph g (bit i for
    walker i).  Per chunk of graphs, ``unions[g, s]`` is the walker mask of
    the cliques in subset s (bit i for clique i) of graph g; cliques are
    disjoint, so it is one integer product of the clique masks with the
    subset bits.  Sigma is computed once per distinct mask missing from
    ``cache`` (walker mask -> sigma; mask 0, the empty subset, reads 1) and
    the expansion is the recursion ``subset_expansion(m)`` over the (G, 2^m)
    sigma array.  ``describe(g)`` names graph g if its value is out of range.
    """
    n_graphs, m = masks.shape
    bits = (np.arange(2**m) >> np.arange(m)[:, None] & 1).astype(masks.dtype)
    levels = subset_expansion(m)
    step = max(1, _GATHER_CAP // (8 * 2**m + 3 * max(len(level[1]) for level in levels)))
    probs = np.empty(n_graphs)
    for lo in range(0, n_graphs, step):
        unions = masks[lo : lo + step] @ bits
        distinct, inverse = np.unique(unions, return_inverse=True)
        keys = distinct.tolist()[1:]  # distinct[0] is mask 0
        new = [u for u in keys if u not in cache]
        if new:
            cache.update(zip(new, _sigmas(new, states).tolist()))
        sig = np.array([1.0] + [cache[u] for u in keys])[inverse].reshape(unions.shape)
        expansion = np.empty_like(sig)
        expansion[:, 0] = 1.0
        for subsets, blocks, rests, weights, offsets in levels:
            terms = sig.take(blocks, axis=1) * expansion.take(rests, axis=1)
            terms *= weights
            # Each row is summed on its own, so a graph's value does not
            # depend on the chunk size.
            expansion[:, subsets] = np.add.reduceat(terms, offsets, axis=1)
        probs[lo : lo + step] = expansion[:, -1]
    bad = np.flatnonzero((probs < -NEGATIVE_DUST) | (probs > 1.0 + NEGATIVE_DUST))
    if bad.size:
        i = bad[0]
        _clamp(float(probs[i]), lambda: f"closed-form probability of {describe(i)}")
    return np.clip(probs, 0.0, 1.0, out=probs)


def pmf_closed_form(
    g: ContactGraph,
    ensemble: WalkerEnsemble,
    k: int,
    *,
    _states: np.ndarray | None = None,
    _sigma_cache: dict | None = None,
) -> float:
    """Probability of contact graph ``g`` at time k, by sigma expansion.

    Graphs with more cliques than states have probability 0 and are not
    evaluated.  ``_states`` and ``_sigma_cache`` (walker mask -> sigma) let
    a caller evaluating many graphs at one time step share propagation work
    and sigma terms.
    """
    _check_graph(g, ensemble)
    if g.n_cliques > ensemble.n_states:
        return 0.0
    states = ensemble.state_matrix(k) if _states is None else _states
    cache = {} if _sigma_cache is None else _sigma_cache
    index = ensemble.index
    masks = np.array(
        [[sum(1 << index[w] for w in cell) for cell in g.cliques.cells]],
        dtype=_mask_dtype(ensemble.n_walkers),
    )
    return float(_closed_form_batch(masks, states, cache, lambda _: g.to_json_obj())[0])


def pmf_bruteforce(
    g: ContactGraph,
    ensemble: WalkerEnsemble,
    k: int,
    *,
    _states: np.ndarray | None = None,
) -> float:
    """Probability of ``g`` by direct summation over state assignments.

    Sums, over every ordered tuple of m distinct states, the product over
    cliques of the walkers' probabilities of sitting in the clique's state.
    Independent of the sigma expansion; kept as the oracle for it.
    """
    _check_graph(g, ensemble)
    states = ensemble.state_matrix(k) if _states is None else _states
    n = ensemble.n_states
    index = ensemble.index
    # weight[c][i]: probability that all walkers of clique c are in state i.
    weights = [
        states[[index[w] for w in cell]].prod(axis=0).tolist()
        for cell in g.cliques.cells
    ]
    if len(weights) > n:
        return 0.0
    return _assignment_sum(weights, n)


class GraphDistribution:
    """A probability map over contact graphs (labelled or unlabelled).

    ``entries`` maps each graph to its probability.  A distribution from
    ``full_distribution`` (either method) holds its graphs as restricted
    growth strings over the sorted walker labels instead, one row per graph
    in ``set_partitions`` order, beside an array of their probabilities.  It
    builds ``entries`` on first read, in that order, and from then on keeps
    only the dict, so a caller's edits show in everything derived from it.
    Until then ``write_json`` sorts and formats from the arrays and
    ``max_deviation`` compares them, without building any ``ContactGraph``.
    """

    def __init__(
        self, entries: dict, time: int | None = None, ensemble: WalkerEnsemble | None = None
    ):
        self._entries = entries
        self.time = time
        self.ensemble = ensemble
        self._rows = self._probs = self._labels = None

    @property
    def entries(self) -> dict:
        if self._entries is None:
            labels = self._labels
            graphs = (ContactGraph(rgs_partition(r, labels)) for r in self._rows.tolist())
            self._entries = dict(zip(graphs, self._probs.tolist()))
            self._rows = self._probs = self._labels = None
        return self._entries

    def total(self) -> float:
        return math.fsum(self.entries.values())

    def probability(self, key) -> float:
        return self.entries.get(key, 0.0)

    def argmax(self):
        return max(self.entries, key=lambda g: self.entries[g])

    def sorted_items(self) -> list:
        """Entries by descending probability, ties in canonical graph order."""

        def tie_break(key):
            if isinstance(key, ContactGraph):
                return key.sort_key()
            return key.clique_sizes.parts

        return sorted(self.entries.items(), key=lambda kv: (-kv[1], tie_break(kv[0])))

    def to_json_obj(self) -> list[dict]:
        return [
            {"graph": key.to_json_obj(), "p": p} for key, p in self.sorted_items()
        ]

    def write_json(self, fh: IO[str]) -> None:
        """Write ``json.dumps(self.to_json_obj(), indent=2)`` and a newline.

        A dict is written by the json module.  Rows are streamed
        ``_WRITE_ROWS`` entries at a time, in the order of one ``np.lexsort``
        on (-p, clique count, cells key).  The cells key lists each cell's
        positions in the sorted labels, each cell followed by a terminator
        below every position, so a cell that is a prefix of another sorts
        first, as in ``ContactGraph.sort_key``.  Each distinct clique is
        encoded once and each probability written with ``float.__repr__``,
        as the json module does.
        """
        if self._entries is not None:
            fh.write(json.dumps(self.to_json_obj(), indent=2) + "\n")
            return
        rows, labels = self._rows, self._labels
        n_graphs, width = rows.shape
        counts = rows.max(axis=1).astype(np.intp) + 1
        positions = np.argsort(rows, axis=1, kind="stable")
        # Each position lands after one terminator per cell before its own.
        slots = np.arange(width) + np.take_along_axis(rows, positions, axis=1)
        key = np.full((n_graphs, width + counts.max()), -1, np.min_scalar_type(-width))
        np.put_along_axis(key, slots, positions, axis=1)
        order = np.lexsort((*key.T[::-1], counts, -self._probs))

        @functools.cache
        def clique(mask: int) -> str:
            cell = ",\n".join(
                f"        {json.dumps(w)}" for i, w in enumerate(labels) if mask >> i & 1
            )
            return f"      [\n{cell}\n      ]"

        entry = '  {{\n    "graph": [\n{}\n    ],\n    "p": {}\n  }}'.format
        dtype = _mask_dtype(len(labels))
        separator = "[\n"
        for lo in range(0, n_graphs, _WRITE_ROWS):
            chunk = order[lo : lo + _WRITE_ROWS]
            sizes = counts[chunk].tolist()
            masks = _walker_masks(rows[chunk], range(len(labels)), max(sizes), dtype)
            distinct, inverse = np.unique(masks, return_inverse=True)
            texts = np.array([clique(u) for u in distinct.tolist()], dtype=object)
            cliques = texts[inverse.reshape(masks.shape)].tolist()
            graphs = [",\n".join(g[:m]) for g, m in zip(cliques, sizes)]
            probs = map(float.__repr__, self._probs[chunk].tolist())
            fh.write(separator + ",\n".join(map(entry, graphs, probs)))
            separator = ",\n"
        fh.write("\n]\n")


def full_distribution(
    ensemble: WalkerEnsemble,
    k: int,
    *,
    budget: int = 10**6,
    method: str = "closed_form",
) -> GraphDistribution:
    """Exact distribution over every admissible contact graph at time k.

    Refuses state spaces larger than ``budget`` graphs; for many walkers on
    few states the unlabelled steady-state route is the tractable one.
    The graphs are enumerated once as restricted growth strings over the
    sorted labels, and the distribution holds those rows.  ``method``
    ("closed_form" or "bruteforce", which the benchmark harness times
    against each other) selects only how they are evaluated: the closed
    form in one batch per clique count from their walker masks, the brute
    force one row at a time, through the ``ContactGraph`` it describes.
    """
    m, n = ensemble.n_walkers, ensemble.n_states
    size = contact_graph_count(m, n)
    if size > budget:
        raise ValueError(
            f"state space has {size} graphs, over the budget of {budget}; "
            "consider the unlabelled steady-state distribution instead"
        )
    if method not in ("closed_form", "bruteforce"):
        raise ValueError(f"unknown method {method!r}")
    states = ensemble.state_matrix(k)
    ordered = tuple(sorted(ensemble.labels))
    rows = np.concatenate(list(restricted_growth_strings(m, min(m, n))))
    probs = np.empty(len(rows))

    def graph_at(row: int) -> ContactGraph:
        return ContactGraph(rgs_partition(rows[row].tolist(), ordered))

    if method == "bruteforce":
        for row in range(len(rows)):
            probs[row] = pmf_bruteforce(graph_at(row), ensemble, k, _states=states)
    else:
        walkers = [ensemble.index[w] for w in ordered]
        top = rows.max(axis=1)  # clique count - 1
        cache: dict = {}
        for c in np.unique(top).tolist():
            at = np.flatnonzero(top == c)
            masks = _walker_masks(rows[at], walkers, c + 1, _mask_dtype(m))
            probs[at] = _closed_form_batch(
                masks, states, cache, lambda i: graph_at(at[i]).to_json_obj()
            )
    dist = GraphDistribution(None, time=k, ensemble=ensemble)
    dist._rows, dist._probs, dist._labels = rows, probs, ordered
    return dist


# --- steady state -----------------------------------------------------------


def labelled_steady_state_pmf(
    clique_sizes: Iterable[int], s_tilde: StateVector
) -> float:
    """Steady-state probability of any labelled graph with these clique sizes.

    With every walker on the stationary vector s, a labelled graph's
    probability is the sum over ordered tuples of distinct states of
    prod_j s_(i_j)^(q_j), which equals prod_j c_j! times the monomial
    symmetric polynomial m_q(s), c_j being the number of parts of size j
    (Doubilet 1972; Stanley, EC2 section 7.7).  m_q(s) is evaluated by a
    dynamic program over states keyed by how many parts of each distinct
    size are already placed, each state taking at most one part.  Every
    term is non-negative, so no cancellation occurs and the result carries
    a relative error of a few ulps even where probabilities sit near 1e-13.
    """
    sizes = tuple(sorted((int(q) for q in clique_sizes), reverse=True))
    if not sizes or sizes[-1] < 1:
        raise ValueError("clique sizes must be positive")
    if len(sizes) > s_tilde.n_states:
        return 0.0
    distinct = sorted(set(sizes))
    counts = [sizes.count(q) for q in distinct]
    powers = [s_tilde.probs ** q for q in distinct]
    # placed[k_1, ..., k_d]: sum over the states seen so far of the products
    # with k_j parts of the j-th distinct size placed.
    placed = np.zeros([c + 1 for c in counts])
    placed[(0,) * len(counts)] = 1.0
    for i in range(s_tilde.n_states):
        before = placed.copy()
        for j, power in enumerate(powers):
            lead = (slice(None),) * j
            placed[lead + (slice(1, None),)] += (
                before[lead + (slice(None, -1),)] * power[i]
            )
    total = float(placed[tuple(counts)]) * math.prod(math.factorial(c) for c in counts)
    return _clamp(total, lambda: f"steady-state probability of clique sizes {sizes}")


def unlabelled_steady_state_pmf(
    u: UnlabelledContactGraph, s_tilde: StateVector
) -> float:
    """Steady-state probability of an unlabelled contact graph.

    The labelled probability of one representative, scaled by the number of
    labelled graphs sharing the size multiset.
    ``unlabelled_steady_state_pmf_bruteforce`` is its oracle.
    """
    if u.n_cliques > s_tilde.n_states:
        raise ValueError(
            f"{u.n_cliques} cliques cannot occupy {s_tilde.n_states} states"
        )
    p = multiplicity(u.clique_sizes) * labelled_steady_state_pmf(
        u.clique_sizes.parts, s_tilde
    )
    return _clamp(
        p, lambda: f"unlabelled steady-state probability of {u.to_json_obj()}"
    )


def unlabelled_steady_state_pmf_bruteforce(
    u: UnlabelledContactGraph, s_tilde: StateVector
) -> float:
    """Oracle route for the unlabelled steady-state probability.

    M!/(prod q_i! prod c_j!) times the sum over ordered tuples of distinct
    states of prod_j (s_{i_j})^{q_j}.
    """
    sizes = u.clique_sizes.parts
    n = s_tilde.n_states
    if len(sizes) > n:
        raise ValueError(f"{len(sizes)} cliques cannot occupy {n} states")
    probs = s_tilde.probs
    weights = [(probs ** q).tolist() for q in sizes]
    counts = 1
    for j in set(sizes):
        counts *= math.factorial(sizes.count(j))
    denom = counts
    for q in sizes:
        denom *= math.factorial(q)
    return math.factorial(u.n_walkers) / denom * _assignment_sum(weights, n)


def unlabelled_steady_state_distribution(
    m_walkers: int, s_tilde: StateVector
) -> GraphDistribution:
    """Distribution over all unlabelled graphs with at most N cliques."""
    if m_walkers < 1:
        raise ValueError("m_walkers must be positive")
    entries = {}
    for q in integer_partitions(m_walkers):
        if q.n_parts > s_tilde.n_states:
            continue
        u = UnlabelledContactGraph(q)
        entries[u] = unlabelled_steady_state_pmf(u, s_tilde)
    return GraphDistribution(entries, time=None, ensemble=None)


def _weighted_sizes(dist: GraphDistribution) -> Iterator[tuple[tuple[int, ...], float]]:
    for key, p in dist.entries.items():
        sizes = key.clique_sizes
        yield (sizes if isinstance(key, ContactGraph) else sizes.parts), p


def max_deviation(a: GraphDistribution, b: GraphDistribution) -> float:
    """Largest absolute difference of two distributions over all their graphs.

    A graph missing from one side counts as 0 there.  Two sides that still
    hold the same rows over the same labels are compared as aligned
    probability arrays, without building any graph.
    """
    aligned = a._rows is not None and b._rows is not None and a._labels == b._labels
    if aligned and np.array_equal(a._rows, b._rows):
        return float(np.abs(a._probs - b._probs).max(initial=0.0))
    keys = a.entries.keys() | b.entries.keys()
    return max((abs(a.probability(k) - b.probability(k)) for k in keys), default=0.0)


def clique_size_histogram(
    weighted_sizes: Iterable[tuple[Sequence[int], float]], min_size: int = 2
) -> dict[int, float]:
    """Probability of observing a clique of each size.

    Takes one (clique sizes, weight) pair per realisation, exact or sampled;
    sizes below ``min_size`` are dropped before normalization.
    """
    if min_size < 1:
        raise ValueError("min_size must be positive")
    pooled: dict[int, float] = {}
    for sizes, weight in weighted_sizes:
        for q in sizes:
            if q >= min_size:
                pooled[q] = pooled.get(q, 0.0) + weight
    total = math.fsum(pooled.values())
    if total == 0.0:
        raise ValueError("empty histogram: no cliques at or above min_size")
    return {q: w / total for q, w in sorted(pooled.items())}


def clique_count_histogram(
    weighted_sizes: Iterable[tuple[Sequence[int], float]],
    include_singletons: bool = True,
) -> dict[int, float]:
    """Distribution of the number of cliques per realisation.

    Takes one (clique sizes, weight) pair per realisation, exact or sampled.
    """
    hist: dict[int, float] = {}
    for sizes, weight in weighted_sizes:
        count = len(sizes) if include_singletons else sum(1 for q in sizes if q > 1)
        hist[count] = hist.get(count, 0.0) + weight
    total = math.fsum(hist.values())
    if total == 0.0:
        raise ValueError("empty histogram: no realisations")
    return {c: w / total for c, w in sorted(hist.items())}


def distribution_clique_size_histogram(
    dist: GraphDistribution, min_size: int = 2
) -> dict[int, float]:
    """Clique-size histogram of ``dist``, each graph weighted by its probability."""
    return clique_size_histogram(_weighted_sizes(dist), min_size)


def distribution_clique_count_histogram(
    dist: GraphDistribution, include_singletons: bool = True
) -> dict[int, float]:
    """Clique-count histogram of ``dist``, each graph weighted by its probability."""
    return clique_count_histogram(_weighted_sizes(dist), include_singletons)
