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
instead of one per partition.  Every ``GraphDistribution``, labelled or
unlabelled, computed, sampled or built from a dict, keeps such rows for its
whole life: it sorts and writes from them, its clique histograms count the
rows' clique sizes, and two distributions over the same rows are compared as
aligned probability arrays.

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
from types import MappingProxyType
from typing import IO, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .combinatorics import (
    contact_graph_count,
    expansion_weight,
    integer_partitions,
    multiplicity,
    restricted_growth_strings,
    set_partitions,
    subset_expansion,
)
from .contact_graph import (
    _JSON_ROWS, ContactGraph, UnlabelledContactGraph, amass, any_labelling, cell_sizes,
    compact_json, graph_rows, row_graphs, row_json_objs,
)
from .markov import StateVector, WalkerEnsemble

NEGATIVE_DUST = 1e-10

# Most elements one chunk of a batched expansion holds in its working arrays
# (8 MB of floats), so working memory stays fixed however many graphs share a
# clique count.  A chunk holds at least one graph, which needs about eight
# 2^m-wide arrays (the unions, np.unique's work arrays and inverse, sigma, the
# recursion's values) and three as wide as the widest recursion level.
_GATHER_CAP = 1 << 20

# The graph of an entry as ``json.dumps(..., indent=2)`` lays out a list of
# entries: the join pieces of ``compact_json``.
_INDENTED = ("\n      [\n        ", "\n      ],\n      [\n        ", ",\n        ",
             "\n      ]\n    ]")


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


def sigma_expansion_terms(g: ContactGraph) -> Iterator[tuple[int, tuple[frozenset, ...]]]:
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
    weights = [states[[index[w] for w in cell]].prod(axis=0).tolist() for cell in g.cliques.cells]
    if len(weights) > n:
        return 0.0
    return _assignment_sum(weights, n)


class GraphDistribution:
    """An immutable probability map over contact graphs (labelled or unlabelled).

    Its graphs are restricted growth strings, one row per graph, beside an
    array of their probabilities, for its whole life: over the sorted walker
    labels ``_labels``, or, unlabelled, over walkers 1..M with the larger
    cliques first, (3, 2, 1) as [0, 0, 0, 1, 1, 2], and ``_labels`` None.
    A dict's keys must be all ``ContactGraph`` over one walker set or all
    ``UnlabelledContactGraph`` over one walker count; it is converted once,
    in its order, by ``graph_rows`` (through ``any_labelling`` if
    unlabelled), each probability held as a float.  Only reads that return
    graphs build them, by ``contact_graph.row_graphs``: ``argmax`` one,
    ``sorted_items`` each once, and ``entries``, the read-only mapping that
    ``probability`` looks up, each once on first read, in row order.  Writing,
    ``total``, the histograms and ``max_deviation`` over equal rows read the arrays.
    """

    def __init__(
        self, entries: dict, time: int | None = None, ensemble: WalkerEnsemble | None = None
    ):
        keys = list(entries)
        kinds = {type(key) for key in keys}
        unlabelled = kinds == {UnlabelledContactGraph}
        if not (unlabelled or kinds <= {ContactGraph}):
            names = ", ".join(sorted(kind.__name__ for kind in kinds))
            raise ValueError(
                f"keys must be all ContactGraph or all UnlabelledContactGraph, not {names}"
            )
        walkers = (range(1, u.n_walkers + 1) for u in keys)
        rows, labels = graph_rows(map(any_labelling, keys, walkers) if unlabelled else keys)
        absent = np.argwhere(rows < 0)
        if absent.size:
            g, w = absent[0].tolist()
            raise ValueError(
                f"graph {keys[g].to_json_obj()} lacks walker {labels[w]!r}: "
                "every graph of a distribution must partition the same walkers"
            )
        self._rows, self._labels = rows, None if unlabelled else labels
        self._probs = np.array(list(entries.values()), float)
        self.time, self.ensemble = time, ensemble

    @classmethod
    def _of_rows(
        cls, rows: np.ndarray, probs: np.ndarray, labels: tuple[Hashable, ...],
        time: int | None, ensemble: WalkerEnsemble | None,
    ) -> "GraphDistribution":
        dist = cls({}, time=time, ensemble=ensemble)
        dist._rows, dist._probs, dist._labels = rows, probs, labels
        return dist

    @functools.cached_property
    def entries(self) -> Mapping:
        graphs = row_graphs(self._rows, self._labels)
        return MappingProxyType(dict(zip(graphs, self._probs.tolist())))

    def total(self) -> float:
        return math.fsum(self._probs.tolist())

    def probability(self, key) -> float:
        return self.entries.get(key, 0.0)

    def argmax(self):
        """The graph of the first most probable row; ValueError if there is none."""
        i = int(np.argmax(self._probs))
        return row_graphs(self._rows[i : i + 1], self._labels)[0]

    def sorted_items(self) -> list:
        """Entries by descending probability, ties as ``_row_order`` breaks them."""
        order = self._row_order()
        return list(zip(row_graphs(self._rows[order], self._labels), self._probs[order].tolist()))

    def to_json_obj(self) -> list[dict]:
        """``{"graph", "p"}`` per entry in ``sorted_items`` order, read from the rows."""
        order = self._row_order()
        graphs = row_json_objs(self._rows[order], self._labels)
        return [{"graph": g, "p": p} for g, p in zip(graphs, self._probs[order].tolist())]

    def _row_order(self) -> np.ndarray:
        """Row indices by descending probability, ties in canonical graph
        order: one ``np.lexsort`` on (-p, clique count, cells key).  The
        cells key lists each cell's positions in the sorted labels, each
        cell followed by a terminator below every position, so a cell that
        is a prefix of another sorts first, as in ``ContactGraph.sort_key``.
        Unlabelled rows leave the clique count out: their cells key orders
        them as their clique sizes, largest first, compare.
        """
        rows = self._rows
        n_graphs, width = rows.shape
        counts = rows.max(axis=1, initial=0).astype(np.intp) + 1
        positions = np.argsort(rows, axis=1, kind="stable")
        # Each position lands after one terminator per cell before its own.
        slots = np.arange(width) + np.take_along_axis(rows, positions, axis=1)
        key = np.full((n_graphs, width + counts.max(initial=0)), -1, np.min_scalar_type(~width))
        np.put_along_axis(key, slots, positions, axis=1)
        count = () if self._labels is None else (counts,)
        return np.lexsort((*key.T[::-1], *count, -self._probs))

    def write_json(self, fh: IO[str]) -> None:
        """Write ``json.dumps(self.to_json_obj(), indent=2)`` and a newline.

        Unlabelled and empty distributions are written by the json module.
        Labelled rows are taken in ``_row_order``, each graph formatted by
        ``compact_json`` in the ``_INDENTED`` layout and each probability by
        ``float.__repr__``, as the json module does, and written
        ``_JSON_ROWS`` entries at a time.
        """
        if self._labels is None or not len(self._rows):
            fh.write(json.dumps(self.to_json_obj(), indent=2) + "\n")
            return
        order = self._row_order()
        rows, probs = self._rows[order], self._probs[order]
        entry = '  {{\n    "graph": {},\n    "p": {}\n  }}'.format
        separator = "[\n"
        for lo in range(0, len(rows), _JSON_ROWS):
            graphs = compact_json(rows[lo : lo + _JSON_ROWS], self._labels, _INDENTED)
            texts = map(entry, graphs, map(repr, probs[lo : lo + _JSON_ROWS].tolist()))
            fh.write(separator + ",\n".join(texts))
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
    if method == "bruteforce":
        for row, g in enumerate(row_graphs(rows, ordered)):
            probs[row] = pmf_bruteforce(g, ensemble, k, _states=states)
    else:
        walkers = [ensemble.index[w] for w in ordered]
        top = rows.max(axis=1)  # clique count - 1
        cache: dict = {}
        for c in np.unique(top).tolist():
            at = np.flatnonzero(top == c)
            masks = _walker_masks(rows[at], walkers, c + 1, _mask_dtype(m))
            probs[at] = _closed_form_batch(
                masks, states, cache, lambda i: next(row_json_objs(rows[at[i : i + 1]], ordered))
            )
    return GraphDistribution._of_rows(rows, probs, ordered, k, ensemble)


# --- steady state -----------------------------------------------------------


def labelled_steady_state_pmf(clique_sizes: Iterable[int], s_tilde: StateVector) -> float:
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
            placed[lead + (slice(1, None),)] += before[lead + (slice(None, -1),)] * power[i]
    total = float(placed[tuple(counts)]) * math.prod(math.factorial(c) for c in counts)
    return _clamp(total, lambda: f"steady-state probability of clique sizes {sizes}")


def unlabelled_steady_state_pmf(u: UnlabelledContactGraph, s_tilde: StateVector) -> float:
    """Steady-state probability of an unlabelled contact graph.

    The labelled probability of one representative, scaled by the number of
    labelled graphs sharing the size multiset.
    ``unlabelled_steady_state_pmf_bruteforce`` is its oracle.
    """
    if u.n_cliques > s_tilde.n_states:
        raise ValueError(f"{u.n_cliques} cliques cannot occupy {s_tilde.n_states} states")
    p = multiplicity(u.clique_sizes) * labelled_steady_state_pmf(u.clique_sizes.parts, s_tilde)
    return _clamp(p, lambda: f"unlabelled steady-state probability of {u.to_json_obj()}")


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


def max_deviation(a: GraphDistribution, b: GraphDistribution) -> float:
    """Largest absolute difference of two distributions over all their graphs.

    A graph missing from one side counts as 0 there.  Two sides that hold
    the same rows over the same labels are compared as aligned probability
    arrays, without building any graph.
    """
    if a._labels == b._labels and np.array_equal(a._rows, b._rows):
        return float(np.abs(a._probs - b._probs).max(initial=0.0))
    keys = a.entries.keys() | b.entries.keys()
    return max((abs(a.probability(k) - b.probability(k)) for k in keys), default=0.0)


def tally_histogram(
    values: Sequence[int], empty: str, weights: Sequence[float] | None = None
) -> dict[int, float]:
    """Each value that occurs in ``values`` (non-negative integers), in
    ascending order, and its share of the total weight.

    ``np.bincount`` sums each value's weights (1 each without ``weights``) in
    input order, as adding them one at a time would; a value whose weights
    sum to exactly 0.0 keeps its entry.  The total is the ``math.fsum`` of
    the sums; a total of 0 raises ValueError "empty histogram: ``empty``".
    """
    values = np.asarray(values, np.intp)
    seen = np.flatnonzero(np.bincount(values))
    sums = np.bincount(values, weights)[seen].tolist()
    total = math.fsum(sums)
    if total == 0.0:
        raise ValueError(f"empty histogram: {empty}")
    return {value: w / total for value, w in zip(seen.tolist(), sums)}


def clique_size_histogram(
    sizes: np.ndarray, weights: np.ndarray | None = None, min_size: int = 2
) -> dict[int, float]:
    """Probability of observing a clique of each size, from the sizes of
    each realisation's cliques (``contact_graph.cell_sizes``: 0 past its
    last) and their weights (1 each without ``weights``), exact or sampled.
    Sizes below ``min_size`` are dropped; the rest are taken row by row.
    """
    if min_size < 1:
        raise ValueError("min_size must be positive")
    kept = sizes >= min_size
    if weights is not None:
        weights = np.broadcast_to(np.asarray(weights, float)[:, None], sizes.shape)[kept]
    return tally_histogram(sizes[kept], "no cliques at or above min_size", weights)


def clique_count_histogram(
    sizes: np.ndarray, weights: np.ndarray | None = None, include_singletons: bool = True
) -> dict[int, float]:
    """Distribution of the number of cliques per realisation, over the
    ``sizes`` and ``weights`` that ``clique_size_histogram`` takes."""
    counts = np.count_nonzero(sizes >= (1 if include_singletons else 2), axis=1)
    return tally_histogram(counts, "no realisations", weights)


def distribution_clique_size_histogram(
    dist: GraphDistribution, min_size: int = 2
) -> dict[int, float]:
    """Clique-size histogram of ``dist``, each graph weighted by its probability."""
    return clique_size_histogram(cell_sizes(dist._rows), dist._probs, min_size)


def distribution_clique_count_histogram(
    dist: GraphDistribution, include_singletons: bool = True
) -> dict[int, float]:
    """Clique-count histogram of ``dist``, each graph weighted by its probability."""
    return clique_count_histogram(cell_sizes(dist._rows), dist._probs, include_singletons)
