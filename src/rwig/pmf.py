"""Exact contact-graph probabilities.

Three routes evaluate a labelled graph:

* a dynamic program over states, the default: a graph's probability is
  the sum, over every way to put its cliques on distinct states, of the
  product of their clique weights w[c, i], the probability that every
  walker of clique c sits in state i (a rectangular permanent), built up
  state by state over subsets of cliques from non-negative terms only;
* the paper's closed form, which expands the probability into a signed sum
  of co-location (sigma) products over all partitions of its cliques; and
* a combinatorial brute force that sums over every ordered assignment of
  cliques to distinct states.

The brute force is the oracle; it is slower by design and must never be
"optimized" into a fast route.  ``full_distribution`` enumerates graphs
once, as blocks of restricted growth strings
(``combinatorics.restricted_growth_strings``), for every route.  The brute
force evaluates each row through the ``ContactGraph`` it describes.  The DP
and the closed form never build a graph object: they evaluate batches of
graphs with the same clique count m from their rows, reading each graph's
w from tables of the walkers' products over subsets of walkers.  The DP
costs at most N m 2^(m-1) multiply-adds per graph, and nothing cancels: on
the benchmark's seed-201 inputs its worst relative error against the brute
force is 6.8e-16.  The closed form gives the sigma of every subset of
cliques as sum_i prod_c w[c, i], the products doubled one clique at a time,
and evaluates the sum over partitions as a recursion over subsets of
cliques (``combinatorics.subset_expansion(m)``), about 3^(m-1)/2 terms per
graph instead of one per partition.  Its accuracy is absolute only, about
1e-15: its signed terms are far larger than small probabilities, which it
can return as 0.  Every ``GraphDistribution``, labelled or unlabelled,
computed, sampled or built from a dict, keeps such rows for its whole life:
it is written through ``contact_graph.json_blocks``, its clique histograms
count the rows' clique sizes, and two distributions over the same rows are
compared as aligned probability arrays.

In the steady state a graph's probability depends only on its clique
sizes.  One dynamic program over states, ``_placements``, evaluates it for
a list of clique-size multisets at once, counting ordered placements of
cliques on distinct states, so every value is a labelled graph's
probability, every term is non-negative and no factorial rescales it.
``labelled_steady_state_pmf`` runs it over the sub-multisets of one
graph's sizes; ``unlabelled_steady_state_distribution`` runs it once over
every partition of at most M walkers with at most N parts and writes the
partitions of M straight to rows.  On N = 15 states the distribution took
about 0.3 s at M = 30, 2.8 s at M = 40 and 7.1 s at M = 45 as a fresh
process on a 2-vCPU Xeon.  A brute force over state assignments is its
oracle.

No route checks itself: callers compare a distribution with its oracle's
through ``max_deviation``.
"""

from __future__ import annotations

import functools
import itertools
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
    subset_levels,
)
from .contact_graph import (
    ContactGraph, UnlabelledContactGraph, amass, any_labelling, cell_order, cell_sizes,
    graph_rows, json_blocks, row_graphs, row_json_objs,
)
from .markov import StateVector, WalkerEnsemble

NEGATIVE_DUST = 1e-10

# Most elements one chunk of a batch holds in its working arrays (1 MB of
# floats), so working memory stays fixed however many graphs share a clique
# count, and a chunk's arrays stay in cache: on the benchmark's pmf inputs
# the DP ran fastest at this cap, about 1.6 times as fast as at 2^20.  A
# chunk holds at least one graph.  In the DP a graph needs its N x m clique
# weights, its 2^m subset values (one level per subset size) and two terms
# per pair (subset, clique in it) of the widest level; in the closed form
# its clique weights, four 2^m-wide arrays (the products at one state, sigma
# and its graph-major copy, the recursion's values) and three as wide as the
# widest recursion level.
_GATHER_CAP = 1 << 17

# Most walkers one product table of ``_walker_tables`` covers (2^16 rows).
_TABLE_WALKERS = 16

# The graph of an entry as ``json.dumps(..., indent=2)`` lays out a list of
# entries: the layout of ``json_blocks``.
_INDENTED = ("\n      [\n        ", "\n      ],\n      [\n        ", ",\n        ",
             "\n      ]\n    ]")


class ProbabilityError(RuntimeError):
    """A computed probability left [0, 1] by more than numerical dust."""


def _in_range(probs: np.ndarray, what: Callable[[int], str]) -> np.ndarray:
    """Clip numerical dust into [0, 1] in place; ``what(i)`` names the first
    entry that is worse."""
    bad = np.flatnonzero((probs < -NEGATIVE_DUST) | (probs > 1.0 + NEGATIVE_DUST))
    if bad.size:
        p = float(probs[bad[0]])
        where = "below zero" if p < 0.0 else "above one"
        raise ProbabilityError(f"{what(bad[0])} evaluated to {p!r}, well {where}")
    return np.clip(probs, 0.0, 1.0, out=probs)


def sigma(subset: Iterable[Hashable], ensemble: WalkerEnsemble, k: int) -> float:
    """Probability that all walkers in ``subset`` share a state at time k.

    The entrywise product of the walkers' k-step distributions, summed over
    states.  A singleton gives its walker's row sum, 1 up to rounding.  An
    empty subset or a repeated walker raises ValueError.
    """
    subset = list(subset)
    rows = [ensemble.index[w] for w in subset]
    if not rows:
        raise ValueError("sigma of an empty walker subset is undefined")
    if len(set(rows)) < len(rows):
        repeated = next(w for w in subset if subset.count(w) > 1)
        raise ValueError(f"walker {repeated!r} is repeated in the subset")
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


def _walker_tables(walker_rows: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The (M, N) walker rows as products over walker subsets, block by block.

    The walkers are split, as evenly as they come, into blocks of at most
    ``_TABLE_WALKERS`` consecutive walkers.  A block from walker ``lo`` on
    gives ``(lo, table)``, where ``table[:, s]`` is the product, in increasing
    walker order, of the rows of its walkers in s (bit j for walker lo + j),
    doubled one walker at a time: one block multiplies in the order of a
    loop over the walkers, bit for bit.  Each table is held state-major,
    (N, 2^b), so that ``_clique_weights`` gathers from it without a copy.
    """
    n_walkers, n_states = walker_rows.shape
    size = -(-n_walkers // -(-n_walkers // _TABLE_WALKERS))
    tables = []
    for lo in range(0, n_walkers, size):
        block = walker_rows[lo : lo + size]
        table = np.ones((n_states, 1 << len(block)))
        for j, row in enumerate(block):
            np.multiply(table[:, : 1 << j], row[:, None], out=table[:, 1 << j : 2 << j])
        tables.append((lo, table))
    return tables


def _clique_weights(rows: np.ndarray, tables: list, m: int) -> np.ndarray:
    """(N, m, G) clique weights of restricted growth strings with m blocks.

    Position p of a row is walker p of ``_walker_tables``; ``w[i, c, g]`` is
    the product at state i of the rows of the walkers p with
    ``rows[g, p] == c``, the probability that every walker of clique c of
    graph g sits in state i.  Per table, one ``np.bincount`` gives every
    clique its block's walkers as a bitmask and one gather reads the
    products; the blocks' products are multiplied in walker order.
    """
    n_graphs = len(rows)
    cells = rows.T.astype(np.intp) * n_graphs + np.arange(n_graphs)
    w = None
    for lo, table in tables:
        b = table.shape[1].bit_length() - 1
        bits = np.repeat(np.ldexp(1.0, np.arange(b)), n_graphs)
        masks = np.bincount(cells[lo : lo + b].ravel(), bits, m * n_graphs).astype(np.intp)
        block = table.take(masks, axis=1)
        w = block if w is None else np.multiply(w, block, out=w)
    return w.reshape(-1, m, n_graphs)


def _closed_form_batch(
    rows: np.ndarray,
    tables: list,
    m: int,
    describe: Callable[[int], list],
) -> np.ndarray:
    """Closed-form probabilities of graphs that all have the same m cliques.

    Per chunk of graphs, the rows' clique weights ``w`` (``_clique_weights``)
    give every subset s of cliques (bit i for clique i) its sigma,
    ``sig[g, s] = sum_i prod_(c in s) w[i, c, g]``: the products over all
    subsets at one state are doubled one clique at a time and added up state
    by state.  The expansion is the recursion ``subset_expansion(m)`` over
    the (G, 2^m) sigma array.  ``describe(g)`` names graph g if its value is
    out of range.
    """
    n_graphs, n_states = len(rows), tables[0][1].shape[0]
    levels = subset_expansion(m)
    widest = max(len(level[1]) for level in levels)
    step = max(1, _GATHER_CAP // (m * n_states + 4 * 2**m + 3 * widest))
    probs = np.empty(n_graphs)
    for lo in range(0, n_graphs, step):
        w = _clique_weights(rows[lo : lo + step], tables, m)
        # Built subset by graph, so that each product is one row of graphs.
        products = np.ones((2**m, w.shape[2]))
        sig = np.zeros_like(products)
        for i in range(n_states):
            for c in range(m):
                np.multiply(products[: 1 << c], w[i, c], out=products[1 << c : 2 << c])
            sig += products
        sig = sig.T.copy()
        expansion = np.empty_like(sig)
        expansion[:, 0] = 1.0
        for subsets, blocks, rests, weights, offsets in levels:
            terms = sig.take(blocks, axis=1) * expansion.take(rests, axis=1)
            terms *= weights
            # Each row is summed on its own, so a graph's value does not
            # depend on the chunk size.
            expansion[:, subsets] = np.add.reduceat(terms, offsets, axis=1)
        probs[lo : lo + step] = expansion[:, -1]
    return _in_range(probs, lambda i: f"closed-form probability of {describe(i)}")


def _dp_batch(rows: np.ndarray, tables: list, m: int) -> np.ndarray:
    """Probabilities of graphs that all have the same m cliques, by a DP
    over states.

    P(g) sums, over every way to put g's cliques on distinct states, the
    product of their clique weights there: a rectangular permanent of w
    (Ryser, *Combinatorial Mathematics*, 1963).  ``f[S]``, for a subset S
    of cliques, sums the products that put exactly the cliques of S on the
    states seen so far, so state i, taking at most one clique, adds
    ``sum_(c in S) w[i, c] f[S - c]`` to each ``f[S]``, and P(g) is f of
    all m cliques after the last state.  Every term is non-negative, so
    nothing cancels and each probability carries a small relative error.
    f is held per subset size (``subset_levels``), the sizes updated
    largest first so that each reads the smaller size of the state before;
    a state updates only the sizes that the states so far can fill and the
    states left can still complete to m.
    """
    n_graphs, n_states = len(rows), tables[0][1].shape[0]
    levels = subset_levels(m)
    widest = max(len(cliques) for cliques, _ in levels)
    step = max(1, _GATHER_CAP // (m * n_states + 2**m + 2 * widest))
    probs = np.empty(n_graphs)
    for lo in range(0, n_graphs, step):
        w = _clique_weights(rows[lo : lo + step], tables, m)
        width = w.shape[2]
        f = [np.ones((1, width))]
        f += [np.zeros((len(rests) // size, width)) for size, (_, rests) in enumerate(levels, 1)]
        for i in range(n_states):
            for size in range(min(i + 1, m), max(0, m - n_states + i), -1):
                cliques, rests = levels[size - 1]
                terms = w[i].take(cliques, axis=0)
                terms *= f[size - 1].take(rests, axis=0)
                for part in terms.reshape(size, -1, width):
                    f[size] += part
        probs[lo : lo + step] = f[m][0]
    return probs


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
    evaluated.  ``_states`` lets a caller evaluating many graphs at one time
    step share the propagation.  ``_sigma_cache`` is only written: it
    collects as keys the walker mask (bit i for walker i) of each non-empty
    union of g's cliques, which the benchmark's trace counts as sigma
    evaluations until the library counts them itself.
    """
    _check_graph(g, ensemble)
    if g.n_cliques > ensemble.n_states:
        return 0.0
    states = ensemble.state_matrix(k) if _states is None else _states
    index = ensemble.index
    row = np.empty((1, ensemble.n_walkers), np.intp)
    for c, cell in enumerate(g.cliques.cells):
        row[0, [index[w] for w in cell]] = c
    if _sigma_cache is not None:
        unions = [0]
        for cell in g.cliques.cells:
            mask = sum(1 << index[w] for w in cell)
            unions += [u | mask for u in unions]
        _sigma_cache.update(dict.fromkeys(unions[1:]))
    tables = _walker_tables(states)
    return float(_closed_form_batch(row, tables, g.n_cliques, lambda _: g.to_json_obj())[0])


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
    ``total``, the histograms and ``max_deviation`` over equal rows read the
    arrays.
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
        order: one stable ``np.argsort`` on -p, then one ``np.lexsort`` of
        the rows inside runs of equal probability (0.0 equals -0.0) on (run,
        clique count, cells key).  The cells key lists each cell's positions
        in the sorted labels, each position + 1 and each cell followed by a
        terminator 0, so a cell that is a prefix of another sorts first, as
        in ``ContactGraph.sort_key``; the tied rows' labels come in cell
        order by ``contact_graph.cell_order``.  Unlabelled rows leave the
        clique count out: their cells key orders them as their clique sizes,
        largest first, compare.
        """
        order = np.argsort(-self._probs, kind="stable")
        probs = self._probs[order]
        tied = probs[1:] == probs[:-1]
        runs = np.r_[False, tied] | np.r_[tied, False]
        if not runs.any():
            return order
        tied_rows = order[runs]
        rows = self._rows[tied_rows]
        positions = cell_order(rows)
        n_graphs, width = rows.shape
        counts = rows.max(axis=1, initial=0) + 1
        lead = int(self._labels is not None)
        dtype = np.min_scalar_type(2 * width + 1)
        key = np.zeros((n_graphs, lead + width + int(counts.max(initial=0))), dtype)
        if lead:
            key[:, 0] = counts
        # Each position lands after one terminator per cell before its own.
        slots = np.take_along_axis(rows, positions, axis=1).astype(dtype)
        slots += np.arange(lead, lead + width, dtype=dtype)
        np.put_along_axis(key, slots, positions + 1, axis=1)
        run = np.cumsum(np.r_[True, ~tied])[runs]
        order[runs] = tied_rows[np.lexsort((*key.T[::-1], run))]
        return order

    def write_json(self, fh: IO[str]) -> None:
        """Write ``json.dumps(self.to_json_obj(), indent=2)`` and a newline.

        Unlabelled and empty distributions are written by the json module.
        Labelled rows are written in ``_row_order`` by ``json_blocks``, in
        the ``_INDENTED`` layout: per entry the comma before it (an opening
        bracket for the first), its graph, and its probability by
        ``float.__repr__``, as the json module writes it.
        """
        if self._labels is None or not len(self._rows):
            fh.write(json.dumps(self.to_json_obj(), indent=2) + "\n")
            return
        order = self._row_order()
        tail = (',\n    "p": ', list(map(repr, self._probs[order].tolist())), "\n  }")
        blocks = json_blocks(
            self._rows[order], self._labels, (',\n  {\n    "graph": ',), tail, _INDENTED
        )
        # Every entry opens with the comma between entries but the first.
        fh.write("[" + next(blocks)[1:])
        fh.writelines(blocks)
        fh.write("\n]\n")


def full_distribution(
    ensemble: WalkerEnsemble,
    k: int,
    *,
    budget: int = 10**6,
    method: str = "dp",
) -> GraphDistribution:
    """Exact distribution over every admissible contact graph at time k.

    Refuses state spaces larger than ``budget`` graphs; for many walkers on
    few states the unlabelled steady-state route is the tractable one.
    The graphs are enumerated once as restricted growth strings over the
    sorted labels, and the distribution holds those rows.  ``method``
    selects only how they are evaluated: "dp", the default, and
    "closed_form" (which ``rwig bench`` times against "bruteforce") in one
    batch per clique count from one set of walker tables, the brute force
    one row at a time, through the ``ContactGraph`` it describes.
    """
    m, n = ensemble.n_walkers, ensemble.n_states
    size = contact_graph_count(m, n)
    if size > budget:
        raise ValueError(
            f"state space has {size} graphs, over the budget of {budget}; "
            "consider the unlabelled steady-state distribution instead"
        )
    if method not in ("dp", "closed_form", "bruteforce"):
        raise ValueError(f"unknown method {method!r}")
    states = ensemble.state_matrix(k)
    ordered = tuple(sorted(ensemble.labels))
    rows = np.concatenate(list(restricted_growth_strings(m, min(m, n))))
    probs = np.empty(len(rows))
    if method == "bruteforce":
        for row, g in enumerate(row_graphs(rows, ordered)):
            probs[row] = pmf_bruteforce(g, ensemble, k, _states=states)
    else:
        tables = _walker_tables(states[[ensemble.index[w] for w in ordered]])
        top = rows.max(axis=1)  # clique count - 1
        # Not np.unique: without indices it imports numpy.ma, about 20 ms.
        for c in np.flatnonzero(np.bincount(top)).tolist():
            at = np.flatnonzero(top == c)
            if method == "dp":
                probs[at] = _dp_batch(rows[at], tables, c + 1)
            else:
                probs[at] = _closed_form_batch(
                    rows[at], tables, c + 1,
                    lambda i: next(row_json_objs(rows[at[i : i + 1]], ordered)),
                )
    return GraphDistribution._of_rows(rows, probs, ordered, k, ensemble)


# --- steady state -----------------------------------------------------------


def _placements(keys: list[tuple[int, ...]], probs: np.ndarray) -> np.ndarray:
    """v[k] for each clique-size multiset k of ``keys`` (non-increasing
    tuples, ``()`` first, closed under taking one part out): the sum over
    ordered placements of k's cliques on distinct states of the product of
    probs[i]^|c|, the steady-state probability of a labelled graph with
    clique sizes k.  State i, taking at most one clique, adds count_k(q)
    v[k - q] probs[i]^q to v[k] for each distinct part q of k: one
    ``np.bincount`` per state over every (key, part) pair, reading the
    values of the state before.  No term is negative.
    """
    index = {key: i for i, key in enumerate(keys)}
    pairs = np.fromiter(
        (
            (i, index[key[:j] + key[j + 1 :]], q, key.count(q))
            for i, key in enumerate(keys)
            for q in set(key)
            for j in (key.index(q),)
        ),
        np.dtype((np.intp, 4)),
    )
    target, source, part, count = pairs.T
    powers = probs[:, None] ** np.arange(part.max(initial=0) + 1)
    v = np.zeros(len(keys))
    v[0] = 1.0
    for power in powers:
        v += np.bincount(target, count * v[source] * power[part], len(keys))
    return v


def labelled_steady_state_pmf(clique_sizes: Iterable[int], s_tilde: StateVector) -> float:
    """Steady-state probability of any labelled graph with these clique sizes.

    With every walker on the stationary vector s, a labelled graph's
    probability is the sum over ordered tuples of distinct states of
    prod_j s_(i_j)^(q_j) (Doubilet 1972; Stanley, EC2 section 7.7: prod_j
    c_j! times the monomial symmetric polynomial m_q(s), c_j being the
    number of parts of size j).  ``_placements`` evaluates it over the
    prod_j (c_j + 1) sub-multisets of the sizes, counting ordered placements
    directly, so every value it holds is a probability and no factorial
    scales it: all 300 singletons on a uniform s of 300 states give
    300!/300^300, about 2.2e-129, to within 1e-13 relative.  Every term is
    non-negative, so the result carries a small relative error even where
    probabilities sit near 1e-13.  Run once over every partition, the same
    DP gives ``unlabelled_steady_state_distribution`` on N = 15 states in
    about 0.3 s at M = 30, 2.8 s at M = 40 and 7.1 s at M = 45.
    """
    sizes = tuple(sorted((int(q) for q in clique_sizes), reverse=True))
    if not sizes or sizes[-1] < 1:
        raise ValueError("clique sizes must be positive")
    if len(sizes) > s_tilde.n_states:
        return 0.0
    distinct = sorted(set(sizes), reverse=True)
    keys = [
        sum(((q,) * c for q, c in zip(distinct, counts)), ())
        for counts in itertools.product(*(range(sizes.count(q) + 1) for q in distinct))
    ]
    what = f"steady-state probability of clique sizes {sizes}"
    return float(_in_range(_placements(keys, s_tilde.probs)[-1:], lambda _: what)[0])


def unlabelled_steady_state_pmf(u: UnlabelledContactGraph, s_tilde: StateVector) -> float:
    """Steady-state probability of an unlabelled contact graph.

    The labelled probability of one representative, scaled by the number of
    labelled graphs sharing the size multiset.
    ``unlabelled_steady_state_pmf_bruteforce`` is its oracle.
    """
    if u.n_cliques > s_tilde.n_states:
        raise ValueError(f"{u.n_cliques} cliques cannot occupy {s_tilde.n_states} states")
    p = multiplicity(u.clique_sizes) * labelled_steady_state_pmf(u.clique_sizes.parts, s_tilde)
    what = f"unlabelled steady-state probability of {u.to_json_obj()}"
    return float(_in_range(np.array([p]), lambda _: what)[0])


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
    """Distribution over all unlabelled graphs with at most N cliques: one
    ``_placements`` over the partitions of 1..M with at most N parts, those
    of M taken straight to rows, larger cliques first, times ``multiplicity``.
    """
    if m_walkers < 1:
        raise ValueError("m_walkers must be positive")
    levels = [
        [q for q in integer_partitions(total) if q.n_parts <= s_tilde.n_states]
        for total in range(1, m_walkers + 1)
    ]
    keys = [()] + [q.parts for level in levels for q in level]
    top = levels[-1]
    probs = _placements(keys, s_tilde.probs)[-len(top) :]
    probs *= np.fromiter(map(multiplicity, top), float, len(top))
    rows = np.array([np.repeat(np.arange(q.n_parts), q.parts) for q in top])
    _in_range(probs, lambda i: f"unlabelled steady-state probability of {list(top[i].parts)}")
    return GraphDistribution._of_rows(rows, probs, None, None, None)


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


def histogram_to_csv(hist: dict[int, float]) -> str:
    lines = ["value,probability"]
    lines += [f"{value},{p!r}" for value, p in sorted(hist.items())]
    return "\n".join(lines) + "\n"


def histogram_from_csv(text: str) -> dict[int, float]:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != "value,probability":
        raise ValueError("histogram CSV must start with 'value,probability'")
    hist = {}
    for line in lines[1:]:
        value, p = line.split(",")
        hist[int(value)] = float(p)
    return hist


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
