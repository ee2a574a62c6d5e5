"""Monte-Carlo side of the model: sampled trajectories and contact sequences.

All randomness is numpy's default generator: ``default_rng(seed)``.
Replica r of an estimator draws the stream of ``default_rng(seed ^ r)``, so
runs are reproducible and the replicas of one seed draw distinct streams.
Streams are not independent across seeds: seeds s and s' share a stream
whenever s ^ s' equals r ^ r' for two replica indices (with 8 replicas,
seeds 0 to 7 draw the same eight streams and give identical empirical
distributions).

Walks read the ensemble's stacked arrays, the cumulative sums of its
``starts`` (M x N) and ``policies`` (M x N x N), and never its per-walker
objects.  One loop, ``_walk``, takes every walker step (an inverse-CDF draw
from the walker's policy row) for sampled sequences and empirical
distributions alike, over blocks of uniforms that each carry on from the
last states of the block before.  When the exact next-state table
(``_step_table``) holds at most ``_WALK_ELEMENTS`` entries, a block is one
``_intervals`` call, which puts each uniform in the intervals between its
walker's sorted distinct cumulative values by one bucket lookup and a
correction past the values it skips, then one lookup of (walker, interval,
state) per step: the states that comparing each uniform with its row
gives.  Otherwise each step gathers the walkers' rows.

A sampled sequence stays an array from the walk to its JSON lines.
``_sample_rows`` draws its uniforms from ``default_rng(seed)`` in blocks of
min(``contact_graph._JSON_ROWS``, ``_WALK_ELEMENTS`` // M) steps, and the
walkers' states at each step of a block are renamed into one restricted
growth string per snapshot, without a sort, by
``combinatorics.first_appearance_rows``.  ``sample_sequence`` joins the
blocks' rows; ``sample_jsonl``, which ``rwig sample`` writes, formats each
block by ``contact_graph.json_blocks`` as soon as it is renamed, so the
command holds one block of the walk at a time.  A sequence's equality,
hashing and clique histograms read its rows too; its ``ContactGraph``
snapshots are built only when a caller reads them.

An empirical distribution walks its replicas together, one (R, M) state
array per step, each step a block of its own.  It builds no generator:
``_replica_uniforms`` runs numpy's seeding (``SeedSequence``) and bit
generator (``PCG64``) on arrays, every replica of a chunk at once from the
seed's words and the replica indices', and gives each replica the same
doubles that its own ``default_rng`` would.  The final states become rows
the same way and are counted as rows; replicas go in chunks so that no
array of the walk, the step table's or the gather's, holds more than
``_WALK_ELEMENTS`` numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from . import contact_graph
from .combinatorics import first_appearance_rows
from .contact_graph import ContactGraph, cell_sizes, graph_rows, json_blocks, row_graphs
from .markov import WalkerEnsemble
from .pmf import (
    GraphDistribution,
    clique_count_histogram,
    clique_size_histogram,
    histogram_from_csv,  # re-exported, with histogram_to_csv: both are read from here too
    histogram_to_csv,
)


class ContactSequence:
    """One realisation of the contact graph over an observation window.

    It holds one row of ``first_appearance_rows`` per time step over the
    sorted walker labels, built by ``sample_sequence`` or converted once from
    ``ContactGraph`` snapshots by ``graph_rows``; ``snapshots`` is built from
    the rows by ``row_graphs`` on first read, and ``sequence_to_jsonl``
    writes from them.  Two sequences are equal when their rows hold the same
    values, whatever their dtypes, over the same labels and seed.
    """

    def __init__(self, snapshots: Iterable[ContactGraph], seed: int):
        self._rows, self._labels = graph_rows(snapshots)
        self.seed = seed

    @classmethod
    def _of_rows(
        cls, rows: np.ndarray, labels: tuple[Hashable, ...], seed: int
    ) -> "ContactSequence":
        seq = cls((), seed)
        seq._rows, seq._labels = rows, labels
        return seq

    @functools.cached_property
    def snapshots(self) -> tuple[ContactGraph, ...]:
        return tuple(row_graphs(self._rows, self._labels))

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContactSequence):
            return NotImplemented
        return (self._labels, self.seed) == (other._labels, other.seed) and np.array_equal(
            self._rows, other._rows
        )

    def __hash__(self) -> int:
        # Rows come in different dtypes: hash their values.
        rows = self._rows.astype(np.int64, copy=False)
        return hash((rows.shape, rows.tobytes(), self._labels, self.seed))


# Most numbers one array of the walk holds: the step table, or a chunk's
# walkers' cumulative policy rows at one step of ``empirical_distribution``
# (R x M x N).
_WALK_ELEMENTS = 1 << 18


def replica_seed(seed: int, replica: int) -> int:
    """Stream-splitting rule for replica RNGs."""
    return seed ^ replica


def _check_integer(name: str, value, least: int) -> None:
    # bool is an Integral, but True is no count.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        bound = "non-negative" if least == 0 else "positive"
        raise ValueError(f"{name} must be a {bound} integer, got {value!r}")


def _draw(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Inverse-CDF draw per row: index of the first cumulative value above u.
    # Rows (..., M, N) broadcast against uniforms (..., M).
    idx = (cum_rows <= u[..., None]).sum(axis=-1)
    return np.minimum(idx, cum_rows.shape[-1] - 1)


def _walk(
    cum0: np.ndarray, cum_policy: np.ndarray, lookup: tuple | None, blocks: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """Yield the walkers' state indices for each block of uniforms, in the
    block's shape: (T, M) for one walk, or (T, R, M) for R replicas walking
    together.  The first row of the first block draws the initial states
    from ``cum0``; every later row takes a policy step from the row before
    it, in its own block or at the end of the one before.

    With ``lookup``, a ``_step_table``, a block is one ``_intervals`` call
    and then one lookup per step; without, each step gathers the walkers'
    rows of ``cum_policy`` and draws from them.  A block's uniforms are not
    held once its states are yielded; its last row of states is read again
    by the next block's first step.
    """
    walkers = np.arange(cum0.shape[0])
    before = None
    for u in blocks:
        # Rows from ``first`` on are policy steps; a block without one
        # looks up no intervals.
        first = int(before is None)
        if lookup is None or len(u) == first:
            states = np.empty(u.shape, np.intp)
        else:
            states = _intervals(lookup, u)
            states *= cum0.shape[1]
        if first:
            before = states[0] = _draw(cum0, u[0])
        for t in range(first, len(u)):
            row = states[t]
            if lookup is None:
                row[...] = _draw(cum_policy[walkers, before], u[t])
            else:
                row += before
                lookup[2].take(row, out=row, mode="wrap")
            before = row
        del u
        yield states


def _step_table(cum_policy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Every policy step of the walk as one lookup: (breaks, buckets,
    table), or None when the table's M (N (N - 1) + 1) N entries would
    be more than ``_WALK_ELEMENTS``.

    ``breaks[w]`` holds the distinct cumulative values of walker w's rows
    without each row's last column, sorted, then +inf: D + 1 in all, D the
    most any walker has.  A uniform u lies in interval k =
    ``searchsorted(breaks[w], u, "right")``, so no row value lies in
    (breaks[w][k - 1], u].  ``_draw``'s state from row s, the count of that
    row's values <= u (clipping to N - 1 is dropping the last column), is
    then ``table[w, k, s]``, the count of row s's values among the first k
    breaks.  The breaks and the (M, D + 1, N) table come flat.

    ``buckets`` (M x B) holds the flat position w (D + 1) + k of the
    interval of b / B, for B the least power of two of at least 16 D (1
    for D = 0), or the most that keeps M B within ``_WALK_ELEMENTS``; it
    holds its bitwise complement where a break lies in the bucket, past
    b / B.  Uncapped, at most one bucket in sixteen holds a break, so most
    uniforms find their interval in their bucket alone (``_intervals``);
    the cap leaves fewer at large M (four per walker at M = 40,000, N =
    2), where a uniform steps past at most the D breaks of its walker.
    """
    m, n, _ = cum_policy.shape
    if m * (n * (n - 1) + 1) * n > _WALK_ELEMENTS:
        return None
    values = cum_policy[:, :, :-1].reshape(m, -1)
    order = np.argsort(values, axis=1)
    values = np.take_along_axis(values, order, 1)
    # Each sorted value's break: a new one where it differs from the last.
    new = np.ones(values.shape, bool)
    new[:, 1:] = values[:, 1:] != values[:, :-1]
    rank = np.cumsum(new, axis=1)
    d = int(rank.max(initial=0))
    breaks = np.full((m, d + 1), np.inf)
    breaks[np.nonzero(new)[0], rank[new] - 1] = values[new]
    # One count per value, at its row and its break; the table sums them.
    cells = (np.arange(m)[:, None] * (d + 1) + rank) * n + order // max(n - 1, 1)
    table = np.bincount(cells.ravel(), minlength=m * (d + 1) * n)
    table = table.reshape(m, d + 1, n).cumsum(axis=1).ravel()
    # Bucket b holds the breaks x with b / B < x <= (b + 1) / B, those
    # with ceil(x B) = b + 1 (exact, B being a power of two); the last holds
    # every finite break past its lower edge, and +inf goes past it.
    n_buckets = 1 << min(max(16 * d - 1, 0).bit_length(), (_WALK_ELEMENTS // m).bit_length() - 1)
    slot = np.minimum(np.ceil(breaks * n_buckets), n_buckets)
    slot[np.isinf(breaks)] = n_buckets + 1
    slot += np.arange(m)[:, None] * (n_buckets + 2)
    # Summed in place across walkers, walker w's counts start from the
    # w (D + 1) breaks before it; a bucket holds a break where the sum grows.
    counts = np.bincount(slot.astype(np.intp).ravel(), minlength=m * (n_buckets + 2))
    sums = counts.cumsum(out=counts).reshape(m, n_buckets + 2)
    low = sums[:, :-2]
    return breaks.ravel(), np.invert(low, out=low.copy(), where=sums[:, 1:-1] > low), table


def _intervals(lookup: tuple, u: np.ndarray) -> np.ndarray:
    """The flat position w (D + 1) + ``searchsorted(breaks[w], u, "right")``
    of each uniform's interval in a ``_step_table`` lookup, for an (..., M)
    array of uniforms u >= 0 with u B below 2**63 (walker w's in the last
    axis w).

    The bucket of u, floor(u B) (exact, B a power of two; the last bucket
    for u >= 1), gives the interval of its lower edge.  Only the uniforms
    whose bucket holds a break then step past the breaks between that edge
    and themselves, one array step per break, over only the uniforms that
    still have one to pass.
    """
    breaks, buckets, _ = lookup
    m, n_buckets = buckets.shape
    at = np.multiply(u, n_buckets, out=np.empty(u.shape, np.intp), casting="unsafe")
    np.minimum(at, n_buckets - 1, out=at)
    at += np.arange(0, m * n_buckets, n_buckets)
    # Each bucket's value takes the place of its own index, which it reads
    # first.  The indices are in range, so mode "wrap" only spares the copy
    # of ``out`` that the default mode makes.
    buckets.take(at, out=at, mode="wrap")
    flat_at, flat_u = at.reshape(-1), u.reshape(-1)
    past = np.flatnonzero(flat_at < 0)
    flat_at[past] = ~flat_at[past]
    while past.size:
        past = past[breaks.take(flat_at[past]) <= flat_u[past]]
        flat_at[past] += 1
    return at


def _sample_rows(
    ensemble: WalkerEnsemble, horizon: int, seed: int
) -> tuple[tuple[Hashable, ...], Iterator[np.ndarray]]:
    """The sorted labels, and the rows of ``first_appearance_rows`` over
    them, renamed a block of b = min(``_JSON_ROWS``, ``_WALK_ELEMENTS`` // M)
    steps at a time.  A block's uniforms are the next (b, M) doubles of
    ``default_rng(seed)``, so the walk draws the same doubles in the same
    order as one M-vector per step.  The arguments are checked at the call,
    before any block is walked."""
    _check_integer("seed", seed, 0)
    _check_integer("horizon", horizon, 0)
    labels = tuple(sorted(ensemble.labels))
    columns = [ensemble.index[w] for w in labels]
    rng, m = np.random.default_rng(seed), ensemble.n_walkers
    steps = max(1, min(contact_graph._JSON_ROWS, _WALK_ELEMENTS // m))
    uniforms = (
        rng.random((min(steps, horizon + 1 - lo), m)) for lo in range(0, horizon + 1, steps)
    )
    cum0, cum_policy = np.cumsum(ensemble.starts, 1), np.cumsum(ensemble.policies, 2)
    blocks = _walk(cum0, cum_policy, _step_table(cum_policy), uniforms)
    return labels, (first_appearance_rows(states[:, columns]) for states in blocks)


def sample_sequence(ensemble: WalkerEnsemble, horizon: int, seed: int) -> ContactSequence:
    """Sample a contact-graph sequence of length horizon + 1.

    Initial states are drawn from each walker's initial vector (callers
    wanting fixed starts pass basis vectors), then each walker takes
    ``horizon`` independent policy steps.  Deterministic given the seed:
    the uniforms are the same doubles in the same order as one M-vector per
    step, drawn and walked a block of steps at a time (``_sample_rows``).
    """
    labels, blocks = _sample_rows(ensemble, horizon, seed)
    return ContactSequence._of_rows(np.concatenate(list(blocks)), labels, seed)


def sample_jsonl(ensemble: WalkerEnsemble, horizon: int, seed: int) -> Iterator[str]:
    """The text of ``sequence_to_jsonl(sample_sequence(...))`` in blocks,
    each made once its steps are walked, so no more than one block of the
    walk is held at once.  Bad arguments raise at the call, before any
    block is walked."""
    labels, blocks = _sample_rows(ensemble, horizon, seed)
    return jsonl_blocks(itertools.count(), blocks, labels)


# SeedSequence's hash constants (numpy NEP 19; bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (O'Neill, "PCG", HMC-CS-2014-0905).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _halves(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as (high, low) uint64 arrays."""
    return (
        np.array([v >> 64 for v in values], np.uint64),
        np.array([v & (1 << 64) - 1 for v in values], np.uint64),
    )


def _mul128(a_hi, a_lo, b_hi, b_lo, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2**128 on (high, low) uint64 halves, written into ``out``
    (five uint64 arrays of the broadcast shape: the high half, the low half
    and three for scratch) or into new arrays.  The high half of a_lo * b_lo
    is taken from 32-bit limbs, whose products fit in 64 bits."""
    if out is None:
        shape = np.broadcast_shapes(*map(np.shape, (a_hi, a_lo, b_hi, b_lo)))
        out = [np.empty(shape, np.uint64) for _ in range(5)]
    hi, lo, t, u, v = out
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    np.multiply(a0, b0, out=t)
    t >>= 32
    np.multiply(a1, b0, out=u)
    u += t
    np.bitwise_and(u, _MASK32, out=t)
    np.multiply(a0, b1, out=v)
    v += t
    np.multiply(a1, b1, out=hi)
    u >>= 32
    hi += u
    v >>= 32
    hi += v
    np.multiply(a_lo, b_hi, out=t)
    hi += t
    np.multiply(a_hi, b_lo, out=t)
    hi += t
    np.multiply(a_lo, b_lo, out=lo)
    return hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128 on (high, low) uint64 halves, in place in a."""
    a_lo += b_lo
    a_hi += b_hi
    a_hi += a_lo < b_lo
    return a_hi, a_lo


def _pcg64_states(seed: int, replicas: range) -> tuple[np.ndarray, ...]:
    """The PCG64 state (high, low) and increment (high, low) of
    ``default_rng(replica_seed(seed, r))`` for each replica r, as uint64
    arrays.

    The seed is split into uint32 words, padded with zero words to at least
    four, and each replica's words are the seed's xor the two words of r
    (below 2**64).  SeedSequence fills its pool of four from the hash of
    each of the first four words, hashing a missing word as zero, so the
    padding changes nothing; a word past the fourth is the seed's alone, so
    every replica takes its extra mixing rounds.  The pool gives four uint64
    words (``generate_state``); PCG64 takes the first two as its initial
    state and the last two as its stream, and steps twice
    (``pcg_setseq_128_srandom_r``).
    """
    seed = int(seed)
    n_words = max(4, -(-seed.bit_length() // 32))
    r = np.arange(replicas.start, replicas.stop, replicas.step, np.uint64)
    words = np.frombuffer(seed.to_bytes(4 * n_words, "little"), "<u4").astype(np.uint32)
    words = np.repeat(words[:, None], len(r), axis=1)
    words[0] ^= (r & _MASK32).astype(np.uint32)
    words[1] ^= (r >> 32).astype(np.uint32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    def mix(x, y):
        value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return value ^ value >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ value >> 16).astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = (q_hi << 1 | q_lo >> 63, q_lo << 1 | 1)
    hi, lo = _add128(s_hi, s_lo, *inc)
    return *_add128(*_mul128(hi, lo, *_halves([_PCG_MULT])), *inc), *inc


def _replica_uniforms(seed: int, replicas: range, steps: int, width: int) -> Iterator[np.ndarray]:
    """Yield ``steps`` (R, width) arrays: row i of each is the next ``width``
    doubles of ``default_rng(replica_seed(seed, r))`` for the i-th replica r
    of ``replicas``, so each replica draws the same doubles, in the same
    order, as one ``random(width)`` per step.

    No generator is built.  From each replica's PCG64 state x, one step of
    the LCG is x * MULT + inc, so the state j steps on is x * MULT**j +
    inc * (1 + MULT + ... + MULT**(j-1)), mod 2**128; one array step gives
    j = 1 .. width for every replica at once, in arrays allocated once.
    Each state's double is its XSL-RR output (high ^ low, rotated right by
    the top six bits) shifted right by 11 and scaled by 2**-53, as
    ``Generator.random`` does.
    """
    hi, lo, inc_hi, inc_lo = _pcg64_states(seed, replicas)
    powers, sums, power, total = [], [], 1, 0
    for _ in range(width):
        total = (total + power) % (1 << 128)
        power = power * _PCG_MULT % (1 << 128)
        powers.append(power)
        sums.append(total)
    a_hi, a_lo = _halves(powers)
    c_hi, c_lo = _mul128(inc_hi[:, None], inc_lo[:, None], *_halves(sums))
    work = [np.empty(c_hi.shape, np.uint64) for _ in range(5)]
    x_hi, x_lo, x, rot, right = work
    for _ in range(steps):
        _add128(*_mul128(hi[:, None], lo[:, None], a_hi, a_lo, work), c_hi, c_lo)
        hi, lo = x_hi[:, -1].copy(), x_lo[:, -1].copy()
        np.bitwise_xor(x_hi, x_lo, out=x)
        np.right_shift(x_hi, 58, out=rot)
        np.right_shift(x, rot, out=right)
        np.subtract(64, rot, out=rot)
        rot &= 63
        x <<= rot
        x |= right
        x >>= 11
        yield x * 2.0**-53


def empirical_distribution(
    ensemble: WalkerEnsemble, k: int, replicas: int, seed: int
) -> GraphDistribution:
    """Contact-graph frequencies at step k over independent replicas.

    Replica r draws k + 1 vectors of M uniforms, the stream of
    ``default_rng(replica_seed(seed, r))``; the replicas walk together as
    one (R, M) state array, on one (R, M) array of uniforms per step from
    ``_replica_uniforms``, each step a block of ``_walk``: one
    ``_intervals`` call and one lookup in the ``_step_table`` when one is
    built.  They go in chunks small enough that the gather's per-step
    working set, a chunk's walkers' cumulative policy rows (R x M x N),
    would hold at most ``_WALK_ELEMENTS`` numbers; the uniforms come one
    step at a time, so k does not bound the chunk.  Each final state row is
    renamed by ``first_appearance_rows`` over the sorted labels, and the
    rows are counted after one ``np.lexsort``, so the distinct rows come in
    lexicographic order.  Each probability is a graph's integer count over
    ``replicas``, so equal counts tie exactly and are written in canonical
    graph order.
    """
    _check_integer("seed", seed, 0)
    _check_integer("replicas", replicas, 1)
    _check_integer("k", k, 0)
    cum0, cum_policy = np.cumsum(ensemble.starts, 1), np.cumsum(ensemble.policies, 2)
    lookup = _step_table(cum_policy)
    m, n = ensemble.n_walkers, ensemble.n_states
    labels = tuple(sorted(ensemble.labels))
    columns = [ensemble.index[w] for w in labels]
    step = max(1, _WALK_ELEMENTS // (m * n))
    chunks = []
    for lo in range(0, replicas, step):
        uniforms = _replica_uniforms(seed, range(lo, min(lo + step, replicas)), k + 1, m)
        for states in _walk(cum0, cum_policy, lookup, (u[None] for u in uniforms)):
            pass
        chunks.append(first_appearance_rows(states[-1][:, columns]))
    rows = np.concatenate(chunks)
    rows = rows[np.lexsort(rows.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    counts = np.diff(starts, append=replicas)
    return GraphDistribution._of_rows(rows[starts], counts / replicas, labels, k, ensemble)


def _snapshot_sizes(source: Iterable) -> np.ndarray:
    """The clique sizes of every snapshot in ``source``, one row each, 0
    past its last clique, as ``contact_graph.cell_sizes`` lays them out: a
    sequence's from its rows, a graph's from its cells."""
    blocks, graphs = [], []
    for item in source:
        if isinstance(item, ContactSequence):
            blocks.append(cell_sizes(item._rows))
        elif isinstance(item, ContactGraph):
            graphs.append(item.clique_sizes)
        else:
            raise TypeError(f"expected ContactSequence or ContactGraph, got {item!r}")
    width = max([len(q) for q in graphs] + [b.shape[1] for b in blocks], default=0)
    padded = [q + (0,) * (width - len(q)) for q in graphs]
    blocks.append(np.array(padded, np.intp).reshape(len(graphs), width))
    return np.concatenate([np.pad(b, ((0, 0), (0, width - b.shape[1]))) for b in blocks])


def clique_size_distribution(source: Iterable, min_size: int = 2) -> dict[int, float]:
    """Normalized histogram of clique sizes pooled over all snapshots.

    Only cliques of at least ``min_size`` walkers are counted (size 2 keeps
    just the cliques that represent actual contacts).
    """
    return clique_size_histogram(_snapshot_sizes(source), min_size=min_size)


def clique_count_distribution(
    source: Iterable, include_singletons: bool = True
) -> dict[int, float]:
    """Normalized histogram of the number of cliques per snapshot.

    Singleton cliques count by default; pass include_singletons=False to
    count only cliques of two or more walkers.
    """
    return clique_count_histogram(_snapshot_sizes(source), include_singletons=include_singletons)


def mean_clique_size(source: Iterable, min_size: int = 1) -> float:
    """Average clique size pooled over all snapshots."""
    return histogram_mean(clique_size_distribution(source, min_size))


# --- serialization ----------------------------------------------------------


def rows_to_jsonl(
    times: Sequence[int], rows: np.ndarray, labels: Sequence[Hashable]
) -> str:
    """One line {"t": t, "graph": [[...], ...]} per row of
    ``first_position_rows`` over the sorted ``labels``, as
    ``json.dumps(..., separators=(",", ":"))`` writes it, by ``json_blocks``;
    no rows are one empty line."""
    return "".join(jsonl_blocks(times, rows, labels)) or "\n"


def jsonl_blocks(
    times: Iterable[int], rows: np.ndarray | Iterable[np.ndarray], labels: Sequence[Hashable]
) -> Iterator[str]:
    """The text of ``rows_to_jsonl`` in the blocks of ``json_blocks``, for
    a caller that writes each block as it comes; ``rows`` may be an
    iterable of arrays and ``times`` an iterator, as ``json_blocks`` reads
    them.  No rows give no block."""
    return json_blocks(rows, labels, ('{"t":', map(str, times), ',"graph":'), ("}\n",))


def snapshots_to_jsonl(snapshots: Iterable[tuple[int, ContactGraph]]) -> str:
    """One (t, graph) pair per line: {"t": t, "graph": [[...], ...]}."""
    pairs = list(snapshots)
    rows, labels = graph_rows(g for _, g in pairs)
    return rows_to_jsonl([t for t, _ in pairs], rows, labels)


def sequence_to_jsonl(seq: ContactSequence) -> str:
    """A sampled sequence as JSON lines, t counting from 0."""
    return rows_to_jsonl(range(len(seq)), seq._rows, seq._labels)


def snapshots_from_jsonl(text: str) -> list[tuple[int, ContactGraph]]:
    objs = (json.loads(line) for line in text.splitlines() if line.strip())
    return [(obj["t"], ContactGraph.from_json_obj(obj["graph"])) for obj in objs]


def histogram_mean(hist: dict[int, float]) -> float:
    return math.fsum(value * p for value, p in hist.items())
