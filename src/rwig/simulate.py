"""Monte-Carlo side of the model: sampled trajectories and contact sequences.

All randomness is numpy's default generator: ``default_rng(seed)``.
Replica r of an estimator draws the stream of ``default_rng(seed ^ r)``, so
runs are reproducible and the replicas of one seed draw distinct streams.
Streams are not independent across seeds: seeds s and s' share a stream
whenever s ^ s' equals r ^ r' for two replica indices (with 8 replicas,
seeds 0 to 7 draw the same eight streams and give identical empirical
distributions).

A sampled sequence's walker steps, inverse-CDF draws from their policy
rows, come from an exact next-state table (``_step_table``): one
``searchsorted`` per walker over all its uniforms puts each in an interval
between the sorted cumulative values of the walker's rows, and each step
is then one lookup of (walker, interval, state), giving the same states as
comparing the uniform with the row.  The table is built when M N is at
most ``_TABLE_CELLS`` and it holds at most ``_WALK_ELEMENTS`` entries;
otherwise each step gathers the walkers' rows, as every step of an
empirical distribution does.

A sampled sequence stays an array from the walk to its JSON lines: the
walkers' states at every step, renamed into one restricted growth string
per snapshot, without a sort, by ``combinatorics.first_appearance_rows``.
Its ``ContactGraph`` snapshots are built only when a caller reads them.

An empirical distribution walks its replicas together, as one (R, M) state
array per step.  It builds no generator: ``_replica_uniforms`` runs numpy's
seeding (``SeedSequence``) and bit generator (``PCG64``) on arrays, every
replica of a chunk at once, and gives each replica the same doubles that
its own ``default_rng`` would.  The final states become rows the same way
and are counted as rows; replicas go in chunks so that no array of the walk
holds more than ``_WALK_ELEMENTS`` numbers.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .combinatorics import first_appearance_rows
from .contact_graph import ContactGraph, compact_json, graph_rows, row_graphs
from .markov import WalkerEnsemble
from .pmf import GraphDistribution, clique_count_histogram, clique_size_histogram


class ContactSequence:
    """One realisation of the contact graph over an observation window.

    It holds one row of ``first_appearance_rows`` per time step over the
    sorted walker labels, built by ``sample_sequence`` or converted once from
    ``ContactGraph`` snapshots by ``graph_rows``; ``snapshots`` is built from
    the rows by ``row_graphs`` on first read, and ``sequence_to_jsonl``
    writes from them.
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
        return (self.snapshots, self.seed) == (other.snapshots, other.seed)

    def __hash__(self) -> int:
        return hash((self.snapshots, self.seed))


# Most numbers one array of the walk holds: the step table, or a chunk's
# walkers' cumulative policy rows at one step of ``empirical_distribution``
# (R x M x N).
_WALK_ELEMENTS = 1 << 18

# Most cumulative values (M x N) one step gathers where the step table
# replaces the gather.  Past it the gather is about as fast as the table
# walk, whose per-walker search reads a column of the row-major uniforms.
_TABLE_CELLS = 1 << 11


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


def _walk_tables(ensemble: WalkerEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative initial vectors (M x N) and policy rows (M x N x N)."""
    cum0 = np.cumsum(np.stack([s0.probs for _, s0, _ in ensemble.walkers]), axis=1)
    cum_policy = [np.cumsum(policy.entries, axis=1) for _, _, policy in ensemble.walkers]
    return cum0, np.stack(cum_policy)


def _walk_states(
    cum0: np.ndarray, cum_policy: np.ndarray, uniforms: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """Yield the walkers' state indices at times 0, 1, ..., one time per
    array of uniforms: the first draws the initial states, each later one a
    policy step.  An array is M uniforms for one walk, or (R, M) for R
    replicas walking at once; the states have its shape."""
    uniforms = iter(uniforms)
    states = _draw(cum0, next(uniforms))
    yield states
    rows_index = np.arange(cum0.shape[0])
    for u in uniforms:
        rows = cum_policy[rows_index, states]
        states = _draw(rows, u)
        yield states


def _step_table(cum_policy: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Every policy step of the walk as one lookup: (breaks, table), or
    None past ``_TABLE_CELLS`` values or ``_WALK_ELEMENTS`` entries.

    ``breaks[w]`` holds the cumulative values of walker w's rows without
    each row's last column, sorted: L = N(N - 1) of them.  A uniform u
    lies in interval k = ``searchsorted(breaks[w], u, "right")``, so k is 0,
    L or the end of a run of equal breaks, and no row value lies in
    (breaks[w][k - 1], u].  ``_draw``'s state from row s, the count of that
    row's values <= u (clipping to N - 1 is dropping the last column), is
    then ``table[w, k, s]``, the count of row s among the first k sorted
    values.  The (M, L + 1, N) table comes flat.
    """
    m, n, _ = cum_policy.shape
    if m * n > _TABLE_CELLS or m * (n * (n - 1) + 1) * n > _WALK_ELEMENTS:
        return None
    values = cum_policy[:, :, :-1].reshape(m, -1)
    order = np.argsort(values, axis=1)
    # One count per sorted value, at its row; the table sums them.
    table = np.zeros((m, values.shape[1] + 1, n), np.intp)
    rows = order // max(n - 1, 1)
    table[np.arange(m)[:, None], np.arange(1, values.shape[1] + 1), rows] = 1
    return np.take_along_axis(values, order, 1), table.cumsum(axis=1).ravel()


def _table_walk(cum0: np.ndarray, step_table: tuple, uniforms: np.ndarray) -> np.ndarray:
    """The walkers' state indices at every time of one walk, as
    ``_walk_states`` gives them for the same (T, M) uniforms: one
    ``searchsorted`` per walker finds the intervals of all its steps, and
    each step is one lookup in the ``_step_table``."""
    breaks, table = step_table
    m, n = cum0.shape
    states = np.empty(uniforms.shape, np.intp)
    states[0] = _draw(cum0, uniforms[0])
    for w in range(m):
        states[1:, w] = np.searchsorted(breaks[w], uniforms[1:, w], "right")
    # The flat position of (w, k, 0) in the table.
    states[1:] += np.arange(m) * (breaks.shape[1] + 1)
    states[1:] *= n
    for t in range(1, len(states)):
        states[t] = table[states[t] + states[t - 1]]
    return states


def sample_sequence(ensemble: WalkerEnsemble, horizon: int, seed: int) -> ContactSequence:
    """Sample a contact-graph sequence of length horizon + 1.

    Initial states are drawn from each walker's initial vector (callers
    wanting fixed starts pass basis vectors), then each walker takes
    ``horizon`` independent policy steps.  Deterministic given the seed:
    the uniforms are one (horizon + 1, M) block, the same doubles in the
    same order as one M-vector per step.  The walk takes its steps from a
    ``_step_table`` when one is built.
    """
    _check_integer("seed", seed, 0)
    _check_integer("horizon", horizon, 0)
    rng = np.random.default_rng(seed)
    labels = tuple(sorted(ensemble.labels))
    uniforms = rng.random((horizon + 1, ensemble.n_walkers))
    cum0, cum_policy = _walk_tables(ensemble)
    step_table = _step_table(cum_policy)
    if step_table is None:
        walk = _walk_states(cum0, cum_policy, uniforms)
        states = np.fromiter(walk, np.dtype((np.intp, ensemble.n_walkers)), horizon + 1)
    else:
        states = _table_walk(cum0, step_table, uniforms)
    columns = [ensemble.index[w] for w in labels]
    return ContactSequence._of_rows(first_appearance_rows(states[:, columns]), labels, seed)


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


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2**128 on (high, low) uint64 halves.  The high half of
    a_lo * b_lo is taken from 32-bit limbs, whose products fit in 64 bits."""
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    t = a0 * b0
    u = a1 * b0 + (t >> 32)
    v = a0 * b1 + (u & _MASK32)
    hi = a1 * b1 + (u >> 32) + (v >> 32) + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _pcg64_states(seeds: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The PCG64 state (high, low) and increment (high, low) of
    ``default_rng(seed)`` for each seed, as uint64 arrays.

    Each seed is split into uint32 words, padded with zero words to at
    least four.  SeedSequence fills its pool of four from the hash of each
    of the first four words, hashing a missing word as zero, so the padding
    changes nothing; a word past the fourth takes its extra mixing rounds
    only in the replicas whose seed has it.  The pool gives four uint64
    words (``generate_state``); PCG64 takes the first two as its initial
    state and the last two as its stream, and steps twice
    (``pcg_setseq_128_srandom_r``).
    """
    seeds = [int(s) for s in seeds]
    n_words = max(4, -(-max(s.bit_length() for s in seeds) // 32))
    data = b"".join(s.to_bytes(4 * n_words, "little") for s in seeds)
    words = np.frombuffer(data, "<u4").reshape(len(seeds), n_words).T
    present = np.logical_or.accumulate(words[::-1] != 0)[::-1]
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
    for w in range(4, n_words):
        for dst in range(4):
            pool[dst] = np.where(present[w], mix(pool[dst], hashmix(words[w])), pool[dst])
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ value >> 16).astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = (q_hi << 1 | q_lo >> 63, q_lo << 1 | 1)
    hi, lo = _add128(*inc, s_hi, s_lo)
    return *_add128(*_mul128(hi, lo, *_halves([_PCG_MULT])), *inc), *inc


def _replica_uniforms(
    seeds: Sequence[int], steps: int, width: int
) -> Iterator[np.ndarray]:
    """Yield ``steps`` (R, width) arrays: row r of each is the next ``width``
    doubles of ``default_rng(seeds[r])``, so each replica draws the same
    doubles, in the same order, as one ``random(width)`` per step.

    No generator is built.  From each replica's PCG64 state x, one step of
    the LCG is x * MULT + inc, so the state j steps on is x * MULT**j +
    inc * (1 + MULT + ... + MULT**(j-1)), mod 2**128; one array step gives
    j = 1 .. width for every replica at once.  Each state's double is its
    XSL-RR output (high ^ low, rotated right by the top six bits) shifted
    right by 11 and scaled by 2**-53, as ``Generator.random`` does.
    """
    hi, lo, inc_hi, inc_lo = _pcg64_states(seeds)
    powers, sums, power, total = [], [], 1, 0
    for _ in range(width):
        total = (total + power) % (1 << 128)
        power = power * _PCG_MULT % (1 << 128)
        powers.append(power)
        sums.append(total)
    a_hi, a_lo = _halves(powers)
    c_hi, c_lo = _mul128(inc_hi[:, None], inc_lo[:, None], *_halves(sums))
    for _ in range(steps):
        x_hi, x_lo = _add128(*_mul128(hi[:, None], lo[:, None], a_hi, a_lo), c_hi, c_lo)
        hi, lo = x_hi[:, -1], x_lo[:, -1]
        x, rot = x_hi ^ x_lo, x_hi >> 58
        yield ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0**-53


def empirical_distribution(
    ensemble: WalkerEnsemble, k: int, replicas: int, seed: int
) -> GraphDistribution:
    """Contact-graph frequencies at step k over independent replicas.

    Replica r draws k + 1 vectors of M uniforms, the stream of
    ``default_rng(replica_seed(seed, r))``; the replicas walk together as
    one (R, M) state array, on one (R, M) array of uniforms per step from
    ``_replica_uniforms``.  They go in chunks small enough that a chunk's
    per-step working set, its walkers' cumulative policy rows (R x M x N),
    holds at most ``_WALK_ELEMENTS`` numbers; the uniforms come one step at
    a time, so k does not bound the chunk.  Each final state row is renamed
    by ``first_appearance_rows`` over the sorted labels, and the rows are
    counted after one ``np.lexsort``, so the distinct rows come in
    lexicographic order.  Each probability is a graph's integer count over
    ``replicas``, so equal counts tie exactly and are written in canonical
    graph order.
    """
    _check_integer("seed", seed, 0)
    _check_integer("replicas", replicas, 1)
    _check_integer("k", k, 0)
    tables = _walk_tables(ensemble)
    m, n = ensemble.n_walkers, ensemble.n_states
    labels = tuple(sorted(ensemble.labels))
    columns = [ensemble.index[w] for w in labels]
    step = max(1, _WALK_ELEMENTS // (m * n))
    chunks = []
    for lo in range(0, replicas, step):
        seeds = [replica_seed(seed, r) for r in range(lo, min(lo + step, replicas))]
        for states in _walk_states(*tables, _replica_uniforms(seeds, k + 1, m)):
            pass
        chunks.append(first_appearance_rows(states[:, columns]))
    rows = np.concatenate(chunks)
    rows = rows[np.lexsort(rows.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    counts = np.diff(starts, append=replicas)
    return GraphDistribution._of_rows(rows[starts], counts / replicas, labels, k, ensemble)


def _snapshot_sizes(source: Iterable) -> np.ndarray:
    """The clique sizes of every snapshot in ``source``, one row each, 0
    past its last clique, as ``contact_graph.cell_sizes`` lays them out."""
    sizes = []
    for item in source:
        if not isinstance(item, (ContactSequence, ContactGraph)):
            raise TypeError(f"expected ContactSequence or ContactGraph, got {item!r}")
        sizes += [g.clique_sizes for g in getattr(item, "snapshots", [item])]
    width = max(map(len, sizes), default=0)
    padded = [q + (0,) * (width - len(q)) for q in sizes]
    return np.array(padded, np.intp).reshape(len(sizes), width)


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
    ``json.dumps(..., separators=(",", ":"))`` writes it."""
    lines = [
        f'{{"t":{t},"graph":{g}}}' for t, g in zip(times, compact_json(rows, labels))
    ]
    return "\n".join(lines) + "\n"


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


def histogram_mean(hist: dict[int, float]) -> float:
    return math.fsum(value * p for value, p in hist.items())
