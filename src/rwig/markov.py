"""Walker policies, state-vector propagation and steady states.

All numeric work uses 64-bit floats.  Constructors reject bad input
(non-finite or negative probabilities, rows not summing to 1) instead of
silently repairing it; the construction tolerance on row sums is 1e-12.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence

import numpy as np

ROW_SUM_TOL = 1e-12


class SteadyStateError(RuntimeError):
    """Raised when the iteration does not reach a stationary vector."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class TransitionMatrix:
    """A row-stochastic N x N walker policy."""

    def __init__(self, rows):
        entries = _readonly(rows)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("transition matrix must be square")
        if entries.shape[0] < 1:
            raise ValueError("transition matrix must be at least 1x1")
        if not np.isfinite(entries).all():
            i, j = np.argwhere(~np.isfinite(entries))[0]
            raise ValueError(f"transition probability ({i}, {j}) is not finite")
        if np.any(entries < 0.0) or np.any(entries > 1.0 + ROW_SUM_TOL):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_err = np.abs(entries.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValueError(
                f"rows must sum to 1 within {ROW_SUM_TOL:g} (worst error {row_err:.3e})"
            )
        self.entries = entries

    @property
    def n_states(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, TransitionMatrix) and np.array_equal(
            self.entries, other.entries
        )

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self) -> str:
        return f"TransitionMatrix(n_states={self.n_states})"


class StateVector:
    """A length-N probability row vector."""

    def __init__(self, probs):
        arr = _readonly(probs)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("state vector must be a non-empty 1-D array")
        if not np.isfinite(arr).all():
            i = np.flatnonzero(~np.isfinite(arr))[0]
            raise ValueError(f"state probability {i} is {arr[i]}, not finite")
        if np.any(arr < 0.0):
            raise ValueError("state probabilities must be non-negative")
        if abs(arr.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(
                f"state vector must sum to 1 within {ROW_SUM_TOL:g} (got {float(arr.sum())!r})"
            )
        self.probs = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "StateVector":
        # Internal: trusted result of propagation; skips the strict sum check
        # (repeated products drift by a few ulp per step).
        obj = cls.__new__(cls)
        obj.probs = _readonly(arr)
        return obj

    @classmethod
    def basis(cls, n: int, i: int) -> "StateVector":
        """Point mass on state i (0-based)."""
        v = np.zeros(n)
        v[i] = 1.0
        return cls(v)

    @classmethod
    def uniform(cls, n: int) -> "StateVector":
        return cls(np.full(n, 1.0 / n))

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, StateVector) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())

    def __repr__(self) -> str:
        return f"StateVector({self.probs.tolist()})"


def uniform_policy(adjacency) -> TransitionMatrix:
    """Degree-normalized policy on an undirected 0/1 adjacency matrix.

    Row i is the adjacency row divided by the degree of node i, so every
    neighbouring state is reached with equal probability.
    """
    adj = np.asarray(adjacency, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    if not np.all(np.isin(adj, (0.0, 1.0))):
        raise ValueError("adjacency entries must be 0 or 1")
    degrees = adj.sum(axis=1)
    if np.any(degrees == 0):
        dead = int(np.flatnonzero(degrees == 0)[0])
        raise ValueError(f"zero degree row {dead}: isolated node has no policy")
    return TransitionMatrix(adj / degrees[:, None])


def validate_policy(policy: TransitionMatrix, adjacency) -> list[tuple[int, int]]:
    """Check that a policy only moves along links of the underlying graph.

    Self-transitions are always permitted (staying put needs no physical
    path).  Returns the list of off-support (i, j) pairs; empty means ok.
    """
    adj = np.asarray(adjacency, dtype=float)
    if adj.shape != policy.entries.shape:
        raise ValueError(
            f"dimension mismatch: adjacency {adj.shape} vs policy "
            f"{policy.entries.shape}"
        )
    allowed = (adj != 0) | np.eye(policy.n_states, dtype=bool)
    bad = (policy.entries > 0.0) & ~allowed
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(bad))]


def propagate(s0: StateVector, policy: TransitionMatrix, k: int) -> StateVector:
    """Distribution after k steps, s0 applied to the policy k times.

    Uses iterated vector-matrix products; the k-th matrix power is never
    materialized.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if s0.n_states != policy.n_states:
        raise ValueError("state vector and policy dimensions differ")
    if k == 0:
        return s0
    probs = s0.probs
    for _ in range(k):
        probs = probs @ policy.entries
    return StateVector._wrap(probs)


def steady_state(
    policy: TransitionMatrix, tol: float = 1e-12, max_iters: int = 1_000_000
) -> StateVector:
    """Stationary vector of the policy, found by damped power iteration.

    Starts from the uniform vector and iterates the half-lazy update
    s <- (s + sP) / 2, whose fixed points coincide with those of P but
    which also converges on periodic chains.  Convergence is declared on
    the true residual ||sP - s||_inf <= tol and the result is renormalized
    to sum exactly 1.  Raises SteadyStateError, carrying the last residual,
    if max_iters steps do not reach tol.
    """
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    n = policy.n_states
    s = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iters):
        stepped = s @ policy.entries
        residual = float(np.abs(stepped - s).max())
        if residual <= tol:
            return StateVector(s / s.sum())
        s = 0.5 * (s + stepped)
    raise SteadyStateError("no steady state reached", residual)


class WalkerEnsemble:
    """An ordered collection of walkers sharing one underlying state space.

    Each walker is a (label, initial StateVector, TransitionMatrix) triple;
    list order defines the canonical walker indexing.
    """

    def __init__(self, walkers: Sequence[tuple[str, StateVector, TransitionMatrix]]):
        walkers = tuple(walkers)
        if not walkers:
            raise ValueError("ensemble needs at least one walker")
        n = walkers[0][1].n_states
        index: dict = {}
        for label, s0, policy in walkers:
            if s0.n_states != n or policy.n_states != n:
                raise ValueError("all walkers must share the same number of states")
            if label in index:
                raise ValueError(f"walker labels must be distinct: {label!r} is repeated")
            index[label] = len(index)
        self.walkers = walkers
        self.n_states = n
        self.labels = tuple(index)
        self.index = index

    @classmethod
    def common_policy(
        cls,
        labels: Iterable[str],
        initial: Sequence[StateVector],
        policy: TransitionMatrix,
    ) -> "WalkerEnsemble":
        """All walkers follow the same policy (possibly distinct starts)."""
        return cls([(l, s0, policy) for l, s0 in zip(labels, initial)])

    @property
    def n_walkers(self) -> int:
        return len(self.walkers)

    def state_matrix(self, k: int) -> np.ndarray:
        """M x N matrix whose row j is walker j's distribution after k steps."""
        return np.stack(
            [propagate(s0, policy, k).probs for _, s0, policy in self.walkers]
        )

    def __repr__(self) -> str:
        return f"WalkerEnsemble(M={self.n_walkers}, N={self.n_states})"


# --- file formats -----------------------------------------------------------
#
# Matrices: JSON {"n": N, "rows": [[...], ...]} or CSV with one row per line.
# Vectors:  JSON {"probs": [...]} or numbers split by commas or whitespace.
# Ensembles: JSON {"n_states": N, "walkers": [{"label", "s0", "policy"}...],
#            "adjacency": [[...]] (optional, enforces the support rule)}.


def json_field(obj, key: str, where: str):
    """``obj[key]``, or a ValueError naming the field and where it was expected."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f'{where} has no "{key}"')
    return obj[key]


def json_count(obj, key: str, where: str) -> int:
    """``json_field``, refusing any value but an integer."""
    value = json_field(obj, key, where)
    if type(value) is not int:
        raise ValueError(f'{where} "{key}" must be an integer, not {value!r}')
    return value


def json_numbers(obj, key: str, where: str) -> np.ndarray:
    """``json_field`` as floats, refusing all but JSON numbers in equal-length lists."""
    value = json_field(obj, key, where)
    try:
        numbers = np.array(value, dtype=object)
        if not all(type(x) in (int, float) for x in numbers.flat):
            raise TypeError
        return numbers.astype(float)
    except (TypeError, ValueError, OverflowError):
        wanted = "must hold numbers in lists of equal length"
        raise ValueError(f'{where} "{key}" {wanted}, not {value!r}') from None


def matrix_from_json(obj: dict) -> TransitionMatrix:
    n = json_count(obj, "n", "transition matrix JSON")
    rows = json_numbers(obj, "rows", "transition matrix JSON")
    if rows.ndim and len(rows) != n:
        raise ValueError(f"matrix declares n={n} but has {len(rows)} rows")
    return TransitionMatrix(rows)


def matrix_to_json(matrix: TransitionMatrix) -> dict:
    return {"n": matrix.n_states, "rows": matrix.entries.tolist()}


def vector_to_json(vector: StateVector) -> dict:
    return {"probs": vector.probs.tolist()}


def _text_numbers(fields: list[str], where: str) -> list[float]:
    """``fields`` as floats; ValueError names ``where`` and a field that is not one."""
    values = []
    for k, x in enumerate(fields, 1):
        try:
            values.append(float(x))
        except ValueError:
            raise ValueError(f"{where}, field {k}: {x!r} is not a number") from None
    return values


def matrix_from_csv(text: str) -> TransitionMatrix:
    """One row per non-empty CSV line.  A field that is not a number, or a
    row longer or shorter than the first, raises ValueError naming its line."""
    reader = csv.reader(io.StringIO(text))
    rows, first = [], None
    for fields in reader:
        if fields:
            where = f"transition matrix CSV line {reader.line_num}"
            rows.append(_text_numbers(fields, where))
            first = first or (reader.line_num, len(fields))
            if len(fields) != first[1]:
                wanted = f"but line {first[0]} has {first[1]}"
                raise ValueError(f"{where}: {len(fields)} field(s), {wanted}")
    return TransitionMatrix(rows)


def ensemble_from_json(obj: dict) -> WalkerEnsemble:
    """Parse an ensemble document, enforcing the adjacency support rule.

    Labels must be all strings or all integers, so that they sort.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("walkers"), list):
        raise ValueError('an ensemble must be a JSON object with a "walkers" list')
    n = json_count(obj, "n_states", "ensemble")
    walkers = []
    for i, w in enumerate(obj["walkers"]):
        label = w.get("label") if isinstance(w, dict) else None
        mixed = walkers and type(label) is not type(walkers[0][0])
        if type(label) not in (str, int) or mixed:
            raise ValueError(
                f"walker {i} has label {label!r}: labels must be all strings or all integers"
            )
        where = f"walker {i} ({label!r})"
        s0, policy = json_numbers(w, "s0", where), json_numbers(w, "policy", where)
        try:
            s0, policy = StateVector(s0), TransitionMatrix(policy)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
        if s0.n_states != n or policy.n_states != n:
            raise ValueError(f"{where} does not match n_states={n}")
        walkers.append((label, s0, policy))
    ensemble = WalkerEnsemble(walkers)
    if "adjacency" in obj:
        adjacency = json_numbers(obj, "adjacency", "ensemble")
        for label, _, policy in ensemble.walkers:
            bad = validate_policy(policy, adjacency)
            if bad:
                raise ValueError(
                    f"policy of walker {label!r} moves off the underlying graph "
                    f"at {bad}"
                )
    return ensemble


def ensemble_to_json(ensemble: WalkerEnsemble) -> dict:
    return {
        "n_states": ensemble.n_states,
        "walkers": [
            {"label": label, "s0": s0.probs.tolist(), "policy": policy.entries.tolist()}
            for label, s0, policy in ensemble.walkers
        ],
    }


def load_matrix(path: str) -> TransitionMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return matrix_from_json(json.loads(text))
    return matrix_from_csv(text)


def load_vector(path: str) -> StateVector:
    """A steady-state vector file read as weights, normalized to unit mass.

    Published tables are often rounded and miss exact unit mass.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        values = json_numbers(json.loads(text), "probs", "steady vector JSON")
        if values.ndim != 1:
            raise ValueError('steady vector JSON "probs" must be a flat list of numbers')
    else:
        lines = enumerate(text.replace(",", " ").splitlines(), 1)
        rows = [_text_numbers(line.split(), f"steady vector line {n}") for n, line in lines]
        values = np.array([x for row in rows for x in row])
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise ValueError("steady vector must be non-empty and finite")
    if np.any(values < 0):
        raise ValueError("steady vector must be non-negative")
    total = values.sum()
    if total <= 0:
        raise ValueError("steady vector must have positive mass")
    return StateVector(values / total)
