"""The benchmark's pinned workloads: seeded inputs, jobs, gates and traces.

Each workload is a kind (``pmf``, ``steady`` or ``sample_analyze``) plus a
parameter dict.  A kind knows how to

* write the workload's input files from a seed (``inputs``),
* name the job's parts, each one fresh program process (``parts``),
* build the command line that runs a part untraced (``argv``),
* check a part's output files against oracles (``check``), and
* run a part in-process with a span around each call into an rwig module
  (``traced``), writing the same output files as the untraced part.

The program only ever sees the generated input files.  Every random value
comes from ``np.random.default_rng([seed, tag])``, with one tag per input, so
the same seed gives byte-identical inputs and different inputs of one seed
never share a stream.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CHILD = Path(__file__).resolve().parent / "child.py"

PMF_TOL = 1e-9          # absolute agreement with the brute-force oracle
STEADY_TOL = 1e-10      # the same bound as ``rwig steady --cross-check``
MASS_TOL = 1e-9         # total probability mass
INEXACT_REL = 1e-6      # relative error above which an entry is inexact
MC_SIGMAS = 6.0         # Monte-Carlo bound, in binomial standard deviations

# Seed tags: one independent stream per generated input.
TAG_ENSEMBLE, TAG_ORACLE, TAG_POLICY = 1, 2, 3
TAG_EMPIRICAL, TAG_SAMPLE, TAG_EDGES = 4, 5, 6


@dataclass
class Check:
    """Outcome of one part's gates: failure messages and oracle statistics."""

    failures: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n", encoding="utf-8")


def _rwig_cli(*args) -> list[str]:
    return [sys.executable, "-m", "rwig.cli", *map(str, args)]


# --- input generators -------------------------------------------------------


def concentrated_ensemble(m_walkers: int, n_states: int, off_mass: float, seed):
    """Walkers that sit on state 0: ``off_mass`` of s0 and of each policy row
    is spread (flat Dirichlet) over the other states."""
    from rwig.markov import StateVector, TransitionMatrix, WalkerEnsemble

    rng = np.random.default_rng(seed)
    walkers = []
    for i in range(m_walkers):
        s0 = np.empty(n_states)
        s0[0] = 1.0 - off_mass
        s0[1:] = off_mass * rng.dirichlet(np.ones(n_states - 1))
        rows = np.empty((n_states, n_states))
        rows[:, 0] = 1.0 - off_mass
        rows[:, 1:] = off_mass * rng.dirichlet(np.ones(n_states - 1), size=n_states)
        walkers.append((f"w{i + 1}", StateVector(s0), TransitionMatrix(rows)))
    return WalkerEnsemble(walkers)


def doubly_stochastic_walk(m_walkers: int, n_states: int, horizon: int, seed,
                           n_perms: int = 4) -> np.ndarray:
    """States (horizon + 1, M) of walkers that start uniformly and step by a
    random mixture of ``n_perms`` permutations of the states.

    Such a policy is doubly stochastic, so every marginal stays uniform and
    each pair of walkers meets with probability exactly 1/N per step: the
    edge count of the walk barely depends on the seed."""
    rng = np.random.default_rng(seed)
    perms = np.stack([[rng.permutation(n_states) for _ in range(n_perms)]
                      for _ in range(m_walkers)])
    weights = rng.dirichlet(np.ones(n_perms), size=m_walkers)
    chosen = (rng.random((horizon, m_walkers, 1)) > np.cumsum(weights, axis=1)).sum(axis=2)
    chosen = np.minimum(chosen, n_perms - 1)
    walkers = np.arange(m_walkers)
    states = np.empty((horizon + 1, m_walkers), dtype=np.int64)
    states[0] = rng.integers(n_states, size=m_walkers)
    for t in range(horizon):
        states[t + 1] = perms[walkers, chosen[t], states[t]]
    return states


def walker_labels(m_walkers: int) -> list[str]:
    return [f"w{i + 1}" for i in range(m_walkers)]


def _write_ensemble(path: Path, ensemble) -> None:
    from rwig.markov import ensemble_to_json

    _write_json(path, ensemble_to_json(ensemble))


def _load_ensemble(path: Path):
    from rwig.markov import ensemble_from_json

    return ensemble_from_json(json.loads(path.read_text(encoding="utf-8")))


def _load_distribution(path: Path) -> list[tuple[list, float]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [(entry["graph"], float(entry["p"])) for entry in doc]


def _distribution_text(dist) -> str:
    # The format ``rwig pmf`` and ``rwig steady -o`` write.
    return json.dumps(dist.to_json_obj(), indent=2) + "\n"


def _check_mass(check: Check, probs: list[float]) -> None:
    total = math.fsum(probs)
    if abs(total - 1.0) > MASS_TOL:
        check.fail(f"total mass {total!r} is off 1 by more than {MASS_TOL:g}")
    if any(not 0.0 <= p <= 1.0 for p in probs):
        check.fail("a probability lies outside [0, 1]")


class _Oracle:
    """Accumulates the comparison of returned entries with oracle values."""

    def __init__(self, check: Check, tol: float):
        self.check, self.tol = check, tol
        self.checked = self.inexact = self.clamped = self.mismatched = 0
        self.rel_err_max = 0.0
        self.started = time.perf_counter()

    def compare(self, what, p: float, reference: float) -> None:
        self.checked += 1
        if abs(p - reference) > self.tol:
            self.mismatched += 1
            if self.mismatched <= 3:
                self.check.fail(f"{what}: {p!r} vs oracle {reference!r}")
        if reference > 0.0:
            rel = abs(p - reference) / reference
            self.rel_err_max = max(self.rel_err_max, rel)
            self.inexact += rel > INEXACT_REL
            self.clamped += p == 0.0

    def finish(self) -> None:
        if self.mismatched > 3:
            self.check.fail(f"{self.mismatched} entries disagree with the oracle")
        self.check.stats.update(
            {
                "pmf.oracle_s": time.perf_counter() - self.started,
                "pmf.oracle_checked": self.checked,
                "pmf.inexact_entries": self.inexact,
                "pmf.clamped_to_zero": self.clamped,
                "pmf.rel_err_max": self.rel_err_max,
            }
        )


# --- pmf: rwig pmf on a labelled ensemble -----------------------------------


class PmfKind:
    """``rwig pmf --time K`` on one ensemble of M walkers over N states."""

    @staticmethod
    def ensemble(p: dict, seed: int):
        from rwig.bench import random_ensemble

        rng = _rng(seed, TAG_ENSEMBLE)
        if p["ensemble"] == "random":
            return random_ensemble(p["m"], p["n"], rng)
        return concentrated_ensemble(p["m"], p["n"], p["off_mass"], rng)

    @staticmethod
    def inputs(p: dict, seed: int, d: Path) -> None:
        _write_ensemble(d / "ensemble.json", PmfKind.ensemble(p, seed))

    @staticmethod
    def parts(p: dict) -> list[str]:
        return ["pmf"]

    @staticmethod
    def argv(part: str, p: dict, inputs: Path, out: Path) -> list[str]:
        return _rwig_cli(
            "pmf", "--ensemble", inputs / "ensemble.json", "--time", p["time"],
            "-o", out / "pmf.json",
        )

    @staticmethod
    def check(part: str, p: dict, seed: int, inputs: Path, out: Path) -> Check:
        from rwig.combinatorics import contact_graph_count
        from rwig.contact_graph import ContactGraph, enumerate_graphs
        from rwig.pmf import pmf_bruteforce

        check = Check()
        entries = _load_distribution(out / "pmf.json")
        returned = {ContactGraph.from_json_obj(g): prob for g, prob in entries}
        expected = contact_graph_count(p["m"], p["n"])
        if len(entries) != expected:
            check.fail(f"{len(entries)} graphs returned, {expected} expected")
        if len(returned) != len(entries):
            check.fail("a graph is listed more than once")
        _check_mass(check, [prob for _, prob in entries])

        ensemble = _load_ensemble(inputs / "ensemble.json")
        graphs = list(enumerate_graphs(p["m"], p["n"], labels=ensemble.labels))
        if p["oracle_graphs"] is not None and p["oracle_graphs"] < len(graphs):
            pick = _rng(seed, TAG_ORACLE).choice(
                len(graphs), p["oracle_graphs"], replace=False
            )
            graphs = [graphs[i] for i in sorted(pick)]
        states = ensemble.state_matrix(p["time"])
        oracle = _Oracle(check, PMF_TOL)
        for g in graphs:
            if g not in returned:
                check.fail(f"graph {g.to_json_obj()} is missing")
                continue
            reference = pmf_bruteforce(g, ensemble, p["time"], _states=states)
            oracle.compare(g.to_json_obj(), returned[g], reference)
        oracle.finish()
        return check

    @staticmethod
    def traced(part: str, p: dict, inputs: Path, out: Path, tr) -> None:
        """``cmd_pmf`` split at its module calls, evaluating every graph
        with one states matrix and one sigma cache as full_distribution does."""
        from rwig.combinatorics import bell
        from rwig.contact_graph import enumerate_graphs
        from rwig.markov import ensemble_from_json
        from rwig.pmf import GraphDistribution, pmf_closed_form

        with tr.span("markov.load"):
            with open(inputs / "ensemble.json", "r", encoding="utf-8") as fh:
                ensemble = ensemble_from_json(json.load(fh))
        k = p["time"]
        with tr.span("markov.state_matrix"):
            states = ensemble.state_matrix(k)
        with tr.span("contact_graph.enumerate"):
            graphs = list(
                enumerate_graphs(ensemble.n_walkers, ensemble.n_states, ensemble.labels)
            )
        cache: dict = {}
        with tr.span("pmf.expansion"):
            entries = {
                g: pmf_closed_form(g, ensemble, k, _states=states, _sigma_cache=cache)
                for g in graphs
            }
        with tr.span("pmf.serialize"):
            text = _distribution_text(GraphDistribution(entries, k, ensemble))
        with tr.span("cli.write"):
            (out / "pmf.json").write_text(text, encoding="utf-8")

        # A graph with m cliques expands into bell(m) partitions, whose cells
        # number bell(m + 1) - bell(m) in total: one sigma lookup per cell.
        evaluated = [g.n_cliques for g in graphs if g.n_cliques <= ensemble.n_states]
        tr.counts["contact_graph.graphs"] = len(graphs)
        tr.counts["pmf.expansion_terms"] = sum(bell(m) for m in evaluated)
        tr.counts["pmf.sigma_lookups"] = sum(bell(m + 1) - bell(m) for m in evaluated)
        tr.counts["pmf.sigma_evals"] = len(cache)


# --- steady: rwig steady on a policy file -----------------------------------


class SteadyKind:
    """``rwig steady --policy P.csv --walkers M`` for a Dirichlet N x N policy."""

    @staticmethod
    def inputs(p: dict, seed: int, d: Path) -> None:
        n = p["n"]
        rows = _rng(seed, TAG_POLICY).dirichlet(np.ones(n), size=n)
        text = "".join(",".join(repr(x) for x in row) + "\n" for row in rows.tolist())
        (d / "policy.csv").write_text(text, encoding="utf-8")

    @staticmethod
    def parts(p: dict) -> list[str]:
        return ["steady"]

    @staticmethod
    def argv(part: str, p: dict, inputs: Path, out: Path) -> list[str]:
        return _rwig_cli(
            "steady", "--policy", inputs / "policy.csv", "--walkers", p["m"],
            "-o", out / "steady",
        )

    @staticmethod
    def check(part: str, p: dict, seed: int, inputs: Path, out: Path) -> Check:
        from rwig.combinatorics import integer_partitions
        from rwig.contact_graph import UnlabelledContactGraph
        from rwig.markov import StateVector, load_matrix
        from rwig.pmf import unlabelled_steady_state_pmf_bruteforce
        from rwig.simulate import histogram_from_csv

        check = Check()
        entries = _load_distribution(out / "steady_distribution.json")
        sizes = [tuple(g) for g, _ in entries]
        expected = {
            q.parts for q in integer_partitions(p["m"]) if q.n_parts <= p["n"]
        }
        if len(sizes) != len(expected) or set(sizes) != expected:
            check.fail(
                f"{len(sizes)} multisets returned, {len(expected)} expected"
            )
        _check_mass(check, [prob for _, prob in entries])
        for name in ("clique_sizes", "clique_counts"):
            hist = histogram_from_csv(
                (out / f"steady_{name}.csv").read_text(encoding="utf-8")
            )
            if abs(math.fsum(hist.values()) - 1.0) > MASS_TOL:
                check.fail(f"{name} histogram does not sum to 1")

        # The stationary vector from a linear solve, independent of the
        # program's power iteration.
        policy = load_matrix(str(inputs / "policy.csv")).entries
        n = policy.shape[0]
        system = np.vstack([policy.T - np.eye(n), np.ones(n)])
        rhs = np.zeros(n + 1)
        rhs[-1] = 1.0
        pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
        s_tilde = StateVector(np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum())
        oracle = _Oracle(check, STEADY_TOL)
        for parts, prob in entries:
            if len(parts) <= p["oracle_parts"]:
                u = UnlabelledContactGraph.from_sizes(parts)
                reference = unlabelled_steady_state_pmf_bruteforce(u, s_tilde)
                oracle.compare(parts, prob, reference)
        oracle.finish()
        return check

    @staticmethod
    def traced(part: str, p: dict, inputs: Path, out: Path, tr) -> None:
        """``cmd_steady`` split at its module calls.  Each multiset's
        probability is evaluated twice: the first call pays for the cached
        expansion coefficients, the second only for the evaluation."""
        from rwig.combinatorics import bell, integer_partitions
        from rwig.contact_graph import UnlabelledContactGraph
        from rwig.markov import load_matrix, steady_state
        from rwig.pmf import (
            GraphDistribution,
            distribution_clique_count_histogram,
            distribution_clique_size_histogram,
            labelled_steady_state_pmf,
            unlabelled_steady_state_pmf,
        )
        from rwig.simulate import histogram_to_csv

        with tr.span("markov.load"):
            policy = load_matrix(str(inputs / "policy.csv"))
        with tr.span("markov.steady_state"):
            s_tilde = steady_state(policy, tol=1e-12, max_iters=1_000_000)
        with tr.span("combinatorics.integer_partitions"):
            multisets = [
                q for q in integer_partitions(p["m"]) if q.n_parts <= s_tilde.n_states
            ]
        entries = {}
        for q in multisets:
            with tr.span("pmf.steady_cold"):
                labelled_steady_state_pmf(q.parts, s_tilde)
            u = UnlabelledContactGraph(q)
            with tr.span("pmf.steady_warm"):
                entries[u] = unlabelled_steady_state_pmf(u, s_tilde)
        dist = GraphDistribution(entries)
        with tr.span("pmf.histogram"):
            size_hist = distribution_clique_size_histogram(dist, min_size=2)
            count_hist = distribution_clique_count_histogram(dist)
        with tr.span("pmf.serialize"):
            texts = {
                "distribution.json": _distribution_text(dist),
                "clique_sizes.csv": histogram_to_csv(size_hist),
                "clique_counts.csv": histogram_to_csv(count_hist),
            }
        with tr.span("cli.write"):
            for suffix, text in texts.items():
                (out / f"steady_{suffix}").write_text(text, encoding="utf-8")

        s = s_tilde.probs
        tr.counts["markov.steady_state_residual"] = float(
            np.abs(s @ policy.entries - s).max()
        )
        tr.counts["pmf.steady_multisets"] = len(entries)
        tr.counts["pmf.steady_partitions_walked"] = sum(
            bell(q.n_parts) for q in multisets
        )


# --- sample_analyze: simulate and ingest ------------------------------------


class SampleAnalyzeKind:
    """Three parts: ``empirical_distribution`` (a library call with no
    subcommand), ``rwig sample`` and ``rwig analyze --roster``."""

    @staticmethod
    def source_walk(p: dict, seed: int) -> np.ndarray:
        """The walk whose co-locations ``rwig analyze`` reads."""
        return doubly_stochastic_walk(
            p["edge_m"], p["edge_n"], p["edge_horizon"], _rng(seed, TAG_EDGES)
        )

    @staticmethod
    def inputs(p: dict, seed: int, d: Path) -> None:
        from rwig.bench import random_ensemble

        seeds = {}
        for part, tag in (("empirical", TAG_EMPIRICAL), ("sample", TAG_SAMPLE)):
            rng = _rng(seed, tag)
            ensemble = random_ensemble(p[f"{part}_m"], p[f"{part}_n"], rng)
            _write_ensemble(d / f"{part}_ensemble.json", ensemble)
            seeds[part] = int(rng.integers(2**31))
        _write_json(d / "seeds.json", seeds)
        states = SampleAnalyzeKind.source_walk(p, seed)
        labels = walker_labels(p["edge_m"])
        first, second = np.triu_indices(len(labels), k=1)
        t_idx, pair_idx = np.nonzero(states[:, first] == states[:, second])
        lines = [
            f"{t} {labels[a]} {labels[b]}\n"
            for t, a, b in zip(
                t_idx.tolist(), first[pair_idx].tolist(), second[pair_idx].tolist()
            )
        ]
        (d / "edges.txt").write_text("".join(lines), encoding="utf-8")
        (d / "roster.txt").write_text("".join(f"{w}\n" for w in labels), encoding="utf-8")

    @staticmethod
    def parts(p: dict) -> list[str]:
        return ["empirical", "sample", "analyze"]

    @staticmethod
    def argv(part: str, p: dict, inputs: Path, out: Path) -> list[str]:
        seeds = json.loads((inputs / "seeds.json").read_text(encoding="utf-8"))
        if part == "empirical":
            return [
                sys.executable, str(CHILD), "empirical",
                "--ensemble", str(inputs / "empirical_ensemble.json"),
                "--time", str(p["empirical_time"]), "--replicas", str(p["replicas"]),
                "--seed", str(seeds["empirical"]), "-o", str(out / "empirical.json"),
            ]
        if part == "sample":
            return _rwig_cli(
                "sample", "--ensemble", inputs / "sample_ensemble.json",
                "--horizon", p["horizon"], "--seed", seeds["sample"],
                "-o", out / "sample.jsonl",
            )
        return _rwig_cli(
            "analyze", "--input", inputs / "edges.txt",
            "--roster", inputs / "roster.txt", "-o", out / "analyze",
        )

    @staticmethod
    def check(part: str, p: dict, seed: int, inputs: Path, out: Path) -> Check:
        return getattr(SampleAnalyzeKind, f"_check_{part}")(p, seed, inputs, out)

    @staticmethod
    def _check_empirical(p: dict, seed: int, inputs: Path, out: Path) -> Check:
        from rwig.contact_graph import ContactGraph
        from rwig.pmf import full_distribution

        check = Check()
        entries = _load_distribution(out / "empirical.json")
        _check_mass(check, [prob for _, prob in entries])
        ensemble = _load_ensemble(inputs / "empirical_ensemble.json")
        exact = full_distribution(ensemble, p["empirical_time"]).entries
        observed = {ContactGraph.from_json_obj(g): prob for g, prob in entries}
        replicas = p["replicas"]
        outliers = 0
        for g in set(exact) | set(observed):
            # Binomial count against its mean; the additive term keeps the
            # bound valid for graphs whose expected count is below one.
            mean = replicas * exact.get(g, 0.0)
            count = observed.get(g, 0.0) * replicas
            spread = math.sqrt(mean * (1.0 - exact.get(g, 0.0)))
            outliers += abs(count - mean) > MC_SIGMAS * spread + MC_SIGMAS
        if outliers:
            check.fail(f"{outliers} graph frequencies fall outside the Monte-Carlo bound")
        return check

    @staticmethod
    def _check_sample(p: dict, seed: int, inputs: Path, out: Path) -> Check:
        check = Check()
        labels = sorted(walker_labels(p["sample_m"]))
        lines = (out / "sample.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != p["horizon"] + 1:
            check.fail(f"{len(lines)} snapshots written, {p['horizon'] + 1} expected")
        for t, line in enumerate(lines):
            obj = json.loads(line)
            if obj["t"] != t or sorted(w for c in obj["graph"] for w in c) != labels:
                check.fail(f"snapshot {t} does not partition the walkers")
                break
        return check

    @staticmethod
    def _check_analyze(p: dict, seed: int, inputs: Path, out: Path) -> Check:
        from rwig.contact_graph import from_assignment
        from rwig.simulate import (
            clique_count_distribution,
            clique_size_distribution,
            histogram_from_csv,
        )

        check = Check()
        states = SampleAnalyzeKind.source_walk(p, seed)
        labels = walker_labels(p["edge_m"])
        # Bins where every walker is alone have no edges and no snapshot.
        seq = [
            from_assignment(dict(zip(labels, row)))
            for row in states.tolist()
            if len(set(row)) < len(row)
        ]
        # The roster puts absent walkers back as singletons, so the counts
        # must match the source including singletons.
        expected = {
            "clique_sizes": clique_size_distribution(seq, min_size=2),
            "clique_counts": clique_count_distribution(seq),
        }
        for name, hist in expected.items():
            got = histogram_from_csv(
                (out / f"analyze_{name}.csv").read_text(encoding="utf-8")
            )
            if got != hist:
                check.fail(f"analyze {name} histogram differs from the source sequence")
        lines = (out / "analyze_graphs.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != len(seq):
            check.fail(f"{len(lines)} snapshots analyzed, {len(seq)} in the source")
        return check

    @staticmethod
    def traced(part: str, p: dict, inputs: Path, out: Path, tr) -> None:
        getattr(SampleAnalyzeKind, f"_traced_{part}")(p, inputs, out, tr)

    @staticmethod
    def _traced_empirical(p: dict, inputs: Path, out: Path, tr) -> None:
        from rwig.markov import ensemble_from_json
        from rwig.simulate import empirical_distribution

        seeds = json.loads((inputs / "seeds.json").read_text(encoding="utf-8"))
        with tr.span("markov.load"):
            with open(inputs / "empirical_ensemble.json", "r", encoding="utf-8") as fh:
                ensemble = ensemble_from_json(json.load(fh))
        with tr.span("simulate.empirical"):
            dist = empirical_distribution(
                ensemble, p["empirical_time"], p["replicas"], seeds["empirical"]
            )
        with tr.span("pmf.serialize"):
            text = _distribution_text(dist)
        with tr.span("cli.write"):
            (out / "empirical.json").write_text(text, encoding="utf-8")
        tr.counts["simulate.replicas"] = p["replicas"]
        tr.counts["simulate.distinct_graphs"] = len(dist.entries)

    @staticmethod
    def _traced_sample(p: dict, inputs: Path, out: Path, tr) -> None:
        from rwig.markov import ensemble_from_json
        from rwig.simulate import sample_sequence, sequence_to_jsonl

        seeds = json.loads((inputs / "seeds.json").read_text(encoding="utf-8"))
        with tr.span("markov.load"):
            with open(inputs / "sample_ensemble.json", "r", encoding="utf-8") as fh:
                ensemble = ensemble_from_json(json.load(fh))
        with tr.span("simulate.sample_sequence"):
            seq = sample_sequence(ensemble, p["horizon"], seeds["sample"])
        with tr.span("simulate.jsonl"):
            text = sequence_to_jsonl(seq)
        with tr.span("cli.write"):
            (out / "sample.jsonl").write_text(text, encoding="utf-8")
        tr.counts["simulate.snapshots"] = len(seq)

    @staticmethod
    def _traced_analyze(p: dict, inputs: Path, out: Path, tr) -> None:
        """``cmd_analyze`` split at its module calls, validation included
        twice as the command does it."""
        from rwig.ingest import (
            CliqueUnionViolation,
            dataset_distributions,
            load_roster,
            parse_colocation,
            validate_clique_union,
        )
        from rwig.simulate import histogram_to_csv

        with tr.span("ingest.parse"):
            with open(inputs / "edges.txt", "r", encoding="utf-8") as fh:
                records = parse_colocation(fh)
            with open(inputs / "roster.txt", "r", encoding="utf-8") as fh:
                roster = load_roster(fh)
        with tr.span("ingest.validate"):
            graphs = [(r.timestamp, validate_clique_union(r)) for r in records]
        if any(isinstance(g, CliqueUnionViolation) for _, g in graphs):
            raise ValueError("source snapshot is not a union of cliques")
        with tr.span("ingest.distributions"):
            size_hist, count_hist = dataset_distributions(records, roster=roster)
        with tr.span("cli.serialize"):
            texts = {
                "graphs.jsonl": "\n".join(
                    json.dumps({"t": t, "graph": g.to_json_obj()}, separators=(",", ":"))
                    for t, g in graphs
                )
                + "\n",
                "clique_sizes.csv": histogram_to_csv(size_hist),
                "clique_counts.csv": histogram_to_csv(count_hist),
            }
        with tr.span("cli.write"):
            for suffix, text in texts.items():
                (out / f"analyze_{suffix}").write_text(text, encoding="utf-8")
        tr.counts["ingest.snapshots"] = len(records)
        tr.counts["ingest.edges"] = sum(len(r.edges) for r in records)


KINDS = {"pmf": PmfKind, "steady": SteadyKind, "sample_analyze": SampleAnalyzeKind}


@dataclass(frozen=True)
class Workload:
    kind: str
    params: dict

    @property
    def impl(self):
        return KINDS[self.kind]


# The pinned workloads.  Shapes and reasons are recorded in spec.json.
WORKLOADS = {
    "pmf_dense": Workload(
        "pmf", {"m": 9, "n": 9, "time": 3, "ensemble": "random", "oracle_graphs": 120}
    ),
    "pmf_skewed": Workload(
        "pmf",
        {"m": 10, "n": 4, "time": 2, "ensemble": "concentrated", "off_mass": 1e-3,
         "oracle_graphs": None},
    ),
    "steady": Workload("steady", {"m": 11, "n": 15, "oracle_parts": 4}),
    "sample_analyze": Workload(
        "sample_analyze",
        {"empirical_m": 8, "empirical_n": 5, "empirical_time": 4, "replicas": 20000,
         "sample_m": 20, "sample_n": 10, "horizon": 20000,
         "edge_m": 20, "edge_n": 10, "edge_horizon": 20000},
    ),
}

# Small variants of the same workloads, for the benchmark's own tests.
TINY = {
    "pmf_dense": Workload(
        "pmf", {"m": 4, "n": 4, "time": 2, "ensemble": "random", "oracle_graphs": 5}
    ),
    "pmf_skewed": Workload(
        "pmf",
        {"m": 5, "n": 3, "time": 2, "ensemble": "concentrated", "off_mass": 1e-3,
         "oracle_graphs": None},
    ),
    "steady": Workload("steady", {"m": 5, "n": 6, "oracle_parts": 3}),
    "sample_analyze": Workload(
        "sample_analyze",
        {"empirical_m": 4, "empirical_n": 3, "empirical_time": 2, "replicas": 300,
         "sample_m": 6, "sample_n": 4, "horizon": 40,
         "edge_m": 6, "edge_n": 4, "edge_horizon": 40},
    ),
}
