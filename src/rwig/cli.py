"""Command-line surface for batch runs.

Exit codes: 0 success, 1 input or validation failure, 2 internal
consistency violation (e.g. ``rwig pmf --oracle`` finding the default DP
over states, accurate to about 1e-15 relative, more than 1e-9 from the
brute force), so consistency checks are scriptable in CI.  All randomness
flows from a single --seed flag; its absence means seed 0, never entropy.
Each subcommand imports the modules it runs: ``rwig pmf`` and ``rwig
steady`` load only ``combinatorics``, ``contact_graph``, ``markov`` and
``pmf``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Callable, Iterator, TextIO, TypeVar

import numpy as np

from . import pmf as pmf_mod
from .combinatorics import contact_graph_count, restricted_growth_strings
from .contact_graph import default_labels, json_blocks
from .markov import (
    StateVector,
    SteadyStateError,
    TransitionMatrix,
    WalkerEnsemble,
    ensemble_from_json,
    load_matrix,
    load_vector,
    steady_state,
)

T = TypeVar("T")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write(text: str, path: str | None) -> None:
    with _output(path) as fh:
        fh.write(text)


def _load_ensemble(path: str) -> WalkerEnsemble:
    with open(path, "r", encoding="utf-8") as fh:
        return ensemble_from_json(json.load(fh))


def _read_text(path: str, parse: Callable[[TextIO], T]) -> T:
    """``parse`` of the text file at ``path``.  utf-8-sig drops a leading
    byte-order mark, which is not part of the data; a byte that is not
    UTF-8 raises ValueError naming the file and the first such byte's line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        # surrogateescape reads each such byte as one lone surrogate.
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, 1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as error:
                    byte = ord(line[error.start]) - 0xDC00
                    raise ValueError(
                        f"{path} line {line_no}: byte {byte:#04x} is not UTF-8"
                    ) from None
        raise


def _parse_range(text: str, flag: str) -> list[int]:
    """Grid axis: "4:7" (inclusive), "4,5,6", or a single integer, all >= 1."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} {text!r}: expected integers, as LO:HI, A,B or N") from None
    if not values:
        raise ValueError(f"{flag} {text!r} is an empty range")
    if min(values) < 1:
        raise ValueError(f"{flag} {text!r}: values must be at least 1")
    return values


def _steady_vector_from_args(args) -> StateVector:
    if args.vector is not None:
        return load_vector(args.vector)
    if args.policy is not None:
        policy = load_matrix(args.policy)
    else:
        ensemble = _load_ensemble(args.ensemble)
        differs = (ensemble.policies != ensemble.policies[0]).any(axis=(1, 2))
        if differs.any():
            label = ensemble.labels[differs.argmax()]
            raise ValueError(
                f"steady-state analysis needs a common policy; walker {label!r} differs"
            )
        policy = TransitionMatrix(ensemble.policies[0])
    return steady_state(policy, tol=args.tol, max_iters=args.max_iters)


def _check_oracle(dist, reference, tol: float) -> None:
    """Raise (exit code 2) if ``dist`` strays from its oracle beyond ``tol``."""
    worst = pmf_mod.max_deviation(dist, reference)
    if worst > tol:
        raise RuntimeError(
            f"oracle mismatch: max deviation {worst:.3e} exceeds {tol:.0e}"
        )


# Most state assignments the brute force of ``rwig steady --cross-check`` may
# sum: N!/(N - m)! ordered tuples of distinct states for each clique multiset
# with m cliques, at about 0.4 us each.
CROSS_CHECK_ASSIGNMENTS = 10**7


# --- subcommands -------------------------------------------------------------


def cmd_enumerate(args) -> int:
    count = contact_graph_count(args.walkers, args.states)
    print(count)
    if args.stream:
        labels = sorted(default_labels(args.walkers))
        blocks = restricted_growth_strings(args.walkers, min(args.walkers, args.states))
        with _output(args.output) as fh:
            fh.writelines(json_blocks(blocks, labels, tail=("\n",)))
    return 0


def cmd_pmf(args) -> int:
    ensemble = _load_ensemble(args.ensemble)
    dist = pmf_mod.full_distribution(ensemble, args.time, budget=args.budget)
    if args.oracle:
        reference = pmf_mod.full_distribution(
            ensemble, args.time, budget=args.budget, method="bruteforce"
        )
        _check_oracle(dist, reference, 1e-9)
    with _output(args.output) as fh:
        dist.write_json(fh)
    return 0


def cmd_steady(args) -> int:
    s_tilde = _steady_vector_from_args(args)
    dist = pmf_mod.unlabelled_steady_state_distribution(args.walkers, s_tilde)
    if args.cross_check:
        n = s_tilde.n_states
        assignments = sum(math.perm(n, u.n_cliques) for u in dist.entries)
        if assignments > CROSS_CHECK_ASSIGNMENTS:
            raise ValueError(
                f"--cross-check would sum {assignments:,} brute-force state assignments, "
                f"over the limit of {CROSS_CHECK_ASSIGNMENTS:,}"
            )
        oracle = pmf_mod.unlabelled_steady_state_pmf_bruteforce
        reference = pmf_mod.GraphDistribution({u: oracle(u, s_tilde) for u in dist.entries})
        _check_oracle(dist, reference, 1e-10)
    size_hist = pmf_mod.distribution_clique_size_histogram(dist, min_size=args.min_size)
    count_hist = pmf_mod.distribution_clique_count_histogram(
        dist, include_singletons=not args.exclude_singletons
    )
    if args.output:
        with _output(f"{args.output}_distribution.json") as fh:
            dist.write_json(fh)
        _write(pmf_mod.histogram_to_csv(size_hist), f"{args.output}_clique_sizes.csv")
        _write(
            pmf_mod.histogram_to_csv(count_hist), f"{args.output}_clique_counts.csv"
        )
    else:
        document = {
            "steady_state": s_tilde.probs.tolist(),
            "distribution": dist.to_json_obj(),
            "clique_size_histogram": size_hist,
            "clique_count_histogram": count_hist,
        }
        sys.stdout.write(json.dumps(document, indent=2) + "\n")
    return 0


def cmd_sample(args) -> int:
    from . import simulate as simulate_mod

    ensemble = _load_ensemble(args.ensemble)
    # Bad arguments raise here, before the output file is opened.
    blocks = simulate_mod.sample_jsonl(ensemble, args.horizon, args.seed)
    with _output(args.output) as fh:
        fh.writelines(blocks)
    return 0


def cmd_analyze(args) -> int:
    from . import ingest as ingest_mod
    from . import simulate as simulate_mod

    table = _read_text(args.input, ingest_mod.read_colocation)
    if not table.times:
        raise ValueError(f"{args.input} holds no 't i j' edge line")
    roster = None
    if args.roster:
        roster = _read_text(args.roster, ingest_mod.load_roster)
    rows = ingest_mod.clique_rows(table)
    # What follows reads only the rows, times and nodes: free the edges.
    times, nodes = table.times, table.nodes
    del table
    size_hist, count_hist = ingest_mod.row_distributions(rows, nodes, roster=roster)
    if args.output:
        with _output(f"{args.output}_graphs.jsonl") as fh:
            fh.writelines(simulate_mod.jsonl_blocks(times, rows, nodes))
        _write(pmf_mod.histogram_to_csv(size_hist), f"{args.output}_clique_sizes.csv")
        _write(
            pmf_mod.histogram_to_csv(count_hist), f"{args.output}_clique_counts.csv"
        )
    else:
        document = {
            "snapshots": len(times),
            "clique_size_histogram": size_hist,
            "clique_count_histogram": count_hist,
        }
        sys.stdout.write(json.dumps(document, indent=2) + "\n")
    return 0


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    cells = bench_mod.benchmark_grid(
        _parse_range(args.m_range, "--m-range"),
        _parse_range(args.n_range, "--n-range"),
        iterations=args.iterations,
        seed=args.seed,
        budget_s=args.budget_seconds,
    )
    csv_text = bench_mod.cells_to_csv(cells)
    if args.output:
        _write(csv_text, f"{args.output}.csv")
        _write(bench_mod.cells_to_json(cells) + "\n", f"{args.output}.json")
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rwig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count (and stream) contact graphs")
    p.add_argument("--walkers", type=int, required=True, metavar="M")
    p.add_argument("--states", type=int, required=True, metavar="N")
    p.add_argument("--stream", action="store_true", help="also emit graphs as JSONL")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("pmf", help="exact contact-graph distribution at time k")
    p.add_argument("--ensemble", required=True, help="ensemble JSON file")
    p.add_argument("--time", type=int, required=True, metavar="K")
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="recompute by state enumeration and fail on any deviation > 1e-9",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("steady", help="unlabelled steady-state distribution")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ensemble", help="ensemble JSON (common policy)")
    source.add_argument("--policy", help="transition matrix file (JSON or CSV)")
    source.add_argument("--vector", help="steady-state vector file (JSON or CSV)")
    p.add_argument("--walkers", type=int, required=True, metavar="M")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iters", type=int, default=1_000_000)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--exclude-singletons", action="store_true")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="recompute by state enumeration and fail beyond 1e-10; refused past "
        f"{CROSS_CHECK_ASSIGNMENTS:,} state assignments (small M only)",
    )
    p.add_argument("-o", "--output", default=None, metavar="PREFIX")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("sample", help="sample a contact-graph sequence")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--horizon", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analyze", help="validate and summarize co-location data")
    p.add_argument("--input", required=True, help='"t i j" edge list file')
    p.add_argument("--roster", default=None, help="optional node roster file")
    p.add_argument("-o", "--output", default=None, metavar="PREFIX")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="time the closed form against its oracle")
    p.add_argument("--m-range", required=True, help='e.g. "4:7" or "4,6"')
    p.add_argument("--n-range", required=True)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-seconds", type=float, default=120.0)
    p.add_argument("-o", "--output", default=None, metavar="PREFIX")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SteadyStateError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
