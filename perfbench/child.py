"""Fresh-process entry points of the benchmark.

    python3 perfbench/child.py inputs --workload W --params JSON --seed S --out DIR
    python3 perfbench/child.py empirical --ensemble F --time K --replicas R --seed S -o F
    python3 perfbench/child.py traced --workload W --params JSON --part P \
        --inputs DIR --out DIR --trace FILE

``inputs`` writes a workload's input files (its wall time is the set-up
time).  ``empirical`` runs ``simulate.empirical_distribution``, which has no
subcommand, the way a user script would.  ``traced`` runs one part of a job
in-process with spans around each call into an rwig module and writes the
spans when it ends.  The rwig package must already be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _inputs(args) -> None:
    from workloads import KINDS

    KINDS[args.workload].inputs(json.loads(args.params), args.seed, Path(args.out))


def _empirical(args) -> None:
    from rwig.markov import ensemble_from_json
    from rwig.simulate import empirical_distribution

    with open(args.ensemble, "r", encoding="utf-8") as fh:
        ensemble = ensemble_from_json(json.load(fh))
    dist = empirical_distribution(ensemble, args.time, args.replicas, args.seed)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dist.to_json_obj(), indent=2) + "\n")


def _traced(args) -> None:
    from tracing import Tracer

    tracer = Tracer(args.part)
    with tracer.span("job"):
        with tracer.span("cli.import"):
            import rwig.cli  # noqa: F401  (the import every subcommand pays)
        from workloads import KINDS

        KINDS[args.workload].traced(
            args.part, json.loads(args.params), Path(args.inputs), Path(args.out), tracer
        )
    Path(args.trace).write_text(json.dumps(tracer.to_json_obj()), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inputs")
    p.add_argument("--workload", required=True, help="workload kind")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_inputs)

    p = sub.add_parser("empirical")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--time", type=int, required=True)
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_empirical)

    p = sub.add_parser("traced")
    p.add_argument("--workload", required=True, help="workload kind")
    p.add_argument("--params", required=True)
    p.add_argument("--part", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_traced)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
