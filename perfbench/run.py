"""rwig's benchmark: pinned, seeded workloads run through the public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports rwig from ``src/`` there and
writes only under ``.perfbench-work/``.  Each job part is a fresh process
(``python3 -m rwig.cli <subcommand>``, or ``perfbench/child.py empirical``
for the library call), one at a time, with BLAS threads at 1.

``--trace 0`` times the workload.  It runs the job repeatedly for
``--seconds`` and reports the median ``job_s`` and ``peak_rss_mb``.  It
also sets up the inputs several times, each a fresh process, spread between
the jobs, and reports the median as ``setup_s``.  A fixed reference process
(``reference.py``) runs before and after every timed process, and each
wall time is scaled by ``REF_NOMINAL_S`` over the mean of the two reference
times around it, so that the host's drifting speed cancels out.
``--trace 1`` alternates an untraced and a traced run of the job for
``--seconds`` and reports the per-layer metrics.  Either way
every output is checked against the oracles in ``workloads.py``, and the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A readable report, with the
throughputs and the failure fraction, goes to stderr.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import durations_by_name, layer_time  # noqa: E402
from workloads import CHILD, WORKLOADS, Workload  # noqa: E402

REFERENCE = HERE / "reference.py"

SETUPS = 5             # set-up repetitions behind the setup_s median
PART_TIMEOUT_S = 150   # a part still running after this counts as failed
WORK_DIR = ".perfbench-work"
# The reference loop's wall time on a quiet period of the 2-vCPU Xeon VM the
# benchmark was built on; scaled times read as wall times on such a host.
REF_NOMINAL_S = 0.3


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


@dataclass
class Proc:
    wall_s: float
    returncode: int
    maxrss_kb: int
    stderr: str
    scaled_s: float = 0.0


@dataclass
class Job:
    out: Path
    parts: dict[str, Proc] = field(default_factory=dict)
    traces: dict[str, dict] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.parts.values())

    @property
    def scaled_s(self) -> float:
        return sum(p.scaled_s for p in self.parts.values())

    @property
    def peak_rss_mb(self) -> float:
        return max(p.maxrss_kb for p in self.parts.values()) / 1024.0


def run_process(argv: list[str], env: dict, cwd: Path, err_path: Path) -> Proc:
    """Run one fresh process to completion; wall time and its own peak RSS."""
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(PART_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, usage.ru_maxrss,
                err_path.read_text(encoding="utf-8", errors="replace")[-2000:])


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, root: Path):
        self.name, self.workload, self.seed, self.root = name, workload, seed, root
        self.impl = workload.impl
        self.params_json = json.dumps(workload.params, sort_keys=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.work = root / WORK_DIR / f"{name}-{seed}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.attempted = 0
        self.failures: list[str] = []
        self.stats: dict[str, float] = {}
        self._outputs: dict[str, dict[str, list]] = {}
        self._inputs_digest = ""
        self.setup_walls: list[float] = []
        self.setup_scaled: list[float] = []
        self.ref_walls: list[float] = []
        self._jobs = 0

    # -- operations ----------------------------------------------------------

    def _op(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def _run(self, argv: list[str], label: str) -> Proc:
        return run_process(argv, self.env, self.root, self.work / f"{label}.err")

    def reference(self) -> None:
        """Run the reference process once and record its wall time."""
        proc = self._run([sys.executable, str(REFERENCE)], "reference")
        if proc.returncode != 0:
            raise BenchError(f"the reference exited {proc.returncode}:\n{proc.stderr}")
        self.ref_walls.append(proc.wall_s)

    def _timed(self, argv: list[str], label: str) -> Proc:
        """Run a timed process, then the reference, and scale its wall time.

        The timed process lies between two reference runs.  ``scaled_s`` is
        its wall time times the nominal over the mean of their wall times:
        its wall time on a host where the reference takes REF_NOMINAL_S."""
        if not self.ref_walls:
            self.reference()
        proc = self._run(argv, label)
        before = self.ref_walls[-1]
        self.reference()
        proc.scaled_s = proc.wall_s * REF_NOMINAL_S / ((before + self.ref_walls[-1]) / 2)
        return proc

    def setup(self) -> None:
        """Write the inputs in a fresh process and record its wall time.

        The first set-up writes the inputs the jobs read; every later one
        must write byte-identical files."""
        i = len(self.setup_walls)
        d = self.inputs if i == 0 else self.work / f"setup{i}"
        d.mkdir(parents=True)
        proc = self._timed(
            [sys.executable, str(CHILD), "inputs", "--workload", self.workload.kind,
             "--params", self.params_json, "--seed", str(self.seed), "--out", str(d)],
            f"setup{i}",
        )
        if proc.returncode != 0:
            raise BenchError(f"input set-up exited {proc.returncode}:\n{proc.stderr}")
        self.setup_walls.append(proc.wall_s)
        self.setup_scaled.append(proc.scaled_s)
        if i == 0:
            self._inputs_digest = digest(d)
            self._op(True)
        else:
            self._op(digest(d) == self._inputs_digest, "the same seed gave different inputs")
            shutil.rmtree(d)

    def run_job(self, traced: bool = False) -> Job:
        job = Job(self.work / f"job{self._jobs}")
        self._jobs += 1
        for part in self.impl.parts(self.workload.params):
            out = job.out / part
            out.mkdir(parents=True)
            if traced:
                trace_path = job.out / f"{part}.trace.json"
                argv = [sys.executable, str(CHILD), "traced",
                        "--workload", self.workload.kind, "--params", self.params_json,
                        "--part", part, "--inputs", str(self.inputs),
                        "--out", str(out), "--trace", str(trace_path)]
            else:
                argv = self.impl.argv(part, self.workload.params, self.inputs, out)
            job.parts[part] = self._timed(argv, f"{job.out.name}-{part}")
            if traced and job.parts[part].returncode == 0:
                job.traces[part] = json.loads(trace_path.read_text(encoding="utf-8"))
        self.collect(job)
        return job

    def collect(self, job: Job) -> None:
        """Keep one copy of each distinct output of a part for ``verify``.

        A deterministic program writes the same bytes on every run, so the
        oracles run once per distinct output, after the timed window."""
        for part, proc in job.parts.items():
            if proc.returncode != 0:
                self._op(False, f"{part} exited {proc.returncode}: {proc.stderr}")
                continue
            out = job.out / part
            seen = self._outputs.setdefault(part, {})
            key = digest(out)
            if key in seen:
                seen[key][1] += 1
                shutil.rmtree(out)
            else:
                seen[key] = [out, 1]

    def verify(self) -> None:
        """Gate every collected output; each copy counts as one operation."""
        for part, outputs in self._outputs.items():
            for out, copies in outputs.values():
                try:
                    check = self.impl.check(part, self.workload.params, self.seed,
                                            self.inputs, out)
                    failures = check.failures
                except Exception as exc:  # a malformed output must not stop the run
                    failures = [f"output could not be checked: {exc!r}"]
                for _ in range(copies):
                    self._op(not failures, f"{part}: " + "; ".join(failures))
                if not failures:
                    for name, value in check.stats.items():
                        self.stats.setdefault(name, value)
        self._outputs.clear()

    def jobs_for(self, seconds: float, setups: int,
                 traced_too: bool) -> list[tuple[Job, Job | None]]:
        """Run the job (and, with ``traced_too``, a traced run after each)
        as often as fits in ``seconds``; at least once.

        The ``setups`` set-ups are spread between the jobs, so that their
        median samples the host over the whole window, not one moment."""
        self.setup()
        deadline = time.perf_counter() + seconds
        runs = []
        while True:
            began = time.perf_counter()
            plain = self.run_job()
            runs.append((plain, self.run_job(traced=True) if traced_too else None))
            if len(self.setup_walls) < setups:
                self.setup()
            now = time.perf_counter()
            if now + (now - began) > deadline:  # another round would overrun
                break
        while len(self.setup_walls) < setups:
            self.setup()
        self.verify()
        return runs

    def result(self, metrics: dict[str, float]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


# --- metrics ----------------------------------------------------------------

def end_to_end(bench: Bench, jobs: list[Job]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(bench.setup_scaled),
        "job_s": statistics.median(j.scaled_s for j in jobs),
        "peak_rss_mb": statistics.median(j.peak_rss_mb for j in jobs),
    }


RATE_METRICS = ("simulate.replicas_per_s", "simulate.snapshots_per_s",
                "ingest.edges_per_s")


def throughputs(bench: Bench, jobs: list[Job]) -> dict[str, float]:
    """Items per second of the median scaled wall time of the part that
    processes them; 0 on the workloads without those parts."""
    if bench.workload.kind != "sample_analyze":
        return dict.fromkeys(RATE_METRICS, 0.0)
    p = bench.workload.params
    items = (p["replicas"], p["horizon"] + 1, _edge_count(bench))
    return {
        metric: n / statistics.median(j.parts[part].scaled_s for j in jobs)
        for metric, n, part in zip(RATE_METRICS, items, ("empirical", "sample", "analyze"))
    }


def _edge_count(bench: Bench) -> int:
    with open(bench.inputs / "edges.txt", "rb") as fh:
        return sum(1 for line in fh if line.strip())


SPAN_METRICS = (
    "cli.import", "cli.write", "markov.load", "markov.state_matrix",
    "markov.steady_state", "combinatorics.integer_partitions",
    "contact_graph.enumerate", "pmf.expansion", "pmf.serialize", "pmf.histogram",
    "simulate.empirical", "simulate.sample_sequence", "simulate.jsonl",
    "ingest.parse", "ingest.validate", "ingest.distributions",
)
COUNT_METRICS = (
    "contact_graph.graphs", "pmf.expansion_terms", "pmf.sigma_evals",
    "pmf.sigma_lookups", "pmf.steady_partitions_walked", "pmf.steady_multisets",
    "markov.steady_state_residual", "simulate.distinct_graphs",
    "ingest.edges", "ingest.snapshots",
)
ORACLE_METRICS = (
    "pmf.inexact_entries", "pmf.clamped_to_zero", "pmf.oracle_s", "pmf.rel_err_max",
)


def per_layer(bench: Bench, runs: list[tuple[Job, Job]]) -> dict[str, float]:
    plain = [p for p, _ in runs]
    traced = [t for _, t in runs if len(t.traces) == len(t.parts)]
    if not traced:
        raise BenchError("no traced run completed")
    spans = [[s for tr in t.traces.values() for s in tr["spans"]] for t in traced]
    by_name = [durations_by_name(s) for s in spans]
    counts: dict[str, float] = {}
    for tr in traced[0].traces.values():
        counts.update(tr["counts"])

    def median_of(name: str) -> float:
        return statistics.median(d.get(name, 0.0) for d in by_name)

    metrics = {f"{name}_s": median_of(name) for name in SPAN_METRICS}
    warm, cold = median_of("pmf.steady_warm"), median_of("pmf.steady_cold")
    metrics["pmf.steady_eval_s"] = warm
    metrics["pmf.steady_coeff_s"] = cold - warm
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    lookups = counts.get("pmf.sigma_lookups", 0)
    metrics["pmf.sigma_hit_ratio"] = (
        1.0 - counts.get("pmf.sigma_evals", 0) / lookups if lookups else 0.0
    )
    metrics.update({name: bench.stats.get(name, 0) for name in ORACLE_METRICS})
    metrics.update(throughputs(bench, plain))
    metrics["trace.coverage"] = statistics.median(
        layer_time(s) / t.wall_s for s, t in zip(spans, traced)
    )
    metrics["trace.overhead_s"] = (
        statistics.median(t.wall_s for t in traced)
        - statistics.median(p.wall_s for p in plain)
    )
    return metrics


def declared_metrics(root: Path, key: str) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def report(bench: Bench, runs: list, metrics: dict) -> None:
    """Readable summary on stderr, including figures the JSON line omits."""
    def say(text: str) -> None:
        print(text, file=sys.stderr)

    say(f"workload {bench.name}, seed {bench.seed}")
    say("setup wall s: " + ", ".join(f"{w:.4f}" for w in bench.setup_walls))
    say("reference wall s: " + ", ".join(f"{w:.4f}" for w in bench.ref_walls))
    jobs = [p for p, _ in runs]
    for i, job in enumerate(jobs):
        parts = ", ".join(f"{n} {p.wall_s:.4f} s" for n, p in job.parts.items())
        say(f"job {i}: {job.wall_s:.4f} s ({parts}), scaled {job.scaled_s:.4f} s, "
            f"peak {job.peak_rss_mb:.1f} MB")
    extra = {
        "fail_frac": len(bench.failures) / bench.attempted,
        "setup_wall_s": statistics.median(bench.setup_walls),
        "job_wall_s": statistics.median(j.wall_s for j in jobs),
        "reference_wall_s": statistics.median(bench.ref_walls),
    }
    for name in ("pmf.rel_err_max", "pmf.oracle_checked"):
        if name in bench.stats:
            extra[name] = bench.stats[name]
    if bench.workload.kind == "sample_analyze":
        extra.update(throughputs(bench, jobs))
    for name, value in {**metrics, **extra}.items():
        say(f"  {name} = {value!r}")
    for message in bench.failures:
        say(f"FAILED: {message}")


def main(argv=None) -> int:
    # A terminated run unwinds like an interrupted one: its child is killed
    # and its work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
               bool(args.trace), Path.cwd())


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
        root: Path) -> int:
    if not (root / "src" / "rwig" / "__init__.py").is_file():
        print(f"perfbench: no rwig sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    # The gates import the checkout's rwig too, never an installed copy.
    sys.path.insert(0, str(root / "src"))
    declared = declared_metrics(root, "per_layer" if trace else "end_to_end")
    bench = Bench(name, workload, seed, root)
    try:
        bench.work.mkdir(parents=True)
        runs = bench.jobs_for(seconds, 1 if trace else SETUPS, traced_too=trace)
        if trace:
            values = per_layer(bench, runs)
        else:
            values = end_to_end(bench, [p for p, _ in runs])
        report(bench, runs, values)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if set(values) != set(declared):
        print(f"perfbench: metrics {sorted(set(values) ^ set(declared))} are not "
              "both computed and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {n: {"value": values[n], "unit": u} for n, u in declared.items()}
    print(json.dumps(bench.result(metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
