"""Benchmark of the newscast pipeline through its real CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload toy_cli --seed 0 --trace 0

One run generates the workload's inputs from the seed, times a fresh
`import newscast` several times (setup_s), then repeats the workload's
command chain, one `python -m newscast.cli` subprocess at a time, for
about --seconds (default: run_seconds in BENCHMARK.json), checking every
chain's outputs; it starts no chain that would end more than half a chain
past that. With --trace 1 it also runs the chain in-process, untraced
and traced, and reports per-layer metrics instead. Human-readable lines go to stdout; the last
line is one JSON object with the metrics BENCHMARK.json names for the
mode. Any failed command or check makes `correct` false and the exit
code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bench_checks
import bench_inputs
import bench_trace

DEFAULT_SEED = 0
# Fresh-interpreter imports timed per run; setup_s is their median.
SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
WORK_DIR = ".bench_work"
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Tally:
    """Operations attempted and failed; an operation is a command or a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {what}: {error}", file=sys.stderr)
        return error is None


@contextlib.contextmanager
def _cwd(path: Path):
    previous = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


class Bench:
    def __init__(self, workload: str, seed: int, root: Path, record_digests: bool):
        self.workload = bench_inputs.WORKLOADS[workload]
        self.seed = seed
        self.src = root / "src"
        self.run_dir = root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
        self.env = {**os.environ, "PYTHONPATH": str(self.src)}
        self.tally = Tally()
        self.record_digests = record_digests
        self.first_digests: dict[str, str] | None = None
        self._expected: dict[str, object] = {}
        self._commands_run = 0
        self.samples = 0

    # -------------------------------------------------------- subprocesses

    def _spawn(self, args: list[str]) -> tuple[float, float, int, str]:
        """(wall seconds, peak RSS MB, exit code, stderr) of one subprocess."""
        self._commands_run += 1
        err_path = self.run_dir / "logs" / f"{self._commands_run}.err"
        err_path.parent.mkdir(exist_ok=True)
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.run_dir, env=self.env,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text()

    def setup_times(self) -> list[float]:
        """Fresh-interpreter import times; the package must come from src/.

        The first import in a new checkout also compiles bytecode; the
        median leaves that one out.
        """
        times = []
        for _ in range(SETUP_IMPORTS):
            wall, _, code, err = self._spawn(
                ["-c", "import newscast, sys; sys.stderr.write(newscast.__file__)"]
            )
            where = Path(err.strip() or ".").resolve()
            ok = code == 0 and self.src.resolve() in where.parents
            if not self.tally.record(
                "import newscast", None if ok else f"exit {code}, imported {err.strip()!r}"
            ):
                raise SystemExit(1)
            times.append(wall)
        return times

    def import_breakdown(self) -> dict[str, float]:
        self.setup_times()  # compiles bytecode and checks where newscast is
        runs = []
        for _ in range(IMPORTTIME_RUNS):
            _, _, code, err = self._spawn(["-X", "importtime", "-c", "import newscast"])
            self.tally.record("import breakdown", None if code == 0 else f"exit {code}")
            runs.append(bench_trace.parse_importtime(err))
        return {k: statistics.median(r[k] for r in runs) for k in runs[0]}

    def run_chain(self) -> dict | None:
        """The command chain as subprocesses; None when a command fails."""
        times: dict[str, float] = {}
        peak = 0.0
        for label, argv in self.workload.commands:
            wall, rss, code, err = self._spawn(["-m", "newscast.cli", *argv])
            ok = self.tally.record(
                f"newscast {' '.join(argv)}",
                None if code == 0 else f"exit {code}: {err.strip()[-500:]}",
            )
            if not ok:
                return None
            times[label] = times.get(label, 0.0) + wall
            peak = max(peak, rss)
        return {"times": times, "wall": sum(times.values()), "rss": peak}

    # ------------------------------------------------------------ in-process

    def run_inprocess(self, tracer: bench_trace.Tracer | None) -> float | None:
        """Wall time of the chain through newscast.cli.main in this process."""
        cli = importlib.import_module("newscast.cli")
        tracing = (
            bench_trace.instrumented(tracer) if tracer else contextlib.nullcontext()
        )
        sink = io.StringIO()
        start = time.perf_counter()
        with _cwd(self.run_dir), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink), tracing:
            for label, argv in self.workload.commands:
                if tracer:
                    with tracer.span(f"cli.{label}"):
                        code = cli.main(list(argv))
                else:
                    code = cli.main(list(argv))
                if code != 0:
                    break
        wall = time.perf_counter() - start
        ok = self.tally.record(
            f"in-process chain (traced={tracer is not None})",
            None if code == 0 else f"exit {code}: {sink.getvalue()[-500:]}",
        )
        return wall if ok else None

    # ---------------------------------------------------------------- checks

    def _once(self, key: str, compute):
        if key not in self._expected:
            self._expected[key] = compute()
        return self._expected[key]

    def check_outputs(self) -> None:
        out = self.run_dir / "out"
        digests = bench_checks.sha256_tree(out)
        committed = None
        if not self.record_digests and (
            self.workload.name == "toy_cli" or self.seed == DEFAULT_SEED
        ):
            committed = bench_checks.committed_digests(self.workload.name)
            if committed is None:
                self.tally.record("digests", "no committed digests for this workload")
        if self.first_digests is None:
            self.first_digests = digests
        self.tally.record(
            "output digests",
            bench_checks.compare_digests(digests, committed or self.first_digests),
        )

        checks = []
        name = self.workload.name
        inputs = self.run_dir / "inputs"
        if name == "toy_cli":
            toy = self.src / "newscast" / "data" / "toy"
            index = self._once("index", lambda: bench_checks.expected_news_index(
                toy / "news_probs.csv", 15))
            checks = [
                ("NEWS index = cumsum of monthly means", lambda: bench_checks.check_news_index(
                    out / "news_index.csv", index)),
                ("nowcasts = lstsq rebuild", lambda: bench_checks.check_nowcasts(
                    toy / "toy.cfg", out, self.seed)),
                ("RMSE = recomputed", lambda: bench_checks.check_rmse(out)),
            ]
        elif name == "news_ingest":
            index = self._once("index", lambda: bench_checks.expected_news_index(
                inputs / "news_probs.csv", 15))
            kept = self._once("kept", lambda: bench_checks.expected_filter_count(
                inputs / "news_text.csv", bench_inputs.LEXICON))
            checks = [
                ("NEWS index = cumsum of monthly means", lambda: bench_checks.check_news_index(
                    out / "probs" / "news_index.csv", index)),
                ("lexicon filter count", lambda: bench_checks.check_filter_count(
                    out / "text" / "articles_scored.csv", kept)),
            ]
        elif name == "rolling_backtest":
            checks = [
                ("nowcasts = lstsq rebuild", lambda: bench_checks.check_nowcasts(
                    inputs / "rolling.cfg", out, self.seed)),
                ("RMSE = recomputed", lambda: bench_checks.check_rmse(out)),
            ]
        for what, check in checks:
            try:
                error = check()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            self.tally.record(what, error)

    # ------------------------------------------------------------------ modes

    def _work(self, chain: dict) -> tuple[int, float]:
        """(items, seconds) of a chain: articles over the whole chain,
        fits over the backtest command, or commands over the chain."""
        name = self.workload.name
        if name == "news_ingest":
            return bench_inputs.INGEST_PROBS + bench_inputs.INGEST_TEXT, chain["wall"]
        if name == "rolling_backtest":
            return bench_inputs.ROLLING_FITS, chain["times"]["backtest"]
        return len(self.workload.commands), chain["wall"]

    def untraced(self, seconds: float) -> dict[str, float]:
        setup = self.setup_times()
        chains = []
        deadline = time.perf_counter() + seconds
        while True:
            chain = self.run_chain()
            if chain is None:
                break
            self.check_outputs()
            chains.append(chain)
            if _ends_run(deadline, [c["wall"] for c in chains]):
                break
        if not chains:
            raise SystemExit(1)
        self.samples = len(chains)
        work = [self._work(c) for c in chains]
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(c["wall"] for c in chains),
            # Throughput over all measured chains.
            "items_per_s": sum(w[0] for w in work) / sum(w[1] for w in work),
            "peak_rss_mb": statistics.median(c["rss"] for c in chains),
        }

    def traced(self, seconds: float) -> dict[str, float]:
        metrics = self.import_breakdown()
        sys.path.insert(0, str(self.src))
        importlib.import_module("newscast.cli")  # not inside a timed chain
        chains, plain, traced, layers = [], [], [], []
        spans: list[bench_trace.Span] = []
        rounds: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            round_start = time.perf_counter()
            chain = self.run_chain()
            if chain is None:
                break
            self.check_outputs()
            chains.append(chain)
            # Alternate which in-process variant runs first.
            for with_trace in (False, True) if len(chains) % 2 else (True, False):
                tracer = bench_trace.Tracer() if with_trace else None
                wall = self.run_inprocess(tracer)
                if wall is None:
                    break
                self.check_outputs()
                if tracer:
                    traced.append(wall)
                    spans = tracer.spans
                    layers.append(bench_trace.layer_metrics(spans))
                else:
                    plain.append(wall)
            rounds.append(time.perf_counter() - round_start)
            if _ends_run(deadline, rounds) or len(traced) < len(chains):
                break
        if not layers or not plain:
            raise SystemExit(1)
        for label in bench_inputs.COMMAND_LABELS:
            metrics[f"cli.{label}_s"] = statistics.median(
                c["times"].get(label, 0.0) for c in chains
            )
        for key in layers[0]:
            metrics[key] = statistics.median(m[key] for m in layers)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
        )
        self.samples = len(layers)
        self._write_spans(spans)
        return metrics

    def _write_spans(self, spans: list[bench_trace.Span]) -> None:
        """Spans of the last traced chain, kept after the run directory goes."""
        path = self.run_dir.parent / f"spans-{self.workload.name}-{self.seed}.json"
        path.write_text(json.dumps([
            {"id": s.id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, **s.attrs}
            for s in spans
        ]))


def _ends_run(deadline: float, rounds: list[float]) -> bool:
    """Whether to stop before another round (a chain, or a chain and its
    in-process runs) of the median length so far: it would end more than
    half a round past the deadline. A run then measures about --seconds,
    however long its rounds are."""
    return time.perf_counter() + statistics.median(rounds) / 2 >= deadline


def _record(workload: str, digests: dict[str, str]) -> None:
    table = {}
    if bench_checks.DIGESTS_PATH.exists():
        table = json.loads(bench_checks.DIGESTS_PATH.read_text(encoding="utf-8"))
    table[workload] = digests
    bench_checks.DIGESTS_PATH.write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"write this run's output digests to {bench_checks.DIGESTS_PATH.name} "
        f"(use with --seed {DEFAULT_SEED} after an intended output change)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "newscast" / "__init__.py").is_file():
        print(f"error: {root / 'src' / 'newscast'} not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    bench = Bench(args.workload, args.seed, root, args.record_digests)
    shutil.rmtree(bench.run_dir, ignore_errors=True)
    bench.run_dir.mkdir(parents=True)
    try:
        bench_inputs.write_inputs(args.workload, bench.run_dir, args.seed)
        started = time.perf_counter()
        measured = bench.traced(seconds) if args.trace else bench.untraced(seconds)
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
    if args.record_digests and bench.tally.failed == 0:
        _record(args.workload, bench.first_digests)

    print(
        f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={np.__version__} scipy={importlib.metadata.version('scipy')}"
    )
    print(f"workload {args.workload} seed {args.seed}: {bench.samples} "
          f"chains in {elapsed:.1f} s (values are medians over chains)")
    for m in wanted:
        print(f"  {m['name']:<30} {measured[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        items = measured["items_per_s"]
        if args.workload == "news_ingest":
            print(f"  {'articles_per_s':<30} {items:>14.6g} 1/s")
        elif args.workload == "rolling_backtest":
            print(f"  {'fits_per_s':<30} {items:>14.6g} 1/s")
    tally = bench.tally
    print(f"  {'error_rate':<30} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed} failed of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
