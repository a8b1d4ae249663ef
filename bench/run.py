"""spinpair benchmark: one closed-loop client issuing scenario requests.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep_compare --seed 1 --seconds 28 --trace 0

The requests of a workload pass are generated from ``--seed`` and written to
``.bench_work/`` before anything is timed.  A request is one in-process call
to ``spinpair.cli.main([subcommand, "--config", path, "--out", dir,
"--quiet"])``: parse, compute and file writes.  The client issues whole passes
for about ``--seconds``, then checks a fixed subset of the outputs against an
independent oracle (untimed).  ``setup_s`` is timed separately in fresh
interpreters: start, ``import spinpair.cli`` and ``load_config`` of the
workload's first config.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every request is traced, every fourth
is also issued untraced to measure the tracing overhead, and the JSON carries
the per-layer metrics from the spans.  A human-readable table, the failure
breakdown and the machine context are printed above it.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 2  # fresh interpreters timed before and again after the requests
ORACLE_CHECKS = 4
OVERHEAD_EVERY = 4  # traced runs also issue every 4th request untraced
SETUP_SNIPPET = """\
import json, sys, time
t0 = time.perf_counter()
import spinpair.cli
t1 = time.perf_counter()
spinpair.cli.load_config(sys.argv[1])
print(json.dumps({"import_s": t1 - t0, "scipy_loaded": int("scipy" in sys.modules)}))
"""
_ERROR_TYPE = re.compile(r"\[[\w.]*?(\w+)\]")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- machine context ----------------------------------------------------------

def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _load_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "steal_ticks": _steal_ticks(),
            "reference_task_s": _reference_task_s()}


def _reference_task_s(repeats: int = 5) -> float:
    """Median time of a fixed task independent of spinpair (batched 4x4
    ``eigh`` plus float formatting, the program's two main kinds of work):
    a gauge of how fast the shared machine ran at that moment."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4000, 4, 4))
    h = a + np.swapaxes(a, -1, -2)
    values = rng.standard_normal(20000).tolist()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.linalg.eigh(h)
        ",".join(f"{v:.17g}" for v in values)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# --- set-up timing ------------------------------------------------------------

def _time_setup(config_path: Path, runs: int) -> list:
    """``(wall_s, import_s, scipy_loaded)`` of ``runs`` fresh interpreters
    importing the CLI and loading the workload's first config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        wall = time.perf_counter() - start
        result = json.loads(done.stdout)
        samples.append((wall, result["import_s"], result["scipy_loaded"]))
    return samples


# --- requests -----------------------------------------------------------------

class Client:
    """Issues requests in-process and keeps what the checks need."""

    def __init__(self, cli, requests, work: Path):
        self.cli = cli
        self.requests = requests
        self.out = work / "out"
        self.paths = []
        for index, request in enumerate(requests):
            path = work / f"request-{index:03d}.json"
            path.write_text(json.dumps(request.config, indent=1))
            self.paths.append(path)
        self.samples = []       # (index, seconds, ok)
        self.errors = Counter()
        self.crashes = []       # tracebacks of requests that raised
        self.outputs = {}       # index -> what the oracle checks
        self.bytes_written = {}

    def issue(self, index: int, recorder=None, request_id=None) -> tuple:
        """One request; returns ``(seconds, ok)``."""
        request = self.requests[index]
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [request.subcommand, "--config", str(self.paths[index]),
                "--out", str(self.out), "--quiet"]
        stderr = io.StringIO()
        traced = recorder.request(request_id) if recorder else contextlib.nullcontext()
        with contextlib.redirect_stderr(stderr), traced:
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed request, not a failed run
                code = None
                self.crashes.append(traceback.format_exc())
                stderr = io.StringIO(f"[{type(exc).__name__}]")
            seconds = time.perf_counter() - start
        ok = code == 0 and self._outputs_complete()
        if not ok:
            match = _ERROR_TYPE.search(stderr.getvalue())
            if code == 0:
                label = "missing output"
            elif match:
                label = match.group(1)
            else:
                label = {2: "ConfigError", 4: "IoError"}.get(code, f"exit {code}")
            self.errors[label] += 1
        elif index not in self.outputs:
            self.outputs[index] = self._read_outputs(request)
        if recorder and index not in self.bytes_written:
            self.bytes_written[index] = sum(
                p.stat().st_size for p in self.out.iterdir()) if self.out.is_dir() else 0
        return seconds, ok

    def _outputs_complete(self) -> bool:
        report_path = self.out / "report.json"
        if not report_path.is_file():
            return False
        report = json.loads(report_path.read_text())
        return all((self.out / name).is_file() for name in report["outputs"].values())

    def _read_outputs(self, request):
        report = json.loads((self.out / "report.json").read_text())
        summary = report["summary"]
        if request.subcommand == "sweep":
            return [row["survival_probability"] for row in summary["points"]]
        with open(self.out / "trajectory.csv", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            for last in rows:
                pass
        psi = [complex(float(last[header.index(f"re_chi{k}")]),
                       float(last[header.index(f"im_chi{k}")])) for k in range(1, 5)]
        return psi, summary["halvings"]


def _run_passes(seconds: float, issue_pass) -> tuple:
    """Whole passes while at least half of the next one, taken as long as the
    last, fits in ``seconds``; at least one."""
    start = time.perf_counter()
    passes, last = 0, 0.0
    while passes == 0 or time.perf_counter() - start + last / 2 <= seconds:
        began = time.perf_counter()
        issue_pass(passes)
        last = time.perf_counter() - began
        passes += 1
    return passes, time.perf_counter() - start


def _oracle_check(client: Client) -> tuple:
    """Check the first successful requests of the pass against the oracle;
    returns ``(worst error/target ratio, indices that missed)``."""
    import oracle

    worst, missed = 0.0, set()
    for index in sorted(client.outputs)[:ORACLE_CHECKS]:
        request = client.requests[index]
        if request.subcommand == "sweep":
            ratios = [oracle.check_survival(point, survival) for point, survival
                      in zip(request.points, client.outputs[index])]
        else:
            psi, halvings = client.outputs[index]
            ratios = [oracle.check_state(request.config, psi, halvings)]
        worst = max(worst, *ratios)
        if max(ratios) > 1.0:
            missed.add(index)
    return worst, missed


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "spinpair" / "cli.py").is_file():
        print(f"bench: no spinpair sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    from spinpair import cli

    import spans

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    requests = workloads.build(args.workload, args.seed)
    client = Client(cli, requests, work)
    context = {"cpu": _cpu_model(), "nproc": os.cpu_count(),
               "affinity": len(os.sched_getaffinity(0)), **_versions(),
               "before": _load_snapshot()}

    _time_setup(client.paths[0], 1)  # may compile bytecode; not timed
    setup = _time_setup(client.paths[0], SETUP_RUNS)
    client.issue(0)  # warm-up: first-call costs of numpy and the program
    client.errors.clear()
    client.outputs.clear()

    recorder = None
    untraced, traced = [], []
    if args.trace:
        recorder = spans.Recorder()
        recorder.check()

        def issue_pass(number):
            for index in range(len(requests)):
                if index % OVERHEAD_EVERY == 0:
                    untraced_s, untraced_ok = client.issue(index)
                    client.samples.append((index, untraced_s, untraced_ok))
                seconds, ok = client.issue(index, recorder, number * len(requests) + index)
                client.samples.append((index, seconds, ok))
                if index % OVERHEAD_EVERY == 0 and ok and untraced_ok:
                    untraced.append(untraced_s)
                    traced.append(seconds)
    else:
        def issue_pass(number):
            for index in range(len(requests)):
                seconds, ok = client.issue(index)
                client.samples.append((index, seconds, ok))

    passes, wall = _run_passes(args.seconds, issue_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += _time_setup(client.paths[0], SETUP_RUNS)
    worst, missed = _oracle_check(client)
    context["after"] = _load_snapshot()

    attempted = len(client.samples)
    failed = sum(1 for index, _, ok in client.samples if not ok or index in missed)
    if missed:
        client.errors["oracle mismatch"] += sum(
            1 for index, _, ok in client.samples if ok and index in missed)
    good = [seconds for index, seconds, ok in client.samples
            if ok and index not in missed]
    if args.trace:
        metrics = spans.layer_metrics(recorder.spans, requests=passes * len(requests),
                                      count_requests=set(range(len(requests))))
        metrics["scenario.bytes_written"] = (sum(client.bytes_written.values())
                                             / len(requests))
        metrics["setup.import_s"] = statistics.median(s[1] for s in setup)
        metrics["setup.scipy_loaded"] = setup[-1][2]
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(untraced))
        recorder.dump(work / "spans.json")
    else:
        metrics = {
            "setup_s": statistics.median(s[0] for s in setup),
            "request_ms_p50": 1000.0 * statistics.median(good),
            "request_ms_p90": 1000.0 * statistics.quantiles(
                good, n=10, method="inclusive")[8],
            "requests_per_s": len(good) / wall,
            "success_frac": len(good) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match the ones BENCHMARK.json declares")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "pass_size": len(requests), "wall_s": wall,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "successful_samples": len(good), "failures_by_type": dict(client.errors),
        "oracle_worst_ratio": worst, "oracle_checked": min(ORACLE_CHECKS, len(client.outputs)),
        "machine": context, "metrics": metrics, "samples": client.samples,
        "crashes": client.crashes,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for path in client.paths:
        path.unlink()
    shutil.rmtree(client.out, ignore_errors=True)

    _print_table(record, units)
    print(json.dumps({
        "correct": not missed and len(client.outputs) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _print_table(record: dict, units: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {record['passes']} x {record['pass_size']}"
          f"  wall {record['wall_s']:.2f} s")
    print(f"attempted {record['attempted']}  failed {record['failed']}  "
          f"failed_frac {record['failed_frac']:.4f}  "
          f"successful samples {record['successful_samples']}")
    for label, count in sorted(record["failures_by_type"].items()):
        print(f"  failed: {label} x {count}")
    print(f"oracle: {record['oracle_checked']} requests checked, worst "
          f"error/target {record['oracle_worst_ratio']:.3f}")
    for name, value in record["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print("machine " + json.dumps(record["machine"]))


if __name__ == "__main__":
    sys.exit(main())
