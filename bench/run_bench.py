#!/usr/bin/env python3
"""daval benchmark: seeded workloads driven through daval's public entry points.

    python3 bench/run_bench.py --workload {cohort,scores,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. The benchmark generates the workload's
inputs from ``--seed``, starts one worker process (bench/worker.py) with the
checkout's ``src`` on its path, and sends it operations one at a time. Every
operation is verified by bench/oracles.py, which uses numpy and scipy only.

``--trace 0`` times operations for ``--seconds`` seconds and reports the
end-to-end metrics listed in BENCHMARK.json. ``--trace 1`` runs a fixed
number of operations, each once in a plain worker and once in a worker with
every public function named in worker.TRACED wrapped, and reports the
per-layer metrics.
The last line of standard output is one JSON object; a results file with the
machine, library versions and every op goes to bench/results/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracles  # noqa: E402
import workloads as W  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

SETUP_SAMPLES = 7  # fresh worker starts timed per run; setup_s is their median
START_LIMIT_S = 120.0  # a worker that is not ready by then is an error
STOP_GRACE_S = 10.0  # after SIGTERM, how long a worker may take to report and exit
REPLY_LIMIT_S = 120.0  # for the spans message that follows a finished op
# Per-layer counts that come from a span's return value, by function.
SPAN_COUNTS = {"dataset.ingest_csv": "rows", "report.emit_report": "bytes"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------- worker


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("DAVAL_SEED", None)
    return env


class Worker:
    """One worker process; ``setup_s`` is its spawn-to-ready wall time."""

    def __init__(self, trace: bool, log):
        argv = [sys.executable, str(BENCH / "worker.py")] + (["--trace"] if trace else [])
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            env=_worker_env(), cwd=ROOT,
        )
        self.buf = b""
        msg = self._read(START_LIMIT_S)
        if not isinstance(msg, dict) or not msg.get("ready"):
            self.reap()
            raise BenchError(f"worker did not start ({msg!r}); see {log.name}")
        self.setup_s = time.perf_counter() - start

    def _read(self, timeout: float):
        """Next reply as a dict, or "timeout", "eof" (the worker closed its
        end) or "garbled" (a line that is not JSON)."""
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0:
                return "timeout"
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return "eof"
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        try:
            return json.loads(line)
        except json.JSONDecodeError:  # a reply cut short by SIGTERM
            return "garbled"

    def run(self, request: dict, limit_s: float, fit_limit_s: float | None) -> dict:
        """Run one op. The reply carries ``elapsed_s``. The op is stopped
        ``limit_s`` after it was sent or, if ``fit_limit_s`` is set,
        ``fit_limit_s`` after its first Cox fit began, whichever comes first;
        a stopped op is charged the wall time until the worker acknowledged
        the stop."""
        sent = time.perf_counter()
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        deadline = sent + limit_s
        while isinstance(reply := self._read(deadline - time.perf_counter()), dict) and reply.get("fit"):
            if fit_limit_s is not None:
                deadline = min(deadline, time.perf_counter() + fit_limit_s)
        if reply == "timeout":
            stopped, acked = self.stop()
            return {**stopped, "stopped": True, "elapsed_s": acked - sent}
        if not isinstance(reply, dict):
            self.reap()
            return {"crashed": True, "elapsed_s": time.perf_counter() - sent}
        return reply

    def spans(self) -> dict:
        msg = self._read(REPLY_LIMIT_S)
        if not isinstance(msg, dict) or "spans" not in msg:
            raise BenchError(f"traced worker sent no spans ({msg!r})")
        return msg["spans"]

    def stop(self) -> tuple[dict, float]:
        """SIGTERM the worker, keep the message it sends back, and reap it.

        Returns that message ({} if none came) and the time the worker
        acknowledged the stop (or closed its end), which is when the op's
        work ended.
        """
        self.proc.send_signal(signal.SIGTERM)
        stopped = {}
        deadline = time.perf_counter() + STOP_GRACE_S
        while (left := deadline - time.perf_counter()) > 0:
            msg = self._read(left)
            if not isinstance(msg, dict):
                break
            if msg.get("stopped"):
                stopped = msg
                break
        acked = time.perf_counter()
        self.reap()
        return stopped, acked

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b'{"kind": "quit"}\n')
                self.proc.stdin.close()
                self.proc.wait(STOP_GRACE_S)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.reap()

    def reap(self) -> None:
        """Give the worker the grace period to exit, kill it if it has not,
        wait for it, and close its pipes."""
        if self.proc.poll() is None:
            try:
                self.proc.wait(STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                try:
                    stream.close()
                except OSError:
                    pass


# ---------------------------------------------------------------- ops


def _file_hashes(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _verify(op: W.Op, reply: dict) -> tuple[list[tuple[str, str]], dict, dict]:
    """Failure reasons, report-derived counts, and the op's output identity."""
    if reply.get("stopped"):
        return [("limit", f"stopped at its time limit after {reply['elapsed_s']:.1f} s")], {}, {}
    if reply.get("crashed"):
        return [("exit", "worker exited during the op")], {}, {}
    if "error" in reply:
        return [("exit", reply["error"].strip().splitlines()[-1])], {}, {}
    failures = []
    if reply["exit"] != 0:
        failures.append(("exit", f"daval exited with code {reply['exit']}"))
    report_path = op.out / "report.json"
    if not report_path.is_file():
        return failures + [("exit", "no report.json")], {}, {}
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for name, block in report["results"].items():
        if "error" in block:
            failures.append(("error", f"{name}: {block['error']}"))
    if failures:
        return failures, {}, {}

    check = op.expect["check"]
    if check == "cohort":
        problems = oracles.check_cohort(report, op.expect["data"])
    elif check == "scores":
        problems = oracles.check_scores(report, op.expect["data"])
    elif check == "design":
        problems = oracles.check_design(report, reply, op.expect["csv"], op.expect["goal"], op.expect["assumed"])
    else:
        problems = oracles.check_precision(report, op.expect["data"])
    failures += [("unconverged" if p.startswith("unconverged") else "oracle", p) for p in problems]

    counts = {}
    cox = report["results"].get("survival", {}).get("cox")
    if cox:
        fits = [cox[m] for m in ("baseline", "full") if m in cox]
        counts["survival.cox_fit.iterations"] = sum(f["iterations"] for f in fits)
        counts["survival.cox_fit.unconverged"] = sum(not f["converged"] for f in fits)
    ps = report["results"].get("riskscore", {}).get("prevalence_scaling")
    if ps:
        counts["riskscore.fit_recalibration.iterations"] = (
            ps["calibration_before_scaling"]["iterations"] + ps["calibration_after_scaling"]["iterations"]
        )
    identity = _file_hashes(op.out)
    identity["reply"] = {k: v for k, v in reply.items() if k not in ("elapsed_s",)}
    return failures, counts, identity


class Runner:
    """Runs ops of one workload, verifies them, and keeps one record per op."""

    def __init__(self, work: Path, log):
        self.wl, self.work, self.log = None, work, log
        self.records: list[dict] = []
        self.reference: dict[str, dict] = {}  # op key -> identity of its first good run
        self.repeated: dict[str, bool] = {}  # op key -> a rerun matched the reference
        self.workers: dict[str, Worker] = {}  # phase -> its worker; only "traced" traces
        self.n_dirs = 0

    def start(self, phase: str) -> float:
        """(Re)start the phase's worker; returns its start-up time."""
        if phase in self.workers:
            self.workers.pop(phase).close()
        self.workers[phase] = Worker(phase == "traced", self.log)
        return self.workers[phase].setup_s

    def close(self) -> None:
        while self.workers:
            self.workers.popitem()[1].close()

    def run(self, i: int, phase: str, rerun: bool = False) -> dict:
        d = self.work / f"op{self.n_dirs:05d}"
        self.n_dirs += 1
        d.mkdir()
        op = self.wl.op(i, d)
        worker = self.workers[phase]
        reply = worker.run(op.request, self.wl.limit_s, self.wl.fit_limit_s)
        spans = reply.pop("spans", None)
        if reply.get("stopped") or reply.get("crashed"):
            self.start(phase)  # fresh worker; its start-up is not op time
        elif phase == "traced":
            spans = worker.spans()
        failures, counts, identity = _verify(op, reply)
        if not failures:
            ref = self.reference.setdefault(op.key, identity)
            if ref is not identity:
                if ref == identity:
                    self.repeated[op.key] = True
                else:
                    failures.append(("repeat", f"op {op.key} did not reproduce its first run's files"))
                    self.repeated[op.key] = False
        shutil.rmtree(d)
        subjects = op.subjects or reply.get("n", 0)
        rec = {
            "index": i, "key": op.key, "phase": phase, "rerun": rerun, "elapsed_s": reply["elapsed_s"],
            "subjects": subjects, "failures": failures,
            "unexplained": bool(failures) and not self.wl.seed_defect(failures),
            "counts": counts, "spans": _span_rows(spans),
        }
        self.records.append(rec)
        return rec

    def rerun_unrepeated(self, phase: str) -> None:
        """Rerun each repeat key that verified once but has not been rerun.
        The reruns only serve the repeat check and stay out of the metrics."""
        for key in self.wl.repeat:
            if key in self.reference and key not in self.repeated:
                self.run(int(key), phase, rerun=True)


# ---------------------------------------------------------------- metrics


def _span_rows(cols: dict | None) -> list[tuple]:
    """Columnar spans from the worker as (id, parent, name, start_ns, end_ns, ok, count) rows."""
    if not cols:
        return []
    names = [cols["names"][i] for i in cols["name"]]
    return list(zip(cols["id"], cols["parent"], names, cols["start_ns"], cols["end_ns"], cols["ok"], cols["count"]))


def _layer_metrics(records: list[dict]) -> dict:
    """Per-op means of inclusive time, self time, calls and exact counts."""
    agg = defaultdict(float)
    for rec in records:
        child = defaultdict(int)
        for span_id, parent, name, start, end, ok, n in rec["spans"]:
            child[parent] += end - start
        for span_id, parent, name, start, end, ok, n in rec["spans"]:
            agg[f"{name}.s"] += (end - start) * 1e-9
            agg[f"{name}.self_s"] += (end - start - child[span_id]) * 1e-9
            agg[f"{name}.calls"] += 1
            if name in SPAN_COUNTS:
                agg[f"{name}.{SPAN_COUNTS[name]}"] += max(n, 0)
            if name == "survival.cox_fit" and not ok:
                agg["survival.cox_fit.unconverged"] += 1  # stopped or raised before converging
        for name, value in rec["counts"].items():
            agg[name] += value
    return {k: v / len(records) for k, v in agg.items()}


def _summary(records: list[dict]) -> dict:
    """Metrics over the measured ops; ``unexplained`` counts every op, reruns too."""
    unexplained = sum(bool(r["unexplained"]) for r in records)
    records = [r for r in records if not r["rerun"]]
    times = [r["elapsed_s"] for r in records]
    failed = [r for r in records if r["failures"]]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "unexplained": unexplained,
        "op_s.p50": statistics.median(times),
        "op_s.p90": float(np.percentile(times, 90)),
        "subjects_per_s": sum(r["subjects"] for r in records) / sum(times),
        "fail_frac": len(failed) / len(records),
    }


def timed_run(runner: Runner, make_workload, seconds: float) -> tuple[dict, dict]:
    # Worker starts are timed before the inputs are generated, so writing
    # them does not compete with the starts for the disk.
    setup = [runner.start("timed") for _ in range(SETUP_SAMPLES)]
    runner.wl = make_workload()
    begin = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - begin < seconds:
        runner.run(i, "timed")
        i += 1
    runner.rerun_unrepeated("timed")
    runner.close()
    values = _summary(runner.records)
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return values, {"setup_samples_s": setup}


def traced_run(runner: Runner, make_workload) -> tuple[dict, dict]:
    """Each op runs once untraced and once traced, back to back in two live
    workers, so drift in machine speed affects both sides of
    trace.overhead_frac alike; which side goes first alternates by op."""
    runner.wl = make_workload()
    runner.start("untraced")
    runner.start("traced")
    for i in range(runner.wl.trace_ops):
        for phase in ("untraced", "traced")[:: 1 if i % 2 == 0 else -1]:
            runner.run(i, phase)
    runner.close()
    plain = [r for r in runner.records if r["phase"] == "untraced"]
    traced = [r for r in runner.records if r["phase"] == "traced"]
    values = _summary(runner.records)
    values.update(_layer_metrics(traced))
    t_plain = sum(r["elapsed_s"] for r in plain)
    values["trace.overhead_frac"] = (sum(r["elapsed_s"] for r in traced) - t_plain) / t_plain
    return values, {}


# ---------------------------------------------------------------- provenance


def _git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository (a .git
    directory or, in a worktree, a .git file) or git is missing."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "daval").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
        "daval_source_sha256": _source_digest(),
        "op_limit_s": W.WORKLOADS[args.workload].limit_s,
        "fit_limit_s": W.WORKLOADS[args.workload].fit_limit_s,
    }


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed window of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "daval" / "__init__.py").is_file():
        print(f"error: no daval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    log_path = work.parent / f"{work.name}.log"
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            runner = Runner(work, log)
            make_workload = functools.partial(W.WORKLOADS[args.workload], args.seed, work)
            try:
                if args.trace:
                    values, extra = traced_run(runner, make_workload)
                else:
                    values, extra = timed_run(runner, make_workload, args.seconds)
            finally:
                runner.close()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log_path.unlink(missing_ok=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    # A layer the workload never calls reads 0 in the traced run.
    if args.trace:
        values.update({name: 0.0 for name in missing})
    elif missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    records = runner.records
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "provenance": provenance(args),
        "attempted": values["attempted"],
        "failed": values["failed"],
        "fail_frac": values["fail_frac"],
        "metrics": metrics,
        "all_values": values,
        "ops": [{k: v for k, v in r.items() if k != "spans"} for r in records],
        **extra,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans = [[r["index"], r["phase"], *s] for r in records for s in r["spans"]]
        (RESULTS / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"columns": ["op", "phase", "id", "parent", "name", "start_ns", "end_ns", "ok", "count"],
                        "spans": spans}, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )

    prov = result["provenance"]
    print(f"daval bench {tag}: {prov['nproc']} cpu ({prov['cpu_model']}), python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}, blas threads {prov['blas_threads']}, "
          f"commit {prov['git_commit'] or 'unknown'}")
    print(f"ops: {values['attempted']} attempted, {values['failed']} failed, "
          f"fail_frac {values['fail_frac']:.4f} ratio, op limit {prov['op_limit_s']:g} s, Cox fit limit {prov['fit_limit_s']} s")
    reasons = defaultdict(int)
    for r in records:
        for kind, msg in r["failures"]:
            known = "" if not r["unexplained"] else " (not a recorded seed defect)"
            reasons[f"{kind}: {msg}{known}"] += 1
    for msg, count in sorted(reasons.items()):
        print(f"  failed x{count}: {msg}")
    reruns = list(runner.repeated.values())
    print(f"repeated ops byte-identical to their first run: {sum(reruns)} of {len(reruns)} op keys")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"results: {RESULTS.relative_to(ROOT) / (tag + '.json')}")
    print(json.dumps({
        "correct": values["unexplained"] == 0,
        "attempted": values["attempted"],
        "failed": values["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
