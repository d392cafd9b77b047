"""Benchmark worker: imports daval once, then runs operations on request.

Started by run_bench.py with the checkout's ``src`` on PYTHONPATH. Requests
arrive as JSON lines on stdin; replies go out as JSON lines on the original
stdout, while daval's own prints go to /dev/null. SIGTERM stops the current
operation by raising OpStopped, which unwinds through the trace wrappers so
the spans of a stopped operation are still sent back.

Every worker tells the parent when ``survival.cox_fit`` is called (one
wrapper, called at most a few times per operation), so the parent can hold
an operation's Cox fits to a time limit of their own.

With ``--trace``, the public functions listed in TRACED are wrapped to record
one span per call: id, parent id, name, start and end in ns, whether it
returned normally, and an exact count taken from its return value. The
wrappers replace each function wherever a daval module binds it, because
report.py and cli.py import names with ``from .module import f``.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import sys
import time
import traceback
from array import array

import daval.cli
from daval import accuracy, dataset, resample, survival

# Module -> public functions timed in the traced run, each with an optional
# function of its return value giving an exact count for the span.
TRACED = {
    "dataset": {
        "ingest_csv": lambda r: len(r.records) + len(r.errors),
        "validate_records": None,
        "serialize_records": None,
    },
    "accuracy": {"accuracy_metrics": None, "test_vs_goal": None, "power_and_n": None},
    "qc": {"triage_report": None},
    "riskscore": {
        "prevalence_scale": None,
        "fit_recalibration": None,
        "roc_curve": None,
        "threshold_grid": None,
        "decision_curve": None,
        "risk_strata_analysis": None,
    },
    "agreement": {"bland_altman": None, "deming": None, "variance_components": None},
    "survival": {"km_estimate": None, "km_risk_at": None, "logrank": None, "cox_fit": None},
    "resample": {"simulate_binary_study": None, "bootstrap_ci": None},
    "report": {
        "load_plan": None,
        "run_plan": None,
        "render_markdown": None,
        "emit_report": lambda paths: sum(os.path.getsize(p) for p in paths),
    },
    "cli": {"main": None},
}


_PR_SET_PDEATHSIG = 1


class OpStopped(BaseException):
    """Raised by the SIGTERM handler; a BaseException so daval's per-analysis
    ``except Exception`` cannot swallow it."""


def _on_sigterm(signum, frame):
    raise OpStopped()


class SpanRecorder:
    """Spans in flat integer arrays: appending to them allocates no objects
    the garbage collector tracks, so tracing does not make daval's own
    collections slower."""

    FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "ok", "count")

    def __init__(self):
        self.names: list[str] = []
        self.cols = {f: array("q") for f in self.FIELDS}
        self.stack: list[int] = []
        self.next_id = 0

    def take(self) -> dict:
        """The spans recorded since the last call, column by column; count is -1 when absent."""
        out = {"names": self.names, **{f: col.tolist() for f, col in self.cols.items()}}
        for col in self.cols.values():
            del col[:]
        return out

    def wrap(self, name, fn, count):
        self.names.append(name)
        name_index = len(self.names) - 1
        stack, clock = self.stack, time.perf_counter_ns
        ids, parents, names, starts, ends, oks, counts = (self.cols[f].append for f in self.FIELDS)

        def traced(*args, **kwargs):
            self.next_id += 1
            span_id = self.next_id
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            ok, result = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                ids(span_id)
                parents(parent)
                names(name_index)
                starts(start)
                ends(end)
                oks(ok)
                counts(count(result) if (ok and count is not None) else -1)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, functions in TRACED.items():
            module = sys.modules[f"daval.{mod_name}"]
            for fn_name, count in functions.items():
                original = getattr(module, fn_name)
                _rebind(original, self.wrap(f"{mod_name}.{fn_name}", original, count))


def _rebind(original, wrapper) -> None:
    """Replace ``original`` with ``wrapper`` in every daval module that binds it."""
    for name, m in list(sys.modules.items()):
        if name == "daval" or name.startswith("daval."):
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def _announce_cox_fits(send) -> None:
    """Send {"fit": true} as each ``survival.cox_fit`` call starts."""
    original = survival.cox_fit

    def announced(*args, **kwargs):
        send({"fit": True})
        return original(*args, **kwargs)

    announced.__wrapped__ = original
    _rebind(original, announced)


def _sensitivity(records) -> float:
    tp = fn = 0
    for r in records:
        if r.truth is dataset.Label.POSITIVE:
            if r.output.label is dataset.Label.POSITIVE:
                tp += 1
            else:
                fn += 1
    return tp / (tp + fn)


def run_op(req: dict) -> dict:
    """Run one operation; returns what the oracles need besides the files."""
    kind = req["kind"]
    if kind == "plan":
        return {"exit": daval.cli.main(req["argv"])}
    # Design op: sample size, a simulated study of that size, its report,
    # and a bootstrap interval for sensitivity over the simulated records.
    power = accuracy.power_and_n(req["goal"], req["assumed"])
    n = power.sample_size
    code = daval.cli.main(req["simulate"][:1] + ["--n", str(n)] + req["simulate"][1:])
    if code != 0:
        return {"exit": code, "n": n}
    code = daval.cli.main(req["run"])
    records = dataset.ingest_csv(req["csv"]).records
    ci = resample.bootstrap_ci(
        _sensitivity, records, req["replicates"], req["level"], resample.SeededGenerator(req["seed"])
    )
    return {
        "exit": code,
        "n": n,
        "power": [power.sample_size, power.critical_count, power.power],
        "bootstrap": [ci.lower, ci.upper, ci.n_replicates, ci.n_missing],
    }


def main() -> None:
    daval.cli.build_parser()  # part of the start-up that setup_s times
    reply = os.fdopen(os.dup(1), "w", encoding="utf-8")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    def send(msg: dict) -> None:
        reply.write(json.dumps(msg, separators=(",", ":")) + "\n")
        reply.flush()

    _announce_cox_fits(send)
    recorder = None
    if "--trace" in sys.argv[1:]:
        recorder = SpanRecorder()
        recorder.install()

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:  # Linux: a worker whose parent dies gets SIGTERM instead of running on
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass
    send({"ready": True})
    try:
        for line in sys.stdin:
            req = json.loads(line)
            if req["kind"] == "quit":
                break
            start = time.perf_counter()
            try:
                out = run_op(req)
            except Exception:
                out = {"error": traceback.format_exc(limit=8)}
            out["elapsed_s"] = time.perf_counter() - start
            send(out)
            if recorder is not None:
                send({"spans": recorder.take()})
    except OpStopped:
        send({"stopped": True, "spans": recorder.take() if recorder is not None else None})


if __name__ == "__main__":
    main()
