"""Command line of the benchmark; see ``bench/README.md``.

    python -m bench run [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--runs K] [--out FILE]
    python -m bench compare BASE.json NEW.json

``run`` runs each workload in its own fresh subprocess, one at a time,
prints every metric with its unit and sample count, and ends its output
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics).  It exits 1 if any correctness
check failed.  Every run measures for ``run_seconds`` of
``BENCHMARK.json``; ``--seconds`` is accepted, with that value only, so
that the benchmark answers the usual calling convention ``COMMAND
--workload W --seed N --seconds S --trace T``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from bench.harness import load_spec  # noqa: E402

#: Extra seconds a workload process may take beyond its time budget
#: (start-up, set-ups, oracles, checks) before it is killed.
GRACE_S = 140


def _worker_cmd(name: str, seed: int, seconds: float, trace: int) -> List[str]:
    return [sys.executable, "-m", "bench", "worker", "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def _spawn(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; its last line is the result.

    The worker leads its own process group, so a worker that overruns is
    killed together with any server it started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        _worker_cmd(name, seed, seconds, trace), cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=seconds + GRACE_S)
    except BaseException as err:  # an overrun, or this process interrupted
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(err, subprocess.TimeoutExpired):
            raise SystemExit(f"bench: workload {name} overran; killed") from None
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: workload {name} exited with "
                         f"code {proc.returncode}")
    return json.loads(lines[-1])


def report(doc: dict, spec: dict) -> str:
    """Human-readable lines for one workload run."""
    from bench.compare import gated

    lines = [f"== {doc['workload']}  seed {doc['seed']}  "
             f"{doc['seconds']:g} s  trace {doc['trace']}"]
    for name, m in list(doc["metrics"].items()) + list(doc["detail"].items()):
        entry = gated(name, spec) if name in doc["metrics"] else None
        note = f"bound {entry['bound']:.0%}" if entry else "detail"
        lines.append(f"  {name:44s} {m['value']:12.4f} {m['unit']:5s} "
                     f"n={m['n']:<6d} {note}")
    rate = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
    lines.append(f"  {'error_rate':44s} {rate:12.4f} {'':5s} "
                 f"n={doc['attempted']:<6d} bound 0 "
                 f"({doc['failed']} failed checks)")
    for err in doc["errors"]:
        lines.append(f"    FAILED: {err}")
    table = doc.get("table")
    if table:
        lines.append(f"  per-layer self time, {table['rounds']} traced rounds "
                     f"of {table['wall_s_per_round']:.3f} s "
                     f"(fold error {table['fold_error_pct']:.2f}%, "
                     f"{table['dropped_spans']} dropped spans):")
        for layer, secs in table["self_s_per_round"].items():
            share = doc["layers"][f"{layer}.self_pct"]
            lines.append(f"    {layer:12s} {secs:10.4f} s/round {share:6.1f}%")
        lines.append("  per-layer metrics:")
        for name, value in sorted(doc["layers"].items()):
            lines.append(f"    {name:30s} {value:14.4f}")
    return "\n".join(lines)


def summary(docs: List[dict], spec: dict, trace: int) -> dict:
    """The final JSON line.  One workload run: its metrics as named in
    ``BENCHMARK.json``; several: ``WORKLOAD.NAME``, median over runs."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    workloads = sorted({d["workload"] for d in docs})
    metrics = {}
    for wl in workloads:
        runs = [d for d in docs if d["workload"] == wl]
        for m in entries:
            if trace:
                values = [d["layers"][m["name"]] for d in runs]
            else:
                values = [d["metrics"][m["name"]]["value"] for d in runs]
            key = m["name"] if len(workloads) == 1 else f"{wl}.{m['name']}"
            metrics[key] = {"value": statistics.median(values),
                            "unit": m["unit"]}
    failed = sum(d["failed"] for d in docs)
    return {
        "correct": failed == 0,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": failed,
        "metrics": metrics,
    }


def cmd_run(args, spec: dict) -> int:
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            raise SystemExit(f"bench: unknown workload {name!r} "
                             f"(have: {', '.join(known)})")
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        raise SystemExit(f"bench: --seconds must be run_seconds ({seconds}) "
                         "of BENCHMARK.json")
    docs = []
    for _ in range(args.runs):
        for name in names:
            doc = _spawn(name, args.seed, seconds, args.trace)
            docs.append(doc)
            print(report(doc, spec), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "runs": docs}, fh, indent=1)
            fh.write("\n")
    result = summary(docs, spec, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def cmd_compare(args, spec: dict) -> int:
    from bench.compare import compare, format_rows, mismatch

    docs = []
    for path in (args.base, args.new):
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    why = mismatch(docs[0], docs[1])
    if why:
        print(f"bench: cannot compare: {why}")
        return 1
    rows, regressed = compare(docs[0], docs[1], spec)
    print(format_rows(rows))
    print("bench: REGRESSION" if regressed else "bench: no regression")
    return 1 if regressed else 0


def cmd_worker(args, spec: dict) -> int:
    from bench.harness import measure
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    doc = measure(workload, args.seconds, bool(args.trace))
    print(json.dumps(doc, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append",
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float,
                     help="accepted only as run_seconds of BENCHMARK.json, "
                     "the budget every run uses")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="second half of each run traced; report "
                     "per-layer metrics")
    run.add_argument("--runs", type=int, default=1,
                     help="runs per workload (for compare's spread)")
    run.add_argument("--out", metavar="FILE", help="write all results here")
    cmp = sub.add_parser("compare", help="compare two --out files")
    cmp.add_argument("base")
    cmp.add_argument("new")
    worker = sub.add_parser("worker")
    worker.add_argument("--workload", required=True)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--seconds", type=float, required=True)
    worker.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    spec = load_spec()
    handler = {"run": cmd_run, "compare": cmd_compare,
               "worker": cmd_worker}[args.command]
    return handler(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
