"""Parallel rule evaluation over worker processes.

Within one semi-naive round every ``(rule, delta position)`` evaluation
is independent — each reads the previous round's delta/full relations
and produces a contribution that is unioned afterwards — so the round
can fan out across cores.  CPython threads cannot help (the kernels are
pure Python), so this module runs a pool of **processes**, each holding
its own fresh ``BDDManager``/``ZDDManager``:

- at pool start, each worker rebuilds the universe from a picklable
  spec (domains with their interned objects, attributes, physical
  domains with their stable variable ids) and loads the static fact
  relations, shipped once in the binary wire format of
  :mod:`repro.bdd.io`;
- each round, the coordinator serializes the delta/full relations a
  task needs (normalized into their *declared* physical domains, so no
  scratch domain allocated mid-solve leaks across the process
  boundary), dispatches tasks — each carrying the coordinator-planned
  :class:`~repro.relations.ir.RulePlan`, so workers execute the exact
  schedule the serial path would instead of re-deriving step lists —
  and deserializes each worker's contribution diagram back into its
  own manager.

Serialized wire bytes are cached across rounds, keyed by (manager,
diagram node, reorder generation): a full relation that did not change
since the previous round is not re-serialized, and the bytes avoided
are reported as ``bytes_saved`` / ``wire_cache_hits`` in
:attr:`FixpointEngine.parallel_stats`.  Cached nodes are pinned with a
manager reference so a slot can never be recycled under a live cache
entry.

Diagrams are written by stable variable id and rebuilt through the
receiving manager's hash-consing, so a worker whose manager has the
identity variable order interoperates exactly with a coordinator that
has dynamically reordered (see ``docs/PARALLEL.md``).

Failure handling is the executor's other job: every batch has a
progress deadline (``task_timeout`` since the last result), dead
workers are detected by polling, a failed batch is retried once —
restarting the pool if it is unhealthy — and if tasks still cannot be
completed the executor marks itself ``broken`` and the engine finishes
the solve (and this round's leftover tasks) on the serial path.  A
crashed or hung pool can therefore never wedge or corrupt a solve; the
worst case is losing the speedup.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import queue
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bdd import BDDManager, ZDDManager
from repro.bdd.io import dumps_diagram_binary, loads_diagram_binary
from repro.relations.domain import PhysicalDomain, Universe
from repro.relations.relation import Relation, Schema

__all__ = ["ParallelExecutor"]

#: Once a worker process is seen dead, how long the coordinator keeps
#: collecting results from the survivors before declaring the batch
#: unhealthy (the dead worker's in-flight task can never arrive).
_DEAD_WORKER_GRACE = 0.5

#: A schema shipped by name: ``((attr_name, physdom_name), ...)``.
SchemaSpec = Tuple[Tuple[str, str], ...]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _build_universe(spec: dict) -> Universe:
    """Reconstruct a universe in a worker from its picklable spec.

    Bypasses ``finalize()``: the physical domains carry the coordinator's
    level assignments (stable variable ids) verbatim, and the manager is
    created directly with the coordinator's variable count.
    """
    u = Universe(
        backend=spec["backend"],
        ordering="interleaved",
        kernel=spec.get("kernel", "reference"),
    )
    for name, max_size, objs in spec["domains"]:
        dom = u.domain(name, max_size)
        for obj in objs:
            dom.intern(obj)
    for name, dom_name in spec["attributes"]:
        u.attribute(name, u.get_domain(dom_name))
    scratch_max = 0
    for name, bits, levels in spec["physdoms"]:
        pd = PhysicalDomain(name, bits)
        pd.levels = list(levels)
        u._physdoms[name] = pd
        u._physdom_order.append(pd)
        if name.startswith("__scratch"):
            try:
                scratch_max = max(scratch_max, int(name[len("__scratch"):]))
            except ValueError:
                pass
    # Fresh worker-side scratch domains must not collide with shipped ones.
    u._scratch_counter = scratch_max
    if spec["backend"] == "bdd":
        if u.kernel_name == "arena":
            from repro.bdd.arena import ArenaBDDManager

            u.manager = ArenaBDDManager(spec["num_vars"])
        elif u.kernel_name == "ooc":
            # Each worker gets its own manager and hence its own
            # private spill directory (from JEDD_OOC_SPILL_DIR or a
            # fresh tempdir) — spill files are never shared.
            from repro.bdd.ooc import OocBDDManager

            u.manager = OocBDDManager(spec["num_vars"])
        else:
            u.manager = BDDManager(spec["num_vars"])
    else:
        u.manager = ZDDManager(spec["num_vars"])
    return u


def _make_relation(u: Universe, spec: SchemaSpec, node: int) -> Relation:
    pairs = [(u.get_attribute(a), u.get_physdom(p)) for a, p in spec]
    return Relation(u, Schema(pairs), node)


def _maybe_inject_fault(
    fi: Optional[dict], rule, attempt: int, iteration: int
) -> None:
    """Deterministic test hook: misbehave on early attempts of matching
    tasks.  ``fi`` ships in the worker init payload; production solves
    pass None and this is a single falsy check.  Optional keys narrow
    the blast radius: ``head`` (rule head name), ``iteration`` (only
    that semi-naive round — restarted workers have no memory, so an
    unconditional hang/exit would otherwise recur every round),
    ``max_attempt`` (stop injecting from that retry attempt on)."""
    if not fi:
        return
    head = fi.get("head")
    if head is not None and rule.head.name != head:
        return
    it = fi.get("iteration")
    if it is not None and iteration != it:
        return
    if attempt >= fi.get("max_attempt", 1):
        return
    mode = fi.get("mode", "raise")
    if mode == "raise":
        raise RuntimeError(f"injected fault in rule {rule.label}")
    if mode == "hang":
        time.sleep(fi.get("hang_seconds", 600.0))
    elif mode == "exit":
        os._exit(3)


def _sever_inherited_observers() -> None:
    """Detach every coordinator-owned observability hook a forked child
    inherits, so nothing the worker does can fire coordinator callbacks.

    All of it hangs off the active telemetry session: ``disable()``
    detaches the GC/reorder listeners it registered on (the child's
    copies of) the coordinator's managers, and with no session active
    the ``traced`` wrappers neither open spans nor hand relational
    operations to an installed profiler.
    """
    from repro import telemetry as _telemetry

    _telemetry.disable()


def _worker_telemetry(trace_spec: Optional[dict], manager):
    """Start the worker-local telemetry session (or none).

    The session is private to this process: a bounded tracer plus the
    worker's own manager wired for per-span kernel-counter deltas.  It
    is registered as the process-global active session so the existing
    ``traced`` instrumentation on ``Relation`` and the backend adapters
    records into the worker's lane — never into coordinator state,
    which :func:`_sever_inherited_observers` has already detached.
    """
    if not trace_spec or not trace_spec.get("enabled"):
        return None
    from repro import telemetry as _telemetry

    session = _telemetry.Telemetry(
        max_spans=int(trace_spec.get("max_spans", 50_000))
    )
    _telemetry.enable(session)
    session.instrument_manager(manager)
    return session


def _drain_worker_spans(wtel) -> Optional[dict]:
    """Pack the worker session's finished spans (plus a clock sample for
    offset alignment) into a picklable result-message extra; clears the
    worker tracer so buffers stay bounded per task."""
    if wtel is None:
        return None
    tracer = wtel.tracer
    spans = tracer.export_spans()
    dropped = tracer.dropped
    tracer.clear()
    return {
        "pid": os.getpid(),
        "clock": time.perf_counter(),
        "spans": spans,
        "dropped": dropped,
    }


def _worker_main(worker_id: int, init_bytes: bytes, task_q, result_q) -> None:
    """Worker process entry point (module-level, so ``spawn`` works)."""
    # Under fork the child inherits the coordinator's telemetry session
    # and profiler hooks; sever everything so worker-side kernel calls
    # never touch coordinator-owned state, then (when the coordinator
    # asked for tracing) open a worker-local session whose span buffers
    # ship back with each result.
    _sever_inherited_observers()
    wtel = None
    try:
        from repro.relations.fixpoint import (
            eval_rule_body,
            execute_rule_plan,
        )

        init = pickle.loads(init_bytes)
        u = _build_universe(init["universe"])
        manager = u.manager
        rel_schemas: Dict[str, SchemaSpec] = init["rel_schemas"]
        recursive = set(init["recursive"])
        rules = init["rules"]
        fi = init.get("fault_injection")
        wtel = _worker_telemetry(init.get("trace"), manager)
        facts = {
            name: _make_relation(
                u, rel_schemas[name], loads_diagram_binary(manager, payload)
            )
            for name, payload in init["facts"].items()
        }
    except BaseException as exc:  # report anything, incl. SystemExit
        try:
            result_q.put(
                ("init-error", False, repr(exc), worker_id, 0.0, None, None)
            )
        except Exception:
            pass
        return
    if wtel is not None:
        # Announce the worker's clock so the coordinator can align this
        # lane's spans before any task result arrives.
        try:
            result_q.put(("init-ok", True, None, worker_id, 0.0, None,
                          {"pid": os.getpid(), "clock": time.perf_counter()}))
        except Exception:
            pass
    while True:
        msg = task_q.get()
        if msg is None:
            return
        key, attempt, iteration, ri, pos, plan, wires = msg
        start = time.perf_counter()
        try:
            rule = rules[ri]
            _maybe_inject_fault(fi, rule, attempt, iteration)
            stats = manager.stats
            hits0, misses0 = stats.op_totals()
            nodes0 = stats.nodes_created
            task_span = (
                wtel.span(
                    "parallel.worker_task", cat="worker",
                    rule=rule.label, iteration=iteration, attempt=attempt,
                )
                if wtel is not None
                else contextlib.nullcontext()
            )
            with task_span, u.scope():
                wire_rels = {
                    wkey: _make_relation(
                        u,
                        rel_schemas[wkey[1]],
                        loads_diagram_binary(manager, data),
                    )
                    for wkey, data in wires.items()
                }

                def atom_value(atom, use_delta):
                    if atom.name in recursive:
                        rel = wire_rels[
                            ("delta" if use_delta else "full", atom.name)
                        ]
                    else:
                        rel = facts[atom.name]
                    names = [a for a, _ in rel_schemas[atom.name]]
                    mapping = {
                        n: v for n, v in zip(names, atom.vars) if n != v
                    }
                    return rel.rename(mapping) if mapping else rel

                head_spec = rel_schemas[rule.head.name]
                place = {
                    v: p for v, (_, p) in zip(rule.head.vars, head_spec)
                }
                if plan is not None:
                    # Execute the coordinator's plan verbatim.
                    out = execute_rule_plan(
                        rule,
                        plan,
                        atom_value,
                        lambda atom: atom_value(atom, False),
                        label=rule.label,
                        place=place,
                    )
                else:
                    out = eval_rule_body(
                        rule,
                        pos,
                        atom_value,
                        lambda atom: atom_value(atom, False),
                        [a for a, _ in head_spec],
                        place=place,
                    )
                # Contributions ship in the declared head schema so the
                # coordinator (and any other worker) can place them
                # without knowing this worker's scratch domains.
                out = out.replace({a: p for a, p in head_spec})
                payload = dumps_diagram_binary(manager, out.node)
            hits1, misses1 = stats.op_totals()
            kstats = {
                "nodes_created": stats.nodes_created - nodes0,
                "cache_hits": hits1 - hits0,
                "cache_misses": misses1 - misses0,
            }
            result_q.put(
                (key, True, payload, worker_id,
                 time.perf_counter() - start, kstats,
                 _drain_worker_spans(wtel))
            )
        except BaseException as exc:
            try:
                result_q.put(
                    (key, False, repr(exc), worker_id,
                     time.perf_counter() - start, None,
                     _drain_worker_spans(wtel))
                )
            except Exception:
                return


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class _Pool:
    """A batch of worker processes sharing one task and one result queue."""

    def __init__(self, ctx, workers: int, init_bytes: bytes) -> None:
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.procs = []
        for wid in range(workers):
            p = ctx.Process(
                target=_worker_main,
                args=(wid, init_bytes, self.task_q, self.result_q),
                daemon=True,
            )
            p.start()
            self.procs.append(p)

    def any_dead(self) -> bool:
        return any(not p.is_alive() for p in self.procs)

    def shutdown(self, force: bool = False) -> None:
        if not force:
            for _ in self.procs:
                try:
                    self.task_q.put(None)
                except Exception:
                    pass
        for p in self.procs:
            if force:
                p.terminate()
            else:
                p.join(timeout=1.0)
                if p.is_alive():
                    p.terminate()
        for p in self.procs:
            p.join(timeout=1.0)
        for q in (self.task_q, self.result_q):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass


class ParallelExecutor:
    """Dispatch one round's rule evaluations to a process pool.

    Created by :meth:`FixpointEngine.solve` when ``engine="parallel"``;
    see the module docstring for the protocol.  After any unrecoverable
    failure ``broken`` is True and the engine stops calling it.
    """

    def __init__(
        self,
        universe: Universe,
        rules: Sequence,
        facts: Dict[str, Relation],
        recursive_names: Sequence[str],
        rel_schemas: Dict[str, SchemaSpec],
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        fault_injection: Optional[dict] = None,
        trace: Optional[bool] = None,
        trace_max_spans: int = 50_000,
    ) -> None:
        from repro import telemetry as _telemetry

        self.universe = universe
        self.rules = list(rules)
        self.recursive = set(recursive_names)
        self.rel_schemas = rel_schemas
        self.workers = max(1, workers or min(4, os.cpu_count() or 1))
        self.task_timeout = 60.0 if task_timeout is None else task_timeout
        #: Whether workers run a local tracing session and ship span
        #: buffers back with each result; defaults to "the coordinator
        #: had telemetry on when the executor was created".
        self.trace = _telemetry.is_enabled() if trace is None else bool(trace)
        self.broken = False
        self.failure_reason: Optional[str] = None
        self._pool: Optional[_Pool] = None
        self._restarts_left = 2
        self.counters: Dict[str, int] = {
            "rounds": 0,
            "tasks_dispatched": 0,
            "tasks_failed": 0,
            "retries": 0,
            "restarts": 0,
            "serial_fallback_tasks": 0,
            "bytes_shipped": 0,
            "bytes_returned": 0,
            "wire_cache_hits": 0,
            "bytes_saved": 0,
            "worker_spans": 0,
            "worker_spans_dropped": 0,
        }
        #: Per-pid clock alignment: the smallest observed
        #: ``coordinator_perf_counter_at_receive - worker clock sample``
        #: over all messages from that pid.  Queue latency only inflates
        #: a sample, so the minimum converges on the true offset between
        #: the two processes' monotonic clocks.
        self._clock_offsets: Dict[int, float] = {}
        #: Cross-round wire-bytes cache: slot -> (node, reorder
        #: generation, bytes).  Each cached node carries one extra
        #: manager reference (dropped on replacement and in close())
        #: so its slot cannot be garbage-collected and recycled while
        #: the entry is live.
        self._wire_bytes: Dict[Tuple[str, str], Tuple[int, int, bytes]] = {}
        try:
            methods = multiprocessing.get_all_start_methods()
            self._ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            init = {
                "universe": self._universe_spec(),
                "facts": {
                    name: dumps_diagram_binary(universe.manager, rel.node)
                    for name, rel in facts.items()
                },
                "rules": self.rules,
                "recursive": sorted(self.recursive),
                "rel_schemas": rel_schemas,
                "fault_injection": fault_injection,
                "trace": {
                    "enabled": self.trace,
                    "max_spans": int(trace_max_spans),
                },
            }
            self._init_bytes = pickle.dumps(
                init, protocol=pickle.HIGHEST_PROTOCOL
            )
            self._pool = _Pool(self._ctx, self.workers, self._init_bytes)
        except Exception as exc:
            self.broken = True
            self.failure_reason = f"pool startup failed: {exc!r}"
            self._pool = None

    def _universe_spec(self) -> dict:
        u = self.universe
        return {
            "backend": u.backend_name,
            "kernel": getattr(u, "kernel_name", "reference"),
            "num_vars": u.manager.num_vars,
            "domains": [
                (d.name, d.max_size, tuple(d._to_obj))
                for d in u._domains.values()
            ],
            "attributes": [
                (a.name, a.domain.name) for a in u._attributes.values()
            ],
            "physdoms": [
                (pd.name, pd.bits, tuple(pd.levels))
                for pd in u._physdom_order
                if pd.levels is not None
            ],
        }

    def _wire_data(
        self, wkey: Tuple[str, str], node: int, reorder_gen: int
    ) -> bytes:
        """The serialized bytes for ``node`` in wire slot ``wkey``,
        reusing the cross-round cache when the slot still holds the
        same diagram under the same variable order."""
        manager = self.universe.manager
        cached = self._wire_bytes.get(wkey)
        if (
            cached is not None
            and cached[0] == node
            and cached[1] == reorder_gen
        ):
            self.counters["wire_cache_hits"] += 1
            self.counters["bytes_saved"] += len(cached[2])
            return cached[2]
        data = dumps_diagram_binary(manager, node)
        manager.ref(node)
        if cached is not None:
            manager.deref(cached[0])
        self._wire_bytes[wkey] = (node, reorder_gen, data)
        return data

    def _drop_wire_cache(self) -> None:
        manager = self.universe.manager
        for node, _gen, _data in self._wire_bytes.values():
            try:
                manager.deref(node)
            except Exception:
                pass
        self._wire_bytes.clear()

    # -- one round -----------------------------------------------------

    def evaluate_round(
        self,
        tasks: Sequence[Tuple[int, int]],
        delta: Dict[str, Relation],
        full: Dict[str, Relation],
        serial_eval: Callable[[int, int], Relation],
        tel,
        iteration: int,
        plans: Optional[Dict[Tuple[int, int], object]] = None,
    ) -> List[Relation]:
        """Evaluate ``tasks`` (``(rule_index, delta_position)`` pairs);
        returns their contribution relations in task order.

        ``plans`` (keyed like ``tasks``) carries the coordinator-side
        :class:`~repro.relations.ir.RulePlan` each worker should
        execute; tasks without one fall back to worker-side planning.
        Tasks a healthy pool cannot complete within the retry budget
        are evaluated via ``serial_eval`` on the coordinator, so the
        returned list is always complete.
        """
        self.counters["rounds"] += 1
        manager = self.universe.manager
        reorder_gen = manager.stats.reorder_runs
        serialized: Dict[Tuple[str, str], bytes] = {}
        messages: Dict[Tuple[int, int], tuple] = {}
        with tel.span("parallel.serialize", cat="parallel",
                      iteration=iteration):
            for ri, pos in tasks:
                rule = self.rules[ri]
                wires: Dict[Tuple[str, str], bytes] = {}
                for i, atom in enumerate(rule.positive):
                    if atom.name not in self.recursive:
                        continue
                    wkey = ("delta" if i == pos else "full", atom.name)
                    data = serialized.get(wkey)
                    if data is None:
                        rel = (delta if wkey[0] == "delta" else full)[
                            atom.name
                        ]
                        declared = self.rel_schemas[atom.name]
                        normalized = rel.replace(
                            {a: p for a, p in declared}
                        )
                        data = self._wire_data(
                            wkey, normalized.node, reorder_gen
                        )
                        serialized[wkey] = data
                    wires[wkey] = data
                plan = plans.get((ri, pos)) if plans else None
                messages[(ri, pos)] = (ri, pos, plan, wires)

        results: Dict[Tuple[int, int], tuple] = {}
        lane_metas: List[Tuple[int, dict]] = []
        pending = dict(messages)
        with tel.span("parallel.dispatch", cat="parallel",
                      iteration=iteration, tasks=len(messages),
                      workers=self.workers):
            for attempt in range(2):
                if not pending:
                    break
                if self._pool is None and not self._restart():
                    break
                if attempt:
                    self.counters["retries"] += len(pending)
                ok, failures, healthy, metas = self._run_batch(
                    pending, attempt, iteration
                )
                lane_metas.extend(metas)
                results.update(ok)
                for k in ok:
                    pending.pop(k, None)
                for k, err in failures:
                    self.counters["tasks_failed"] += 1
                    tel.add_complete(
                        "parallel.task_error", 0.0, cat="parallel",
                        rule=self.rules[k[0]].label, error=err,
                        iteration=iteration, attempt=attempt,
                    )
                if not healthy:
                    self._teardown_pool(force=True)

        outs: Dict[Tuple[int, int], Relation] = {}
        if pending:
            # Retry budget exhausted: give up on the pool for the rest
            # of this solve and finish the leftovers serially.
            self.broken = True
            self.failure_reason = (
                self.failure_reason or "tasks failed after retry"
            )
            self._teardown_pool(force=True)
            tel.add_complete(
                "parallel.failure", 0.0, cat="parallel",
                iteration=iteration, tasks=len(pending),
                reason=self.failure_reason,
            )
            for key in list(pending):
                ri, pos, _plan, _wires = pending.pop(key)
                self.counters["serial_fallback_tasks"] += 1
                outs[key] = serial_eval(ri, pos)

        with tel.span("parallel.merge", cat="parallel", iteration=iteration):
            for key, (payload, wid, elapsed, kstats) in results.items():
                self.counters["bytes_returned"] += len(payload)
                rule = self.rules[key[0]]
                declared = self.rel_schemas[rule.head.name]
                node = loads_diagram_binary(manager, payload)
                outs[key] = _make_relation(self.universe, declared, node)
                tel.add_complete(
                    "parallel.task", elapsed, cat="parallel",
                    worker=wid, rule=rule.label, iteration=iteration,
                    bytes_out=len(payload), **(kstats or {}),
                )
            self._merge_worker_spans(tel, lane_metas)
        return [outs[key] for key in ((ri, pos) for ri, pos in tasks)]

    def _merge_worker_spans(
        self, tel, lane_metas: Sequence[Tuple[int, dict]]
    ) -> None:
        """Fold shipped worker span buffers into the coordinator session.

        Each span's timestamps are translated from the worker's
        ``perf_counter`` domain into the coordinator's by adding the
        per-pid offset measured from message round-trips (see
        ``_clock_offsets``), so all lanes share one timeline in the
        merged Chrome trace.
        """
        add = getattr(tel, "add_worker_spans", None)
        if add is None:
            return
        for wid, meta in lane_metas:
            spans = meta.get("spans") or ()
            dropped = int(meta.get("dropped", 0))
            if not spans and not dropped:
                continue
            pid = int(meta["pid"])
            offset = self._clock_offsets.get(pid, 0.0)
            if offset:
                aligned = []
                for span in spans:
                    span = dict(span)
                    span["start"] = span["start"] + offset
                    span["end"] = span["end"] + offset
                    aligned.append(span)
                spans = aligned
            add(
                name=f"worker-{wid} (pid {pid})",
                pid=pid,
                spans=spans,
                dropped=dropped,
            )
            self.counters["worker_spans"] += len(spans)
            self.counters["worker_spans_dropped"] += dropped

    def _run_batch(self, pending: Dict, attempt: int, iteration: int):
        """Ship ``pending`` to the pool and collect until done or stalled.

        Returns ``(ok, failures, healthy, lane_metas)``: results keyed
        by task, cleanly-reported worker errors, whether the pool made
        progress (False means hang/crash — terminate and restart it),
        and the worker span buffers that rode along with the messages.
        """
        pool = self._pool
        for key, (ri, pos, plan, wires) in pending.items():
            pool.task_q.put((key, attempt, iteration, ri, pos, plan, wires))
            self.counters["tasks_dispatched"] += 1
            self.counters["bytes_shipped"] += sum(
                len(b) for b in wires.values()
            )
        waiting = set(pending)
        ok: Dict = {}
        failures: List[Tuple[tuple, str]] = []
        lane_metas: List[Tuple[int, dict]] = []
        deadline = time.monotonic() + self.task_timeout
        dead_seen = False
        healthy = True
        while waiting:
            try:
                msg = pool.result_q.get(timeout=0.05)
            except queue.Empty:
                now = time.monotonic()
                if not dead_seen and pool.any_dead():
                    # The dead worker's in-flight task will never come;
                    # give the survivors a short grace, then restart.
                    deadline = min(deadline, now + _DEAD_WORKER_GRACE)
                    dead_seen = True
                if now >= deadline:
                    healthy = False
                    self.failure_reason = self.failure_reason or (
                        "worker died mid-task" if dead_seen
                        else f"no progress within {self.task_timeout}s"
                    )
                    break
                continue
            key, success, payload, wid, elapsed, kstats, meta = msg
            if meta is not None and "clock" in meta:
                # Offset sample: the worker stamped its perf_counter at
                # send time; queue latency only makes the receive-side
                # difference larger, so the per-pid minimum converges on
                # the true clock offset.
                off = time.perf_counter() - meta["clock"]
                pid = int(meta["pid"])
                prev = self._clock_offsets.get(pid)
                self._clock_offsets[pid] = (
                    off if prev is None else min(prev, off)
                )
            if meta is not None and (
                meta.get("spans") or meta.get("dropped")
            ):
                lane_metas.append((wid, meta))
            if key == "init-error":
                healthy = False
                self.failure_reason = f"worker init failed: {payload}"
                break
            if key == "init-ok":
                continue
            if key not in waiting:
                continue
            waiting.discard(key)
            deadline = time.monotonic() + self.task_timeout
            if success:
                ok[key] = (payload, wid, elapsed, kstats)
            else:
                failures.append((key, payload))
        return ok, failures, healthy, lane_metas

    # -- pool lifecycle ------------------------------------------------

    def _restart(self) -> bool:
        if self._restarts_left <= 0:
            self.failure_reason = (
                self.failure_reason or "pool restart budget exhausted"
            )
            return False
        self._restarts_left -= 1
        self.counters["restarts"] += 1
        try:
            self._pool = _Pool(self._ctx, self.workers, self._init_bytes)
            return True
        except Exception as exc:
            self.failure_reason = f"pool restart failed: {exc!r}"
            self._pool = None
            return False

    def _teardown_pool(self, force: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(force=force)

    def close(self) -> None:
        """Shut the pool down (sentinels, join, terminate stragglers)
        and release the wire cache's pinned nodes."""
        self._teardown_pool(force=False)
        self._drop_wire_cache()

    def stats_snapshot(self) -> dict:
        out = dict(self.counters)
        out["workers"] = self.workers
        out["broken"] = self.broken
        out["failure_reason"] = self.failure_reason
        return out
