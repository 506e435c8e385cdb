"""Operation recording for the Jedd profiler (section 4.3).

In the paper, the runtime library optionally calls a profiler which
records, for each relational operation, the time taken and the number
of nodes and shape of the operand and result BDDs.  Here the profiler
is a sink of the telemetry session: every public
:class:`~repro.relations.relation.Relation` operation already runs
under a ``traced`` span of category ``relation``, and while a profiler
is installed on the active session that wrapper hands each call to
:meth:`Profiler.record`, which appends one :class:`ProfileEvent`.  The
SQL and HTML modules persist and render the events.

Program points come from the session's site stack, which the
interpreter's statement spans and :meth:`Profiler.site` push.  Because the
session is always on while profiling, kernel-level attribution (the
span tree under each program point, apply-cache behaviour, GC pauses)
is recorded alongside; :meth:`Profiler.attach_telemetry` returns that
session.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import telemetry as _telemetry
from repro.relations.relation import Relation

__all__ = ["ProfileEvent", "Profiler"]

#: Operations that realise a (possibly planner-reordered) relational
#: product -- the ops callers should match when looking for "the join
#: at this site" now that joins lower through the query planner.
JOIN_OPS = ("join", "compose", "compose_pipeline")


@dataclass
class ProfileEvent:
    """One execution of one relational operation."""

    op: str
    seconds: float
    operand_nodes: Tuple[int, ...]
    result_nodes: int
    result_tuples: int
    #: node count per level of the result diagram (the BDD "shape")
    shape: Optional[List[int]] = None
    #: source program point ("line,column") when executing Jedd code,
    #: or a host-supplied section label -- the paper's profiler keys its
    #: views by the operation *in the program*, not just the kind of op
    site: str = ""
    #: exception type name when the operation raised (its timing is
    #: still recorded; result fields are zero)
    error: Optional[str] = None


@dataclass
class _OpSummary:
    count: int = 0
    total_seconds: float = 0.0
    max_nodes: int = 0


class Profiler:
    """Collects relational-operation events.

    Use as a context manager (``with Profiler() as prof:``) or call
    :meth:`install`/:meth:`uninstall` explicitly.  ``record_shapes``
    controls whether per-level shapes are captured (they cost a diagram
    traversal per operation).
    """

    def __init__(self, record_shapes: bool = True) -> None:
        self.record_shapes = record_shapes
        self.events: List[ProfileEvent] = []
        #: The telemetry session this profiler records from.
        self._session: Optional[_telemetry.Telemetry] = None
        #: The session :meth:`install` enabled itself (and so disables
        #: again on :meth:`uninstall`), if any.
        self._owned: Optional[_telemetry.Telemetry] = None
        #: Managers observed before any session was bound.
        self._pending: List[object] = []

    # -- program point attribution ----------------------------------------

    @contextmanager
    def site(self, label: str):
        """Context manager labelling a host-code section: operations
        inside it are attributed to ``label`` (the innermost label wins,
        and the interpreter's statement positions nest the same way)."""
        session = self._session or _telemetry.active()
        session.push_site(label)
        try:
            yield self
        finally:
            session.pop_site()

    # -- instrumentation ---------------------------------------------------

    def install(self) -> "Profiler":
        """Start recording from the active telemetry session, enabling
        one (disabled again by :meth:`uninstall`) when none is active."""
        if self._session is not None and self._session.profiler is self:
            return self
        session = _telemetry.active()
        if not session.enabled:
            session = self._owned = _telemetry.enable()
        self._bind(session)
        session.profiler = self
        return self

    def uninstall(self) -> None:
        """Stop recording; disable the session :meth:`install` enabled
        (which also detaches its manager listeners)."""
        session, self._session = self._session, None
        if session is not None and session.profiler is self:
            session.profiler = None
        owned, self._owned = self._owned, None
        if owned is not None and _telemetry.active() is owned:
            _telemetry.disable()

    def _bind(self, session: "_telemetry.Telemetry") -> None:
        self._session = session
        for manager in self._pending:
            session.instrument_manager(manager)
        self._pending.clear()

    def record(self, name: str, fn, args: tuple, kwargs: dict):
        """Run one ``relation.*`` operation under its span and append
        its :class:`ProfileEvent`; called by the ``traced`` wrapper.

        Operand sizes are measured before the call and the result's
        after the span closes, so neither is charged to the operation.
        A raising call is recorded with ``error=`` set (result fields
        zero) and the exception propagates.
        """
        tracer = self._session.tracer
        operands = tuple(a.node_count() for a in args if isinstance(a, Relation))
        site = tracer.current_site() or ""
        op = name[len("relation."):]
        with tracer.span(name, "relation"):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.events.append(ProfileEvent(
                    op, perf_counter() - start, operands, 0, 0,
                    site=site, error=type(err).__name__,
                ))
                raise
            seconds = perf_counter() - start
        self.events.append(ProfileEvent(
            op, seconds, operands, result.node_count(), result.size(),
            shape=result.shape() if self.record_shapes else None,
            site=site,
        ))
        return result

    # -- kernel counters ---------------------------------------------------

    def observe_manager(self, manager) -> "Profiler":
        """Record the manager's kernel counters and GC pauses, by
        instrumenting it in the profiler's telemetry session."""
        if self._session is not None:
            self._session.instrument_manager(manager)
        elif manager not in self._pending:
            self._pending.append(manager)
        return self

    def observe_universe(self, universe) -> "Profiler":
        """Convenience: observe a relational universe's manager."""
        return self.observe_manager(universe.manager)

    # -- telemetry bridge --------------------------------------------------

    def attach_telemetry(self, telemetry=None):
        """Return the telemetry session the profiler records from.

        Without an argument this is the installed profiler's session
        (or, before :meth:`install`, a freshly enabled one); passing a
        :class:`repro.telemetry.Telemetry` activates that session and
        moves the profiler onto it.  Managers observed so far are
        instrumented in the returned session.
        """
        if telemetry is None:
            active = _telemetry.active()
            telemetry = active if active is self._session else _telemetry.enable()
        else:
            _telemetry.enable(telemetry)
        previous = self._session
        if previous is not None and previous.profiler is self:
            previous.profiler = None
            telemetry.profiler = self
        self._bind(telemetry)
        return telemetry

    def __enter__(self) -> "Profiler":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """The paper's overall profile view: per operation, the number
        of executions, total time, and maximum BDD size."""
        out: Dict[str, _OpSummary] = {}
        for event in self.events:
            agg = out.setdefault(event.op, _OpSummary())
            agg.count += 1
            agg.total_seconds += event.seconds
            agg.max_nodes = max(
                agg.max_nodes, event.result_nodes, *event.operand_nodes
            )
        return {
            op: {
                "count": agg.count,
                "total_seconds": agg.total_seconds,
                "max_nodes": agg.max_nodes,
            }
            for op, agg in sorted(out.items())
        }

    def summary_by_site(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Aggregation keyed by (program point, operation) -- the
        overall profile view of section 4.3, which lists each relational
        operation *in the program* with execution count, total time and
        maximum BDD size."""
        out: Dict[Tuple[str, str], _OpSummary] = {}
        for event in self.events:
            agg = out.setdefault((event.site, event.op), _OpSummary())
            agg.count += 1
            agg.total_seconds += event.seconds
            agg.max_nodes = max(
                agg.max_nodes, event.result_nodes, *event.operand_nodes
            )
        return {
            key: {
                "count": agg.count,
                "total_seconds": agg.total_seconds,
                "max_nodes": agg.max_nodes,
            }
            for key, agg in sorted(out.items())
        }

    def total_time(self) -> float:
        """Sum of all recorded operation times in seconds."""
        return sum(e.seconds for e in self.events)

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()
