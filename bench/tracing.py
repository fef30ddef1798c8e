"""In-memory span tracer that wraps the program's layer entry points.

`Tracer.install()` replaces the module and class attributes that callers
look up at call time (`feac.sim.engine_tick`, `feac.engine.select_subject`,
`feac.checks.check_responsiveness`, ...) with wrappers that record one span
per call: name, start, end, parent span and operation id. `remove()` puts
the originals back. Hooks run after a call returns and add counts that a
span alone cannot give (staffing hits, graph sizes, idle ticks).

A span's self time is its duration minus the durations of its direct
children; children run one after another inside their parent, so they
never overlap.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

CHECKERS = (
    "responsiveness",
    "mode_correctness",
    "grant_security",
    "rescission_liveness",
    "subject_exclusivity",
    "resource_exclusivity",
    "gating",
    "replay_fidelity",
)


class Tracer:
    """Spans live in parallel arrays (name id, start, end, parent, op), so a
    round of a million calls costs tens of megabytes, not hundreds."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                # Hook work is a span of its own, so it never counts as the
                # caller's self time.
                with tracer.span("tracer.hook"):
                    hook(tracer.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, hook))
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from feac import audit, checks, cli, engine, model, planner, scenario, sim

        self.patch(scenario, "parse_scenario", "scenario.parse", _count_bytes)
        self.patch(model, "validate_store", "model.validate")
        self.patch(sim, "run_simulation", "sim.run")
        self.patch(cli, "run_simulation", "cli.audit_rerun")
        self.patch(sim, "engine_tick", "engine.tick", _count_idle_tick)
        self.patch(model.PolicyStore, "clone", "model.clone")
        self.patch(engine, "select_subject", "engine.select_subject", _count_staffing_hit)
        self.patch(engine, "evaluate", "constraints.evaluate")
        self.patch(engine, "enable_response_actions", "engine.enable")
        self.patch(engine, "rescind_permissions", "engine.rescind")
        self.patch(engine, "acl_check", "model.acl_check", _count_acl_len)
        self.patch(engine, "apply_fault_tolerance", "fault.apply", _count_substitution)
        for owner in (engine, planner):
            self.patch(owner, "build_transition_graph", "planner.build", _count_graph)
            self.patch(owner, "compute_p_value", "planner.value")
            self.patch(owner, "select_optimal_path", "planner.select", _count_select)
            self.patch(owner, "prob_first_select", "planner.select", _count_fallback)
            self.patch(owner, "time_first_select", "planner.select", _count_fallback)
        self.patch(audit.AuditLog, "append", "audit.append")
        self.patch(audit.AuditLog, "to_text", "audit.to_text")
        self.patch(cli, "parse_trace", "audit.parse", _count_records)
        self.patch(checks, "replay_store", "audit.replay")
        self.patch(checks, "serialize_store", "checks.serialize")
        for checker in CHECKERS:
            self.patch(checks, f"check_{checker}", f"checks.{checker}")
        self.patch(cli, "check_trace", "checks.total", _count_violations)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Hooks: (counts, call args, result) -> None
# ---------------------------------------------------------------------------


def _count_bytes(counts, args, result) -> None:
    counts["scenario.bytes"] += len(args[0].encode())


def _count_idle_tick(counts, args, result) -> None:
    if not result:
        counts["engine.idle_ticks"] += 1


def _count_staffing_hit(counts, args, result) -> None:
    if result is not None:
        counts["engine.staffing_hits"] += 1


def _count_acl_len(counts, args, result) -> None:
    store, _, oid = args[:3]
    obj = store.objects.get(oid)
    counts["model.acl_entries"] += len(obj.acl) if obj is not None else 0


def _count_substitution(counts, args, result) -> None:
    if result.outcome == "substituted":
        counts["fault.substituted"] += 1


def _count_graph(counts, args, graph) -> None:
    counts["planner.nodes"] += len(graph.nodes)
    counts["planner.sampled"] += graph.sampled
    states = set()
    evaluations = set()
    for node in graph.nodes.values():
        states.add((node.remaining, node.elapsed))
        for eid in node.edges:
            counts["planner.edges"] += 1
            evaluations.add((eid, node.remaining, node.elapsed))
    counts["planner.states"] += len(states)
    counts["planner.edge_evals"] += len(evaluations)


def _count_select(counts, args, result) -> None:
    counts["planner.selects"] += 1


def _count_fallback(counts, args, result) -> None:
    counts["planner.selects"] += 1
    counts["planner.fallbacks"] += 1


def _count_records(counts, args, records) -> None:
    counts["audit.records_parsed"] += len(records)


def _count_violations(counts, args, violations) -> None:
    counts["checks.violations"] += len(violations)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def span_totals(tracer: Tracer, within: str | None = None) -> tuple[Counter, Counter, Counter]:
    """(calls, inclusive seconds, self seconds) per span name, over every
    span or, with `within`, over the spans under a root span of that name."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    root = [0] * len(starts)
    child_time = [0.0] * len(starts)
    for index in range(len(starts)):
        parent = parents[index]
        # Parents come before their children, so the root is already known.
        root[index] = index if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] += ends[index] - starts[index]
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for index, name_id in enumerate(tracer.name_ids):
        if within is not None and names[tracer.name_ids[root[index]]] != within:
            continue
        duration = ends[index] - starts[index]
        calls[names[name_id]] += 1
        total[names[name_id]] += duration
        own[names[name_id]] += duration - child_time[index]
    return calls, total, own


def span_tree_errors(tracer: Tracer) -> list[str]:
    """Children outside their parent, or negative self time."""
    starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
    errors = []
    child_time = [0.0] * len(starts)
    for index in range(len(starts)):
        name = tracer.names[tracer.name_ids[index]]
        if ends[index] < starts[index]:
            errors.append(f"span {index} {name} ends before it starts")
        parent = parents[index]
        if parent >= 0:
            if parent >= index or starts[index] < starts[parent] or ends[index] > ends[parent]:
                errors.append(f"span {index} {name} lies outside parent {parent}")
            child_time[parent] += ends[index] - starts[index]
    for index in range(len(starts)):
        # Sums of float differences may overshoot by rounding, never by more.
        if ends[index] - starts[index] - child_time[index] < -1e-9:
            errors.append(f"span {index} has negative self time")
    return errors


def write_spans(tracer: Tracer, path) -> None:
    """One line per span: index, name, start, end, parent, operation."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("index\tname\tstart\tend\tparent\top\n")
        for index, name_id in enumerate(tracer.name_ids):
            out.write(
                f"{index}\t{tracer.names[name_id]}\t{tracer.starts[index]:.9f}\t"
                f"{tracer.ends[index]:.9f}\t{tracer.parents[index]}\t{tracer.ops[index]}\n"
            )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the spans and counts `tracer` holds."""
    calls, total, own = span_totals(tracer)
    counts = tracer.counts
    m: dict[str, float] = {
        "scenario.parse_s": total["scenario.parse"],
        "scenario.parse_calls": calls["scenario.parse"],
        "scenario.bytes_per_s": _ratio(counts["scenario.bytes"], total["scenario.parse"]),
        "model.validate_s": total["model.validate"],
        "constraints.evaluate_calls": calls["constraints.evaluate"],
        "constraints.evaluate_s": total["constraints.evaluate"],
        "engine.select_subject_calls": calls["engine.select_subject"],
        "engine.select_subject_s": total["engine.select_subject"],
        "engine.staffing_hit_ratio": _ratio(
            counts["engine.staffing_hits"], calls["engine.select_subject"]
        ),
        "engine.enable_calls": calls["engine.enable"],
        "engine.enable_s": total["engine.enable"],
        "engine.rescind_calls": calls["engine.rescind"],
        "engine.rescind_s": total["engine.rescind"],
        "model.acl_check_calls": calls["model.acl_check"],
        "model.acl_check_s": total["model.acl_check"],
        "model.acl_len_mean": _ratio(counts["model.acl_entries"], calls["model.acl_check"]),
        "model.clone_calls": calls["model.clone"],
        "model.clone_s": total["model.clone"],
        "engine.tick_calls": calls["engine.tick"],
        "engine.tick_s": total["engine.tick"],
        "engine.tick_self_s": own["engine.tick"],
        "engine.idle_tick_ratio": _ratio(counts["engine.idle_ticks"], calls["engine.tick"]),
        "planner.build_calls": calls["planner.build"],
        "planner.build_s": total["planner.build"],
        "planner.nodes": counts["planner.nodes"],
        "planner.edges": counts["planner.edges"],
        "planner.sampled_ratio": _ratio(counts["planner.sampled"], calls["planner.build"]),
        "planner.value_s": total["planner.value"],
        "planner.select_s": total["planner.select"],
        "planner.fallback_ratio": _ratio(counts["planner.fallbacks"], counts["planner.selects"]),
        "planner.node_state_ratio": _ratio(counts["planner.states"], counts["planner.nodes"]),
        "planner.edge_eval_ratio": _ratio(counts["planner.edge_evals"], counts["planner.edges"]),
        "fault.apply_calls": calls["fault.apply"],
        "fault.apply_s": total["fault.apply"],
        "fault.substituted_ratio": _ratio(counts["fault.substituted"], calls["fault.apply"]),
        "audit.append_calls": calls["audit.append"],
        "audit.append_s": total["audit.append"],
        "audit.to_text_s": total["audit.to_text"],
        "audit.parse_s": total["audit.parse"],
        "audit.parse_records_per_s": _ratio(
            counts["audit.records_parsed"], total["audit.parse"]
        ),
        "audit.replay_s": total["audit.replay"],
        "checks.serialize_s": total["checks.serialize"],
    }
    for checker in CHECKERS:
        m[f"checks.{checker}_s"] = total[f"checks.{checker}"]
    m["checks.total_s"] = total["checks.total"]
    m["checks.violations"] = counts["checks.violations"]
    m["sim.run_self_s"] = own["sim.run"]
    m["cli.audit_rerun_s"] = total["cli.audit_rerun"]
    return m


LAYER_METRICS = tuple(layer_metrics(Tracer()))

# Metrics that count work rather than time it: equal seeds give equal values.
COUNT_METRICS = tuple(
    name
    for name in LAYER_METRICS
    if name.endswith(("_calls", "_ratio", "_mean"))
    or name in ("planner.nodes", "planner.edges", "checks.violations")
)
