"""Response-path planning over priority/dependency-ordered emergency groups.

Given one entity's pending emergencies, the planner builds a directed
acyclic graph whose root holds the whole remaining set and whose terminal
holds the empty set. Each root-to-terminal path is one admissible handling
order; each edge processes one emergency with the task set chosen for it
and carries metrics adjusted for the influence the still-pending
emergencies exert on it.

Admissible orders are determined by two relations:

* time dependency (TDT pairs) welds emergencies into contiguous blocks: a
  block's members travel together, sorted internally by priority, and the
  block sits where its best-priority member would sit;
* among blocks (and the emergencies not welded to anything), strictly
  better priority goes first and equal priorities are free.

Equal-priority freedom can explode combinatorially, so when the number of
admissible orders exceeds the configured cap K, exactly K distinct orders
are drawn from a generator seeded from (seed, entity, gate, member ids).

When every admissible order is inserted, a node stands for one state
(remaining set, elapsed clock) and orders reaching equal states share it:
an edge's metrics and validity depend only on that state, and which
emergencies may follow depends only on the set already processed. A
sampled graph instead stays a prefix trie over the K drawn orders, since
merging its states would admit orders that were never drawn. Either way
the number of root-to-terminal paths equals the number of orders inserted.

The success value of the graph follows a max-product recursion: a
terminal is worth 1, an edge processing e is worth p'(e) times its child,
except that an edge whose completion would overshoot its own adjusted
deadline, or the currently adjusted deadline of any other pending
emergency, is worth 0. The value of a node is the best of its edges.
Valuation, path selection and path counting each visit the nodes once,
children first.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import ONE, ZERO, format_number
from .model import Emergency, TaskSet


@dataclass(frozen=True)
class InfluencePair:
    """Influence strengths of one ordered emergency pair (influencer, influenced)."""

    sigma_p: Fraction = ZERO
    sigma_t: Fraction = ZERO
    sigma_ed: Fraction = ZERO


@dataclass
class InfluenceSpec:
    """Per-ordered-pair influence strengths within a group.

    Multiple simultaneous influencers combine per property by complement
    product: sigma_eff = 1 - prod(1 - sigma_x), so stacking influences
    never pushes an effective strength to or past 1.
    """

    pairs: dict[tuple[str, str], InfluencePair] = field(default_factory=dict)

    def sigmas(self, influenced: str, active_others) -> tuple[Fraction, Fraction, Fraction]:
        if not self.pairs or not active_others:
            return (ZERO, ZERO, ZERO)
        keep_p = keep_t = keep_ed = ONE
        for other in active_others:
            pair = self.pairs.get((other, influenced))
            if pair is None:
                continue
            keep_p *= ONE - pair.sigma_p
            keep_t *= ONE - pair.sigma_t
            keep_ed *= ONE - pair.sigma_ed
        return (ONE - keep_p, ONE - keep_t, ONE - keep_ed)


@dataclass
class PlannerConfig:
    alpha: Fraction = ONE
    beta: Fraction = ONE
    k_cap: int = 64
    seed: int = 0


@dataclass(frozen=True)
class AdjustedMetrics:
    """Task-set metrics after influence adjustment: p' shrinks, t' grows, Ed' shrinks."""

    ts: TaskSet
    p: Fraction
    t: Fraction
    ed: Fraction


@dataclass
class GraphEdge:
    eid: str
    metrics: AdjustedMetrics
    valid: bool
    # Shared nodes would make a recursive repr print every path below.
    child: GraphNode = field(repr=False)


# Compared and hashed by identity: valuation keys its tables on nodes.
@dataclass(eq=False)
class GraphNode:
    remaining: frozenset[str]
    elapsed: Fraction
    edges: dict[str, GraphEdge] = field(default_factory=dict)


@dataclass
class ResponseGraph:
    entity: str
    gate_release: Fraction
    root: GraphNode
    # Keyed on (remaining, elapsed) when every order is inserted, on the
    # order prefix when the orders are sampled.
    nodes: dict[tuple, GraphNode]
    order_count: int
    sampled: bool


@dataclass(frozen=True)
class PlanStep:
    eid: str
    ts: TaskSet
    p: Fraction
    t: Fraction
    ed: Fraction
    start_elapsed: Fraction
    end_elapsed: Fraction


@dataclass(frozen=True)
class PlanPath:
    steps: tuple[PlanStep, ...]
    product: Fraction
    total_time: Fraction

    @property
    def eids(self) -> tuple[str, ...]:
        return tuple(step.eid for step in self.steps)


# ---------------------------------------------------------------------------
# Task-set selection and metric adjustment
# ---------------------------------------------------------------------------


def select_task_set(em: Emergency, available_resources: frozenset[str] | None) -> TaskSet | None:
    """Best executable task set: highest prob, then shortest time, then tsid.

    `available_resources` of None means no resource is locked. Returns None
    when every task set needs something unavailable; the caller treats the
    emergency as unprocessable on that branch.
    """
    executable = [
        ts
        for ts in em.task_sets
        if available_resources is None or ts.resources <= available_resources
    ]
    if not executable:
        return None
    return min(executable, key=lambda ts: (-ts.prob, ts.time, ts.tsid))


def adjust_metrics(
    em: Emergency,
    ts: TaskSet,
    active_others,
    infl: InfluenceSpec,
    cfg: PlannerConfig,
) -> AdjustedMetrics:
    """Apply the combined influence of `active_others` to (p, t, Ed).

    p' = (1 - sigma_p) * p, t' = (1 + alpha * sigma_t) * t,
    Ed' = (1 - beta * sigma_ed) * Ed.
    """
    sigma_p, sigma_t, sigma_ed = infl.sigmas(em.eid, active_others)
    return AdjustedMetrics(
        ts=ts,
        p=(ONE - sigma_p) * ts.prob,
        t=(ONE + cfg.alpha * sigma_t) * ts.time,
        ed=(ONE - cfg.beta * sigma_ed) * em.ed,
    )


def adjusted_deadline(
    em: Emergency, active_others, infl: InfluenceSpec, cfg: PlannerConfig
) -> Fraction:
    """Ed' of a pending emergency under its current influencers."""
    _, _, sigma_ed = infl.sigmas(em.eid, active_others)
    return (ONE - cfg.beta * sigma_ed) * em.ed


# ---------------------------------------------------------------------------
# Admissible orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    """One TDT-connected component: priority levels, each level unordered."""

    key: int
    levels: tuple[tuple[str, ...], ...]

    @property
    def first_eid(self) -> str:
        return self.levels[0][0]


def _blocks(group: list[Emergency], tdt_pairs: set[tuple[str, str]]) -> list[list[_Block]]:
    """Blocks grouped into key-priority classes, classes sorted best-first."""
    parent = {em.eid: em.eid for em in group}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in tdt_pairs:
        if a in parent and b in parent:
            parent[find(a)] = find(b)

    members: dict[str, list[Emergency]] = {}
    for em in group:
        members.setdefault(find(em.eid), []).append(em)

    blocks: list[_Block] = []
    for component in members.values():
        component.sort(key=lambda em: (em.prio, em.eid))
        levels: list[tuple[str, ...]] = []
        for _, level in itertools.groupby(component, key=lambda em: em.prio):
            levels.append(tuple(em.eid for em in level))
        blocks.append(_Block(key=component[0].prio, levels=tuple(levels)))

    blocks.sort(key=lambda b: (b.key, b.first_eid))
    classes: list[list[_Block]] = []
    for _, cls in itertools.groupby(blocks, key=lambda b: b.key):
        classes.append(list(cls))
    return classes


def count_admissible_orders(group: list[Emergency], tdt_pairs: set[tuple[str, str]]) -> int:
    import math

    total = 1
    for cls in _blocks(group, tdt_pairs):
        total *= math.factorial(len(cls))
        for block in cls:
            for level in block.levels:
                total *= math.factorial(len(level))
    return total


def _block_orders(block: _Block) -> list[tuple[str, ...]]:
    per_level = [list(itertools.permutations(level)) for level in block.levels]
    out = []
    for choice in itertools.product(*per_level):
        out.append(tuple(eid for level in choice for eid in level))
    return out


def iter_admissible_orders(group: list[Emergency], tdt_pairs: set[tuple[str, str]]):
    """All admissible orders, deterministically enumerated."""
    classes = _blocks(group, tdt_pairs)
    internal = {id(b): _block_orders(b) for cls in classes for b in cls}
    class_perms = [list(itertools.permutations(cls)) for cls in classes]
    for class_choice in itertools.product(*class_perms):
        block_seq = [b for cls in class_choice for b in cls]
        for pick in itertools.product(*(internal[id(b)] for b in block_seq)):
            yield tuple(eid for seq in pick for eid in seq)


def sample_admissible_orders(
    group: list[Emergency],
    tdt_pairs: set[tuple[str, str]],
    k: int,
    rng: random.Random,
) -> list[tuple[str, ...]]:
    """Exactly `k` distinct admissible orders drawn uniformly at random.

    The caller guarantees k is strictly less than the total count, so
    rejection of duplicates terminates.
    """
    classes = _blocks(group, tdt_pairs)
    seen: set[tuple[str, ...]] = set()
    out: list[tuple[str, ...]] = []
    while len(out) < k:
        order: list[str] = []
        for cls in classes:
            blocks = list(cls)
            rng.shuffle(blocks)
            for block in blocks:
                for level in block.levels:
                    eids = list(level)
                    rng.shuffle(eids)
                    order.extend(eids)
        candidate = tuple(order)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    return out


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def build_transition_graph(
    group: list[Emergency],
    tdt_pairs: set[tuple[str, str]],
    infl: InfluenceSpec,
    cfg: PlannerConfig,
    gate_release: Fraction = ZERO,
    available_resources: frozenset[str] | None = None,
) -> ResponseGraph:
    """Graph of the group's admissible orders with adjusted edge metrics.

    `gate_release` is time already committed to environment gates before the
    group may start; it loads the root's elapsed clock. Branches where an
    emergency has no executable task set simply end early and are worth 0.
    """
    if not group:
        raise ValueError("cannot plan an empty group")
    entities = {em.entity for em in group}
    if len(entities) != 1:
        raise ValueError(f"group spans entities {sorted(entities)}")
    group = sorted(group, key=lambda em: em.eid)
    by_eid = {em.eid: em for em in group}
    pairs = {(a, b) for a, b in tdt_pairs if a in by_eid and b in by_eid}

    total = count_admissible_orders(group, pairs)
    if total <= cfg.k_cap:
        orders = list(iter_admissible_orders(group, pairs))
        sampled = False
    else:
        key = "{}|{}|{}|{}".format(
            cfg.seed, group[0].entity, format_number(gate_release), ",".join(sorted(by_eid))
        )
        orders = sample_admissible_orders(group, pairs, cfg.k_cap, random.Random(key))
        sampled = True

    task_sets = {eid: select_task_set(em, available_resources) for eid, em in by_eid.items()}
    root = GraphNode(remaining=frozenset(by_eid), elapsed=gate_release)
    nodes: dict[tuple, GraphNode] = {() if sampled else (root.remaining, root.elapsed): root}
    for order in orders:
        node = root
        for depth, eid in enumerate(order, start=1):
            edge = node.edges.get(eid)
            if edge is None:
                ts = task_sets[eid]
                if ts is None:
                    break
                metrics, valid = _price_step(node, by_eid[eid], ts, by_eid, infl, cfg)
                remaining = node.remaining - {eid}
                elapsed = node.elapsed + metrics.t
                child_key = order[:depth] if sampled else (remaining, elapsed)
                child = nodes.get(child_key)
                if child is None:
                    child = nodes[child_key] = GraphNode(remaining=remaining, elapsed=elapsed)
                edge = node.edges[eid] = GraphEdge(eid, metrics, valid, child)
            node = edge.child
    return ResponseGraph(
        entity=group[0].entity,
        gate_release=gate_release,
        root=root,
        nodes=nodes,
        order_count=total,
        sampled=sampled,
    )


def _price_step(
    node: GraphNode,
    em: Emergency,
    ts: TaskSet,
    by_eid: dict[str, Emergency],
    infl: InfluenceSpec,
    cfg: PlannerConfig,
) -> tuple[AdjustedMetrics, bool]:
    """Adjusted metrics of processing `em` next from `node`, and whether the
    step keeps every deadline."""
    others = node.remaining - {em.eid}
    metrics = adjust_metrics(em, ts, others, infl, cfg)
    finish = node.elapsed + metrics.t
    if finish > metrics.ed:
        return metrics, False
    # A step is also dead if taking it would run any other pending
    # emergency past its currently adjusted deadline.
    for other in others:
        if finish > adjusted_deadline(by_eid[other], node.remaining - {other}, infl, cfg):
            return metrics, False
    return metrics, True


# ---------------------------------------------------------------------------
# Valuation and path selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Suffix:
    product: Fraction
    time: Fraction
    eids: tuple[str, ...]


def _children_first(graph: ResponseGraph) -> list[GraphNode]:
    # Every edge processes one emergency, so a child always has fewer left.
    return sorted(graph.nodes.values(), key=lambda node: len(node.remaining))


def _best_suffix(graph: ResponseGraph, require_valid: bool, better) -> _Suffix | None:
    """Best root-to-terminal path under `better`, skipping dead edges when
    `require_valid`; None when no such path completes."""
    best: dict[GraphNode, _Suffix | None] = {}
    for node in _children_first(graph):
        if not node.remaining:
            best[node] = _Suffix(ONE, ZERO, ())
            continue
        chosen: _Suffix | None = None
        for eid in sorted(node.edges):
            edge = node.edges[eid]
            child = best[edge.child]
            if child is None or (require_valid and not edge.valid):
                continue
            candidate = _Suffix(
                product=edge.metrics.p * child.product,
                time=edge.metrics.t + child.time,
                eids=(eid,) + child.eids,
            )
            if chosen is None or better(candidate, chosen):
                chosen = candidate
        best[node] = chosen
    return best[graph.root]


def _prob_better(a: _Suffix, b: _Suffix) -> bool:
    if a.product != b.product:
        return a.product > b.product
    if a.time != b.time:
        return a.time < b.time
    return a.eids < b.eids


def _time_better(a: _Suffix, b: _Suffix) -> bool:
    if a.time != b.time:
        return a.time < b.time
    if a.product != b.product:
        return a.product > b.product
    return a.eids < b.eids


def _path_from(graph: ResponseGraph, best: _Suffix | None) -> PlanPath:
    if best is None:
        return PlanPath(steps=(), product=ZERO, total_time=ZERO)
    steps: list[PlanStep] = []
    node = graph.root
    for eid in best.eids:
        edge = node.edges[eid]
        m = edge.metrics
        steps.append(
            PlanStep(
                eid=eid,
                ts=m.ts,
                p=m.p,
                t=m.t,
                ed=m.ed,
                start_elapsed=node.elapsed,
                end_elapsed=node.elapsed + m.t,
            )
        )
        node = edge.child
    return PlanPath(steps=tuple(steps), product=best.product, total_time=best.time)


def compute_p_value(graph: ResponseGraph) -> Fraction:
    """The graph's success value: best product over all-valid paths, else 0."""
    best = _best_suffix(graph, require_valid=True, better=_prob_better)
    return ZERO if best is None else best.product


def select_optimal_path(graph: ResponseGraph) -> PlanPath | None:
    """Best all-valid root-to-terminal path: max product of p', then least
    total t', then lexicographically smallest eid sequence. None when the
    graph's value is 0 (callers fall back to a heuristic selection)."""
    best = _best_suffix(graph, require_valid=True, better=_prob_better)
    if best is None or best.product == ZERO:
        return None
    return _path_from(graph, best)


def prob_first_select(graph: ResponseGraph) -> PlanPath:
    """Fallback: ignore deadlines, maximize success probability."""
    return _path_from(graph, _best_suffix(graph, require_valid=False, better=_prob_better))


def time_first_select(graph: ResponseGraph) -> PlanPath:
    """Fallback: ignore deadlines, minimize total adjusted time."""
    return _path_from(graph, _best_suffix(graph, require_valid=False, better=_time_better))


def path_count(graph: ResponseGraph) -> int:
    """Number of root-to-terminal paths."""
    counts: dict[GraphNode, int] = {}
    for node in _children_first(graph):
        counts[node] = sum(counts[e.child] for e in node.edges.values()) if node.remaining else 1
    return counts[graph.root]


def plan_to_text(graph_pv: Fraction, path: PlanPath, strategy: str) -> str:
    """Deterministic plan block: one line per step, then the value line."""
    lines = []
    for step in path.steps:
        lines.append(
            "{} {} p={} t={} ed={} done={}".format(
                step.eid,
                step.ts.tsid,
                format_number(step.p),
                format_number(step.t),
                format_number(step.ed),
                format_number(step.end_elapsed),
            )
        )
    lines.append(f"pv={format_number(graph_pv)} strategy={strategy}")
    return "\n".join(lines) + "\n"
