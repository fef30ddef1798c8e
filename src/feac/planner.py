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

When the cap allows every admissible order, the graph is expanded from
the root state by state, and no order is enumerated. A node stands for one
state (remaining set, elapsed clock), and orders reaching equal states
share it. The emergencies that may come next follow from the set already
processed: an open block continues with its first unfinished level, else
any unstarted block of the first unfinished priority class may start. A
sampled graph instead stays a prefix trie over the K drawn orders, since
merging its states would admit orders that were never drawn. Either way
the number of root-to-terminal paths equals the number of orders taken.

Influence, and so every adjusted metric, depends only on which
emergencies are still pending. Each remaining set is therefore priced once
per build: p', t' and Ed' of every member under the others, and the set's
deadline bound, the least of those Ed'. Pricing is incremental: a member's
product of pair complements (1 - sigma) under a set is its product under
that set less one member, times one pair's complements. An edge out of a
node takes its metrics from its remaining set's price and is valid when
its completion clock stays within that set's bound, which is exactly "no
overshoot of its own adjusted deadline, nor of any other pending
emergency's". A group with an emergency that has no executable task set
completes no order, so its graph is the bare root.

The success value of the graph follows a max-product recursion: a
terminal is worth 1, a valid edge processing e is worth p'(e) times its
child, and an invalid edge is worth 0. The value of a node is the best of
its edges. The build ends with one children-first pass that finds the
best all-valid path, and the graph keeps it: the value and the optimal
path are both read from it. Fallback selection and path counting each
visit the nodes once more, children first.
"""

from __future__ import annotations

import itertools
import math
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

    def complements(self, eids) -> dict[tuple[str, str], tuple[Fraction, Fraction, Fraction]]:
        """(1 - sigma_p, 1 - sigma_t, 1 - sigma_ed) of every influencing pair among `eids`."""
        out = {}
        for a in eids:
            for b in eids:
                pair = self.pairs.get((a, b))
                if pair is not None:
                    out[a, b] = (ONE - pair.sigma_p, ONE - pair.sigma_t, ONE - pair.sigma_ed)
        return out


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
    root: GraphNode
    # Keyed on (remaining, elapsed) when every order is inserted, on the
    # order prefix when the orders are sampled.
    nodes: dict[tuple, GraphNode]
    order_count: int
    sampled: bool
    # Best all-valid path by probability; None when no such path completes.
    optimal: _Suffix | None = None


@dataclass(frozen=True)
class PlanStep:
    eid: str
    ts: TaskSet
    p: Fraction
    t: Fraction
    ed: Fraction
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


def complement_product(
    memo: dict,
    comps: dict[tuple[str, str], tuple[Fraction, Fraction, Fraction]],
    eid: str,
    remaining: frozenset[str],
) -> tuple[Fraction, Fraction, Fraction]:
    """Product of the complements `comps` of every pair (other, eid), other
    in `remaining` (which holds eid), memoized in `memo` on (eid, remaining).
    """
    key = (eid, remaining)
    keep = memo.get(key)
    if keep is None:
        others = remaining - {eid}
        if not others:
            keep = (ONE, ONE, ONE)
        else:
            other = max(others)
            keep = complement_product(memo, comps, eid, remaining - {other})
            comp = comps.get((other, eid))
            if comp is not None:
                keep = (keep[0] * comp[0], keep[1] * comp[1], keep[2] * comp[2])
        memo[key] = keep
    return keep


def adjust_metrics(
    em: Emergency,
    ts: TaskSet,
    keep: tuple[Fraction, Fraction, Fraction],
    cfg: PlannerConfig,
) -> AdjustedMetrics:
    """Apply the combined influence `keep`, a `complement_product`, to (p, t, Ed).

    p' = keep_p * p, t' = (1 + alpha * (1 - keep_t)) * t,
    Ed' = (1 - beta * (1 - keep_ed)) * Ed.
    """
    keep_p, keep_t, keep_ed = keep
    # A complement of exactly 1 leaves t or Ed as is; skipping its four
    # operations matters when most properties go uninfluenced.
    return AdjustedMetrics(
        ts=ts,
        p=keep_p * ts.prob,
        t=ts.time if keep_t == ONE else (ONE + cfg.alpha * (ONE - keep_t)) * ts.time,
        ed=em.ed if keep_ed == ONE else (ONE - cfg.beta * (ONE - keep_ed)) * em.ed,
    )


# ---------------------------------------------------------------------------
# Admissible orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    """One TDT-connected component: priority levels, each level unordered."""

    key: int
    levels: tuple[tuple[str, ...], ...]
    members: frozenset[str]

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
        eids = frozenset(em.eid for em in component)
        blocks.append(_Block(key=component[0].prio, levels=tuple(levels), members=eids))

    blocks.sort(key=lambda b: (b.key, b.first_eid))
    classes: list[list[_Block]] = []
    for _, cls in itertools.groupby(blocks, key=lambda b: b.key):
        classes.append(list(cls))
    return classes


def count_admissible_orders(group: list[Emergency], tdt_pairs: set[tuple[str, str]]) -> int:
    return _order_count(_blocks(group, tdt_pairs))


def _order_count(classes: list[list[_Block]]) -> int:
    total = 1
    for cls in classes:
        total *= math.factorial(len(cls))
        for block in cls:
            for level in block.levels:
                total *= math.factorial(len(level))
    return total


def _next_eids(classes: list[list[_Block]], remaining: frozenset[str]) -> list[str]:
    """Emergencies an admissible order may take next once every member
    outside `remaining` is processed.

    The first priority class with members left decides: an open (partly
    processed) block continues with the members left of its first
    unfinished level; otherwise any unstarted block of the class may start
    with a member of its first level.
    """
    for cls in classes:
        starts: list[str] = []
        for block in cls:
            if block.members <= remaining:
                starts.extend(block.levels[0])
            elif not block.members.isdisjoint(remaining):
                for level in block.levels:
                    left = [eid for eid in level if eid in remaining]
                    if left:
                        return left
        if starts:
            return starts
    return []


def sample_admissible_orders(
    classes: list[list[_Block]], k: int, rng: random.Random
) -> list[tuple[str, ...]]:
    """Exactly `k` distinct admissible orders of `classes` (from `_blocks`)
    drawn uniformly at random.

    The caller guarantees k is strictly less than the total count, so
    rejection of duplicates terminates.
    """
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
    group may start; it loads the root's elapsed clock.
    """
    if not group:
        raise ValueError("cannot plan an empty group")
    entities = {em.entity for em in group}
    if len(entities) != 1:
        raise ValueError(f"group spans entities {sorted(entities)}")
    group = sorted(group, key=lambda em: em.eid)
    by_eid = {em.eid: em for em in group}

    classes = _blocks(group, tdt_pairs)
    total = _order_count(classes)
    sampled = total > cfg.k_cap
    root = GraphNode(remaining=frozenset(by_eid), elapsed=gate_release)
    nodes: dict[tuple, GraphNode] = {() if sampled else (root.remaining, root.elapsed): root}
    graph = ResponseGraph(root=root, nodes=nodes, order_count=total, sampled=sampled)
    task_sets = {eid: select_task_set(em, available_resources) for eid, em in by_eid.items()}
    if None in task_sets.values():
        # An emergency no task set can serve lets no order complete.
        return graph

    comps = infl.complements(by_eid)
    keeps: dict = {}
    # Remaining set -> (adjusted metrics of each member, least member Ed').
    prices: dict[frozenset[str], tuple[dict[str, AdjustedMetrics], Fraction]] = {}

    def price(remaining: frozenset[str]) -> tuple[dict[str, AdjustedMetrics], Fraction]:
        got = prices.get(remaining)
        if got is None:
            members = {
                e: adjust_metrics(
                    by_eid[e], task_sets[e], complement_product(keeps, comps, e, remaining), cfg
                )
                for e in remaining
            }
            got = prices[remaining] = (members, min(m.ed for m in members.values()))
        return got

    if sampled:
        key = "{}|{}|{}|{}".format(
            cfg.seed, group[0].entity, format_number(gate_release), ",".join(sorted(by_eid))
        )
        orders = sample_admissible_orders(classes, cfg.k_cap, random.Random(key))
        _insert_orders(nodes, root, orders, price)
    else:
        _expand_states(nodes, root, classes, price)
    graph.optimal = _best_suffix(graph, require_valid=True, rank=_prob_rank)
    return graph


def _insert_orders(nodes: dict[tuple, GraphNode], root: GraphNode, orders, price) -> None:
    """Prefix trie over `orders`: a node per distinct order prefix."""
    for order in orders:
        node = root
        for depth, eid in enumerate(order, start=1):
            edge = node.edges.get(eid)
            if edge is None:
                members, bound = price(node.remaining)
                metrics = members[eid]
                elapsed = node.elapsed + metrics.t
                child = nodes[order[:depth]] = GraphNode(node.remaining - {eid}, elapsed)
                edge = node.edges[eid] = GraphEdge(eid, metrics, elapsed <= bound, child)
            node = edge.child


def _expand_states(
    nodes: dict[tuple, GraphNode], root: GraphNode, classes: list[list[_Block]], price
) -> None:
    """Every state reachable from `root` by admissible steps, a node per
    (remaining, elapsed), expanded one layer of equal remaining count at a
    time so that each remaining set is priced and stepped from once."""
    layer = {root.remaining: [root]}
    for _ in range(len(root.remaining)):
        below: dict[frozenset[str], list[GraphNode]] = {}
        for remaining, states in layer.items():
            members, bound = price(remaining)
            for eid in _next_eids(classes, remaining):
                metrics = members[eid]
                rest = remaining - {eid}
                for node in states:
                    elapsed = node.elapsed + metrics.t
                    child = nodes.get((rest, elapsed))
                    if child is None:
                        child = nodes[rest, elapsed] = GraphNode(rest, elapsed)
                        below.setdefault(rest, []).append(child)
                    node.edges[eid] = GraphEdge(eid, metrics, elapsed <= bound, child)
        layer = below


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


def _best_suffix(graph: ResponseGraph, require_valid: bool, rank) -> _Suffix | None:
    """Root-to-terminal path of least `rank`, skipping dead edges when
    `require_valid`; None when no such path completes."""
    best: dict[GraphNode, _Suffix | None] = {}
    for node in _children_first(graph):
        if not node.remaining:
            best[node] = _Suffix(ONE, ZERO, ())
            continue
        candidates = []
        for eid, edge in node.edges.items():
            child = best[edge.child]
            if child is not None and (edge.valid or not require_valid):
                candidates.append(
                    _Suffix(
                        product=edge.metrics.p * child.product,
                        time=edge.metrics.t + child.time,
                        eids=(eid,) + child.eids,
                    )
                )
        best[node] = min(candidates, key=rank, default=None)
    return best[graph.root]


def _prob_rank(s: _Suffix):
    return (-s.product, s.time, s.eids)


def _time_rank(s: _Suffix):
    return (s.time, -s.product, s.eids)


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
                end_elapsed=node.elapsed + m.t,
            )
        )
        node = edge.child
    return PlanPath(steps=tuple(steps), product=best.product, total_time=best.time)


def compute_p_value(graph: ResponseGraph) -> Fraction:
    """The graph's success value: best product over all-valid paths, else 0."""
    return ZERO if graph.optimal is None else graph.optimal.product


def select_optimal_path(graph: ResponseGraph) -> PlanPath | None:
    """Best all-valid root-to-terminal path: max product of p', then least
    total t', then lexicographically smallest eid sequence. None when the
    graph's value is 0 (callers fall back to a heuristic selection)."""
    if graph.optimal is None or graph.optimal.product == ZERO:
        return None
    return _path_from(graph, graph.optimal)


def prob_first_select(graph: ResponseGraph) -> PlanPath:
    """Fallback: ignore deadlines, maximize success probability."""
    return _path_from(graph, _best_suffix(graph, require_valid=False, rank=_prob_rank))


def time_first_select(graph: ResponseGraph) -> PlanPath:
    """Fallback: ignore deadlines, minimize total adjusted time."""
    return _path_from(graph, _best_suffix(graph, require_valid=False, rank=_time_rank))


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
