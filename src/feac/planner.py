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
deadline bound, the least of those Ed'. Pricing is incremental and works
on integer pairs (numerator, denominator) that are never reduced: a
member's product of pair complements (1 - sigma) under a set is its
product under that set less one member, times one pair's complements, and
a complement of exactly 1 is skipped. Each of p', t' and Ed' then becomes
one Fraction over its whole formula. An edge out of a
node takes its metrics from its remaining set's price and is valid when
its completion clock stays within that set's bound, which is exactly "no
overshoot of its own adjusted deadline, nor of any other pending
emergency's". A group with an emergency that has no executable task set
completes no order, so its graph is the bare root.

The success value of the graph follows a max-product recursion: a
terminal is worth 1, a valid edge processing e is worth p'(e) times its
child, and an invalid edge is worth 0. The value of a node is the best of
its edges. The build ends with one children-first pass that returns the
best all-valid path as a plan, and the graph keeps it: the value and the
optimal path are both read from it. Fallback selection and path counting
each visit the nodes once more. Every builder inserts a node before its
children, so each of these passes visits the nodes in reverse insertion
order. They carry each node's best product and time as integer pairs,
rank them by cross-multiplication, and make Fractions only for the path
they return.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import ONE, ZERO, format_number
from .model import Emergency, TaskSet


# An exact value as an integer pair (numerator, denominator > 0), never
# reduced; one such pair per property p, t, Ed.
Ratio = tuple[int, int]
Keep = tuple[Ratio, Ratio, Ratio]
UNIT: Keep = ((1, 1), (1, 1), (1, 1))


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

    def complements(self, eids) -> dict[tuple[str, str], Keep]:
        """(1 - sigma_p, 1 - sigma_t, 1 - sigma_ed) of every influencing pair
        among `eids`, each an integer pair (numerator, denominator)."""
        out = {}
        for a in eids:
            for b in eids:
                pair = self.pairs.get((a, b))
                if pair is not None:
                    out[a, b] = tuple(
                        (s.denominator - s.numerator, s.denominator)
                        for s in (pair.sigma_p, pair.sigma_t, pair.sigma_ed)
                    )
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
    optimal: PlanPath | None = None


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
    memo: dict, comps: dict[tuple[str, str], Keep], eid: str, remaining: frozenset[str]
) -> Keep:
    """Product of the complements `comps` of every pair (other, eid), other
    in `remaining` (which holds eid), memoized in `memo` on (eid, remaining).
    A complement of exactly 1 is skipped, so an uninfluenced property stays
    (1, 1).
    """
    key = (eid, remaining)
    keep = memo.get(key)
    if keep is None:
        others = remaining - {eid}
        if not others:
            keep = UNIT
        else:
            other = max(others)
            keep = complement_product(memo, comps, eid, remaining - {other})
            comp = comps.get((other, eid))
            if comp is not None:
                keep = tuple(
                    k if cn == cd else (k[0] * cn, k[1] * cd) for k, (cn, cd) in zip(keep, comp)
                )
        memo[key] = keep
    return keep


def adjust_metrics(em: Emergency, ts: TaskSet, keep: Keep, cfg: PlannerConfig) -> AdjustedMetrics:
    """Apply the combined influence `keep`, a `complement_product`, to (p, t, Ed).

    p' = keep_p * p, t' = (1 + alpha * (1 - keep_t)) * t,
    Ed' = (1 - beta * (1 - keep_ed)) * Ed.
    """
    (pn, pd), (tn, td), (en, ed) = keep
    # Each value is one Fraction over the whole formula in integers. A
    # complement product of exactly 1 leaves its value as is, which matters
    # when most properties go uninfluenced.
    p = ts.prob
    if pn != pd:
        p = Fraction(pn * p.numerator, pd * p.denominator)
    t = ts.time
    if tn != td:
        # 1 + (an / ad) * (td - tn) / td = (ad * td + an * (td - tn)) / (ad * td)
        an, ad = cfg.alpha.numerator, cfg.alpha.denominator
        t = Fraction((ad * td + an * (td - tn)) * t.numerator, ad * td * t.denominator)
    deadline = em.ed
    if en != ed:
        bn, bd = cfg.beta.numerator, cfg.beta.denominator
        deadline = Fraction(
            (bd * ed - bn * (ed - en)) * deadline.numerator, bd * ed * deadline.denominator
        )
    return AdjustedMetrics(ts=ts, p=p, t=t, ed=deadline)


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
    graph.optimal = _best_path(graph, require_valid=True, time_first=False)
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
                edge = node.edges[eid] = GraphEdge(metrics, elapsed <= bound, child)
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
                    node.edges[eid] = GraphEdge(metrics, elapsed <= bound, child)
        layer = below


# ---------------------------------------------------------------------------
# Valuation and path selection
# ---------------------------------------------------------------------------


def _best_path(graph: ResponseGraph, require_valid: bool, time_first: bool) -> PlanPath | None:
    """Root-to-terminal path of least rank, skipping dead edges when
    `require_valid`; None when no such path completes.

    Paths rank by (-product, time, eids), or by (time, -product, eids) when
    `time_first`. Each node keeps its best suffix as integer pairs
    (product, time) plus the eid of its first step; the edges out of a node
    process distinct emergencies, so their suffixes' eids differ in the
    first place.
    """
    best: dict[GraphNode, tuple | None] = {}
    # Children first: `_expand_states` inserts layer by layer, and
    # `_insert_orders` inserts a child only after its parent.
    for node in reversed(graph.nodes.values()):
        if not node.remaining:
            best[node] = (1, 1, 0, 1, "")
            continue
        top = None
        for eid, edge in node.edges.items():
            child = best[edge.child]
            if child is None or (require_valid and not edge.valid):
                continue
            cpn, cpd, ctn, ctd, _ = child
            p, t = edge.metrics.p, edge.metrics.t
            tn, td = t.numerator, t.denominator
            here = (p.numerator * cpn, p.denominator * cpd, tn * ctd + ctn * td, td * ctd, eid)
            if top is None or _ranks_before(here, top, time_first):
                top = here
        best[node] = top
    top = best[graph.root]
    if top is None:
        return None
    steps = []
    node = graph.root
    while node.remaining:
        eid = best[node][4]
        edge = node.edges[eid]
        m = edge.metrics
        node = edge.child
        steps.append(PlanStep(eid, m.ts, m.p, m.t, m.ed, end_elapsed=node.elapsed))
    return PlanPath(tuple(steps), Fraction(top[0], top[1]), Fraction(top[2], top[3]))


def _ranks_before(a: tuple, b: tuple, time_first: bool) -> bool:
    """Whether suffix `a` ranks before `b`, both as `_best_path` keeps
    them, by cross-multiplying their positive denominators."""
    # a's product is the larger when pb < pa, its time the smaller when ta < tb.
    pa, pb = a[0] * b[1], b[0] * a[1]
    ta, tb = a[2] * b[3], b[2] * a[3]
    if time_first:
        return (ta, pb, a[4]) < (tb, pa, b[4])
    return (pb, ta, a[4]) < (pa, tb, b[4])


_NO_PATH = PlanPath(steps=(), product=ZERO, total_time=ZERO)


def compute_p_value(graph: ResponseGraph) -> Fraction:
    """The graph's success value: best product over all-valid paths, else 0."""
    return ZERO if graph.optimal is None else graph.optimal.product


def select_optimal_path(graph: ResponseGraph) -> PlanPath | None:
    """Best all-valid root-to-terminal path: max product of p', then least
    total t', then lexicographically smallest eid sequence. None when the
    graph's value is 0 (callers fall back to a heuristic selection)."""
    if graph.optimal is None or graph.optimal.product == ZERO:
        return None
    return graph.optimal


def prob_first_select(graph: ResponseGraph) -> PlanPath:
    """Fallback: ignore deadlines, maximize success probability."""
    return _best_path(graph, require_valid=False, time_first=False) or _NO_PATH


def time_first_select(graph: ResponseGraph) -> PlanPath:
    """Fallback: ignore deadlines, minimize total adjusted time."""
    return _best_path(graph, require_valid=False, time_first=True) or _NO_PATH


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
