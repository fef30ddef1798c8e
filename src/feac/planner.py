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

Inside a build everything is a Python int. A remaining set is a bitmask
whose bit i is the i-th member in eid order, and `GraphNode.remaining`
holds the node's set as one. Influence, and so every adjusted
metric, depends only on which emergencies are still pending, so `Pricing`
prices each remaining set once: p', t' and Ed' of every member under the
others. A member's product of complements (1 - sigma) under a set is its
product under that set less its highest other member, times that member's
complements, as unreduced integer pairs memoized per (member, set). All
clocks count ticks of one time unit per build: the build's `scale` is a
common multiple of the gate's denominator and, per member, of alpha's,
its time's and its influencers' sigma_t complement denominators, so every
t' and every elapsed clock is a whole number of ticks. A set's deadline
bound is the least floor(Ed' * scale) of its members, and an edge is
valid when its completion tick is at most its set's bound. For integer
ticks that is exactly "no overshoot of its own adjusted deadline, nor of
any other pending emergency's", Ed' <= 0 included. p' is a reduced
integer pair. A group with an emergency that has no executable task set
completes no order, so its graph is the bare root.

The success value of the graph follows a max-product recursion: a
terminal is worth 1, a valid edge processing e is worth p'(e) times its
child, and an invalid edge is worth 0. The value of a node is the best of
its edges. The build ends with one children-first pass that returns the
best all-valid path as a plan, and the graph keeps it: the value and the
optimal path are both read from it. Fallback selection and path counting
each visit the nodes once more. Every builder inserts a node before its
children, so each of these passes visits the nodes in reverse insertion
order. They carry each node's best product as an integer pair and its
time in ticks, and rank by cross-multiplication.

Fractions are made only for what leaves the planner: the values of a
returned path, a node's `elapsed` and an edge's `metrics`, each when it is
first read. An edge's metrics are made once per (member, set) and shared
by every edge that processes that member from that set.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .exact import ONE, ZERO, format_number
from .model import Emergency, TaskSet


# Products of complements (1 - sigma) as unreduced integer pairs, one pair
# per property: (p num, p den, t num, t den, Ed num, Ed den).
Keep = tuple[int, int, int, int, int, int]
UNIT: Keep = (1, 1, 1, 1, 1, 1)


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

    def complements(self, eids: list[str]) -> list[dict[int, Keep]]:
        """Per member i of `eids`, the complements (1 - sigma_p, 1 - sigma_t,
        1 - sigma_ed) of each influencer j among `eids`, keyed by j."""
        out = []
        for b in eids:
            comps = {}
            for j, a in enumerate(eids):
                pair = self.pairs.get((a, b))
                if pair is not None:
                    sp, st, se = pair.sigma_p, pair.sigma_t, pair.sigma_ed
                    comps[j] = (
                        sp.denominator - sp.numerator,
                        sp.denominator,
                        st.denominator - st.numerator,
                        st.denominator,
                        se.denominator - se.numerator,
                        se.denominator,
                    )
            out.append(comps)
        return out


@dataclass
class PlannerConfig:
    alpha: Fraction = ONE
    beta: Fraction = ONE
    k_cap: int = 64
    seed: int = 0


@dataclass(frozen=True, slots=True)
class AdjustedMetrics:
    """Task-set metrics after influence adjustment: p' shrinks, t' grows, Ed' shrinks."""

    ts: TaskSet
    p: Fraction
    t: Fraction
    ed: Fraction


@dataclass(slots=True, eq=False)
class Price:
    """One member's adjusted metrics under one remaining set, in integers:
    p' = pn/pd reduced, t' = ticks/scale and Ed' = edn/edd."""

    ts: TaskSet
    pn: int
    pd: int
    ticks: int
    scale: int
    edn: int
    edd: int
    # The same values as Fractions: a task set's own when nothing pending
    # influences the member, else made on the first read of `metrics`.
    made: AdjustedMetrics | None = None

    @property
    def metrics(self) -> AdjustedMetrics:
        if self.made is None:
            self.made = AdjustedMetrics(
                self.ts,
                Fraction(self.pn, self.pd),
                Fraction(self.ticks, self.scale),
                Fraction(self.edn, self.edd),
            )
        return self.made


@dataclass(slots=True, eq=False)
class GraphEdge:
    price: Price
    valid: bool
    # Shared nodes would make a recursive repr print every path below.
    child: GraphNode = field(repr=False)


# Compared and hashed by identity: valuation keys its tables on nodes.
@dataclass(slots=True, eq=False)
class GraphNode:
    # The emergencies still pending, as the build's bitmask: bit i is the
    # i-th member in eid order.
    remaining: int
    # The elapsed clock in ticks of the build's time unit, 1/scale.
    ticks: int
    scale: int
    edges: dict[str, GraphEdge] = field(default_factory=dict)

    @property
    def elapsed(self) -> Fraction:
        return Fraction(self.ticks, self.scale)


@dataclass(slots=True)
class ResponseGraph:
    root: GraphNode
    # Keyed on a node's (remaining, ticks) when every order is inserted,
    # on the order prefix when the orders are sampled.
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
    best = None
    for ts in em.task_sets:
        if available_resources is not None and not ts.resources <= available_resources:
            continue
        if (
            best is None
            or ts.prob > best.prob
            or (ts.prob == best.prob and (ts.time, ts.tsid) < (best.time, best.tsid))
        ):
            best = ts
    return best


class Pricing:
    """Adjusted metrics of one group's members under each remaining set.

    `group` is sorted by eid and `task_sets` holds each member's chosen
    task set; a remaining set is a bitmask over `group`. Every scenario
    value is read as an integer pair once, here. For member e under
    influencers whose complement products are keep_p, keep_t, keep_ed:

        p'  = keep_p * p
        t'  = (1 + alpha * (1 - keep_t)) * t
        Ed' = (1 - beta * (1 - keep_ed)) * Ed

    A member that nothing pending influences keeps one Price, its task
    set's own values, under every set.
    """

    __slots__ = ("members", "comps", "memo", "rows", "weights", "scale", "gate_ticks")

    def __init__(
        self,
        group: list[Emergency],
        task_sets: list[TaskSet],
        infl: InfluenceSpec,
        cfg: PlannerConfig,
        gate_release: Fraction,
    ):
        self.comps = comps = infl.complements([em.eid for em in group])
        an, ad = cfg.alpha.numerator, cfg.alpha.denominator
        self.weights = (an, ad, cfg.beta.numerator, cfg.beta.denominator)
        # Every t' of member i has a denominator that divides ad * (its
        # time's) * (each influencer's sigma_t complement's), the whole
        # product of its influencers standing in for any subset's.
        scale = gate_release.denominator
        for i, ts in enumerate(task_sets):
            unit = ad * ts.time.denominator
            for comp in comps[i].values():
                unit *= comp[3]
            scale = math.lcm(scale, unit)
        self.scale = scale
        self.gate_ticks = gate_release.numerator * (scale // gate_release.denominator)
        self.members = []
        for i, (em, ts) in enumerate(zip(group, task_sets)):
            prob, time, ed = ts.prob, ts.time, em.ed
            base = Price(
                ts,
                prob.numerator,
                prob.denominator,
                time.numerator * (scale // time.denominator),
                scale,
                ed.numerator,
                ed.denominator,
                AdjustedMetrics(ts, prob, time, ed),
            )
            floor_ed = base.edn * scale // base.edd
            self.members.append((1 << i, base, floor_ed, bool(comps[i])))
        self.memo: list[dict[int, Keep]] = [{} for _ in group]
        self.rows: dict[int, tuple[list[Price | None], int]] = {}

    def fold(self, i: int, mask: int) -> Keep:
        """Member i's complement product under the others in `mask` (which
        holds i): its product under `mask` less the highest other member,
        times that member's complements on i."""
        memo = self.memo[i]
        keep = memo.get(mask)
        if keep is None:
            others = mask ^ (1 << i)
            if not others:
                keep = UNIT
            else:
                top = others.bit_length() - 1
                keep = self.fold(i, mask ^ (1 << top))
                comp = self.comps[i].get(top)
                if comp is not None:
                    pn, pd, tn, td, en, ed = keep
                    cpn, cpd, ctn, ctd, cen, ced = comp
                    keep = (pn * cpn, pd * cpd, tn * ctn, td * ctd, en * cen, ed * ced)
            memo[mask] = keep
        return keep

    def price(self, mask: int) -> tuple[list[Price | None], int]:
        """(each member's Price under `mask`, indexed by member and None
        outside it; the least floor(Ed' * scale) of its members)."""
        got = self.rows.get(mask)
        if got is not None:
            return got
        an, ad, bn, bd = self.weights
        scale = self.scale
        row: list[Price | None] = [None] * len(self.members)
        bound = None
        for i, (bit, price, floor_ed, influenced) in enumerate(self.members):
            if not mask & bit:
                continue
            if influenced:
                kpn, kpd, ktn, ktd, ken, ked = self.fold(i, mask)
                # A complement product of exactly 1 leaves its value as is,
                # which matters when most properties go uninfluenced.
                if kpn != kpd or ktn != ktd or ken != ked:
                    pn, pd, ticks, edn, edd = price.pn, price.pd, price.ticks, price.edn, price.edd
                    if kpn != kpd:
                        pn, pd = kpn * pn, kpd * pd
                        g = math.gcd(pn, pd)
                        pn, pd = pn // g, pd // g
                    if ktn != ktd:
                        # t' * scale = (1 + (an/ad) * (ktd - ktn)/ktd) * ticks, an integer.
                        ticks = (ad * ktd + an * (ktd - ktn)) * ticks // (ad * ktd)
                    if ken != ked:
                        edn = (bd * ked - bn * (ked - ken)) * edn
                        edd = bd * ked * edd
                        floor_ed = edn * scale // edd
                    price = Price(price.ts, pn, pd, ticks, scale, edn, edd)
            row[i] = price
            if bound is None or floor_ed < bound:
                bound = floor_ed
        got = self.rows[mask] = (row, bound)
        return got


# ---------------------------------------------------------------------------
# Admissible orders
# ---------------------------------------------------------------------------


class _Block(NamedTuple):
    """One TDT-connected component: priority levels, each level unordered.
    Members are indices into the eid-sorted group."""

    key: int
    levels: tuple[tuple[int, ...], ...]
    mask: int
    level_masks: tuple[int, ...]


def _blocks(group: list[Emergency], tdt_pairs: set[tuple[str, str]]) -> list[list[_Block]]:
    """Blocks of the eid-sorted `group` grouped into key-priority classes,
    classes sorted best-first."""
    index = {em.eid: i for i, em in enumerate(group)}
    parent = list(range(len(group)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in tdt_pairs:
        if a in index and b in index:
            parent[find(index[a])] = find(index[b])

    components: dict[int, list[int]] = {}
    for i in range(len(group)):
        components.setdefault(find(i), []).append(i)

    blocks: list[_Block] = []
    for members in components.values():
        # Stable, so each level keeps eid order.
        members.sort(key=lambda i: group[i].prio)
        levels = tuple(
            tuple(level) for _, level in itertools.groupby(members, key=lambda i: group[i].prio)
        )
        level_masks = tuple(sum(1 << i for i in level) for level in levels)
        blocks.append(_Block(group[members[0]].prio, levels, sum(level_masks), level_masks))

    blocks.sort(key=lambda b: (b.key, b.levels[0][0]))
    return [list(cls) for _, cls in itertools.groupby(blocks, key=lambda b: b.key)]


def _order_count(classes: list[list[_Block]]) -> int:
    total = 1
    for cls in classes:
        total *= math.factorial(len(cls))
        for block in cls:
            for level in block.levels:
                total *= math.factorial(len(level))
    return total


def _next_mask(classes: list[list[_Block]], remaining: int) -> int:
    """Members an admissible order may take next once every member outside
    the bitmask `remaining` is processed, as a bitmask.

    The first priority class with members left decides: an open (partly
    processed) block continues with the members left of its first
    unfinished level; otherwise any unstarted block of the class may start
    with a member of its first level.
    """
    for cls in classes:
        starts = 0
        for block in cls:
            left = block.mask & remaining
            if left == block.mask:
                starts |= block.level_masks[0]
            elif left:
                for level in block.level_masks:
                    if level & remaining:
                        return level & remaining
        if starts:
            return starts
    return 0


def sample_admissible_orders(
    classes: list[list[_Block]], k: int, rng: random.Random
) -> list[tuple[int, ...]]:
    """Exactly `k` distinct admissible orders of `classes` (from `_blocks`)
    drawn uniformly at random, as member indices.

    The caller guarantees k is strictly less than the total count, so
    rejection of duplicates terminates.
    """
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    while len(out) < k:
        order: list[int] = []
        for cls in classes:
            blocks = list(cls)
            rng.shuffle(blocks)
            for block in blocks:
                for level in block.levels:
                    members = list(level)
                    rng.shuffle(members)
                    order.extend(members)
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
    eids = [em.eid for em in group]

    classes = _blocks(group, tdt_pairs)
    total = _order_count(classes)
    sampled = total > cfg.k_cap
    full = (1 << len(group)) - 1
    task_sets = [select_task_set(em, available_resources) for em in group]
    if None in task_sets:
        # An emergency no task set can serve lets no order complete.
        root = GraphNode(full, gate_release.numerator, gate_release.denominator)
        nodes = {() if sampled else (full, root.ticks): root}
        return ResponseGraph(root=root, nodes=nodes, order_count=total, sampled=sampled)

    pricing = Pricing(group, task_sets, infl, cfg, gate_release)
    root = GraphNode(full, pricing.gate_ticks, pricing.scale)
    nodes: dict[tuple, GraphNode] = {() if sampled else (full, root.ticks): root}
    graph = ResponseGraph(root=root, nodes=nodes, order_count=total, sampled=sampled)
    if sampled:
        key = "{}|{}|{}|{}".format(
            cfg.seed, group[0].entity, format_number(gate_release), ",".join(eids)
        )
        orders = sample_admissible_orders(classes, cfg.k_cap, random.Random(key))
        _insert_orders(nodes, root, eids, orders, pricing)
    else:
        _expand_states(nodes, root, eids, classes, pricing)
    graph.optimal = _best_path(graph, require_valid=True, time_first=False)
    return graph


def _insert_orders(
    nodes: dict[tuple, GraphNode], root: GraphNode, eids: list[str], orders, pricing: Pricing
) -> None:
    """Prefix trie over `orders`: a node per distinct order prefix."""
    for order in orders:
        node = root
        for depth, i in enumerate(order, start=1):
            eid = eids[i]
            edge = node.edges.get(eid)
            if edge is None:
                row, bound = pricing.price(node.remaining)
                price = row[i]
                ticks = node.ticks + price.ticks
                child = GraphNode(node.remaining ^ (1 << i), ticks, root.scale)
                nodes[order[:depth]] = child
                edge = node.edges[eid] = GraphEdge(price, ticks <= bound, child)
            node = edge.child


def _expand_states(
    nodes: dict[tuple, GraphNode],
    root: GraphNode,
    eids: list[str],
    classes: list[list[_Block]],
    pricing: Pricing,
) -> None:
    """Every state reachable from `root` by admissible steps, a node per
    (remaining, elapsed), expanded one layer of equal remaining count at a
    time so that each remaining set is priced and stepped from once."""
    scale = root.scale
    layer = {root.remaining: [root]}
    for _ in eids:
        below: dict[int, list[GraphNode]] = {}
        for mask, states in layer.items():
            row, bound = pricing.price(mask)
            step = _next_mask(classes, mask)
            for i, eid in enumerate(eids):
                bit = 1 << i
                if not step & bit:
                    continue
                price = row[i]
                t = price.ticks
                rest = mask ^ bit
                children = below.get(rest)
                if children is None:
                    children = below[rest] = []
                for node in states:
                    ticks = node.ticks + t
                    child = nodes.get((rest, ticks))
                    if child is None:
                        child = nodes[rest, ticks] = GraphNode(rest, ticks, scale)
                        children.append(child)
                    node.edges[eid] = GraphEdge(price, ticks <= bound, child)
        layer = below


# ---------------------------------------------------------------------------
# Valuation and path selection
# ---------------------------------------------------------------------------


def _best_path(graph: ResponseGraph, require_valid: bool, time_first: bool) -> PlanPath | None:
    """Root-to-terminal path of least rank, skipping dead edges when
    `require_valid`; None when no such path completes.

    Paths rank by (-product, time, eids), or by (time, -product, eids) when
    `time_first`. Each node keeps its best suffix as its product's integer
    pair, its time in ticks and the eid of its first step; the edges out of
    a node process distinct emergencies, so their suffixes' eids differ in
    the first place. An edge with p' = 0 makes every suffix's product 0, so
    behind it the quickest suffix (`_quickest`) is the best one.
    """
    best: dict[GraphNode, tuple | None] = {}
    quickest: dict[GraphNode, tuple | None] = {}
    # Children first: `_expand_states` inserts layer by layer, and
    # `_insert_orders` inserts a child only after its parent.
    for node in reversed(graph.nodes.values()):
        if not node.remaining:
            best[node] = (1, 1, 0, "")
            continue
        top = None
        for eid, edge in node.edges.items():
            child = best[edge.child]
            if child is None or (require_valid and not edge.valid):
                continue
            price = edge.price
            if price.pn:
                here = (price.pn * child[0], price.pd * child[1], price.ticks + child[2], eid)
            else:
                quick = _quickest(edge.child, require_valid, quickest)
                here = (0, 1, price.ticks + quick[0], eid)
            if top is None or _ranks_before(here, top, time_first):
                top = here
        best[node] = top
    top = best[graph.root]
    if top is None:
        return None
    steps = []
    node, zeroed = graph.root, False
    while node.remaining:
        eid = quickest[node][1] if zeroed else best[node][3]
        edge = node.edges[eid]
        zeroed = zeroed or not edge.price.pn
        m = edge.price.metrics
        node = edge.child
        steps.append(PlanStep(eid, m.ts, m.p, m.t, m.ed, end_elapsed=node.elapsed))
    return PlanPath(tuple(steps), Fraction(top[0], top[1]), Fraction(top[2], node.scale))


def _quickest(node: GraphNode, require_valid: bool, memo: dict) -> tuple | None:
    """(time in ticks, first eid) of the least (time, eids) path from
    `node` to the terminal, memoized in `memo`; None when none completes."""
    if not node.remaining:
        return (0, "")
    if node in memo:
        return memo[node]
    top = None
    for eid, edge in node.edges.items():
        if require_valid and not edge.valid:
            continue
        child = _quickest(edge.child, require_valid, memo)
        if child is not None:
            here = (edge.price.ticks + child[0], eid)
            if top is None or here < top:
                top = here
    memo[node] = top
    return top


def _ranks_before(a: tuple, b: tuple, time_first: bool) -> bool:
    """Whether suffix `a` ranks before `b`, both as `_best_path` keeps
    them, by cross-multiplying their positive product denominators."""
    # a's product is the larger when pb < pa.
    pa, pb = a[0] * b[1], b[0] * a[1]
    if time_first:
        return (a[2], pb, a[3]) < (b[2], pa, b[3])
    return (pb, a[2], a[3]) < (pa, b[2], b[3])


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
