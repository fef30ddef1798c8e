"""Brute-force reference for group planning, kept independent of the planner.

The oracle enumerates raw permutations of a group and filters them with an
admissibility predicate stated directly over the ordering rules:

* emergencies welded by time dependencies occupy contiguous positions and
  appear in non-decreasing priority within their component;
* reading the order left to right, the best priority of each component is
  non-decreasing.

Each admissible order is then priced by a straight-line walk that redoes
the influence and deadline arithmetic from scratch. Nothing here calls
into feac.planner except for the shared data types; `iter_paths` and
`path_count` only walk a graph the planner built, so its paths can be
compared with these orders, and `count_admissible_orders` counts them by
formula where enumerating them would take too long.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from feac.model import Emergency, TaskSet

ZERO = Fraction(0)
ONE = Fraction(1)


def _components(eids: list[str], tdt_pairs) -> dict[str, frozenset[str]]:
    """Map each eid to its undirected time-dependency component."""
    neighbours: dict[str, set[str]] = {eid: set() for eid in eids}
    for a, b in tdt_pairs:
        if a in neighbours and b in neighbours:
            neighbours[a].add(b)
            neighbours[b].add(a)
    comp_of: dict[str, frozenset[str]] = {}
    for eid in eids:
        if eid in comp_of:
            continue
        seen = {eid}
        frontier = [eid]
        while frontier:
            node = frontier.pop()
            for nxt in neighbours[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        frozen = frozenset(seen)
        for member in seen:
            comp_of[member] = frozen
    return comp_of


def _admissibility(group: list[Emergency], tdt_pairs):
    """The predicate `oracle_admissible` applies, for one group."""
    by_eid = {em.eid: em for em in group}
    eids = sorted(by_eid)
    comp_of = _components(list(by_eid), tdt_pairs)
    comps = set(comp_of.values())

    def admissible(order) -> bool:
        if sorted(order) != eids:
            return False
        position = {eid: idx for idx, eid in enumerate(order)}
        for comp in comps:
            spots = sorted(position[eid] for eid in comp)
            if spots[-1] - spots[0] != len(spots) - 1:
                return False
            prios = [by_eid[order[idx]].prio for idx in spots]
            if any(a > b for a, b in zip(prios, prios[1:])):
                return False

        comp_keys: list[int] = []
        seen_comps = set()
        for eid in order:
            comp = comp_of[eid]
            if comp not in seen_comps:
                seen_comps.add(comp)
                comp_keys.append(min(by_eid[member].prio for member in comp))
        return all(a <= b for a, b in zip(comp_keys, comp_keys[1:]))

    return admissible


def oracle_admissible(order, group: list[Emergency], tdt_pairs) -> bool:
    return _admissibility(group, tdt_pairs)(order)


def oracle_orders(group: list[Emergency], tdt_pairs) -> list[tuple[str, ...]]:
    admissible = _admissibility(group, tdt_pairs)
    eids = sorted(em.eid for em in group)
    return [perm for perm in itertools.permutations(eids) if admissible(perm)]


def count_admissible_orders(group: list[Emergency], tdt_pairs) -> int:
    """How many orders `oracle_admissible` accepts, without enumerating them:
    components with equal best priority may come in any order, and so may a
    component's members of equal priority."""
    prio = {em.eid: em.prio for em in group}
    comps = set(_components(list(prio), tdt_pairs).values())
    count = 1
    for n in Counter(min(prio[eid] for eid in comp) for comp in comps).values():
        count *= math.factorial(n)
    for comp in comps:
        for n in Counter(prio[eid] for eid in comp).values():
            count *= math.factorial(n)
    return count


def _combined_sigmas(influenced: str, others, pairs) -> tuple[Fraction, Fraction, Fraction]:
    keep = [ONE, ONE, ONE]
    for other in others:
        pair = pairs.get((other, influenced))
        if pair is None:
            continue
        keep[0] *= ONE - pair.sigma_p
        keep[1] *= ONE - pair.sigma_t
        keep[2] *= ONE - pair.sigma_ed
    return (ONE - keep[0], ONE - keep[1], ONE - keep[2])


def _pick_task_set(em: Emergency, available) -> TaskSet | None:
    best: TaskSet | None = None
    for ts in em.task_sets:
        if available is not None and not (ts.resources <= available):
            continue
        if best is None or (-ts.prob, ts.time, ts.tsid) < (-best.prob, best.time, best.tsid):
            best = ts
    return best


def oracle_walk(
    order,
    group: list[Emergency],
    pairs,
    alpha: Fraction,
    beta: Fraction,
    gate: Fraction = ZERO,
    available=None,
    deadlines: bool = True,
):
    """Price one order. Returns (product, total_time) or None when any step
    dies: no executable task set, own adjusted deadline overshot, or some
    other still-pending emergency pushed past its adjusted deadline. With
    `deadlines` off only a missing task set kills a step."""
    by_eid = {em.eid: em for em in group}
    elapsed = gate
    product = ONE
    total = ZERO
    remaining = set(by_eid)
    for eid in order:
        em = by_eid[eid]
        ts = _pick_task_set(em, available)
        if ts is None:
            return None
        others = remaining - {eid}
        sigma_p, sigma_t, sigma_ed = _combined_sigmas(eid, others, pairs)
        p_adj = (ONE - sigma_p) * ts.prob
        t_adj = (ONE + alpha * sigma_t) * ts.time
        ed_adj = (ONE - beta * sigma_ed) * em.ed
        finish = elapsed + t_adj
        if deadlines and finish > ed_adj:
            return None
        for other in others if deadlines else ():
            _, _, other_sigma_ed = _combined_sigmas(other, remaining - {other}, pairs)
            other_ed = (ONE - beta * other_sigma_ed) * by_eid[other].ed
            if finish > other_ed:
                return None
        product *= p_adj
        total += t_adj
        elapsed = finish
        remaining.discard(eid)
    return (product, total)


def oracle_best(
    group: list[Emergency],
    tdt_pairs,
    pairs,
    alpha: Fraction = ONE,
    beta: Fraction = ONE,
    gate: Fraction = ZERO,
    available=None,
):
    """(pv, best order eids or None): max product over surviving admissible
    orders, ties broken by least total adjusted time then smallest order."""
    pv = ZERO
    best_key = None
    best_order = None
    for order in oracle_orders(group, tdt_pairs):
        priced = oracle_walk(order, group, pairs, alpha, beta, gate, available)
        if priced is None:
            continue
        product, total = priced
        if product > pv:
            pv = product
        key = (-product, total, order)
        if best_key is None or key < best_key:
            best_key = key
            best_order = order
    return pv, (best_order if pv > ZERO else None)


def oracle_fallback(
    group: list[Emergency],
    tdt_pairs,
    pairs,
    time_first: bool,
    alpha: Fraction = ONE,
    available=None,
):
    """(order, product, total_time) of the admissible order a fallback
    selector picks, deadlines ignored: least (-product, total, order), or
    least (total, -product, order) when `time_first`. None when no order
    completes."""
    best_key = None
    best = None
    for order in oracle_orders(group, tdt_pairs):
        priced = oracle_walk(order, group, pairs, alpha, ONE, ZERO, available, deadlines=False)
        if priced is None:
            continue
        product, total = priced
        key = (total, -product, order) if time_first else (-product, total, order)
        if best_key is None or key < best_key:
            best_key = key
            best = (order, product, total)
    return best


def iter_paths(graph):
    """Yield the eid sequence of every root-to-terminal path of a built graph."""

    def walk(node, prefix):
        if not node.remaining:
            yield prefix
            return
        for eid in sorted(node.edges):
            yield from walk(node.edges[eid].child, prefix + (eid,))

    yield from walk(graph.root, ())


def path_count(graph) -> int:
    """Number of root-to-terminal paths of a built graph, counted children
    first over `graph.nodes`."""
    counts = {}
    for node in reversed(graph.nodes.values()):
        counts[node] = sum(counts[e.child] for e in node.edges.values()) if node.remaining else 1
    return counts[graph.root]
