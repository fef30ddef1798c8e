"""Planner unit tests.

The expected numbers in here were derived by hand (or by the brute-force
oracle in planner_oracle.py) before being frozen, so a regression in the
planner cannot silently re-derive them.
"""

import ast
import gc
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from planner_oracle import (
    count_admissible_orders,
    iter_paths,
    oracle_admissible,
    oracle_best,
    oracle_fallback,
    oracle_orders,
    oracle_walk,
    path_count,
)
from scenario_gen import random_group

from feac import cli, planner
from feac.model import Emergency, Op, TaskSet
from feac.planner import (
    InfluencePair,
    InfluenceSpec,
    PlannerConfig,
    Pricing,
    build_transition_graph,
    compute_p_value,
    plan_to_text,
    prob_first_select,
    select_optimal_path,
    select_task_set,
    time_first_select,
)

F = Fraction


def em(eid, prio, ed, *ts_specs, entity="P1"):
    task_sets = tuple(
        TaskSet(
            tsid=f"TS{i + 1}",
            actions=(("O1", Op.USE),),
            time=F(t),
            prob=F(p),
            resources=frozenset(res),
        )
        for i, (t, p, res) in enumerate(ts_specs)
    )
    return Emergency(eid, entity, prio, F(ed), True, task_sets)


def patient_group():
    # Cardiac arrest, headache, fever: the two-order tied group.
    e3 = em("E3", 6, 8, (1, "0.8", ()))
    e4 = em("E4", 9, 30, (1, "0.9", ()))
    e5 = em("E5", 9, 20, (2, "0.95", ()))
    infl = InfluenceSpec(
        pairs={
            ("E4", "E5"): InfluencePair(sigma_t=F(1, 5)),
            ("E5", "E4"): InfluencePair(sigma_t=F(1, 5)),
        }
    )
    return [e3, e4, e5], infl


class TestSelectTaskSet:
    def test_highest_probability_wins(self):
        e = em("E1", 1, 10, (2, "0.8", ()), (5, "0.9", ()))
        assert select_task_set(e, None).tsid == "TS2"

    def test_probability_tie_breaks_on_time(self):
        e = em("E1", 1, 10, (4, "0.9", ()), (2, "0.9", ()))
        assert select_task_set(e, None).tsid == "TS2"

    def test_full_tie_breaks_on_tsid(self):
        e = em("E1", 1, 10, (2, "0.9", ()), (2, "0.9", ()))
        assert select_task_set(e, None).tsid == "TS1"

    def test_resource_filtering(self):
        e = em("E1", 1, 10, (1, "0.9", ("MRI",)), (1, "0.5", ()))
        assert select_task_set(e, frozenset()).tsid == "TS2"
        assert select_task_set(e, frozenset({"MRI"})).tsid == "TS1"
        assert select_task_set(e, None).tsid == "TS1"

    def test_total_starvation_returns_none(self):
        e = em("E1", 1, 10, (1, "0.9", ("MRI",)))
        assert select_task_set(e, frozenset()) is None


def priced_under(infl, member, others, cfg=PlannerConfig()):
    """The kernel's (Price, complement product) of emergency `member` while
    `others` are pending, each of them a placeholder emergency."""
    group = [member] + [em(eid, 1, 9, (1, "0.5", ())) for eid in others]
    group.sort(key=lambda e: e.eid)
    pricing = Pricing(group, [e.task_sets[0] for e in group], infl, cfg, F(0))
    i, mask = group.index(member), (1 << len(group)) - 1
    return pricing.price(mask)[0][i], pricing.fold(i, mask)


def adjusted(infl, member, others, cfg):
    return priced_under(infl, member, others, cfg)[0].metrics


def combined_sigmas(infl, influenced, others):
    keep = priced_under(infl, em(influenced, 1, 9, (1, "0.5", ())), others)[1]
    return tuple(1 - F(keep[k], keep[k + 1]) for k in (0, 2, 4))


class TestInfluenceArithmetic:
    def test_single_pair_adjustments(self):
        e = em("E1", 1, 10, (2, "0.8", ()))
        infl = InfluenceSpec(
            pairs={("E2", "E1"): InfluencePair(sigma_p=F(1, 4), sigma_t=F(3, 10), sigma_ed=F(1, 10))}
        )
        cfg = PlannerConfig(alpha=F(2), beta=F(1))
        m = adjusted(infl, e, ["E2"], cfg)
        assert m.p == F(3, 4) * F(4, 5)
        assert m.t == (1 + 2 * F(3, 10)) * 2 == F(16, 5)
        assert m.ed == F(9, 10) * 10 == 9

    def test_influencers_combine_by_complement_product(self):
        infl = InfluenceSpec(
            pairs={
                ("A", "X"): InfluencePair(sigma_p=F(1, 5)),
                ("B", "X"): InfluencePair(sigma_p=F(1, 2)),
            }
        )
        sigma_p, sigma_t, sigma_ed = combined_sigmas(infl, "X", ["A", "B"])
        assert sigma_p == 1 - F(4, 5) * F(1, 2) == F(3, 5)
        assert sigma_t == 0 and sigma_ed == 0

    def test_non_influencers_do_nothing(self):
        infl = InfluenceSpec(pairs={("A", "X"): InfluencePair(sigma_t=F(1, 2))})
        assert combined_sigmas(infl, "X", ["B", "C"]) == (0, 0, 0)

    def test_adjusted_deadline_uses_beta(self):
        e = em("E1", 1, 20, (1, "0.5", ()))
        infl = InfluenceSpec(pairs={("E2", "E1"): InfluencePair(sigma_ed=F(1, 4))})
        cfg = PlannerConfig(beta=F(2))
        ed = adjusted(infl, e, ["E2"], cfg).ed
        assert ed == (1 - 2 * F(1, 4)) * 20 == 10


def exhaustive_orders(group, tdt):
    """Every path of the group's exhaustive graph, sorted."""
    orders = count_admissible_orders(group, tdt)
    graph = build_transition_graph(group, tdt, InfluenceSpec(), PlannerConfig(k_cap=orders))
    assert not graph.sampled
    return sorted(iter_paths(graph))


def welded_group(rng):
    """Up to 7 emergencies in one or two priority classes. Each class holds
    two or more TDT blocks, and one block per class spans two or more
    priority levels; eids are shuffled so their order says nothing."""
    keys = sorted(rng.sample([1, 2, 3], rng.randint(1, 2)))
    # Per class, blocks as lists of level sizes.
    layout = {key: [[1, 1], [1]] for key in keys}
    for _ in range(rng.randint(0, 7 - 3 * len(keys))):
        blocks = layout[rng.choice(keys)]
        roll = rng.random()
        if roll < 0.4:
            block = rng.choice([b for b in blocks if len(b) > 1])
            block[rng.randrange(len(block))] += 1
        elif roll < 0.7:
            rng.choice(blocks).append(1)
        else:
            blocks.append([1])
    names = [f"E{i}" for i in range(1, 8)]
    rng.shuffle(names)
    group, tdt = [], set()
    for key, blocks in layout.items():
        for block in blocks:
            prio, levels = key, []
            for size in block:
                levels.append([em(names.pop(), prio, 99, (1, "0.5", ())) for _ in range(size)])
                prio += rng.randint(1, 2)
            # Weld level 0 to the head of level 1, and every later member
            # to the head of level 0.
            if len(levels) > 1:
                tdt.update((member.eid, levels[1][0].eid) for member in levels[0])
            for level in levels[1:]:
                tdt.update((levels[0][0].eid, member.eid) for member in level)
            group.extend(m for level in levels for m in level)
    rng.shuffle(group)
    return group, tdt


class TestAdmissibleOrders:
    # The exhaustive graph expands states by the successor rule; its paths
    # must be exactly the admissible orders.
    def test_priority_classes_multiply(self):
        group = [em("E1", 1, 9, (1, "0.5", ())), em("E2", 1, 9, (1, "0.5", ())),
                 em("E3", 2, 9, (1, "0.5", ()))]
        assert count_admissible_orders(group, set()) == 2
        assert exhaustive_orders(group, set()) == oracle_orders(group, set()) == [
            ("E1", "E2", "E3"),
            ("E2", "E1", "E3"),
        ]

    def test_time_dependency_welds_a_block(self):
        group = [em("E1", 1, 9, (1, "0.5", ())), em("E2", 1, 9, (1, "0.5", ())),
                 em("E3", 2, 9, (1, "0.5", ()))]
        orders = exhaustive_orders(group, {("E1", "E3")})
        assert orders == oracle_orders(group, {("E1", "E3")})
        assert orders == [("E1", "E3", "E2"), ("E2", "E1", "E3")]
        assert count_admissible_orders(group, {("E1", "E3")}) == 2

    def test_open_block_continues_before_an_earlier_unstarted_block(self):
        # Blocks A = [A1], [A2] and B = [B1], [B2, B3] share class 1, and A
        # sorts first. Once B1 is taken, B stays open and must finish before
        # A may start.
        group = [em("A1", 1, 9, (1, "0.5", ())), em("A2", 3, 9, (1, "0.5", ())),
                 em("B1", 1, 9, (1, "0.5", ())), em("B2", 2, 9, (1, "0.5", ())),
                 em("B3", 2, 9, (1, "0.5", ()))]
        tdt = {("A1", "A2"), ("B1", "B2"), ("B1", "B3")}
        assert exhaustive_orders(group, tdt) == oracle_orders(group, tdt) == [
            ("A1", "A2", "B1", "B2", "B3"),
            ("A1", "A2", "B1", "B3", "B2"),
            ("B1", "B2", "B3", "A1", "A2"),
            ("B1", "B3", "B2", "A1", "A2"),
        ]
        assert count_admissible_orders(group, tdt) == 4
        graph = build_transition_graph(group, tdt, InfluenceSpec(), PlannerConfig(k_cap=4))
        assert sorted(graph.root.edges["B1"].child.edges) == ["B2", "B3"]

    def test_matches_oracle_on_random_groups(self):
        for seed in range(40):
            rng = random.Random(7_000 + seed)
            group, tdt, _ = random_group(rng)
            mine = exhaustive_orders(group, tdt)
            assert mine == sorted(set(mine)), "orders must be distinct"
            assert mine == oracle_orders(group, tdt)
            assert len(mine) == count_admissible_orders(group, tdt)

    def test_matches_oracle_on_multi_level_blocks(self):
        for seed in range(40):
            group, tdt = welded_group(random.Random(8_000 + seed))
            mine = exhaustive_orders(group, tdt)
            assert mine == oracle_orders(group, tdt), seed
            assert len(mine) == count_admissible_orders(group, tdt), seed


class TestPatientGroup:
    def test_two_tied_orders(self):
        group, infl = patient_group()
        graph = build_transition_graph(group, set(), infl, PlannerConfig(), gate_release=F(3))
        assert graph.order_count == 2
        assert not graph.sampled
        assert path_count(graph) == 2
        assert graph.root.elapsed == 3

    def test_value_is_exact(self):
        group, infl = patient_group()
        graph = build_transition_graph(group, set(), infl, PlannerConfig(), gate_release=F(3))
        assert compute_p_value(graph) == F(171, 250)

    def test_optimal_path_takes_the_shorter_tied_order(self):
        group, infl = patient_group()
        graph = build_transition_graph(group, set(), infl, PlannerConfig(), gate_release=F(3))
        compute_p_value(graph)
        path = select_optimal_path(graph)
        assert path.eids == ("E3", "E4", "E5")
        assert path.product == F(171, 250)
        assert path.total_time == F(21, 5)
        # The other order exists in the graph and is two tenths slower.
        longer = [p for p in iter_paths(graph) if p == ("E3", "E5", "E4")]
        assert longer

    def test_plan_text(self):
        group, infl = patient_group()
        graph = build_transition_graph(group, set(), infl, PlannerConfig(), gate_release=F(3))
        pv = compute_p_value(graph)
        text = plan_to_text(pv, select_optimal_path(graph), "optimal")
        assert text == (
            "E3 TS1 p=0.8 t=1 ed=8 done=4\n"
            "E4 TS1 p=0.9 t=1.2 ed=30 done=5.2\n"
            "E5 TS1 p=0.95 t=2 ed=20 done=7.2\n"
            "pv=0.684 strategy=optimal\n"
        )


def test_environment_group_value():
    group = [em("E1", 3, 20, (3, "0.8", ()), entity="env"),
             em("E2", 4, 10, (2, "0.85", ()), entity="env")]
    graph = build_transition_graph(group, set(), InfluenceSpec(), PlannerConfig())
    assert graph.order_count == 1
    assert compute_p_value(graph) == F(17, 25)
    assert select_optimal_path(graph).eids == ("E1", "E2")


def test_second_patient_group_value():
    group = [em("E6", 7, 18, (2, "0.85", ()), entity="P2"),
             em("E7", 8, 12, (1, "0.9", ()), entity="P2")]
    graph = build_transition_graph(
        group, {("E6", "E7")}, InfluenceSpec(), PlannerConfig(), gate_release=F(5)
    )
    assert compute_p_value(graph) == F(153, 200)


def test_step_that_would_expire_another_pending_emergency_is_dead():
    # Forward order finishes the slow one first and breaks the tight one's
    # window; only the reversed order survives.
    slow = em("A", 1, 20, (5, "0.9", ()))
    tight = em("B", 1, 4, (1, "0.9", ()))
    graph = build_transition_graph([slow, tight], set(), InfluenceSpec(), PlannerConfig())
    assert compute_p_value(graph) == F(81, 100)
    assert select_optimal_path(graph).eids == ("B", "A")


def test_own_deadline_overshoot_is_dead():
    late = em("A", 1, 2, (3, "0.9", ()))
    graph = build_transition_graph([late], set(), InfluenceSpec(), PlannerConfig())
    assert compute_p_value(graph) == 0
    assert select_optimal_path(graph) is None


class TestFallbackSelectors:
    def build(self):
        a = em("A", 1, 1, (2, "0.5", ()))
        b = em("B", 1, 1, (2, "0.5", ()))
        infl = InfluenceSpec(
            pairs={
                ("A", "B"): InfluencePair(sigma_t=F(1, 2)),
                ("B", "A"): InfluencePair(sigma_p=F(1, 2)),
            }
        )
        graph = build_transition_graph([a, b], set(), infl, PlannerConfig())
        assert compute_p_value(graph) == 0
        return graph

    def test_probability_first_maximizes_product(self):
        path = prob_first_select(self.build())
        assert path.eids == ("B", "A")
        assert path.product == F(1, 4)
        assert path.total_time == F(5)

    def test_time_first_minimizes_duration(self):
        path = time_first_select(self.build())
        assert path.eids == ("A", "B")
        assert path.product == F(1, 8)
        assert path.total_time == F(4)

    def test_zero_products_tie_and_time_decides(self):
        # A's only task set never succeeds, so every order is worth 0 and
        # probability first ranks by time like time first. B takes 3 while
        # A is pending and 2 after, so the three orders with A before B tie
        # at 4 and the smallest of them wins.
        group = [em("A", 1, 1, (1, "0", ())), em("B", 1, 1, (2, "0.5", ())),
                 em("C", 1, 1, (1, "0.9", ()))]
        infl = InfluenceSpec(pairs={("A", "B"): InfluencePair(sigma_t=F(1, 2))})
        graph = build_transition_graph(group, set(), infl, PlannerConfig())
        assert compute_p_value(graph) == 0
        assert select_optimal_path(graph) is None
        for select, time_first in ((prob_first_select, False), (time_first_select, True)):
            path = select(graph)
            assert (path.eids, path.product, path.total_time) == (("A", "B", "C"), 0, 4)
            assert oracle_fallback(group, set(), infl.pairs, time_first) == (
                ("A", "B", "C"), 0, 4
            )

    def test_selectors_on_empty_graph(self):
        starved = em("A", 1, 10, (1, "0.9", ("MRI",)))
        graph = build_transition_graph(
            [starved], set(), InfluenceSpec(), PlannerConfig(),
            available_resources=frozenset(),
        )
        assert compute_p_value(graph) == 0
        assert prob_first_select(graph).steps == ()
        assert time_first_select(graph).steps == ()


class TestSampling:
    def equal_prio_group(self, n):
        return [em(f"E{i}", 5, 99, (1, "0.5", ())) for i in range(1, n + 1)]

    def test_small_groups_enumerate_fully(self):
        graph = build_transition_graph(
            self.equal_prio_group(4), set(), InfluenceSpec(), PlannerConfig(k_cap=24)
        )
        assert not graph.sampled
        assert graph.order_count == 24
        assert path_count(graph) == 24

    def test_cap_draws_exactly_k_distinct_orders(self):
        cfg = PlannerConfig(k_cap=10, seed=3)
        graph = build_transition_graph(self.equal_prio_group(5), set(), InfluenceSpec(), cfg)
        assert graph.sampled
        assert graph.order_count == 120
        paths = list(iter_paths(graph))
        assert len(paths) == 10
        assert len(set(paths)) == 10
        group = self.equal_prio_group(5)
        assert all(oracle_admissible(p, group, set()) for p in paths)

    def test_sampling_is_deterministic_per_seed_and_gate(self):
        cfg = PlannerConfig(k_cap=10, seed=3)
        one = build_transition_graph(self.equal_prio_group(5), set(), InfluenceSpec(), cfg)
        two = build_transition_graph(self.equal_prio_group(5), set(), InfluenceSpec(), cfg)
        assert list(iter_paths(one)) == list(iter_paths(two))

    def test_different_seed_changes_the_draw(self):
        group = self.equal_prio_group(5)
        one = build_transition_graph(group, set(), InfluenceSpec(), PlannerConfig(k_cap=10, seed=3))
        two = build_transition_graph(group, set(), InfluenceSpec(), PlannerConfig(k_cap=10, seed=4))
        assert set(iter_paths(one)) != set(iter_paths(two))


def all_pairs_group(n):
    eids = [f"E{i}" for i in range(1, n + 1)]
    pair = InfluencePair(sigma_p=F(1, 10), sigma_t=F(1, 10), sigma_ed=F(1, 10))
    infl = InfluenceSpec({(a, b): pair for a in eids for b in eids if a != b})
    return [em(eid, 5, 99, (1, "0.5", ())) for eid in eids], infl


@pytest.mark.parametrize("k_cap, sampled", [(720, False), (100, True)])
def test_each_remaining_set_is_priced_once(k_cap, sampled, monkeypatch):
    # Influence depends only on which emergencies are pending, so a build
    # folds the influence on each member of each remaining set once: 6 * 2**5
    # complement products for six emergencies, whether all 720 orders or 100
    # drawn ones reach them.
    folds = []
    fold = planner.Pricing.fold

    def counting(pricing, i, mask):
        if mask not in pricing.memo[i]:
            folds.append((i, mask))
        return fold(pricing, i, mask)

    monkeypatch.setattr(planner.Pricing, "fold", counting)
    group, infl = all_pairs_group(6)
    graph = build_transition_graph(group, set(), infl, PlannerConfig(k_cap=k_cap))
    assert graph.sampled is sampled
    assert len(folds) == len(set(folds)) == 6 * 2**5


@pytest.mark.parametrize("k_cap, sampled", [(720, False), (100, True)])
def test_each_build_computes_its_blocks_once(k_cap, sampled, monkeypatch):
    calls = []
    blocks = planner._blocks

    def counting(group, tdt_pairs):
        calls.append(len(group))
        return blocks(group, tdt_pairs)

    monkeypatch.setattr(planner, "_blocks", counting)
    group, infl = all_pairs_group(6)
    graph = build_transition_graph(group, {("E1", "E2")}, infl, PlannerConfig(k_cap=k_cap))
    assert graph.sampled is sampled
    assert graph.order_count == 240
    assert calls == [6]


@pytest.mark.parametrize("k_cap, sampled", [(720, False), (100, True)])
def test_build_leaves_no_cyclic_garbage(k_cap, sampled):
    # Reference cycles would keep each build's tables alive until the cyclic
    # collector runs, which shows as peak memory.
    group, infl = all_pairs_group(6)
    gc.collect()
    gc.disable()
    try:
        graph = build_transition_graph(group, set(), infl, PlannerConfig(k_cap=k_cap))
        assert graph.sampled is sampled
        prob_first_select(graph)
        time_first_select(graph)
        path_count(graph)
        del graph
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestGraphShape:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            build_transition_graph([], set(), InfluenceSpec(), PlannerConfig())

    def test_mixed_entities_rejected(self):
        group = [em("A", 1, 9, (1, "0.5", ())), em("B", 1, 9, (1, "0.5", ()), entity="P2")]
        with pytest.raises(ValueError):
            build_transition_graph(group, set(), InfluenceSpec(), PlannerConfig())


# Sigma and gate denominators beyond the scenario's decimals, and betas
# that can take Ed' to 0 or below it.
WIDE_DENOMINATORS = (3, 7, 10)
WIDE_BETAS = [F(1, 2), F(1), F(2), F(5, 3)]


def wide_gate(rng):
    return F(rng.randint(0, 8), rng.choice([1, 2, 3, 7]))


def test_matches_oracle_on_random_groups():
    for case in range(120):
        rng = random.Random(40_000 + case)
        group, tdt, infl = random_group(rng, sigma_denominators=WIDE_DENOMINATORS)
        alpha = rng.choice([F(1), F(2)])
        beta = rng.choice(WIDE_BETAS)
        gate = wide_gate(rng)
        cfg = PlannerConfig(alpha=alpha, beta=beta, k_cap=120, seed=1)
        graph = build_transition_graph(group, tdt, infl, cfg, gate_release=gate)
        pv = compute_p_value(graph)
        want_pv, want_order = oracle_best(
            group, tdt, infl.pairs, alpha=alpha, beta=beta, gate=gate
        )
        assert pv == want_pv
        path = select_optimal_path(graph)
        assert (None if path is None else path.eids) == want_order


def test_merged_graphs_match_oracle():
    # Every order inserted, so equal (remaining, elapsed) states merge.
    shared = 0
    sizes = Counter()
    for case in range(100):
        rng = random.Random(90_000 + case)
        group, tdt, infl = random_group(rng, max_size=8)
        sizes[len(group)] += 1
        orders = count_admissible_orders(group, tdt)
        graph = build_transition_graph(group, tdt, infl, PlannerConfig(k_cap=orders))
        assert not graph.sampled
        want_pv, want_order = oracle_best(group, tdt, infl.pairs)
        assert compute_p_value(graph) == want_pv, case
        path = select_optimal_path(graph)
        assert (None if path is None else path.eids) == want_order, case
        assert path_count(graph) == orders, case
        children = [e.child for node in graph.nodes.values() for e in node.edges.values()]
        shared += len({id(child) for child in children}) < len(children)
    assert shared
    assert sizes[8] and sizes[7], sizes


def test_every_path_is_priced_like_the_oracle():
    # Sampled tries and merged graphs alike: a path's edges are all valid
    # exactly when the oracle's straight-line walk survives its order, and
    # then both price it the same.
    seen = Counter()
    for case in range(200):
        rng = random.Random(120_000 + case)
        group, tdt, infl = random_group(rng, max_size=6, sigma_denominators=WIDE_DENOMINATORS)
        alpha = rng.choice([F(1, 2), F(1), F(2)])
        beta = rng.choice(WIDE_BETAS)
        gate = wide_gate(rng)
        available = rng.choice([None, frozenset({"R1"}), frozenset({"R1", "R2"})])
        orders = count_admissible_orders(group, tdt)
        k_cap = rng.randint(1, orders - 1) if orders > 1 and rng.random() < 0.5 else orders
        cfg = PlannerConfig(alpha=alpha, beta=beta, k_cap=k_cap, seed=case)
        graph = build_transition_graph(
            group, tdt, infl, cfg, gate_release=gate, available_resources=available
        )
        assert graph.sampled == (k_cap < orders)
        seen["sampled" if graph.sampled else "exhaustive"] += 1
        for order in iter_paths(graph):
            node, valid, product, total = graph.root, True, F(1), F(0)
            for eid in order:
                edge = node.edges[eid]
                valid = valid and edge.valid
                product *= edge.metrics.p
                total += edge.metrics.t
                seen["Ed' <= 0"] += edge.metrics.ed <= 0
                node = edge.child
            priced = oracle_walk(order, group, infl.pairs, alpha, beta, gate, available)
            assert valid == (priced is not None), (case, order)
            if valid:
                assert (product, total) == priced, (case, order)
            seen["valid path" if valid else "dead path"] += 1
    assert min(seen.values()) >= 40, seen


def test_zero_success_influence_matches_oracle():
    # sigma_p = 1 takes p' to 0 while the influencer is pending, so many
    # orders tie on a product of 0 and time, then eids, must decide.
    seen = Counter()
    for case in range(120):
        rng = random.Random(230_000 + case)
        group, tdt, infl = random_group(rng, max_size=6)
        eids = sorted(em.eid for em in group)
        if len(eids) < 2:
            continue
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(eids, 2)
            infl.pairs[a, b] = InfluencePair(sigma_p=F(1), sigma_t=F(rng.randint(0, 2), 3))
        orders = count_admissible_orders(group, tdt)
        graph = build_transition_graph(group, tdt, infl, PlannerConfig(k_cap=orders))
        want_pv, want_order = oracle_best(group, tdt, infl.pairs)
        assert compute_p_value(graph) == want_pv, case
        path = select_optimal_path(graph)
        assert (None if path is None else path.eids) == want_order, case
        for select, time_first in ((prob_first_select, False), (time_first_select, True)):
            path = select(graph)
            want = oracle_fallback(group, tdt, infl.pairs, time_first)
            assert (path.eids, path.product, path.total_time) == want, (case, time_first)
        walks = [oracle_walk(p, group, infl.pairs, 1, 1, deadlines=False) for p in iter_paths(graph)]
        seen["tied at product 0"] += sum(product == 0 for product, _ in walks) > 1
        seen["optimal"] += want_order is not None
    assert min(seen.values()) >= 10, seen


def test_completing_exactly_at_the_bound_is_valid():
    # Under beta = 7/6, A's sigma_ed of 1/7 takes B's deadline to 5/6 of
    # itself: 4/3 for Ed = 8/5. From the root either member completes at
    # gate 1/3 plus 1, exactly at that bound, so both edges are valid; with
    # Ed a millionth less, both are dead. Only B then A can go on to finish.
    for ed, valid in ((F(8, 5), True), (F(8, 5) - F(1, 10**6), False)):
        group = [em("A", 1, 10, (1, "0.9", ())), em("B", 1, ed, (1, "0.8", ()))]
        infl = InfluenceSpec({("A", "B"): InfluencePair(sigma_ed=F(1, 7))})
        cfg = PlannerConfig(beta=F(7, 6))
        graph = build_transition_graph(group, set(), infl, cfg, gate_release=F(1, 3))
        assert graph.root.edges["B"].metrics.ed == ed * F(5, 6)
        for eid in ("A", "B"):
            edge = graph.root.edges[eid]
            assert edge.child.elapsed == F(4, 3)
            assert edge.valid is valid, (ed, eid)
        walked = oracle_walk(("B", "A"), group, infl.pairs, 1, F(7, 6), F(1, 3))
        assert (walked is not None) is valid
        assert oracle_walk(("A", "B"), group, infl.pairs, 1, F(7, 6), F(1, 3)) is None
        path = select_optimal_path(graph)
        assert (path.eids if valid else path) == (("B", "A") if valid else None)


def test_exhaustive_builds_make_fractions_per_path_not_per_edge():
    # Inside a build the planner works on ints; a Fraction is made only for
    # the values of the returned path (p', t', Ed' and the clock per step,
    # then the product and total time), however many edges the graph has.
    made = Counter()
    new = Fraction.__dict__["__new__"]
    coprime = Fraction.__dict__.get("_from_coprime_ints")

    def counting(cls, *args, **kwargs):
        made["fractions"] += 1
        return new.__func__(cls, *args, **kwargs)

    for n in (4, 5, 6):
        group, infl = all_pairs_group(n)
        made.clear()
        Fraction.__new__ = staticmethod(counting)
        if coprime is not None:  # how 3.12 and later build arithmetic results
            Fraction._from_coprime_ints = classmethod(
                lambda cls, num, den: counting(cls, num, den)
            )
        try:
            graph = build_transition_graph(group, set(), infl, PlannerConfig(k_cap=720))
        finally:
            Fraction.__new__ = new
            if coprime is not None:
                Fraction._from_coprime_ints = coprime
        edges = sum(len(node.edges) for node in graph.nodes.values())
        assert not graph.sampled
        assert len(graph.optimal.steps) == n
        assert made["fractions"] <= 4 * n + 2 < edges, (n, made, edges)


@pytest.mark.parametrize("time_first", [False, True])
def test_fallback_selectors_match_oracle(time_first):
    # The fallbacks ignore deadlines, so every admissible order competes.
    select = time_first_select if time_first else prob_first_select
    sizes = Counter()
    for case in range(80):
        rng = random.Random(150_000 + case)
        group, tdt, infl = random_group(rng, max_size=7, sigma_denominators=WIDE_DENOMINATORS)
        alpha = rng.choice([F(1, 2), F(1), F(2)])
        beta = rng.choice(WIDE_BETAS)
        available = rng.choice([None, frozenset({"R1"}), frozenset({"R1", "R2"})])
        orders = count_admissible_orders(group, tdt)
        cfg = PlannerConfig(alpha=alpha, beta=beta, k_cap=orders)
        graph = build_transition_graph(
            group, tdt, infl, cfg, gate_release=wide_gate(rng), available_resources=available
        )
        assert not graph.sampled
        path = select(graph)
        want = oracle_fallback(group, tdt, infl.pairs, time_first, alpha, available)
        if want is None:
            assert path.steps == (), case
        else:
            assert (path.eids, path.product, path.total_time) == want, case
            sizes[len(group)] += 1
    assert sizes[7] and sizes[6], sizes


def test_planner_values_are_fractions():
    # Integer arithmetic inside the planner must leave it as Fractions only;
    # a true division of two ints would leave a float here.
    seen = Counter()
    for case in range(120):
        rng = random.Random(170_000 + case)
        group, tdt, infl = random_group(rng, max_size=6)
        alpha = rng.choice([F(1, 2), F(1), F(2)])
        beta = rng.choice([F(1, 2), F(1), F(2)])
        orders = count_admissible_orders(group, tdt)
        k_cap = rng.randint(1, orders - 1) if orders > 1 and rng.random() < 0.5 else orders
        cfg = PlannerConfig(alpha=alpha, beta=beta, k_cap=k_cap, seed=case)
        graph = build_transition_graph(group, tdt, infl, cfg, gate_release=F(rng.randint(0, 8), 2))
        seen["sampled" if graph.sampled else "exhaustive"] += 1
        values = []
        for node in graph.nodes.values():
            values.append(node.elapsed)
            for edge in node.edges.values():
                values += [edge.metrics.p, edge.metrics.t, edge.metrics.ed]
        if graph.optimal is not None:
            seen["optimal"] += 1
            values += [graph.optimal.product, graph.optimal.total_time]
        paths = [select_optimal_path(graph), prob_first_select(graph), time_first_select(graph)]
        for path in filter(None, paths):
            values += [path.product, path.total_time]
            for step in path.steps:
                values += [step.p, step.t, step.ed, step.end_elapsed]
        assert all(type(value) is Fraction for value in values), case
    assert min(seen.values()) >= 20, seen


def test_nodes_are_inserted_before_their_children():
    # Valuation and path counting visit graph.nodes in reverse insertion
    # order, which is children first only if every parent precedes its children.
    seen = Counter()
    for case in range(120):
        rng = random.Random(190_000 + case)
        group, tdt, infl = random_group(rng, max_size=6)
        orders = count_admissible_orders(group, tdt)
        k_cap = rng.randint(1, orders - 1) if orders > 1 and rng.random() < 0.5 else orders
        cfg = PlannerConfig(k_cap=k_cap, seed=case)
        graph = build_transition_graph(group, tdt, infl, cfg, gate_release=F(rng.randint(0, 8), 2))
        seen["sampled" if graph.sampled else "exhaustive"] += 1
        position = {node: i for i, node in enumerate(graph.nodes.values())}
        assert len(position) == len(graph.nodes), case
        for node in graph.nodes.values():
            for edge in node.edges.values():
                assert position[node] < position[edge.child], case
        if compute_p_value(graph) > 0:
            seen["optimal"] += 1
            assert select_optimal_path(graph) is graph.optimal, case
    assert min(seen.values()) >= 20, seen


def test_planner_source_has_no_true_division_or_float():
    tree = ast.parse(Path(planner.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        assert not isinstance(getattr(node, "op", None), ast.Div), node.lineno
        assert not (isinstance(node, ast.Name) and node.id == "float"), node.lineno


def test_feac_plan_counts_paths_without_walking_the_graph():
    # `feac plan` reads paths= off how the graph was built. It must equal the
    # walked count on exhaustive, sampled and bare-root graphs; a group whose
    # resources are all locked starves to a bare root.
    seen = Counter()
    for case in range(150):
        rng = random.Random(210_000 + case)
        group, tdt, infl = random_group(rng, max_size=6)
        available = rng.choice([None, frozenset(), frozenset({"R1"}), frozenset({"R1", "R2"})])
        orders = count_admissible_orders(group, tdt)
        k_cap = rng.randint(1, orders - 1) if orders > 1 and rng.random() < 0.5 else orders
        cfg = PlannerConfig(k_cap=k_cap, seed=case)
        graph = build_transition_graph(group, tdt, infl, cfg, available_resources=available)
        walked = path_count(graph)
        assert cli._path_count(graph, k_cap) == walked, case
        seen["bare root" if walked == 0 else "sampled" if graph.sampled else "exhaustive"] += 1
    assert min(seen.values()) >= 20, seen
