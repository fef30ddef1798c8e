"""Planner unit tests.

The expected numbers in here were derived by hand (or by the brute-force
oracle in planner_oracle.py) before being frozen, so a regression in the
planner cannot silently re-derive them.
"""

import random
from fractions import Fraction

import pytest
from planner_oracle import iter_paths, oracle_admissible, oracle_best, oracle_orders
from scenario_gen import random_group

from feac.model import Emergency, Op, TaskSet
from feac.planner import (
    InfluencePair,
    InfluenceSpec,
    PlannerConfig,
    adjust_metrics,
    adjusted_deadline,
    build_transition_graph,
    compute_p_value,
    count_admissible_orders,
    iter_admissible_orders,
    path_count,
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


class TestInfluenceArithmetic:
    def test_single_pair_adjustments(self):
        e = em("E1", 1, 10, (2, "0.8", ()))
        infl = InfluenceSpec(
            pairs={("E2", "E1"): InfluencePair(sigma_p=F(1, 4), sigma_t=F(3, 10), sigma_ed=F(1, 10))}
        )
        cfg = PlannerConfig(alpha=F(2), beta=F(1))
        m = adjust_metrics(e, e.task_sets[0], {"E2"}, infl, cfg)
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
        sigma_p, sigma_t, sigma_ed = infl.sigmas("X", {"A", "B"})
        assert sigma_p == 1 - F(4, 5) * F(1, 2) == F(3, 5)
        assert sigma_t == 0 and sigma_ed == 0

    def test_non_influencers_do_nothing(self):
        infl = InfluenceSpec(pairs={("A", "X"): InfluencePair(sigma_t=F(1, 2))})
        assert infl.sigmas("X", {"B", "C"}) == (0, 0, 0)

    def test_adjusted_deadline_uses_beta(self):
        e = em("E1", 1, 20, (1, "0.5", ()))
        infl = InfluenceSpec(pairs={("E2", "E1"): InfluencePair(sigma_ed=F(1, 4))})
        cfg = PlannerConfig(beta=F(2))
        assert adjusted_deadline(e, {"E2"}, infl, cfg) == (1 - 2 * F(1, 4)) * 20 == 10


class TestAdmissibleOrders:
    def test_priority_classes_multiply(self):
        group = [em("E1", 1, 9, (1, "0.5", ())), em("E2", 1, 9, (1, "0.5", ())),
                 em("E3", 2, 9, (1, "0.5", ()))]
        assert count_admissible_orders(group, set()) == 2
        assert sorted(iter_admissible_orders(group, set())) == [
            ("E1", "E2", "E3"),
            ("E2", "E1", "E3"),
        ]

    def test_time_dependency_welds_a_block(self):
        group = [em("E1", 1, 9, (1, "0.5", ())), em("E2", 1, 9, (1, "0.5", ())),
                 em("E3", 2, 9, (1, "0.5", ()))]
        orders = sorted(iter_admissible_orders(group, {("E1", "E3")}))
        assert orders == [("E1", "E3", "E2"), ("E2", "E1", "E3")]
        assert count_admissible_orders(group, {("E1", "E3")}) == 2

    def test_matches_oracle_on_random_groups(self):
        for seed in range(40):
            rng = random.Random(7_000 + seed)
            group, tdt, _ = random_group(rng)
            mine = sorted(iter_admissible_orders(group, tdt))
            assert mine == sorted(set(mine)), "orders must be distinct"
            assert mine == oracle_orders(group, tdt)
            assert len(mine) == count_admissible_orders(group, tdt)


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


class TestGraphShape:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            build_transition_graph([], set(), InfluenceSpec(), PlannerConfig())

    def test_mixed_entities_rejected(self):
        group = [em("A", 1, 9, (1, "0.5", ())), em("B", 1, 9, (1, "0.5", ()), entity="P2")]
        with pytest.raises(ValueError):
            build_transition_graph(group, set(), InfluenceSpec(), PlannerConfig())


def test_matches_oracle_on_random_groups():
    for case in range(120):
        rng = random.Random(40_000 + case)
        group, tdt, infl = random_group(rng)
        alpha = rng.choice([F(1), F(2)])
        beta = rng.choice([F(1), F(1, 2)])
        gate = F(rng.randint(0, 4))
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
    for case in range(100):
        rng = random.Random(90_000 + case)
        group, tdt, infl = random_group(rng, max_size=7)
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
