"""Property-based invariants across randomly drawn inputs."""

import random
import string
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from feac.audit import AuditLog, parse_trace
from feac.checks import check_trace
from feac.exact import format_number, parse_number
from feac.model import Emergency, Op, TaskSet
from feac.planner import (
    InfluencePair,
    InfluenceSpec,
    PlannerConfig,
    adjust_metrics,
    build_transition_graph,
    complement_product,
    compute_p_value,
    count_admissible_orders,
)
from feac.scenario import parse_scenario, print_scenario
from feac.sim import run_simulation

from planner_oracle import iter_paths, oracle_best, oracle_orders
from scenario_gen import generate_scenario_text, random_group

F = Fraction

fractions = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)
sigmas = st.fractions(min_value=0, max_value=F(99, 100), max_denominator=100)
weights = st.sampled_from([F(1, 2), F(1), F(2)])


def combined_sigmas(spec, influenced, others):
    """(sigma_p, sigma_t, sigma_ed) the planner applies to `influenced` under `others`."""
    remaining = frozenset(others) | {influenced}
    keep = complement_product({}, spec.complements(remaining), influenced, remaining)
    return tuple(1 - F(num, den) for num, den in keep)


class TestExactNumbers:
    @given(fractions)
    def test_format_parse_round_trip(self, x):
        assert parse_number(format_number(x)) == x

    @given(fractions)
    def test_terminating_decimals_never_print_as_ratios(self, x):
        text = format_number(x)
        if "/" not in text:
            assert F(text) == x


class TestInfluenceComposition:
    @given(st.lists(sigmas, min_size=1, max_size=6))
    def test_combined_strength_stays_inside_the_unit_interval(self, strengths):
        spec = InfluenceSpec(
            pairs={(f"X{i}", "T"): InfluencePair(sigma_p=s) for i, s in enumerate(strengths)}
        )
        combined, _, _ = combined_sigmas(spec, "T", [f"X{i}" for i in range(len(strengths))])
        assert 0 <= combined < 1
        assert combined >= max(strengths)

    @given(st.lists(sigmas, min_size=1, max_size=5), sigmas)
    def test_one_more_influencer_never_weakens_the_effect(self, strengths, extra):
        def combined(ss):
            spec = InfluenceSpec(
                pairs={(f"X{i}", "T"): InfluencePair(sigma_t=s) for i, s in enumerate(ss)}
            )
            return combined_sigmas(spec, "T", [f"X{i}" for i in range(len(ss))])[1]

        assert combined(strengths + [extra]) >= combined(strengths)

    @given(
        st.lists(st.tuples(sigmas, st.one_of(st.just(F(0)), sigmas), sigmas), max_size=4),
        weights,
        weights,
        st.fractions(min_value=0, max_value=1, max_denominator=100),
        st.fractions(min_value=F(1, 100), max_value=100, max_denominator=100),
        st.fractions(min_value=F(1, 100), max_value=100, max_denominator=100),
    )
    # beta * sigma_ed > 1 drives Ed' below zero.
    @example([(F(1, 5), F(0), F(3, 4))], F(1), F(2), F(9, 10), F(3, 2), F(20))
    @example([(F(0), F(1, 4), F(99, 100)), (F(1, 2), F(0), F(0))], F(1, 2), F(2), F(1), F(1), F(7))
    def test_adjusted_metrics_follow_the_formulas(self, influences, alpha, beta, prob, time, ed):
        ts = TaskSet("TS1", (("O1", Op.USE),), time=time, prob=prob)
        em = Emergency("E1", "P1", 2, ed, True, (ts,))
        others = [f"X{i}" for i in range(len(influences))]
        spec = InfluenceSpec(
            pairs={(x, "E1"): InfluencePair(*sigma) for x, sigma in zip(others, influences)}
        )
        remaining = frozenset(others) | {"E1"}
        keep = complement_product({}, spec.complements(remaining), "E1", remaining)
        got = adjust_metrics(em, ts, keep, PlannerConfig(alpha=alpha, beta=beta))
        keep_p = keep_t = keep_ed = F(1)
        for sigma_p, sigma_t, sigma_ed in influences:
            keep_p *= 1 - sigma_p
            keep_t *= 1 - sigma_t
            keep_ed *= 1 - sigma_ed
        assert got.p == keep_p * prob
        assert got.t == (1 + alpha * (1 - keep_t)) * time
        assert got.ed == (1 - beta * (1 - keep_ed)) * ed
        assert all(type(value) is Fraction for value in (got.p, got.t, got.ed))

    @given(sigmas, sigmas, sigmas)
    def test_adjustment_directions(self, sp, st_, sed):
        ts = TaskSet("TS1", (("O1", Op.USE),), time=F(3), prob=F(4, 5))
        em = Emergency("E1", "P1", 2, F(10), True, (ts,))
        spec = InfluenceSpec(
            pairs={("X", "E1"): InfluencePair(sigma_p=sp, sigma_t=st_, sigma_ed=sed)}
        )
        keep = complement_product({}, spec.complements(["X", "E1"]), "E1", frozenset({"X", "E1"}))
        adjusted = adjust_metrics(em, ts, keep, PlannerConfig())
        assert 0 < adjusted.p <= ts.prob
        assert adjusted.t >= ts.time
        assert adjusted.ed <= em.ed


class TestPlannerInvariants:
    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_enumerated_orders_are_admissible_distinct_and_counted(self, seed):
        group, tdt, _ = random_group(random.Random(seed))
        count = count_admissible_orders(group, tdt)
        graph = build_transition_graph(group, tdt, InfluenceSpec(), PlannerConfig(k_cap=count))
        orders = sorted(iter_paths(graph))
        assert orders == oracle_orders(group, tdt)
        assert len(orders) == count

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_best_path_value_matches_brute_force(self, seed):
        group, tdt, infl = random_group(random.Random(seed))
        cfg = PlannerConfig(k_cap=200)
        graph = build_transition_graph(group, tdt, infl, cfg)
        want_pv, _ = oracle_best(group, tdt, infl.pairs)
        assert compute_p_value(graph) == want_pv
        assert 0 <= want_pv <= 1

    @given(st.integers(0, 10**9), sigmas)
    @settings(max_examples=40, deadline=None)
    def test_success_pressure_on_one_pair_never_raises_the_value(self, seed, strength):
        rng = random.Random(seed)
        group, tdt, _ = random_group(rng)
        if len(group) < 2:
            return
        plain = InfluenceSpec()
        eids = [em.eid for em in group]
        pair = (eids[0], eids[1])
        # sigma_p only: timing and deadlines are untouched, so the same
        # orders stay valid and every product can only shrink.
        pressed = InfluenceSpec(pairs={pair: InfluencePair(sigma_p=strength)})
        cfg = PlannerConfig(k_cap=200)
        pv_plain = compute_p_value(build_transition_graph(group, tdt, plain, cfg))
        pv_pressed = compute_p_value(build_transition_graph(group, tdt, pressed, cfg))
        assert pv_pressed <= pv_plain


payload_text = st.text(
    alphabet=string.ascii_letters + string.digits + "_.:;->",
    min_size=1,
    max_size=12,
)


class TestAuditRoundTrip:
    @given(st.lists(st.tuples(payload_text, payload_text), min_size=1, max_size=8),
           st.lists(fractions, min_size=8, max_size=8))
    def test_arbitrary_payload_strings_survive_the_text_form(self, pairs, times):
        log = AuditLog()
        ts = Fraction(0)
        for (entity, _), dt in zip(pairs, sorted(times)[: len(pairs)]):
            ts += dt
            log.append("entity_failed", ts, entity=entity)
        assert parse_trace(log.to_text()) == log.records


class TestScenarioRoundTrip:
    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_print_parse_fixpoint(self, seed):
        sc, diags = parse_scenario(generate_scenario_text(seed))
        assert not diags
        printed = print_scenario(sc)
        reparsed, diags = parse_scenario(printed)
        assert not diags
        assert print_scenario(reparsed) == printed


class TestSimulationInvariants:
    @given(st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_equal_seeds_give_identical_traces(self, seed):
        sc, diags = parse_scenario(generate_scenario_text(seed))
        assert not diags
        assert run_simulation(sc).trace_text == run_simulation(sc).trace_text

    @given(st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_every_run_passes_every_checker(self, seed):
        sc, diags = parse_scenario(generate_scenario_text(seed))
        assert not diags
        trace = run_simulation(sc)
        violations = check_trace(
            trace.records,
            scenario=sc,
            initial_store=trace.initial_store,
            final_store=trace.final_store,
        )
        assert violations == [], (seed, [str(v) for v in violations])
