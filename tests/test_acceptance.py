"""Acceptance gate. One criterion per test, one printed verdict line each.

Verdicts are collected and echoed in the terminal summary, so they are
visible pass or fail without disabling output capture.
"""

import functools
import io
import random
import time
from fractions import Fraction

from feac.audit import parse_trace
from feac.cli import main
from feac.checks import check_trace
from feac.exact import format_number
from feac.model import Emergency, Op, TaskSet
from feac.planner import (
    InfluenceSpec,
    PlannerConfig,
    build_transition_graph,
    compute_p_value,
    select_optimal_path,
)
from feac.scenario import parse_scenario, print_scenario
from feac.sim import run_simulation

from conftest import acceptance_verdicts
from mutations import MUTANTS, apply
from planner_oracle import iter_paths, oracle_best, path_count
from scenario_gen import generate_scenario_text, random_group

F = Fraction


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                acceptance_verdicts.append(f"criterion {number} FAIL: {label}")
                raise
            acceptance_verdicts.append(f"criterion {number} PASS: {label}")

        return wrapper

    return decorate


@criterion(1, "case-study group plans to Pv=0.684 with tied 3.2/3.4 segments")
def test_criterion_1(hospital):
    started = time.perf_counter()
    group = [em for em in hospital.emergencies.values() if em.entity == "P1"]
    eids = {em.eid for em in group}
    tdt = {(a, b) for a, b in hospital.store.tdt if a in eids and b in eids}
    graph = build_transition_graph(
        group, tdt, hospital.infl, hospital.config.planner, gate_release=F(3)
    )
    assert graph.order_count == 2
    assert path_count(graph) == 2
    assert not graph.sampled

    pv = compute_p_value(graph)
    assert pv == F(171, 250)
    assert format_number(pv) == "0.684"

    orders = list(iter_paths(graph))
    assert sorted(orders) == [("E3", "E4", "E5"), ("E3", "E5", "E4")]

    def walk(order):
        product, tail_segment, node = F(1), F(0), graph.root
        for eid in order:
            edge = node.edges[eid]
            assert edge.valid
            product *= edge.price.metrics.p
            if eid in ("E4", "E5"):
                tail_segment += edge.price.metrics.t
            node = edge.child
        return product, tail_segment

    walked = {order: walk(order) for order in orders}
    assert {product for product, _ in walked.values()} == {pv}  # tied
    assert {segment for _, segment in walked.values()} == {F(16, 5), F(17, 5)}  # 3.2, 3.4

    best = select_optimal_path(graph)
    assert best.eids == ("E3", "E4", "E5")
    assert walked[best.eids][1] == F(16, 5)
    assert best.steps[-1].end_elapsed == F(36, 5)

    assert time.perf_counter() - started < 1.0


@criterion(2, "200 randomized groups match the brute-force planner oracle exactly")
def test_criterion_2():
    started = time.perf_counter()
    cfg = PlannerConfig(k_cap=120)
    for case in range(200):
        rng = random.Random(314_000 + case)
        group, tdt, infl = random_group(rng, max_size=5)
        graph = build_transition_graph(group, tdt, infl, cfg)
        want_pv, want_order = oracle_best(group, tdt, infl.pairs)
        assert compute_p_value(graph) == want_pv, case
        best = select_optimal_path(graph)
        if want_pv == 0:
            assert best is None, case
        else:
            assert best.eids == want_order, case
    assert time.perf_counter() - started < 30.0


@criterion(3, "hospital plus 60 randomized runs pass every trace checker")
def test_criterion_3(hospital, hospital_run):
    def violations_of(sc, trace):
        records = parse_trace(trace.trace_text)
        return check_trace(records, scenario=sc, final_store=trace.final_store)

    assert violations_of(hospital, hospital_run) == []
    for seed in range(60):
        sc, diags = parse_scenario(generate_scenario_text(seed))
        assert not diags, (seed, diags)
        found = violations_of(sc, run_simulation(sc))
        assert found == [], (seed, [str(v) for v in found])


@criterion(4, "no protected group acts before its environment gates clear")
def test_criterion_4(hospital, hospital_run):
    finished_at = {
        r.payload["eid"]: r.ts
        for r in parse_trace(hospital_run.trace_text)
        if r.kind == "action_finished" and r.payload["outcome"] == "success"
    }
    gated = {"P1": ("E1",), "P2": ("E1", "E2")}
    for rec in parse_trace(hospital_run.trace_text):
        if rec.kind != "action_started":
            continue
        entity = hospital.emergencies[rec.payload["eid"]].entity
        for gate_eid in gated.get(entity, ()):
            assert rec.ts >= finished_at[gate_eid], (rec.seq, gate_eid)


FT_BODY = """\
role R1
subject A1 { roles = [R1] }
subject A2 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 4
  ft true
  ts TS1 { actions = [O1 use], time = 6, prob = 0.9 }
}
map E1 -> [R1]
at 0 raise E1
"""

FT_HEAD = """\
scenario ftcase
config tp = 0.5
config seed = 1
config horizon = 20
"""


@criterion(5, "dead-end plan triggers substitution then fallback; no peer means disaster")
def test_criterion_5(tmp_path):
    sc, diags = parse_scenario(FT_HEAD + "entity P1\nentity P2\nfgroup P1 = g\nfgroup P2 = g\n" + FT_BODY)
    assert not diags
    trace = run_simulation(sc)
    records = parse_trace(trace.trace_text)
    kinds = [r.kind for r in records]
    sub_index = kinds.index("ft_substitution")
    plan_index = kinds.index("plan_selected")
    assert sub_index < plan_index
    substitution = records[sub_index]
    plan = records[plan_index]
    assert substitution.payload["from"] == "P1"
    assert substitution.payload["to"] == "P2"
    assert plan.ts == substitution.ts
    assert plan.payload["strategy"] == "probability_first"
    assert plan.payload["pv"] == "0"
    assert trace.final_mode != "disaster"

    lone = tmp_path / "lone.feac"
    lone.write_text(FT_HEAD + "entity P1\n" + FT_BODY, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = main(["simulate", str(lone), "--trace", str(tmp_path / "lone.trace")], out, err)
    assert code == 3
    assert "final=disaster" in out.getvalue()


@criterion(6, "equal seeds produce byte-identical trace files")
def test_criterion_6(hospital_path, tmp_path):
    files = [tmp_path / "a.trace", tmp_path / "b.trace"]
    for path in files:
        out, err = io.StringIO(), io.StringIO()
        code = main(
            ["simulate", hospital_path, "--seed", "7", "--trace", str(path)], out, err
        )
        assert code == 0
    first, second = (path.read_bytes() for path in files)
    assert first == second
    assert first  # non-empty


@criterion(7, "8 equal-priority emergencies: 64 sampled paths fast, all 40320 when asked")
def test_criterion_7():
    group = [
        Emergency(
            f"E{i}",
            "P1",
            5,
            F(10_000),
            True,
            (TaskSet("TS1", (("O1", Op.USE),), time=F(1), prob=F(1, 2)),),
        )
        for i in range(1, 9)
    ]

    started = time.perf_counter()
    capped = build_transition_graph(group, set(), InfluenceSpec(), PlannerConfig(k_cap=64))
    assert capped.sampled
    assert capped.order_count == 40320
    assert path_count(capped) == 64
    assert compute_p_value(capped) == F(1, 256)
    assert time.perf_counter() - started < 1.0

    started = time.perf_counter()
    full = build_transition_graph(group, set(), InfluenceSpec(), PlannerConfig(k_cap=40320))
    assert not full.sampled
    assert path_count(full) == 40320
    assert len(full.nodes) == 256
    assert time.perf_counter() - started < 60.0


@criterion(8, "hospital round-trips and all 20 mutants give one positioned diagnostic")
def test_criterion_8(hospital):
    printed = print_scenario(hospital)
    reparsed, diags = parse_scenario(printed)
    assert not diags
    assert print_scenario(reparsed) == printed

    from feac.fixtures import hospital_text

    base = hospital_text()
    assert len(MUTANTS) == 20
    for mutant in MUTANTS:
        _, found = parse_scenario(apply(mutant, base), "hospital.feac")
        assert len(found) == 1, mutant.name
        assert (found[0].line, found[0].col) == (mutant.line, mutant.col), mutant.name
        assert found[0].message == mutant.message, mutant.name
