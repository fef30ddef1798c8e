"""Simulation driver: the hospital run's shape, plans and timeline, plus
determinism, seed override, and horizon handling."""

import pathlib
from fractions import Fraction

import pytest

from feac.audit import parse_trace
from feac.engine import MODE_DISASTER, MODE_NORMAL, SystemState, engine_tick
from feac.exact import parse_number
from feac.model import serialize_store
from feac.scenario import load_scenario, parse_scenario
from feac.sim import run_simulation

from scenario_gen import clean_scenario_texts

F = Fraction

GOLDEN = pathlib.Path(__file__).parent / "data" / "hospital_trace.txt"
FINE_CLOCK = GOLDEN.parent / "fine_clock.feac"


class TestHospitalGolden:
    def test_shape(self, hospital_run):
        assert len(parse_trace(hospital_run.trace_text)) == 95
        assert hospital_run.final_mode == "normal"
        assert hospital_run.final_clock == F(19, 2)
        assert hospital_run.outcomes == {f"E{i}": "eliminated" for i in range(1, 8)}

    def test_plans(self, hospital_run):
        plans = [r for r in parse_trace(hospital_run.trace_text) if r.kind == "plan_selected"]
        assert [(p.payload["entity"], p.payload["pv"], p.payload["path"], p.payload["gate"]) for p in plans] == [
            ("env", "0.68", "E1:TS1>E2:TS1", "0"),
            ("P1", "0.684", "E3:TS1>E4:TS1>E5:TS1", "3"),
            ("P2", "0.765", "E6:TS1>E7:TS1", "5"),
        ]

    def test_timeline(self, hospital_run):
        started = [r for r in parse_trace(hospital_run.trace_text) if r.kind == "action_started"]
        assert [(r.payload["eid"], r.payload["start"], r.payload["end"]) for r in started] == [
            ("E1", "0", "3"),
            ("E3", "3", "4"),
            ("E2", "3", "5"),
            ("E4", "4", "5.2"),
            ("E6", "5", "7"),
            ("E5", "5.2", "7.2"),
            ("E7", "7", "8"),
        ]

    def test_store_is_restored_after_a_clean_run(self, hospital, hospital_run):
        assert serialize_store(hospital_run.final_store) == serialize_store(hospital.store)


def test_a_run_leaves_its_scenario_store_unchanged():
    # Replay fidelity starts from the scenario's store, so a run must work on
    # its own copy.
    for name, text in clean_scenario_texts():
        sc, diags = parse_scenario(text)
        assert not diags, name
        before = serialize_store(sc.store)
        run_simulation(sc)
        assert serialize_store(sc.store) == before, name


class TestDeterminism:
    def test_same_scenario_same_trace(self, hospital, hospital_run):
        again = run_simulation(hospital)
        assert again.trace_text == hospital_run.trace_text

    def test_explicit_seed_equal_to_configured_changes_nothing(self, hospital, hospital_run):
        assert run_simulation(hospital, seed=7).trace_text == hospital_run.trace_text

    def test_forced_outcomes_make_the_seed_inert(self, hospital, hospital_run):
        # Every outcome is forced and no path sampling happens, so a
        # different seed may only show up in the run header.
        other = run_simulation(hospital, seed=11)
        ours = hospital_run.trace_text.splitlines()
        theirs = other.trace_text.splitlines()
        assert len(ours) == len(theirs)
        differing = [(a, b) for a, b in zip(ours, theirs) if a != b]
        assert len(differing) == 1
        assert differing[0][0].endswith("seed=7,tp=0.5,horizon=60,alpha=1,beta=1,k=64,fallback=probability_first")
        assert "seed=11" in differing[0][1]


class TestHorizon:
    def test_truncation_leaves_the_run_mid_emergency(self, hospital):
        cut = run_simulation(hospital, horizon=F(4))
        assert cut.final_mode == "emergency"
        assert cut.final_clock == F(9, 2)
        records = parse_trace(cut.trace_text)
        assert len(records) == 66
        assert records[-1].kind == "action_started"
        assert cut.outcomes["E1"] == "eliminated"
        assert cut.outcomes["E4"] == "unprocessed"

    def test_truncated_trace_is_a_prefix_of_the_full_run(self, hospital, hospital_run):
        cut = run_simulation(hospital, horizon=F(4))
        full_lines = hospital_run.trace_text.splitlines()
        cut_lines = cut.trace_text.splitlines()
        # The header differs (horizon is recorded); everything after must
        # be a prefix of the full run.
        assert cut_lines[0].replace("horizon=4", "horizon=60") == full_lines[0]
        assert cut_lines[1:] == full_lines[1 : len(cut_lines)]

    @pytest.mark.parametrize("horizon", ["7/3", "22/9"])
    def test_a_horizon_between_ticks_runs_the_last_cycle_before_it(
        self, hospital, hospital_run, horizon
    ):
        # Neither is whole in a decimal unit, so each is only compared: the
        # last cycle runs at 2, and nothing of the cycle at 2.5 is written.
        # 22/9 is 24.4 ticks of 0.1, so rounding it up would run that cycle.
        cut = run_simulation(hospital, horizon=parse_number(horizon))
        full_lines = hospital_run.trace_text.splitlines()
        cut_lines = cut.trace_text.splitlines()
        assert cut_lines[0] == full_lines[0].replace("horizon=60", f"horizon={horizon}")
        assert cut_lines[1:] == full_lines[1:54]
        assert full_lines[54].startswith("55|3|")
        assert (cut.final_mode, cut.final_clock) == ("emergency", F(5, 2))


def test_a_world_built_from_the_config_alone_ticks_as_run_simulation_runs():
    """`SystemState` seeds its outcome draws from `cfg.planner.seed` (93
    here, and no outcome is forced), and `engine_tick` reads tp from the
    same config: the records after the header equal the simulation's."""
    sc, diags = load_scenario(str(FINE_CLOCK))
    assert not diags
    world = SystemState(sc.store.clone(), sc.emergencies, sc.events, sc.infl, cfg=sc.config)
    while world.mode != MODE_DISASTER:
        engine_tick(world)
        if world.mode == MODE_NORMAL and world.event_cursor == len(world.events):
            break
    expected = run_simulation(sc).trace_text.splitlines()[1:]
    assert [line.split("|", 1)[1] for line in world.audit.lines] == [
        line.split("|", 1)[1] for line in expected
    ]
