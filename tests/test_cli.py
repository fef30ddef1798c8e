"""Command-line behavior: exit codes, output routing, file handling."""

import io
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import feac
from feac.cli import main
from feac.engine import EngineConfig
from feac.fixtures import hospital_text
from feac.planner import PlannerConfig
from feac.scenario import parse_scenario

from mutations import MUTANTS, apply
from test_sim import GOLDEN


DISASTER_SCENARIO = """\
scenario lone
config tp = 0.5
config seed = 1
config horizon = 20
entity P1
role R1
subject A1 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft false
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
map E1 -> [R1]
at 0 raise E1
at 1 fail P1
"""


# Both orders overshoot the deadlines, so pv is 0 and the configured
# fallback decides: E1 first is the likelier order, E2 first the quicker.
RUSH_SCENARIO = """\
scenario rush
config tp = 0.5
config seed = 1
config horizon = 20
config fallback = time_first
entity P1
role R1
subject A1 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 {
  entity P1
  prio 2
  ed 3
  ft false
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
emergency E2 {
  entity P1
  prio 2
  ed 3
  ft false
  ts TS1 { actions = [O1 use], time = 1, prob = 0.5 }
  ts TS2 { actions = [O1 use], time = 4, prob = 0.8 }
}
influence E1 -> E2 { sigma_p = 0.5 }
influence E2 -> E1 { sigma_t = 0.5 }
map E1 -> [R1]
map E2 -> [R1]
at 0 raise E1
at 0 raise E2
"""


SUBSTITUTION_SCENARIO = """\
scenario swap
config tp = 0.5
config seed = 1
config horizon = 20
entity P1
entity P2
role R1
subject A1 { roles = [R1] }
subject A2 { roles = [R1] }
object O1 { acl R1 use }
object P1 { acl R1 read }
emergency E1 {
  entity P1
  prio 2
  ed 10
  ft true
  ts TS1 { actions = [O1 use], time = 2, prob = 0.9 }
}
map E1 -> [R1]
fgroup P1 = g
fgroup P2 = g
at 0 raise E1
at 0 force E1 TS1 success
at 1 fail P1
"""

# One field of the first record of a kind, rewritten to a value its consumer
# cannot convert: (scenario fixture, record kind, field, value).
UNCONVERTIBLE_FIELDS = [
    ("hospital_path", "plan_selected", "pv", "S1"),
    ("hospital_path", "run_started", "tp", "x"),
    ("hospital_path", "run_started", "seed", "x"),
    ("hospital_path", "run_started", "seed", "0_7"),
    ("hospital_path", "run_started", "seed", "+7"),
    ("hospital_path", "run_started", "horizon", "x"),
    ("hospital_path", "permission_granted", "td", "-"),
    ("substitution_path", "ft_substitution", "acl", "a:b"),
    ("substitution_path", "ft_substitution", "acl", "R:bogus:1"),
    ("substitution_path", "ft_substitution", "acl", "R:read:x"),
]


ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"
README_PLAN = "$ feac plan src/feac/fixtures/hospital.feac --group P1 --at 3"

# Numeric options no command may accept: (command, option=value).
BAD_NUMBERS = [
    ("simulate", "--until=abc"),
    ("simulate", "--until=1/0"),
    ("simulate", "--until=0"),
    ("simulate", "--until=-1"),
    ("plan", "--at=1/0"),
    ("plan", "--at=-1"),
    # Text `Fraction` would take but that is no number here.
    ("simulate", "--until=1e3"),
    ("simulate", "--until=1_0"),
    ("plan", "--at=+2"),
    ("plan", "--at= 3"),
    # Text `int` would take but that is no integer here.
    ("simulate", "--seed=1_0"),
    ("simulate", "--seed=+2"),
    ("simulate", "--seed= 3"),
]


# Each part fits the interpreter's integer-string digit limit (4300 by
# default); the exact value, 6001 digits, does not.
HUGE = "1" * 3000 + "." + "1" * 3000
HUGE_TP_SCENARIO = DISASTER_SCENARIO.replace("config tp = 0.5", f"config tp = 0{HUGE}")

CONFIG_KEYS_SCENARIO = """\
scenario keys
config horizon = 12.5
config seed = -3
config fallback = time_first
config k = 7
config beta = 0.75
config alpha = 1.5
config tp = 0.25
entity P1
"""

# Every command given a file that is not UTF-8 text ({bad}); the audit's
# trace is the golden one ({trace}) when the scenario is the bad file.
UNDECODABLE = [
    ("validate", "{bad}"),
    ("plan", "{bad}", "--group", "P1"),
    ("simulate", "{bad}"),
    ("audit", "{bad}"),
    ("audit", "{trace}", "--scenario", "{bad}"),
]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


FEAC_MAIN = "import sys; from feac.cli import main; sys.exit(main())"
# Runs feac, then writes its own peak RSS in MB as the last line of stderr.
# The peak is read from Linux's VmHWM: a child's `ru_maxrss` would include
# the RSS its parent had when it forked.
MAIN_WITH_PEAK = (
    "import sys\n"
    "from feac.cli import main\n"
    "code = main()\n"
    "with open('/proc/self/status') as status:\n"
    "    hwm = next(line for line in status if line.startswith('VmHWM:'))\n"
    "print(int(hwm.split()[1]) / 1024, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run_child(*argv, timeout, script=FEAC_MAIN):
    """`script` run with `argv` in a fresh interpreter that imports this
    checkout's feac; the child's output is bytes."""
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": str(Path(feac.__file__).parents[1])},
        capture_output=True,
        timeout=timeout,
    )


def readme_block(*markers: str) -> str:
    """The README's lines after the last of `markers`, each found after the
    one before it, up to the fence that closes their block."""
    lines = README.read_text(encoding="utf-8").splitlines()
    at = -1
    for marker in markers:
        at = lines.index(marker, at + 1)
    end = next(i for i in range(at + 1, len(lines)) if lines[i].startswith("```"))
    return "".join(f"{line}\n" for line in lines[at + 1 : end])


@pytest.fixture()
def broken_path(tmp_path):
    path = tmp_path / "broken.feac"
    path.write_text(apply(MUTANTS[0], hospital_text()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def disaster_path(tmp_path):
    path = tmp_path / "lone.feac"
    path.write_text(DISASTER_SCENARIO, encoding="utf-8")
    return str(path)


@pytest.fixture()
def huge_tp_path(tmp_path):
    path = tmp_path / "huge.feac"
    path.write_text(HUGE_TP_SCENARIO, encoding="utf-8")
    return str(path)


@pytest.fixture()
def substitution_path(tmp_path):
    path = tmp_path / "swap.feac"
    path.write_text(SUBSTITUTION_SCENARIO, encoding="utf-8")
    return str(path)


class TestUsage:
    def test_no_arguments(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_help_exits_zero(self):
        code, _, _ = run_cli("--help")
        assert code == 0

    def test_missing_file(self):
        code, _, err = run_cli("validate", "/no/such/file.feac")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv", UNDECODABLE, ids=["validate", "plan", "simulate", "audit", "audit-scenario"]
    )
    def test_undecodable_file_is_a_usage_error(self, tmp_path, argv):
        bad = tmp_path / "bad.feac"
        bad.write_bytes(b"\xff")
        code, out, err = run_cli(*(arg.format(bad=bad, trace=GOLDEN) for arg in argv))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: not UTF-8 text (byte 0: invalid start byte)\n"

    @pytest.mark.parametrize("command, option", BAD_NUMBERS)
    def test_bad_number_is_a_usage_error(self, hospital_path, command, option, capsys):
        extra = ("--group", "P1") if command == "plan" else ()
        code, out, err = run_cli(command, hospital_path, *extra, option)
        assert code == 2
        assert out == ""
        assert "error:" in err + capsys.readouterr().err


class TestValidate:
    def test_ok_summary(self, hospital_path):
        code, out, _ = run_cli("validate", hospital_path)
        assert code == 0
        assert out == "ok: scenario hospital, 7 emergencies, 7 subjects, 18 events\n"

    def test_print_emits_canonical_form(self, hospital_path):
        code, out, _ = run_cli("validate", hospital_path, "--print")
        assert code == 0
        assert out.startswith("scenario hospital\n")
        assert "emergency E4 {" in out

    def test_print_writes_a_value_past_the_digit_limit(self, huge_tp_path):
        code, out, err = run_cli("validate", huge_tp_path, "--print")
        assert (code, err) == (0, "")
        assert f"config tp = {HUGE}\n" in out
        reparsed, diags = parse_scenario(out)
        assert not diags
        assert reparsed == parse_scenario(HUGE_TP_SCENARIO)[0]

    def test_every_config_key_prints_and_heads_the_trace_in_one_order(self, tmp_path):
        # Every key off its default, given out of the canonical order.
        path = tmp_path / "keys.feac"
        path.write_text(CONFIG_KEYS_SCENARIO, encoding="utf-8")
        code, out, err = run_cli("validate", str(path), "--print")
        assert (code, err) == (0, "")
        assert out.startswith(
            "scenario keys\n\n"
            "config tp = 0.25\n"
            "config alpha = 1.5\n"
            "config beta = 0.75\n"
            "config k = 7\n"
            "config seed = -3\n"
            "config fallback = time_first\n"
            "config horizon = 12.5\n\n"
            "entity P1\n"
        )
        want = EngineConfig(
            tp=F(1, 4),
            planner=PlannerConfig(alpha=F(3, 2), beta=F(3, 4), k_cap=7, seed=-3),
            fallback_strategy="time_first",
            horizon=F(25, 2),
        )
        reparsed, diags = parse_scenario(out)
        assert not diags
        assert reparsed.config == parse_scenario(CONFIG_KEYS_SCENARIO)[0].config == want
        code, out, _ = run_cli("simulate", str(path))
        assert code == 0
        assert out.splitlines()[0] == (
            "1|0|run_started|scenario=keys,seed=-3,tp=0.25,horizon=12.5,"
            "alpha=1.5,beta=0.75,k=7,fallback=time_first"
        )

    def test_diagnostics_exit_one(self, broken_path):
        code, out, _ = run_cli("validate", broken_path)
        assert code == 1
        assert "unexpected character '$'" in out


class TestPlan:
    def test_patient_group(self, hospital_path):
        code, out, _ = run_cli("plan", hospital_path, "--group", "P1", "--at", "3")
        assert code == 0
        assert out == (
            "group=P1 orders=2 paths=2 sampled=no gate=3\n"
            "E3 TS1 p=0.8 t=1 ed=8 done=4\n"
            "E4 TS1 p=0.9 t=1.2 ed=30 done=5.2\n"
            "E5 TS1 p=0.95 t=2 ed=20 done=7.2\n"
            "pv=0.684 strategy=optimal\n"
        )

    def test_environment_group(self, hospital_path):
        code, out, _ = run_cli("plan", hospital_path, "--group", "env")
        assert code == 0
        assert "pv=0.68 strategy=optimal" in out
        assert "E1 TS1" in out.splitlines()[1]

    def test_locked_resource_starves_the_plan(self, hospital_path):
        code, out, _ = run_cli(
            "plan", hospital_path, "--group", "P2", "--at", "5", "--locked", "MRI"
        )
        assert code == 0
        # E6 -> E7 is a fixed dependency, so the group has a single order;
        # with the scanner locked no path survives.
        assert out == (
            "group=P2 orders=1 paths=0 sampled=no gate=5\n"
            "pv=0 strategy=probability_first\n"
        )

    @pytest.mark.parametrize(
        "fallback, steps",
        [
            ("time_first", ["E2 TS2 p=0.4 t=4 ed=3 done=4", "E1 TS1 p=0.9 t=2 ed=3 done=6"]),
            ("probability_first", ["E1 TS1 p=0.9 t=3 ed=3 done=3", "E2 TS2 p=0.8 t=4 ed=3 done=7"]),
        ],
    )
    def test_configured_fallback_picks_the_path(self, tmp_path, fallback, steps):
        path = tmp_path / "rush.feac"
        text = RUSH_SCENARIO.replace("fallback = time_first", f"fallback = {fallback}")
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli("plan", str(path), "--group", "P1")
        assert code == 0
        assert out.splitlines() == [
            "group=P1 orders=2 paths=2 sampled=no gate=0",
            *steps,
            f"pv=0 strategy={fallback}",
        ]

    def test_unknown_group(self, hospital_path):
        code, _, err = run_cli("plan", hospital_path, "--group", "P9")
        assert code == 1
        assert "no emergencies on entity 'P9'" in err

    def test_broken_scenario_is_a_usage_error(self, broken_path):
        code, _, _ = run_cli("plan", broken_path, "--group", "P1")
        assert code == 2


class TestSimulate:
    def test_trace_on_stdout_summary_on_stderr(self, hospital_path):
        code, out, err = run_cli("simulate", hospital_path)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 95
        assert lines[0].startswith("1|0|run_started|scenario=hospital")
        assert err == (
            "final=normal clock=9.5 records=95\n"
            "outcomes: E1=eliminated E2=eliminated E3=eliminated E4=eliminated "
            "E5=eliminated E6=eliminated E7=eliminated\n"
        )

    def test_trace_file_moves_summary_to_stdout(self, hospital_path, tmp_path):
        trace_file = tmp_path / "run.trace"
        code, out, err = run_cli("simulate", hospital_path, "--trace", str(trace_file))
        assert code == 0
        assert err == ""
        assert out.splitlines()[0] == f"final=normal clock=9.5 records=95 trace={trace_file}"
        assert trace_file.read_text(encoding="utf-8").splitlines()[-1].startswith("95|9|")

    @pytest.mark.parametrize("where", [".", "missing/run.trace"])
    def test_a_trace_path_that_cannot_be_opened_is_a_usage_error(
        self, hospital_path, tmp_path, where
    ):
        # A directory, or a file under a directory that does not exist:
        # neither depends on permissions, which root would bypass.
        code, out, err = run_cli("simulate", hospital_path, "--trace", str(tmp_path / where))
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")

    def test_seed_override_lands_in_the_header(self, hospital_path):
        _, out, _ = run_cli("simulate", hospital_path, "--seed", "11")
        assert "seed=11" in out.splitlines()[0]

    def test_until_truncates(self, hospital_path):
        code, out, err = run_cli("simulate", hospital_path, "--until", "4")
        assert code == 0
        assert len(out.splitlines()) == 66
        assert "final=emergency" in err

    def test_a_horizon_between_ticks_is_kept_as_given_and_audits(self, hospital_path, tmp_path):
        trace_file = tmp_path / "until.trace"
        code, _, _ = run_cli("simulate", hospital_path, "--until", "7/3", "--trace", str(trace_file))
        assert code == 0
        assert ",horizon=7/3," in trace_file.read_text(encoding="utf-8").splitlines()[0]
        code, out, err = run_cli("audit", str(trace_file), "--scenario", hospital_path)
        assert (code, out, err) == (0, "ok: 54 records, all checks passed\n", "")

    def test_value_past_the_digit_limit_simulates(self, huge_tp_path):
        # The first tick moves the clock past the horizon.
        code, out, err = run_cli("simulate", huge_tp_path)
        assert code == 0
        assert f",tp={HUGE}," in out.splitlines()[0]
        assert err.startswith(f"final=emergency clock={HUGE} records=")

    def test_disaster_exits_three(self, disaster_path):
        code, out, err = run_cli("simulate", disaster_path)
        assert code == 3
        assert "final=disaster" in err
        assert "outcomes: E1=unprocessed" in err
        assert out.splitlines()[-1].endswith("|state_transition|from=emergency,to=disaster")


class TestAudit:
    def write_trace(self, tmp_path, hospital_path):
        trace_file = tmp_path / "run.trace"
        run_cli("simulate", hospital_path, "--trace", str(trace_file))
        return trace_file

    def test_scenario_needs_a_run_started_record(self, hospital_path, tmp_path):
        trace_file = tmp_path / "headless.trace"
        trace_file.write_text("1|0|entity_failed|entity=P1\n", encoding="utf-8")
        code, out, err = run_cli("audit", str(trace_file), "--scenario", hospital_path)
        assert code == 2
        assert out == ""
        assert err == "error: trace has no run_started record\n"

    def test_tampered_trace_fails(self, hospital_path, tmp_path):
        trace_file = self.write_trace(tmp_path, hospital_path)
        text = trace_file.read_text(encoding="utf-8")
        trace_file.write_text(text.replace("td=8,", "td=80,", 1), encoding="utf-8")
        code, out, _ = run_cli("audit", str(trace_file), "--scenario", hospital_path)
        assert code == 1
        assert "grant_security" in out or "rescission_liveness" in out
        assert "determinism at #0: trace differs from deterministic re-run" in out

    def test_edited_but_balanced_trace_fails_determinism_only(self, hospital_path, tmp_path):
        trace_file = self.write_trace(tmp_path, hospital_path)
        text = trace_file.read_text(encoding="utf-8")
        # No checker reads the priority field, so this edit keeps the books
        # balanced; only the re-run comparison can catch it.
        trace_file.write_text(text.replace("prio=3", "prio=4", 1), encoding="utf-8")
        code, out, _ = run_cli("audit", str(trace_file), "--scenario", hospital_path)
        assert code == 1
        assert out == (
            "determinism at #0: trace differs from deterministic re-run at line 2: "
            "trace has '2|0|emergency_raised|eid=E1,entity=env,prio=4,ed=20', "
            "re-run has '2|0|emergency_raised|eid=E1,entity=env,prio=3,ed=20'\n"
        )

    def test_truncated_and_extended_traces_name_the_shorter_side(self, hospital_path, tmp_path):
        golden = GOLDEN.read_text(encoding="utf-8").splitlines()
        extra = "96|9.5|entity_failed|entity=P1"
        trace_file = tmp_path / "run.trace"
        cases = [
            (golden[:94], f"line 95: the trace is shorter (94 lines), re-run has {golden[94]!r}"),
            (golden + [extra], f"line 96: the re-run is shorter (95 lines), trace has {extra!r}"),
        ]
        for lines, where in cases:
            trace_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
            code, out, _ = run_cli("audit", str(trace_file), "--scenario", hospital_path)
            assert code == 1
            assert f"determinism at #0: trace differs from deterministic re-run at {where}" in (
                out.splitlines()
            )

    def test_the_re_run_compares_lines_not_texts(self, hospital_path, tmp_path):
        # A CRLF copy of the golden trace, and one without its last newline:
        # each holds the golden lines, so each audits clean.
        golden = GOLDEN.read_text(encoding="utf-8")
        trace_file = tmp_path / "run.trace"
        for data in (golden.replace("\n", "\r\n").encode(), golden[:-1].encode()):
            trace_file.write_bytes(data)
            code, out, _ = run_cli("audit", str(trace_file), "--scenario", hospital_path)
            assert (code, out) == (0, "ok: 95 records, all checks passed\n")

    def audit_tampered(self, tmp_path, scenario_path, kind, field, value):
        """Audit exit codes, without and with --scenario, after rewriting one
        field of the first `kind` record in the scenario's simulated trace."""
        trace_file = self.write_trace(tmp_path, scenario_path)
        lines = trace_file.read_text(encoding="utf-8").splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines) if f"|{kind}|" in line)
        head, payload = lines[index].rsplit("|", 1)
        chunks = [
            f"{field}={value}" if chunk.startswith(f"{field}=") else chunk
            for chunk in payload.rstrip("\n").split(",")
        ]
        lines[index] = f"{head}|{','.join(chunks)}\n"
        trace_file.write_text("".join(lines), encoding="utf-8")
        codes = []
        for extra in ((), ("--scenario", scenario_path)):
            code, out, err = run_cli("audit", str(trace_file), *extra)
            assert "Traceback" not in out + err
            codes.append((code, out, err))
        return codes

    def test_dropped_role_restore_fails_the_standalone_audit(self, tmp_path):
        golden = GOLDEN.read_text(encoding="utf-8").splitlines()
        restores = [i for i, line in enumerate(golden) if "|role_restored|" in line]
        assert len(restores) == 7
        trace_file = tmp_path / "dropped.trace"
        for index in restores:
            kept = golden[:index] + golden[index + 1 :]
            renumbered = [
                f"{seq}|{line.split('|', 1)[1]}\n" for seq, line in enumerate(kept, start=1)
            ]
            trace_file.write_text("".join(renumbered), encoding="utf-8")
            code, out, _ = run_cli("audit", str(trace_file))
            sid = golden[index].split("|")[3].split(",")[0].removeprefix("sid=")
            assert code == 1, golden[index]
            assert f"subject_exclusivity at #92: {sid} still holds" in out

    def test_unknown_op_is_a_usage_error(self, hospital_path, tmp_path):
        for code, _, err in self.audit_tampered(
            tmp_path, hospital_path, "permission_granted", "op", "bogus"
        ):
            assert code == 2
            assert "bad op 'bogus'" in err

    def test_non_decimal_td_is_a_usage_error(self, hospital_path, tmp_path):
        for code, _, err in self.audit_tampered(
            tmp_path, hospital_path, "permission_granted", "td", "S1"
        ):
            assert code == 2
            assert "bad td 'S1'" in err

    def test_grant_on_unknown_object_fails_checks(self, hospital_path, tmp_path):
        codes = self.audit_tampered(
            tmp_path, hospital_path, "permission_granted", "oid", "NoSuchObj"
        )
        for code, out, _ in codes:
            assert code == 1
            assert "grant_security" in out
        assert "determinism" in codes[1][1]

    def test_substitution_trace_passes(self, substitution_path, tmp_path):
        trace_file = self.write_trace(tmp_path, substitution_path)
        assert "|ft_substitution|from=P1,to=P2,acl=R1:read:-," in trace_file.read_text()
        for extra in ((), ("--scenario", substitution_path)):
            code, out, _ = run_cli("audit", str(trace_file), *extra)
            assert code == 0, out

    @pytest.mark.parametrize("scenario, kind, field, value", UNCONVERTIBLE_FIELDS)
    def test_unconvertible_field_is_a_usage_error(
        self, request, tmp_path, scenario, kind, field, value
    ):
        scenario_path = request.getfixturevalue(scenario)
        codes = self.audit_tampered(tmp_path, scenario_path, kind, field, value)
        lines = (tmp_path / "run.trace").read_text(encoding="utf-8").splitlines()
        line_no = next(n for n, line in enumerate(lines, start=1) if f"|{kind}|" in line)
        for code, _, err in codes:
            assert code == 2
            assert f"line {line_no}: bad {field} '{value}'" in err

    def test_exponent_td_is_refused_at_once(self, disaster_path, tmp_path):
        """To `Fraction`, `9e99999999` is an integer of 100 million digits;
        the audit refuses the text instead, well inside the timeout."""
        trace_file = self.write_trace(tmp_path, disaster_path)
        text = trace_file.read_text(encoding="utf-8")
        assert text.count(",td=10,") == 2
        trace_file.write_text(text.replace(",td=10,", ",td=9e99999999,"), encoding="utf-8")
        done = run_child("audit", str(trace_file), timeout=10)
        assert done.returncode == 2
        assert done.stderr == b"error: malformed trace: line 6: bad td '9e99999999'\n"

    def test_malformed_trace_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("1|0|not_a_kind|x=1\n", encoding="utf-8")
        code, _, err = run_cli("audit", str(bad))
        assert code == 2
        assert "malformed trace" in err

    def test_missing_trace_file(self):
        code, _, err = run_cli("audit", "/no/such/file.trace")
        assert code == 2
        assert "error:" in err


class TestDeepConstraints:
    """Constraint nesting is bounded, so no scenario can exhaust the stack."""

    @pytest.mark.parametrize(
        "body, col",
        [("(" * 3000 + "true" + ")" * 3000, 119), ("not " * 3000 + "true", 419)],
        ids=["parentheses", "not"],
    )
    def test_deep_nesting_is_a_diagnostic(self, hospital_path, tmp_path, body, col):
        path = tmp_path / "deep.feac"
        path.write_text(hospital_text() + f"constraint deep = {body}\n", encoding="utf-8")
        line = hospital_text().count("\n") + 1
        diagnostic = f"{path}:{line}:{col}: constraint nested deeper than 100 levels\n"
        assert run_cli("validate", str(path)) == (1, diagnostic, "")
        trace = tmp_path / "run.trace"
        run_cli("simulate", hospital_path, "--trace", str(trace))
        for argv in (
            ("simulate", str(path)),
            ("plan", str(path), "--group", "P1"),
            ("audit", str(trace), "--scenario", str(path)),
        ):
            assert run_cli(*argv) == (2, diagnostic, "")

    def test_long_reference_chain_is_false_not_a_crash(self, tmp_path):
        chain = "".join(f"constraint c{i} = @c{i + 1}\n" for i in range(2000))
        text = hospital_text().replace("map E3 -> [Doctor]\n", "map E3 -> [Doctor] where @c0\n")
        path = tmp_path / "chain.feac"
        path.write_text(text + chain + "constraint c2000 = true\n", encoding="utf-8")
        trace = tmp_path / "chain.trace"
        assert run_cli("validate", str(path))[0] == 0
        code, out, err = run_cli("simulate", str(path), "--trace", str(trace))
        assert code in (0, 3), out + err
        # `true` is too deep to reach, so no Doctor qualifies and E3 expires.
        assert "E3=expired" in out
        code, out, err = run_cli("audit", str(trace), "--scenario", str(path))
        assert code == 0, out + err


class TestReadme:
    """The README's examples, run from the repository root as documented."""

    def test_the_plan_block_is_what_feac_plan_prints(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert run_cli(*README_PLAN.split()[2:]) == (0, readme_block(README_PLAN), "")

    def test_the_library_block_runs(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        block = readme_block("## Library", "```python")
        assert block
        exec(compile(block, str(README), "exec"), {})
