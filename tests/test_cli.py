"""Command-line behavior: exit codes, output routing, file handling."""

import io

import pytest

from feac.cli import main
from feac.fixtures import hospital_text

from mutations import MUTANTS, apply

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


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


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

    def test_seed_override_lands_in_the_header(self, hospital_path):
        _, out, _ = run_cli("simulate", hospital_path, "--seed", "11")
        assert "seed=11" in out.splitlines()[0]

    def test_until_truncates(self, hospital_path):
        code, out, err = run_cli("simulate", hospital_path, "--until", "4")
        assert code == 0
        assert len(out.splitlines()) == 66
        assert "final=emergency" in err

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

    def test_clean_trace_passes(self, hospital_path, tmp_path):
        trace_file = self.write_trace(tmp_path, hospital_path)
        code, out, _ = run_cli("audit", str(trace_file))
        assert code == 0
        assert out == "ok: 95 records, all checks passed\n"

    def test_scenario_enables_the_deeper_checks(self, hospital_path, tmp_path):
        trace_file = self.write_trace(tmp_path, hospital_path)
        code, out, _ = run_cli("audit", str(trace_file), "--scenario", hospital_path)
        assert code == 0
        assert out == "ok: 95 records, all checks passed\n"

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
        assert out == "determinism at #0: trace differs from deterministic re-run\n"

    def audit_tampered_grant(self, tmp_path, hospital_path, field, value):
        """Audit exit codes, without and with --scenario, after rewriting one
        field of the first permission_granted record."""
        trace_file = self.write_trace(tmp_path, hospital_path)
        lines = trace_file.read_text(encoding="utf-8").splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines) if "|permission_granted|" in line)
        head, payload = lines[index].rsplit("|", 1)
        chunks = [
            f"{field}={value}" if chunk.startswith(f"{field}=") else chunk
            for chunk in payload.rstrip("\n").split(",")
        ]
        lines[index] = f"{head}|{','.join(chunks)}\n"
        trace_file.write_text("".join(lines), encoding="utf-8")
        codes = []
        for extra in ((), ("--scenario", hospital_path)):
            code, out, err = run_cli("audit", str(trace_file), *extra)
            assert "Traceback" not in out + err
            codes.append((code, out, err))
        return codes

    def test_unknown_op_is_a_usage_error(self, hospital_path, tmp_path):
        for code, _, err in self.audit_tampered_grant(tmp_path, hospital_path, "op", "bogus"):
            assert code == 2
            assert "bad op 'bogus'" in err

    def test_non_decimal_td_is_a_usage_error(self, hospital_path, tmp_path):
        for code, _, err in self.audit_tampered_grant(tmp_path, hospital_path, "td", "S1"):
            assert code == 2
            assert "bad td 'S1'" in err

    def test_grant_on_unknown_object_fails_checks(self, hospital_path, tmp_path):
        codes = self.audit_tampered_grant(tmp_path, hospital_path, "oid", "NoSuchObj")
        for code, out, _ in codes:
            assert code == 1
            assert "grant_security" in out
        assert "determinism" in codes[1][1]

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
