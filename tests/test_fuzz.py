"""Fuzz properties of the command line: damaged inputs give exit codes, never tracebacks.

Each property damages the hospital fixture, or its simulated trace, in one
place (a word, a field or a byte) and runs the CLI on the result. Examples
are derandomized, so every run checks the same mutants.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feac.fixtures import hospital_text
from feac.scenario import parse_scenario

from test_cli import run_cli
from test_sim import GOLDEN

# Replacement values beside those the trace holds, aimed at the trace parser and checkers.
ODD_VALUES = [
    "", "-", "x", "0", "-1", "0.5", "1/0", "1e999", "nan", "inf",
    "S999", "E99", "NoSuchObj", "bogus", "R1:use:1", "a:b", "a;b;c", "|", ",", "=",
]

# Replacement words beside those the fixture holds, aimed at the scenario parser.
ODD_WORDS = ["", "{", "}", "=", ",", "(", ")", "[", "]", "->", "0", "-1", "1/0", "99", "x", "#"]

WORD = re.compile(r"[^\s{}\[\](),=]+")

# Bytes that break UTF-8 (a stray continuation, a lead byte cut short, bytes
# never valid) beside a few that keep it valid.
ODD_BYTES = [0x00, 0x0A, 0x7B, 0x7F, 0x80, 0xBF, 0xC3, 0xE2, 0xF0, 0xFF]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def trace_values(hospital_run):
    values = set(ODD_VALUES)
    for line in hospital_run.trace_text.splitlines():
        seq, time, kind, payload = line.split("|")
        values.update((seq, time, kind))
        values.update(chunk.partition("=")[2] for chunk in payload.split(","))
    return sorted(values)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_replaced_trace_field_never_crashes_audit(
    hospital_run, hospital_path, work, trace_values, data
):
    lines = hospital_run.trace_text.splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    seq, time, kind, payload = lines[index].split("|")
    fields = [seq, time, kind, *payload.split(",")]
    at = data.draw(st.integers(0, len(fields) - 1), label="field")
    value = data.draw(
        st.one_of(st.sampled_from(trace_values), st.text("ab1.:;-=|,\n", max_size=6)),
        label="value",
    )
    if at < 3:
        fields[at] = value
    else:
        fields[at] = fields[at].partition("=")[0] + "=" + value
    lines[index] = "|".join(fields[:3]) + "|" + ",".join(fields[3:])
    edited = "\n".join(lines) + "\n"
    trace = work / "fuzzed.trace"
    trace.write_text(edited, encoding="utf-8")

    code, _, _ = run_cli("audit", str(trace))
    assert code in (0, 1, 2)
    code, _, _ = run_cli("audit", str(trace), "--scenario", hospital_path)
    if edited == hospital_run.trace_text:
        assert code == 0
    else:
        # The deterministic re-run catches any edit that changes the text.
        assert code in (1, 2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_scenario_gives_diagnostics_or_an_auditable_run(work, data):
    text = hospital_text()
    words = [m.span() for m in WORD.finditer(text)]
    start, end = data.draw(st.sampled_from(words), label="word")
    replacement = data.draw(
        st.sampled_from(sorted({text[a:b] for a, b in words} | set(ODD_WORDS))),
        label="replacement",
    )
    mutant = text[:start] + replacement + text[end:]
    _, diags = parse_scenario(mutant, "mutant.feac")
    if diags:
        return
    scenario = work / "mutant.feac"
    scenario.write_text(mutant, encoding="utf-8")
    trace = work / "mutant.trace"
    code, out, err = run_cli("simulate", str(scenario), "--trace", str(trace))
    assert code in (0, 3), out + err
    code, out, err = run_cli("audit", str(trace), "--scenario", str(scenario))
    assert code == 0, out + err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_damaged_byte_gives_an_exit_code(hospital_path, work, data):
    """One byte of the scenario or the golden trace overwritten or inserted:
    a file that no longer decodes is a usage error for every command."""
    damage_trace = data.draw(st.booleans(), label="damage the trace")
    blob = GOLDEN.read_bytes() if damage_trace else hospital_text().encode("utf-8")
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    byte = data.draw(st.sampled_from(ODD_BYTES), label="byte")
    keep = data.draw(st.booleans(), label="insert")
    damaged = work / ("damaged.trace" if damage_trace else "damaged.feac")
    damaged.write_bytes(blob[:at] + bytes([byte]) + blob[at + (0 if keep else 1) :])
    try:
        damaged.read_text(encoding="utf-8")
        decodes = True
    except UnicodeDecodeError:
        decodes = False

    if damage_trace:
        commands = [("audit", damaged), ("audit", damaged, "--scenario", hospital_path)]
    else:
        commands = [
            ("validate", damaged),
            ("plan", damaged, "--group", "P1"),
            ("simulate", damaged, "--trace", work / "damaged-run.trace"),
            ("audit", GOLDEN, "--scenario", damaged),
        ]
    for argv in commands:
        code, out, err = run_cli(*map(str, argv))
        if decodes:
            assert code in (0, 1, 2, 3), out + err
        else:
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: {damaged}: not UTF-8 text (byte "), err
