"""Every scenario fixture pinned once: `feac simulate` must write its
committed trace byte for byte, with the row's summary line, and `feac audit`
must pass that trace both standalone and with `--scenario`.

A fixture is `tests/data/<name>.feac` with the output of
`feac simulate <name>.feac > <name>.trace` committed beside it; the glob
below makes each one a row, so a fixture without its trace fails here.
`tests/data/site_surge.plan` is pinned here too, as `feac plan` writes it.
"""

from pathlib import Path

import pytest

from feac import fixtures

from test_cli import run_child, run_cli
from test_sim import GOLDEN

DATA = GOLDEN.parent
HOSPITAL = Path(fixtures.__file__).with_name("hospital.feac")

# The first summary line `feac simulate` writes for each row.
SUMMARIES = {
    "acl_failover": "final=normal clock=9.5 records=19",
    "crew_failover": "final=normal clock=9.5 records=97",
    "cursor_skip": "final=normal clock=3 records=22",
    "fallback_choice": "final=normal clock=3.5 records=23",
    "fallback_choice-probability_first": "final=normal clock=3.5 records=24",
    "fine_clock": "final=normal clock=8 records=100",
    "hospital": "final=normal clock=9.5 records=95",
    "long_pv": "final=normal clock=2.5 records=20",
    "negative_window": "final=normal clock=3 records=30",
    "reraise_unstaffed": "final=normal clock=4.5 records=13",
    "site_surge": "final=normal clock=0.5 records=1",
}

# (row, scenario, committed trace, (old, new) text edit of the scenario or None)
ROWS = [(path.stem, path, path.with_suffix(".trace"), None) for path in sorted(DATA.glob("*.feac"))]
ROWS += [
    ("hospital", HOSPITAL, GOLDEN, None),
    (
        "fallback_choice-probability_first",
        DATA / "fallback_choice.feac",
        DATA / "fallback_choice.probability_first.trace",
        ("fallback = time_first", "fallback = probability_first"),
    ),
]


@pytest.mark.parametrize("name, scenario, trace, edit", ROWS, ids=[row[0] for row in ROWS])
def test_fixture_is_pinned(tmp_path, name, scenario, trace, edit):
    if edit:
        text = scenario.read_text(encoding="utf-8")
        assert text.count(edit[0]) == 1
        scenario = tmp_path / scenario.name
        scenario.write_text(text.replace(*edit), encoding="utf-8")
    code, out, err = run_cli("simulate", str(scenario))
    assert code == 0, err
    assert out.encode("utf-8") == trace.read_bytes()
    assert err.splitlines()[0] == SUMMARIES[name]
    ok = f"ok: {len(out.splitlines())} records, all checks passed\n"
    for extra in ((), ("--scenario", str(scenario))):
        assert run_cli("audit", str(trace), *extra) == (0, ok, "")


def test_site_surge_plan_is_pinned():
    """Seven equal-priority emergencies, every pair influencing time, all
    5,040 orders planned from a gate of 1/3: pins the per-build time unit and
    the merged-state expansion byte for byte."""
    args = ("plan", str(DATA / "site_surge.feac"), "--group", "S1", "--at", "1/3")
    done = run_child(*args, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (DATA / "site_surge.plan").read_bytes()
