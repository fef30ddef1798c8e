"""One small scenario per diagnostic the scenario front end can report.

Each case is a few lines placed before BASE, a clean scenario, so line and
column numbers count from the case's first line. Every case must give
exactly the one diagnostic listed: message, position, and recovery (a
broken declaration resynchronizes without a cascade) are all pinned.
"""

import re
import sys

import pytest

from feac.scenario import parse_scenario

BASE = """\
scenario t
entity P1
role R1
role R2
subject S1 { roles = [R1] }
object O1 { acl R1 use }
emergency E1 { entity P1 prio 2 ed 10 ft false ts T1 { actions = [O1 use], time = 1, prob = 1 } }
emergency E2 { entity P1 prio 3 ed 10 ft false ts T1 { actions = [O1 use], time = 1, prob = 1 } }
emergency V1 { entity env prio 1 ed 10 ft false ts T1 { actions = [O1 use], time = 1, prob = 1 } }
"""

# The fields of a valid emergency on P1, and a valid task set.
EM = "entity P1 prio 2 ed 10 ft false"
TS = "ts T1 { actions = [O1 use], time = 1, prob = 1 }"

CASES = [
    # Lexer and parser.
    ("entity $P3", "1:8: unexpected character '$'"),
    ("entity 5", "1:8: expected an entity name, found '5'"),
    ("role [", "1:6: expected a role name, found '['"),
    ("fallbackmap E1 when true", "1:16: expected 'where', found 'when'"),
    ("constraint c true", "1:14: expected '=', found 'true'"),
    ("at x raise E1", "1:4: expected an event time, found 'x'"),
    ("bogus x", "1:1: expected a declaration keyword, found 'bogus'"),
    ("scenario u", "2:1: scenario name declared twice"),
    ('config tp = "x"', "1:13: expected a config value, found '\"x\"'"),
    ("subject S2 { x = @ }", "1:18: expected a property value, found '@'"),
    ("subject S2 { at = (1, x) }", "1:23: expected a coordinate, found 'x'"),
    ("object O2 { acl R1 fly }", "1:20: unknown operation 'fly'"),
    (f"emergency E3 {{ entity P1 {EM} {TS} }}", "1:26: field 'entity' given twice"),
    (f"emergency E3 {{ prio 2 {EM} {TS} }}", "1:33: field 'prio' given twice"),
    (f"emergency E3 {{ ed 2 {EM} {TS} }}", "1:38: field 'ed' given twice"),
    (f"emergency E3 {{ ft true {EM} {TS} }}", "1:47: field 'ft' given twice"),
    (
        f"emergency E3 {{ entity P1 prio 2 ed 10 ft maybe {TS} }}",
        "1:42: expected 'true' or 'false', found 'maybe'",
    ),
    (f"emergency E3 {{ color red {EM} {TS} }}", "1:16: unknown emergency field 'color'"),
    (
        f"emergency E3 {{ entity P1 prio 2 ft false {TS} }}",
        "1:11: emergency E3 is missing field 'ed'",
    ),
    (f"emergency E3 {{ ed 10 ft false {TS} }}", "1:11: emergency E3 is missing field 'entity'"),
    (
        f"emergency E3 {{ {EM} ts T1 {{ actions = [O1 fly], time = 1, prob = 1 }} }}",
        "1:70: unknown operation 'fly'",
    ),
    (
        f"emergency E3 {{ {EM} ts T1 {{ actions = [O1 use], cost = 1, time = 1, prob = 1 }} }}",
        "1:76: unknown task-set field 'cost'",
    ),
    (
        f"emergency E3 {{ {EM} ts T1 {{ actions = [O1 use], time = 1 }} }}",
        "1:51: task set T1 is missing field 'prob'",
    ),
    (
        f"emergency E3 {{ {EM} ts T1 {{ actions = [O1 use], time = 7, time = 3, prob = 1 }} }}",
        "1:86: field 'time' given twice",
    ),
    ("depends space P1 on V1", "1:9: expected 'env' or 'time', found 'space'"),
    ("influence E1 -> E2 { sigma_x = 0.1 }", "1:22: unknown influence field 'sigma_x'"),
    (
        "influence E1 -> E2 { sigma_p = 0.1, sigma_p = 0.2 }",
        "1:37: field 'sigma_p' given twice",
    ),
    ("at -1 raise E1", "1:1: event time must not be negative"),
    ("at 0 force E1 T1 maybe", "1:18: unknown outcome 'maybe'"),
    ("at 0 request S1 O1 fly", "1:20: unknown operation 'fly'"),
    ("at 0 explode E1", "1:6: unknown event kind 'explode'"),
    ("constraint c = x true", "1:18: expected a comparison operator, found 'true'"),
    ("constraint c = 5", "1:16: expected a condition, found '5'"),
    ("constraint c = count(R1) < 1.5", "1:28: count limit must be an integer"),
    ("constraint c = x = y", "1:20: expected a literal, found 'y'"),
    ("constraint c = dist(at, (1, 2)) < y", "1:35: expected a distance, found 'y'"),
    (
        "constraint c = " + "(" * 101 + "true" + ")" * 101,
        "1:116: constraint nested deeper than 100 levels",
    ),
    ("constraint c = " + "not " * 101 + "true", "1:416: constraint nested deeper than 100 levels"),
    (
        "constraint c = " + "false or true and (" * 51 + "true" + ")" * 51,
        "1:16: constraint nested deeper than 100 levels",
    ),
    # Resolution: declarations.
    ("entity env", "1:8: 'env' is predeclared"),
    ("entity P1", "3:8: entity P1 declared twice"),
    ("role R1", "4:6: role R1 declared twice"),
    ("constraint c = true\nconstraint c = false", "2:12: constraint c declared twice"),
    ("object O1 { }", "7:8: object O1 declared twice"),
    ("object O2 { acl R9 use }", "1:17: unknown role R9"),
    ("object O2 { acl R1 use acl R1 use }", "1:28: duplicate acl entry R1 use"),
    ("subject S1 { }", "6:9: subject S1 declared twice"),
    ("subject S2 { x = 1, x = 2 }", "1:21: property x given twice"),
    ("subject S2 { roles = [R9] }", "1:23: unknown role R9"),
    ("subject S2 { roles = [R1], active = [R2] }", "1:38: active role R2 not in roles"),
    (f"emergency E1 {{ {EM} {TS} }}", "8:11: emergency E1 declared twice"),
    (
        f"role E3\nemergency E3 {{ {EM} {TS} }}",
        "2:11: emergency id E3 collides with a declared role",
    ),
    (f"emergency E3 {{ entity P9 prio 2 ed 10 ft false {TS} }}", "1:23: unknown entity P9"),
    (
        f"emergency E3 {{ entity P1 prio 0 ed 10 ft false {TS} }}",
        "1:31: prio must be a positive integer",
    ),
    (f"emergency E3 {{ entity P1 prio 2 ed 0 ft false {TS} }}", "1:36: ed must be positive"),
    (f"emergency E3 {{ {EM} {TS} {TS} }}", "1:100: task set T1 declared twice"),
    (
        f"emergency E3 {{ {EM} ts T1 {{ actions = [O9 use], time = 1, prob = 1 }} }}",
        "1:67: unknown object O9",
    ),
    (
        f"emergency E3 {{ {EM} ts T1 {{ actions = [], time = 1, prob = 1 }} }}",
        "1:51: task set T1 has no actions",
    ),
    (
        f"emergency E3 {{ {EM} ts T1 {{ actions = [O1 use], time = 0, prob = 1 }} }}",
        "1:83: time must be positive",
    ),
    (
        f"emergency E3 {{ {EM} ts T1 {{ actions = [O1 use], time = 1, prob = 2 }} }}",
        "1:93: prob must be in (0, 1]",
    ),
    (f"emergency E3 {{ {EM} }}", "1:11: emergency E3 declares no task sets"),
    # Resolution: relation tables.
    ("map E9 -> [R1]", "1:5: unknown emergency E9"),
    ("map E1 -> [R1]\nmap E1 -> [R2]", "2:5: mapping for E1 declared twice"),
    ("map E1 -> [R9]", "1:12: unknown role R9"),
    ("fallbackmap E9 where true", "1:13: unknown emergency E9"),
    (
        "fallbackmap E1 where true\nfallbackmap E1 where false",
        "2:13: fallback mapping for E1 declared twice",
    ),
    ("depends env P9 on V1", "1:13: unknown entity P9"),
    ("depends env env on V1", "1:13: the environment group cannot be gated"),
    ("depends env P1 on E9", "1:19: unknown emergency E9"),
    ("depends env P1 on E1", "1:19: E1 is not an environment emergency"),
    ("depends env P1 on V1\ndepends env P1 on V1", "2:13: dependency P1 on V1 declared twice"),
    ("depends time E9 -> E1", "1:14: unknown emergency E9"),
    ("depends time E1 -> E9", "1:20: unknown emergency E9"),
    ("depends time V1 -> E1", "1:14: time dependency spans entities"),
    ("depends time E2 -> E1", "1:14: first emergency must have strictly higher priority"),
    ("depends time E1 -> E2\ndepends time E1 -> E2", "2:14: dependency E1 -> E2 declared twice"),
    ("influence E9 -> E1 { }", "1:11: unknown emergency E9"),
    ("influence E1 -> E9 { }", "1:17: unknown emergency E9"),
    ("influence E1 -> E1 { }", "1:11: an emergency cannot influence itself"),
    ("influence V1 -> E1 { }", "1:11: influence pair spans entities"),
    ("influence E1 -> E2 { }\ninfluence E1 -> E2 { }", "2:11: influence E1 -> E2 declared twice"),
    ("influence E1 -> E2 { sigma_p = 1 }", "1:22: sigma_p must be in [0, 1)"),
    ("fgroup P9 = g", "1:8: unknown entity P9"),
    ("fgroup P1 = g\nfgroup P1 = h", "2:8: failure group for P1 declared twice"),
    ("constraint c = @d", "1:17: unknown constraint d"),
    ("constraint c = count(R9) < 2", "1:22: unknown role R9"),
    # Resolution: configuration and events.
    ("config zeta = 1", "1:8: unknown config key 'zeta'"),
    ("config tp = 1\nconfig tp = 2", "2:8: config key 'tp' given twice"),
    ("config fallback = random", "1:19: fallback must be probability_first or time_first"),
    ("config tp = fast", "1:13: config key 'tp' needs a number"),
    ("config k = 1.5", "1:12: config key 'k' must be an integer"),
    ("config tp = 0", "1:13: config key 'tp' must be positive"),
    ("config alpha = -1", "1:16: config key 'alpha' must not be negative"),
    ("at 0 raise E9", "1:12: unknown emergency E9"),
    ("at 0 fail P9", "1:11: unknown entity P9"),
    ("at 0 force E9 T1 success", "1:12: unknown emergency E9"),
    ("at 0 force E1 T9 success", "1:15: E1 has no task set T9"),
    ("at 0 request S9 O1 use", "1:14: unknown subject S9"),
    ("at 0 request S1 O9 use", "1:17: unknown object O9"),
]


# int() refuses more digits than this in one part of a number (0: no limit).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (DIGIT_LIMIT + 1)
TOO_LONG = f"number too long: a part has more than {DIGIT_LIMIT} digits"
LONG_NUMBERS = [
    ("config-value", f"config seed = {LONG}", f"1:15: {TOO_LONG}"),
    (
        "emergency-field",
        f"emergency E3 {{ entity P1 prio 2 ed {LONG} ft false {TS} }}",
        f"1:36: {TOO_LONG}",
    ),
    ("comparison-literal", f"constraint c = x = 0.{LONG}", f"1:20: {TOO_LONG}"),
    ("event-time", f"at {LONG} raise E1", f"1:4: {TOO_LONG}"),
]


def test_base_is_clean():
    _, diags = parse_scenario(BASE, "t.feac")
    assert diags == []


def test_nesting_up_to_the_limit_is_accepted():
    parens = "(" * 100 + "true" + ")" * 100
    nots = "not " * 100 + "true"
    levels = "false or true and (" * 50 + "true" + ")" * 50
    text = f"constraint c = {parens}\nconstraint d = {nots}\nconstraint e = {levels}\n"
    _, diags = parse_scenario(text + BASE, "t.feac")
    assert diags == []


def message_id(want: str) -> str:
    return re.sub(r"\W+", "-", want.split(": ")[1]).strip("-")


@pytest.mark.parametrize("case, want", CASES, ids=[message_id(want) for _, want in CASES])
def test_case_gives_exactly_its_diagnostic(case, want):
    _, diags = parse_scenario(case + "\n" + BASE, "t.feac")
    assert [str(d) for d in diags] == [f"t.feac:{want}"]


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts numbers of any length")
@pytest.mark.parametrize(
    "case, want", [c[1:] for c in LONG_NUMBERS], ids=[c[0] for c in LONG_NUMBERS]
)
def test_over_long_number_gives_exactly_its_diagnostic(case, want):
    _, diags = parse_scenario(case + "\n" + BASE, "t.feac")
    assert [str(d) for d in diags] == [f"t.feac:{want}"]


@pytest.mark.parametrize(
    "text, want",
    [
        ("\n  entity P1\n", "2:3: missing scenario declaration"),
        ("scenario t\nentity", "2:7: expected an entity name, found end of input"),
        # A tab counts as one column.
        ("scenario t\nentity\t\t$P1\n", "2:9: unexpected character '$'"),
        ("scenario t\nentity P1 $", "2:11: unexpected character '$'"),
    ],
)
def test_whole_text_gives_exactly_its_diagnostic(text, want):
    _, diags = parse_scenario(text, "t.feac")
    assert [str(d) for d in diags] == [f"t.feac:{want}"]


@pytest.mark.parametrize(
    "case, want",
    [
        (
            "object O2 { acl R9 use acl R9 use }",
            ["1:17: unknown role R9", "1:28: unknown role R9", "1:28: duplicate acl entry R9 use"],
        ),
        (
            "subject S2 { roles = [R1], active = [R1], active = [R2, R9] }",
            ["1:43: property active given twice"],
        ),
    ],
)
def test_several_diagnostics_keep_their_order(case, want):
    _, diags = parse_scenario(case + "\n" + BASE, "t.feac")
    assert [str(d) for d in diags] == [f"t.feac:{w}" for w in want]


# A value is checked where the parser reads it and a name where the
# resolver meets it, so a declaration the resolver rejects still has its
# values checked, and an event whose outcome or operation is reported is
# dropped before its names are resolved.
@pytest.mark.parametrize(
    "case, want",
    [
        (
            f"emergency E3 {{ {EM} {TS} }}\nemergency E3 {{ entity P1 prio 2 ed 0 ft false {TS} }}",
            ["2:11: emergency E3 declared twice", "2:36: ed must be positive"],
        ),
        (
            f"emergency E3 {{ entity P1 prio 0 prio 2 ed 10 ft false {TS} }}",
            ["1:31: prio must be a positive integer", "1:33: field 'prio' given twice"],
        ),
        ("at 0 request S9 O1 fly", ["1:20: unknown operation 'fly'"]),
    ],
    ids=["repeated-emergency", "repeated-field", "reported-event"],
)
def test_values_are_checked_where_read_and_names_at_resolution(case, want):
    _, diags = parse_scenario(case + "\n" + BASE, "t.feac")
    assert [str(d) for d in diags] == [f"t.feac:{w}" for w in want]


# After a parse error the parser skips to a top-level keyword that is the
# first token on its line. Each case would add "unknown emergency E9" if it
# resynchronized at its `at`, and the last three lose it if it did not.
@pytest.mark.parametrize(
    "case, want",
    [
        ("entity 5 at 0 raise E9", ["1:8: expected an entity name, found '5'"]),
        (
            "entity 5\n# a comment-only line\nat 0 raise E9",
            ["1:8: expected an entity name, found '5'", "3:12: unknown emergency E9"],
        ),
        (
            "entity 5\n$at 0 raise E9",
            [
                "1:8: expected an entity name, found '5'",
                "2:1: unexpected character '$'",
                "2:13: unknown emergency E9",
            ],
        ),
        (
            "entity 5 # at 0 raise E8\n  \t at 0 raise E9",
            ["1:8: expected an entity name, found '5'", "2:16: unknown emergency E9"],
        ),
    ],
    ids=["same-line", "after-comment-line", "after-stray-character", "after-indent"],
)
def test_resync_is_at_a_keyword_first_on_its_line(case, want):
    _, diags = parse_scenario(case + "\n" + BASE, "t.feac")
    assert [str(d) for d in diags] == [f"t.feac:{w}" for w in want]
