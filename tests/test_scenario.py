"""Scenario language: lexing, parsing, diagnostics, and the canonical printer."""

import random
import re
from fractions import Fraction

import pytest

from feac import scenario
from feac.engine import EngineConfig
from feac.fixtures import hospital_text
from feac.model import validate_store
from feac.planner import PlannerConfig
from feac.scenario import (
    Diagnostic,
    Parser,
    Token,
    load_scenario,
    parse_scenario,
    print_scenario,
)
from feac.sim import run_simulation

from mutations import MUTANTS, apply
from scenario_gen import clean_scenario_texts, generate_scenario_text

F = Fraction


class TestParsing:
    def test_hospital_parses_clean(self, hospital):
        assert hospital.name == "hospital"
        assert hospital.entities == {"env", "P1", "P2"}
        assert set(hospital.emergencies) == {f"E{i}" for i in range(1, 8)}
        assert hospital.config.planner.seed == 7
        assert hospital.config.horizon == F(60)
        assert hospital.config.tp == F(1, 2)

    def test_store_contents(self, hospital):
        store = hospital.store
        assert set(store.srt["S7"]) == {"Doctor", "Nurse"}
        assert store.subjects["S3"].properties["senior"] is True
        assert store.subjects["S2"].properties["location"] == (F(30), F(40))
        assert store.efgt == {"P1": "icu", "P2": "icu"}
        assert store.edt == {("P1", "E1"), ("P2", "E1"), ("P2", "E2")}

    def test_events_keep_declaration_order_within_a_time(self, hospital):
        raises = [ev for ev in hospital.events if ev.kind == "raise"]
        assert [ev.args[0] for ev in raises] == [f"E{i}" for i in range(1, 8)]
        assert all(ev.time == F(0) for ev in raises)

    def test_numbers_are_exact(self, hospital):
        e4 = hospital.emergencies["E4"]
        assert e4.task_sets[0].time == F(1)
        assert e4.task_sets[0].prob == F(9, 10)
        assert hospital.infl.pairs[("E4", "E5")].sigma_t == F(1, 5)

    def test_load_from_file(self, hospital_path):
        sc, diags = load_scenario(hospital_path)
        assert not diags
        assert sc.name == "hospital"

    def test_empty_input_is_rejected(self):
        _, diags = parse_scenario("")
        assert len(diags) == 1
        assert "missing scenario declaration" in diags[0].message

    def test_comments_and_blank_lines_are_ignored(self):
        sc, diags = parse_scenario("# header\n\nscenario t # trailing\n\n# done\n")
        assert not diags
        assert sc.name == "t"

    def test_defaults_are_the_engine_and_planner_defaults(self):
        sc, diags = parse_scenario("scenario t\n")
        assert not diags
        assert sc.config == EngineConfig()
        assert sc.config.planner == PlannerConfig()
        assert sc.config.horizon == F(20)

    def test_the_first_value_of_a_repeated_field_stays(self):
        text = """\
scenario t
config tp = 1
config tp = 2
entity P1
role R1
subject S1 { x = 1, x = 2 }
object O1 { acl R1 use }
emergency E1 {
  entity P1 prio 3 prio 2 ed 10 ed 20 ft false
  ts T1 { actions = [O1 use], time = 1, time = 2, prob = 1 }
}
emergency E2 { entity P1 prio 2 ed 10 ft false ts T1 { actions = [O1 use], time = 1, prob = 1 } }
influence E1 -> E2 { sigma_t = 0.1, sigma_t = 0.2 }
"""
        sc, diags = parse_scenario(text)
        assert len(diags) == 6
        assert all(d.message.endswith("given twice") for d in diags)
        e1 = sc.emergencies["E1"]
        assert (e1.prio, e1.ed, e1.task_sets[0].time) == (3, F(10), F(1))
        assert sc.infl.pairs[("E1", "E2")].sigma_t == F(1, 10)
        assert sc.config.tp == F(1)
        assert sc.store.subjects["S1"].properties == {"x": F(1)}

    def test_recovery_reports_independent_defects_separately(self):
        text = hospital_text()
        text = apply(MUTANTS[2], text)   # unknown config key
        text = apply(MUTANTS[16], text)  # fgroup for unknown entity
        _, diags = parse_scenario(text)
        assert len(diags) == 2


class TestDiagnostics:
    def test_every_mutant_yields_exactly_one_positioned_diagnostic(self):
        base = hospital_text()
        assert len(MUTANTS) == 20
        for mutant in MUTANTS:
            _, diags = parse_scenario(apply(mutant, base), "hospital.feac")
            assert len(diags) == 1, (mutant.name, diags)
            diag = diags[0]
            assert (diag.line, diag.col) == (mutant.line, mutant.col), mutant.name
            assert diag.message == mutant.message, mutant.name

    def test_diagnostics_carry_the_file_name(self):
        mutant = MUTANTS[0]
        _, diags = parse_scenario(apply(mutant, hospital_text()), "ward.feac")
        assert str(diags[0]) == "ward.feac:10:13: unexpected character '$'"


# The reference lexer's own pattern: one alternative per token, blank and
# comment, so a change to the lexer's pattern cannot change the reference.
REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<string>"[^"\n]*")
    | (?P<number>-?(?:\d+(?:\.\d+)?|\.\d+))
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>->|<=|>=|!=|[{}\[\](),=<>@])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


def tokenize(text: str, filename: str) -> tuple[list[Token], list[Diagnostic]]:
    """The lexer's tokens and diagnostics for `text`: a parser's, before it
    parses anything."""
    parser = Parser(text, filename)
    return parser.tokens, parser.diags


def reference_tokenize(text: str, filename: str):
    """A position loop: one `match` per step, blanks and comments included,
    with the column counted forward over every matched character. Each
    token is `(kind, value, line, col)`."""
    tokens = []
    diags = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = REFERENCE_TOKEN_RE.match(text, pos)
        if match.lastgroup == "bad":
            diags.append(Diagnostic(filename, line, col, f"unexpected character {text[pos]!r}"))
            pos += 1
            col += 1
            continue
        kind = match.lastgroup
        value = match.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            tokens.append((kind, value, line, col))
            col += len(value)
        pos = match.end()
    tokens.append(("eof", "", line, col))
    return tokens, diags


def lexer_mutants(count: int, seed: int = 8):
    """Seeded edits of the hospital fixture that insert characters the
    lexer must skip, reject or count, delete characters, or cut the text."""
    base = hospital_text()
    inserts = ["$", "é", "\t", "\r", "\f", "\r\n", '"', '"x', "#", "# c", "-", "\n"]
    rng = random.Random(seed)
    for _ in range(count):
        chars = list(base)
        for _ in range(rng.randint(1, 5)):
            pos = rng.randrange(len(chars) + 1)
            if rng.random() < 0.8:
                chars[pos:pos] = rng.choice(inserts)
            else:
                del chars[pos - 1 : pos]
        if rng.random() < 0.2:
            chars = chars[: rng.randrange(len(chars) + 1)]
        yield "".join(chars)


class TestLexer:
    def assert_matches_reference(self, text):
        """Every kind and value, every token's place as the parser's first
        diagnostic finds it, and every diagnostic."""
        tokens, diags = tokenize(text, "t.feac")
        want_tokens, want_diags = reference_tokenize(text, "t.feac")
        parser = Parser(text, "t.feac")
        assert parser.tokens == tokens, text
        places = [(tok.kind, tok.value, *parser.place(tok)) for tok in parser.tokens]
        assert places == want_tokens, text
        assert diags == want_diags, text

    def test_matches_reference_on_clean_texts(self):
        for text in [hospital_text(), ""] + [generate_scenario_text(s) for s in range(12)]:
            self.assert_matches_reference(text)

    def test_matches_reference_on_damaged_texts(self):
        edge_cases = [
            'scenario t\nentity "P1',
            "scenario t\r\nentity P1\r\n",
            "scenario t\n# last line, no newline",
            "\f$\t\n\té",
            "scenario t  # c",
            "a#b",
            "scenario t\rentity P1\r",
            " \t\r\n \n\t",
            "at -",
            "at -.5",
            "at .",
            "a!b",
            "a!=b",
            "x->-1",
            'scenario t\nentity P1 "',
            "scenario t \t ",
            "# only a comment",
            # A digit that is not ASCII starts a number, as `\d` takes it.
            "config tp = \u0663.\u0665 x\u0663 \u0663",
        ]
        for text in edge_cases + list(lexer_mutants(300)):
            self.assert_matches_reference(text)

    def test_tokens_are_immutable_and_hashable(self):
        tok = tokenize("scenario t", "t.feac")[0][1]
        assert tok == Token("name", "t")
        assert hash(tok) == hash(Token("name", "t"))
        with pytest.raises(AttributeError):
            tok.value = "u"

    def test_equal_token_texts_share_one_string(self):
        tokens, _ = tokenize(hospital_text(), "h.feac")
        texts = {}
        for tok in tokens:
            assert texts.setdefault(tok.value, tok.value) is tok.value
        assert len(texts) < len(tokens) // 2
        # Each token is still its own tuple, for `token_places` to find.
        assert len({id(tok) for tok in tokens}) == len(tokens)

    def count_places(self, monkeypatch) -> list:
        calls = []

        def counted(text, tokens):
            calls.append(text)
            return place(text, tokens)

        place = scenario.token_places
        monkeypatch.setattr(scenario, "token_places", counted)
        return calls

    def test_a_clean_parse_places_no_token(self, monkeypatch):
        calls = self.count_places(monkeypatch)
        for text in [hospital_text(), generate_scenario_text(0)]:
            _, diags = parse_scenario(text)
            assert not diags
        assert calls == []

    @pytest.mark.parametrize(
        "mutants, count",
        [
            ([0], 1),  # an unexpected character, reported by the lexer
            ([2], 1),  # a parse error, then a resynchronization
            ([16], 1),  # a resolver error
            ([0, 2, 16], 3),
        ],
    )
    def test_a_damaged_text_places_its_tokens_once(self, monkeypatch, mutants, count):
        text = hospital_text()
        for index in mutants:
            text = apply(MUTANTS[index], text)
        calls = self.count_places(monkeypatch)
        _, diags = parse_scenario(text)
        assert len(diags) == count
        assert calls == [text]


class TestPrinter:
    def test_print_parse_is_a_fixpoint(self, hospital):
        printed = print_scenario(hospital)
        reparsed, diags = parse_scenario(printed)
        assert not diags
        assert print_scenario(reparsed) == printed

    def test_printed_form_simulates_identically(self, hospital, hospital_run):
        reparsed, diags = parse_scenario(print_scenario(hospital))
        assert not diags
        assert run_simulation(reparsed).trace_text == hospital_run.trace_text

    def test_fixpoint_holds_for_generated_scenarios(self):
        for seed in range(12):
            text = generate_scenario_text(seed)
            sc, diags = parse_scenario(text)
            assert not diags, (seed, diags)
            printed = print_scenario(sc)
            reparsed, diags = parse_scenario(printed)
            assert not diags, (seed, diags)
            assert print_scenario(reparsed) == printed, seed


def test_validate_store_finds_nothing_in_clean_scenarios():
    # The resolver already enforces every rule `feac validate` checks again
    # with validate_store, so a scenario without diagnostics has no violation.
    for name, text in clean_scenario_texts():
        sc, diags = parse_scenario(text)
        assert not diags, name
        assert validate_store(sc.store, list(sc.emergencies.values())) == [], name
