"""Scenario language: lexer, recursive-descent parser, resolver, printer.

A scenario file declares the static policy world (entities, roles,
subjects, objects, constraints), the emergency catalog with task sets,
the relation tables (role mappings, dependencies, influences, failure
groups), engine configuration, and a timed event script. `parse_scenario`
returns the compiled scenario plus a list of positioned diagnostics; the
scenario is only usable when the list is empty. `print_scenario` renders
a canonical form that reparses to the same scenario.

The lexer makes one `findall` pass. Each match is a token followed by the
blanks, newlines and comments after it, so the matches meet end to end, and
the last one takes the text's end; the blanks and comments in front of the
first token are skipped before the pass. A token's kind follows from its
text. An unexpected character is a one-character match that is reported
and left out of the token stream. Tokens carry no position: `token_places`
finds each token's line and column with the same pattern, at most once per
parse, when the first diagnostic or a resynchronization needs them.

Parse errors resynchronize at the next top-level keyword that is the first
token on its line, so one broken declaration yields one diagnostic, not a
cascade.

A value is checked at its token when the parser reads it, and the parser
reports unknown, repeated (the first value stays) and missing fields. A
name is checked by the resolver, so the raw declarations the parser hands
it hold plain values, and tokens only for the names still to resolve.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .constraints import (
    CMP_OPS,
    MAX_DEPTH,
    And,
    Cmp,
    ConstraintExpr,
    CountCmp,
    DistCmp,
    Lit,
    Not,
    Or,
    Ref,
    constraint_to_text,
    literal_text,
    nesting_depth,
)
from .engine import (
    EngineConfig,
    PROBABILITY_FIRST,
    ScenarioEvent,
    TIME_FIRST,
)
from .exact import ONE, ZERO, format_number, parse_number
from .model import (
    AclEntry,
    ENV_ENTITY,
    Emergency,
    Op,
    PolicyStore,
    RoleKind,
    RoleMapping,
    Subject,
    SystemObject,
    TaskSet,
)
from .planner import InfluencePair, InfluenceSpec, PlannerConfig

CMP_TOKENS = frozenset(CMP_OPS)
OP_NAMES = {op.value: op for op in Op}
OUTCOMES = {"success", "failure"}
STRATEGIES = {PROBABILITY_FIRST, TIME_FIRST}
# Each event kind's arguments, as "expected ..." names them.
EVENT_ARGS = {
    "raise": ("an emergency id",),
    "fail": ("an entity name",),
    "force": ("an emergency id", "a task-set id", "'success' or 'failure'"),
    "request": ("a subject name", "an object name", "an operation"),
}
CONFIG_KEYS = tuple(EngineConfig().by_key())


@dataclass(frozen=True)
class Diagnostic:
    file: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.message}"


@dataclass
class Scenario:
    """A fully resolved scenario ready to validate, plan, or simulate."""

    name: str
    entities: set[str]
    store: PolicyStore
    emergencies: dict[str, Emergency]
    infl: InfluenceSpec
    config: EngineConfig
    # In declaration order, which orders the events of one time.
    events: list[ScenarioEvent]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # name | number | string | punct | eof | bad (an unexpected character)
    value: str  # a token holds no place: `token_places` finds it, by identity


# Blanks, newlines and comments.
_SKIP_RE = re.compile(r"(?:[ \t\r\n]+|\#[^\n]*)*")
# One token and the skip after it; the last alternative takes any other
# character. The kind follows from the text, so no alternative is named.
_TOKEN_RE = re.compile(
    r"""(
      "[^"\n]*"
    | -?(?:\d+(?:\.\d+)?|\.\d+)
    | [A-Za-z_][A-Za-z0-9_]*
    | ->|<=|>=|!=|[{}\[\](),=<>@]
    | .
    )"""
    + _SKIP_RE.pattern,
    re.VERBOSE,
)
# A kind by the whole text: the two-character symbols, and the texts that
# only begin a longer token.
_TEXT_KINDS = dict.fromkeys(["->", "<=", ">=", "!="], "punct") | dict.fromkeys('"-.', "bad")


class _FirstKinds(dict):
    """A kind by the first character; one outside the table is a digit that
    is not ASCII, which begins a number as `\\d` does, or a bad character."""

    def __missing__(self, char: str) -> str:
        return "number" if char.isdecimal() else "bad"


_FIRST_KINDS = _FirstKinds(
    dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "name")
    | dict.fromkeys("0123456789-.", "number")
    | dict.fromkeys("{}[](),=<>@", "punct")
    | {'"': "string"}
)
_first = itemgetter(0)


def token_places(text: str, tokens: list[Token]) -> dict[int, tuple[int, int]]:
    """Each token's (line, col), keyed by its identity. `tokens` are a
    parser's before its bad characters leave: one per match of the lexer's
    pattern, then eof at the end."""
    starts = [match.start() for match in _TOKEN_RE.finditer(text, _SKIP_RE.match(text).end())]
    starts.append(len(text))
    places = {}
    line, line_start, last = 1, 0, 0
    for tok, at in zip(tokens, starts):
        line += text.count("\n", last, at)
        line_start = max(line_start, text.rfind("\n", last, at) + 1)
        places[id(tok)] = line, at - line_start + 1
        last = at
    return places


def _describe(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    return f"{tok.value!r}"


# ---------------------------------------------------------------------------
# Raw declaration holders (tokens kept for the names still to resolve)
# ---------------------------------------------------------------------------


@dataclass
class _RawEmergency:
    eid: Token
    entity: Token
    prio: int
    ed: Fraction
    ft: bool
    # (task-set id, the object of each action, the task set)
    task_sets: list[tuple[Token, list[Token], TaskSet]]


class _Block(NamedTuple):
    """One kind of `{ ... }` block, as `Parser.parse_fields` reads it."""

    what: str  # a field name, as "expected ..." calls it
    unknown: str  # the diagnostic for an unknown field, given its name
    readers: dict  # field name -> reader of its value, called with the parser and name
    required: tuple[str, ...] = ()  # reported missing in this order
    missing: str = ""  # the diagnostic for a missing field, given owner and field
    assign: bool = False  # fields are `name = value`, each with an optional comma
    lists: tuple[str, ...] = ()  # fields that may repeat, every value kept in order


class _Abort(Exception):
    pass


def _positive(value: Fraction) -> bool:
    return value > 0


def _config_problem(key: str, value: Fraction | str) -> str | None:
    """What is wrong with `value` as config `key`'s value, if anything."""
    if key == "fallback":
        if value in STRATEGIES:
            return None
        return "fallback must be probability_first or time_first"
    if isinstance(value, str):
        return f"config key '{key}' needs a number"
    if key in ("k", "seed") and value.denominator != 1:
        return f"config key '{key}' must be an integer"
    if key in ("tp", "horizon", "k") and value <= 0:
        return f"config key '{key}' must be positive"
    if key in ("alpha", "beta") and value < 0:
        return f"config key '{key}' must not be negative"
    return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.text = text
        self.places = None  # each token's (line, col), once `place` needs one
        self.diags: list[Diagnostic] = []
        self.lex()
        self.pos = 0
        # Number text -> value, for the texts converted so far.
        self.numbers: dict[str, Fraction] = {}

        self.scenario_name: Token | None = None
        # Each config key given, with its first value, or None if that was bad.
        self.config: dict[str, Fraction | str | None] = {}
        self.entities: list[Token] = []
        self.role_decls: list[Token] = []
        self.constraint_decls: list[tuple[Token, ConstraintExpr]] = []
        # (subject, property -> value), a role list's value holding its tokens
        self.subject_decls: list[tuple[Token, dict[str, object]]] = []
        self.object_decls: list[tuple[Token, list[tuple[Token, Op, Fraction | None]]]] = []
        self.emergency_decls: list[_RawEmergency] = []
        self.map_decls: list[tuple[Token, list[Token], ConstraintExpr | None]] = []
        self.fallback_decls: list[tuple[Token, ConstraintExpr]] = []
        # The `@` references and `count` roles of every kept expression.
        self.refs: list[Token] = []
        self.count_roles: list[Token] = []
        self.depends_env: list[tuple[Token, Token]] = []
        self.depends_time: list[tuple[Token, Token]] = []
        self.influences: list[tuple[Token, Token, InfluencePair]] = []
        self.fgroups: list[tuple[Token, Token]] = []
        self.raw_events: list[tuple[Fraction, str, list[Token]]] = []

    # -- token plumbing ----------------------------------------------------

    def lex(self) -> None:
        """The tokens, in one `findall` pass; each bad character is reported
        and left out."""
        texts = _TOKEN_RE.findall(self.text, _SKIP_RE.match(self.text).end())
        # Each distinct text is one string with one kind: the tokens that
        # repeat it are copies of one (kind, text) pair, each its own tuple.
        distinct = dict.fromkeys(texts)
        kinds = map(_TEXT_KINDS.get, distinct, map(_FIRST_KINDS.__getitem__, map(_first, distinct)))
        pairs = dict(zip(distinct, zip(kinds, distinct)))
        # The tuples themselves, without the named tuple's Python-level constructor.
        self.tokens = list(map(tuple.__new__, repeat(Token), map(pairs.__getitem__, texts)))
        self.tokens.append(Token("eof", ""))
        if "bad" in map(_first, self.tokens):
            for tok in self.tokens:
                if tok.kind == "bad":
                    self.error(tok, f"unexpected character {tok.value!r}")
            self.tokens = [tok for tok in self.tokens if tok.kind != "bad"]

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def place(self, tok: Token) -> tuple[int, int]:
        """`tok`'s (line, col); the first call places every token."""
        if self.places is None:
            self.places = token_places(self.text, self.tokens)
        return self.places[id(tok)]

    def error(self, tok: Token, message: str) -> None:
        self.diags.append(Diagnostic(self.filename, *self.place(tok), message))

    def abort(self, tok: Token, message: str):
        self.error(tok, message)
        raise _Abort()

    # The primitives below step past a token without `advance`'s guard: a
    # token they accept is a name, a number or has a keyword's or symbol's
    # text, and the eof token is none of these.

    def expect_name(self, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "name":
            self.abort(tok, f"expected {what}, found {_describe(tok)}")
        self.pos += 1
        return tok

    # Keywords and punctuation are told apart by text alone: a string
    # token's text keeps its quotes, and no keyword or symbol is a number.
    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.value != text:
            self.abort(tok, f"expected '{text}', found {_describe(tok)}")
        self.pos += 1
        return tok

    def match(self, text: str) -> bool:
        if self.tokens[self.pos].value == text:
            self.pos += 1
            return True
        return False

    def expect_number(self, what: str) -> tuple[Token, Fraction]:
        """The one place a number token is converted; on error it stays unread.

        A scenario repeats few number texts many times, so each text is
        converted once per parse; a text that fails is not remembered.
        """
        tok = self.tokens[self.pos]
        if tok.kind != "number":
            self.abort(tok, f"expected {what}, found {_describe(tok)}")
        value = self.numbers.get(tok.value)
        if value is None:
            try:
                value = self.numbers[tok.value] = parse_number(tok.value)
            except ValueError:
                # A part longer than the interpreter's int() conversion limit.
                limit = sys.get_int_max_str_digits()
                self.abort(tok, f"number too long: a part has more than {limit} digits")
        self.pos += 1
        return tok, value

    def expect_checked(self, what: str, ok, message: str) -> Fraction:
        """A number; `message` is reported at it unless `ok(value)`."""
        tok, value = self.expect_number(what)
        if not ok(value):
            self.error(tok, message)
        return value

    def resync(self) -> None:
        """Skip to the end, or to a top-level keyword that is the first
        token on its line."""
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind == "eof":
                return
            if (
                tok.kind == "name"
                and tok.value in self.HANDLERS
                and (self.pos == 0 or self.place(tokens[self.pos - 1])[0] != self.place(tok)[0])
            ):
                return
            self.pos += 1

    # -- shared value forms --------------------------------------------------

    def parse_literal(self, what: str) -> bool | str | Fraction:
        """A number, string or boolean; on error the token stays unread."""
        tok = self.peek()
        if tok.kind == "number":
            return self.expect_number(what)[1]
        if tok.kind == "string":
            value = tok.value[1:-1]
        elif tok.kind == "name" and tok.value in ("true", "false"):
            value = tok.value == "true"
        else:
            self.abort(tok, f"expected {what}, found {_describe(tok)}")
        self.advance()
        return value

    def parse_point(self) -> tuple[Fraction, Fraction]:
        self.expect("(")
        _, x = self.expect_number("a coordinate")
        self.expect(",")
        _, y = self.expect_number("a coordinate")
        self.expect(")")
        return (x, y)

    def expect_op(self) -> Op:
        tok = self.expect_name("an operation")
        op = OP_NAMES.get(tok.value)
        if op is None:
            self.abort(tok, f"unknown operation '{tok.value}'")
        return op

    def parse_list(self, item, brackets: str = "[]") -> list:
        """`[a, b, ...]`, or the same between other `brackets`; `item()` reads each element."""
        self.expect(brackets[0])
        items: list = []
        if self.match(brackets[1]):
            return items
        while True:
            items.append(item())
            if self.match(brackets[1]):
                return items
            self.expect(",")

    def parse_fields(self, block: _Block, owner: Token) -> dict[str, object]:
        """The fields of the `block` that declares `owner`. An unknown field
        aborts; a repeated one is reported, its value read and dropped; a
        missing one aborts, reported at `owner`."""
        readers, lists = block.readers, block.lists
        fields: dict[str, object] = {}
        self.expect("{")
        while not self.match("}"):
            name = self.expect_name(block.what)
            key = name.value
            read = readers.get(key)
            if read is None:
                self.abort(name, block.unknown.format(key))
            if key in fields and key not in lists:
                self.error(name, f"field '{key}' given twice")
            if block.assign:
                self.expect("=")
            value = read(self, name)
            if key in lists:
                fields.setdefault(key, []).append(value)
            else:
                fields.setdefault(key, value)
            if block.assign:
                self.match(",")
        for key in block.required:
            if key not in fields:
                self.abort(owner, block.missing.format(owner.value, key))
        return fields

    # -- top level ---------------------------------------------------------

    def parse(self) -> None:
        handlers = self.HANDLERS
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind != "name" or tok.value not in handlers:
                self.error(tok, f"expected a declaration keyword, found {_describe(tok)}")
                self.advance()
                self.resync()
                continue
            names = len(self.refs), len(self.count_roles)
            try:
                handlers[tok.value](self)
            except _Abort:
                # A dropped declaration's names are not resolved.
                del self.refs[names[0] :], self.count_roles[names[1] :]
                self.resync()

    def parse_scenario_line(self) -> None:
        kw = self.advance()
        name = self.expect_name("a scenario name")
        if self.scenario_name is not None:
            self.error(kw, "scenario name declared twice")
        else:
            self.scenario_name = name

    def parse_config(self) -> None:
        self.advance()
        key = self.expect_name("a config key")
        self.expect("=")
        tok = self.peek()
        if tok.kind == "number":
            _, value = self.expect_number("a config value")
        elif tok.kind == "name":
            value = self.advance().value
        else:
            self.abort(tok, f"expected a config value, found {_describe(tok)}")
        name = key.value
        if name not in CONFIG_KEYS:
            self.error(key, f"unknown config key '{name}'")
            return
        if name in self.config:
            self.error(key, f"config key '{name}' given twice")
        problem = _config_problem(name, value)
        if problem is not None:
            self.error(tok, problem)
            value = None
        self.config.setdefault(name, value)

    def parse_entity(self) -> None:
        self.advance()
        self.entities.append(self.expect_name("an entity name"))

    def parse_role(self) -> None:
        self.advance()
        self.role_decls.append(self.expect_name("a role name"))

    def parse_constraint(self) -> None:
        self.advance()
        name = self.expect_name("a constraint name")
        self.expect("=")
        self.constraint_decls.append((name, self.parse_expr()))

    def parse_subject(self) -> None:
        self.advance()
        sid = self.expect_name("a subject name")
        properties: dict[str, object] = {}
        for key, value in self.parse_list(self.parse_property, "{}"):
            if key.value in properties:
                self.error(key, f"property {key.value} given twice")
            properties.setdefault(key.value, value)
        self.subject_decls.append((sid, properties))

    def parse_property(self) -> tuple[Token, object]:
        key = self.expect_name("a property name")
        self.expect("=")
        if key.value in ("roles", "active"):
            what = f"a role list for '{key.value}'"
            return key, self.parse_list(lambda: self.expect_name(what))
        if self.peek().value == "(":
            return key, self.parse_point()
        return key, self.parse_literal("a property value")

    def parse_object(self) -> None:
        self.advance()
        oid = self.expect_name("an object name")
        self.expect("{")
        rows: list[tuple[Token, Op, Fraction | None]] = []
        while not self.match("}"):
            self.expect("acl")
            role = self.expect_name("a role name")
            op = self.expect_op()
            td: Fraction | None = None
            if self.match("td"):
                _, td = self.expect_number("an expiry time")
            rows.append((role, op, td))
        self.object_decls.append((oid, rows))

    def parse_flag(self) -> bool:
        flag = self.expect_name("'true' or 'false'")
        if flag.value not in ("true", "false"):
            self.abort(flag, f"expected 'true' or 'false', found {_describe(flag)}")
        return flag.value == "true"

    TASK_SET = _Block(
        what="a task-set field",
        unknown="unknown task-set field '{}'",
        readers={
            "actions": lambda p, _: p.parse_list(
                lambda: (p.expect_name("an object name"), p.expect_op())
            ),
            "time": lambda p, _: p.expect_checked("a duration", _positive, "time must be positive"),
            "prob": lambda p, _: p.expect_checked(
                "a probability", lambda v: ZERO < v <= ONE, "prob must be in (0, 1]"
            ),
            "resources": lambda p, _: p.parse_list(lambda: p.expect_name("a resource name")),
        },
        required=("actions", "time", "prob"),
        missing="task set {} is missing field '{}'",
        assign=True,
    )

    def parse_task_set(self) -> tuple[Token, list[Token], TaskSet]:
        tsid = self.expect_name("a task-set id")
        fields = self.parse_fields(self.TASK_SET, tsid)
        actions = fields["actions"]
        if not actions:
            self.error(tsid, f"task set {tsid.value} has no actions")
        resources = frozenset(tok.value for tok in fields.get("resources", ()))
        pairs = tuple((oid.value, op) for oid, op in actions)
        task_set = TaskSet(tsid.value, pairs, fields["time"], fields["prob"], resources)
        return tsid, [oid for oid, _ in actions], task_set

    EMERGENCY = _Block(
        what="an emergency field",
        unknown="unknown emergency field '{}'",
        readers={
            "entity": lambda p, _: p.expect_name("an entity name"),
            "prio": lambda p, _: p.expect_checked(
                "a priority",
                lambda v: v.denominator == 1 and v >= 1,
                "prio must be a positive integer",
            ),
            "ed": lambda p, _: p.expect_checked("a deadline", _positive, "ed must be positive"),
            "ft": lambda p, _: p.parse_flag(),
            "ts": lambda p, _: p.parse_task_set(),
        },
        required=("entity", "prio", "ed", "ft"),
        missing="emergency {} is missing field '{}'",
        lists=("ts",),
    )

    def parse_emergency(self) -> None:
        self.advance()
        eid = self.expect_name("an emergency id")
        fields = self.parse_fields(self.EMERGENCY, eid)
        task_sets = fields.pop("ts", [])
        if not task_sets:
            self.error(eid, f"emergency {eid.value} declares no task sets")
        # A bad priority reads as the nearest valid one.
        fields["prio"] = max(1, int(fields["prio"]))
        self.emergency_decls.append(_RawEmergency(eid, task_sets=task_sets, **fields))

    def parse_map(self) -> None:
        self.advance()
        erole = self.expect_name("an emergency id")
        self.expect("->")
        roles = self.parse_list(lambda: self.expect_name("a role name"))
        constraint = self.parse_expr() if self.match("where") else None
        self.map_decls.append((erole, roles, constraint))

    def parse_fallbackmap(self) -> None:
        self.advance()
        erole = self.expect_name("an emergency id")
        self.expect("where")
        self.fallback_decls.append((erole, self.parse_expr()))

    def parse_depends(self) -> None:
        self.advance()
        kind = self.expect_name("'env' or 'time'")
        if kind.value == "env":
            entity = self.expect_name("an entity name")
            self.expect("on")
            eid = self.expect_name("an emergency id")
            self.depends_env.append((entity, eid))
        elif kind.value == "time":
            before = self.expect_name("an emergency id")
            self.expect("->")
            after = self.expect_name("an emergency id")
            self.depends_time.append((before, after))
        else:
            self.abort(kind, f"expected 'env' or 'time', found {_describe(kind)}")

    def parse_sigma(self, name: Token) -> Fraction:
        """Sigma field `name`'s value; a bad one is reported at `name`, read as 0."""
        _, sigma = self.expect_number("a sigma value")
        if ZERO <= sigma < ONE:
            return sigma
        self.error(name, f"{name.value} must be in [0, 1)")
        return ZERO

    INFLUENCE = _Block(
        what="a sigma name",
        unknown="unknown influence field '{}'",
        readers=dict.fromkeys(("sigma_p", "sigma_t", "sigma_ed"), parse_sigma),
        assign=True,
    )

    def parse_influence(self) -> None:
        self.advance()
        source = self.expect_name("an emergency id")
        self.expect("->")
        target = self.expect_name("an emergency id")
        sigmas = self.parse_fields(self.INFLUENCE, source)
        self.influences.append((source, target, InfluencePair(**sigmas)))

    def parse_fgroup(self) -> None:
        self.advance()
        entity = self.expect_name("an entity name")
        self.expect("=")
        group = self.expect_name("a failure-group name")
        self.fgroups.append((entity, group))

    def parse_event(self) -> None:
        at = self.advance()
        _, when = self.expect_number("an event time")
        if when < 0:
            self.error(at, "event time must not be negative")
        kind = self.expect_name("an event kind")
        whats = EVENT_ARGS.get(kind.value)
        if whats is None:
            self.abort(kind, f"unknown event kind '{kind.value}'")
        args = [self.expect_name(what) for what in whats]
        # The last argument of a force or a request is a value; an event
        # with a bad one is dropped.
        last = args[-1]
        if kind.value == "force" and last.value not in OUTCOMES:
            self.error(last, f"unknown outcome '{last.value}'")
        elif kind.value == "request" and last.value not in OP_NAMES:
            self.error(last, f"unknown operation '{last.value}'")
        else:
            self.raw_events.append((when, kind.value, args))

    # The parser of each top-level keyword's declaration. These are plain
    # functions: bound methods kept on a parser would make it a reference
    # cycle, which only the cyclic collector frees, later and at a cost.
    HANDLERS = {
        "scenario": parse_scenario_line,
        "config": parse_config,
        "entity": parse_entity,
        "role": parse_role,
        "constraint": parse_constraint,
        "subject": parse_subject,
        "object": parse_object,
        "emergency": parse_emergency,
        "map": parse_map,
        "fallbackmap": parse_fallbackmap,
        "depends": parse_depends,
        "influence": parse_influence,
        "fgroup": parse_fgroup,
        "at": parse_event,
    }

    # -- constraint expressions ---------------------------------------------

    # Nesting is bounded twice over. `depth` counts the parentheses and
    # `not`s around the current position, so no input can exhaust the
    # parser's stack; and a parsed expression is at most MAX_DEPTH levels
    # deep, so evaluating it alone never reaches the evaluator's cut-off.

    def parse_expr(self) -> ConstraintExpr:
        start = self.peek()
        expr = self.parse_or(0)
        if nesting_depth(expr) > MAX_DEPTH:
            self.abort(start, f"constraint nested deeper than {MAX_DEPTH} levels")
        return expr

    def parse_or(self, depth: int) -> ConstraintExpr:
        items = [self.parse_and(depth)]
        while self.match("or"):
            items.append(self.parse_and(depth))
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self, depth: int) -> ConstraintExpr:
        items = [self.parse_not(depth)]
        while self.match("and"):
            items.append(self.parse_not(depth))
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_not(self, depth: int) -> ConstraintExpr:
        tok = self.peek()
        if self.match("not"):
            return Not(self.parse_not(self.nested(tok, depth)))
        return self.parse_atom(depth)

    def nested(self, tok: Token, depth: int) -> int:
        if depth == MAX_DEPTH:
            self.abort(tok, f"constraint nested deeper than {MAX_DEPTH} levels")
        return depth + 1

    def parse_cmp_op(self) -> str:
        tok = self.peek()
        if tok.value in CMP_TOKENS:
            self.advance()
            return tok.value
        self.abort(tok, f"expected a comparison operator, found {_describe(tok)}")

    def parse_atom(self, depth: int) -> ConstraintExpr:
        tok = self.peek()
        if self.match("("):
            inner = self.parse_or(self.nested(tok, depth))
            self.expect(")")
            return inner
        if self.match("@"):
            name = self.expect_name("a constraint name")
            self.refs.append(name)
            return Ref(name.value)
        if tok.kind != "name":
            self.abort(tok, f"expected a condition, found {_describe(tok)}")
        if tok.value == "true" or tok.value == "false":
            self.advance()
            return Lit(tok.value == "true")
        if tok.value == "dist":
            self.advance()
            self.expect("(")
            prop = self.expect_name("a property name")
            self.expect(",")
            point = self.parse_point()
            self.expect(")")
            op = self.parse_cmp_op()
            _, radius = self.expect_number("a distance")
            return DistCmp(prop.value, point, op, radius)
        if tok.value == "count":
            self.advance()
            self.expect("(")
            role = self.expect_name("a role name")
            self.expect(")")
            op = self.parse_cmp_op()
            limit_tok, limit = self.expect_number("a count limit")
            if limit.denominator != 1:
                self.abort(limit_tok, "count limit must be an integer")
            self.count_roles.append(role)
            return CountCmp(role.value, op, int(limit))
        prop = self.advance()
        op = self.parse_cmp_op()
        return Cmp(prop.value, op, self.parse_literal("a literal"))


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


class _Resolver:
    def __init__(self, parser: Parser):
        self.p = parser
        self.error = parser.error

    def known(self, tok: Token, table, what: str) -> bool:
        """Whether `tok` names a key of `table`; reports an unknown name."""
        if tok.value in table:
            return True
        self.error(tok, f"unknown {what} {tok.value}")
        return False

    def fresh(self, tok: Token, table, what: str) -> bool:
        """Whether `tok` names no key of `table` yet; reports a second declaration."""
        if tok.value not in table:
            return True
        self.error(tok, f"{what} {tok.value} declared twice")
        return False

    def emergency_pair(
        self, first: Token, second: Token, emergencies, declared, what: str, spans: str
    ) -> tuple[Emergency, Emergency] | None:
        """The two emergencies of a pair declaration, if both are known, on
        one entity, and not yet a pair of `declared`; reports which is not."""
        if not (
            self.known(first, emergencies, "emergency")
            and self.known(second, emergencies, "emergency")
        ):
            return None
        a, b = emergencies[first.value], emergencies[second.value]
        if a.entity != b.entity:
            self.error(first, spans)
            return None
        if (a.eid, b.eid) in declared:
            self.error(first, f"{what} {a.eid} -> {b.eid} declared twice")
            return None
        return a, b

    def resolve(self) -> Scenario:
        p = self.p
        store = PolicyStore()
        entities: set[str] = {ENV_ENTITY}

        for tok in p.entities:
            if tok.value == ENV_ENTITY:
                self.error(tok, "'env' is predeclared")
            else:
                self.fresh(tok, entities, "entity")
            entities.add(tok.value)

        for tok in p.role_decls:
            self.fresh(tok, store.roles, "role")
            store.roles[tok.value] = RoleKind.NORMAL
        normal = set(store.roles)

        for name, expr in p.constraint_decls:
            if self.fresh(name, store.constraints, "constraint"):
                store.constraints[name.value] = expr

        for oid, rows in p.object_decls:
            if not self.fresh(oid, store.objects, "object"):
                continue
            acl: list[AclEntry] = []
            seen_rows: set[tuple[str, Op]] = set()
            for role, op, td in rows:
                self.known(role, normal, "role")
                if (role.value, op) in seen_rows:
                    self.error(role, f"duplicate acl entry {role.value} {op.value}")
                    continue
                seen_rows.add((role.value, op))
                acl.append(AclEntry(role.value, op, td))
            store.objects[oid.value] = SystemObject(oid.value, acl)

        for sid, properties in p.subject_decls:
            if not self.fresh(sid, store.subjects, "subject"):
                continue
            values = dict(properties)
            role_toks = values.pop("roles", [])
            roles = [tok.value for tok in role_toks if self.known(tok, normal, "role")]
            active = roles
            if "active" in values:
                active_toks = values.pop("active")
                active = [tok.value for tok in active_toks if self.known(tok, normal, "role")]
                for tok in active_toks:
                    if tok.value in normal and tok.value not in roles:
                        self.error(tok, f"active role {tok.value} not in roles")
            store.subjects[sid.value] = Subject(sid.value, values)
            store.srt[sid.value] = set(roles)
            store.asrt[sid.value] = {r for r in active if r in roles}

        emergencies: dict[str, Emergency] = {}
        for raw in p.emergency_decls:
            eid = raw.eid.value
            if not self.fresh(raw.eid, emergencies, "emergency"):
                continue
            if eid in store.roles:
                self.error(raw.eid, f"emergency id {eid} collides with a declared role")
                continue
            self.known(raw.entity, entities, "entity")
            task_sets: dict[str, TaskSet] = {}
            for tsid, objects, task_set in raw.task_sets:
                if self.fresh(tsid, task_sets, "task set"):
                    for oid in objects:
                        self.known(oid, store.objects, "object")
                    task_sets[tsid.value] = task_set
            ordered = tuple(task_sets[tsid] for tsid in sorted(task_sets))
            emergencies[eid] = Emergency(eid, raw.entity.value, raw.prio, raw.ed, raw.ft, ordered)
            store.roles[eid] = RoleKind.EMERGENCY

        for tok in p.refs:
            self.known(tok, store.constraints, "constraint")
        for tok in p.count_roles:
            self.known(tok, normal, "role")

        for erole, roles, constraint in p.map_decls:
            if self.known(erole, emergencies, "emergency") and self.fresh(
                erole, store.rmt, "mapping for"
            ):
                names = [tok.value for tok in roles if self.known(tok, normal, "role")]
                store.rmt[erole.value] = RoleMapping(tuple(names), constraint)

        for erole, expr in p.fallback_decls:
            if self.known(erole, emergencies, "emergency") and self.fresh(
                erole, store.rct, "fallback mapping for"
            ):
                store.rct[erole.value] = expr

        for entity, eid in p.depends_env:
            if not self.known(entity, entities, "entity"):
                continue
            if entity.value == ENV_ENTITY:
                self.error(entity, "the environment group cannot be gated")
                continue
            if not self.known(eid, emergencies, "emergency"):
                continue
            if emergencies[eid.value].entity != ENV_ENTITY:
                self.error(eid, f"{eid.value} is not an environment emergency")
                continue
            if (entity.value, eid.value) in store.edt:
                self.error(entity, f"dependency {entity.value} on {eid.value} declared twice")
                continue
            store.edt.add((entity.value, eid.value))

        for before, after in p.depends_time:
            spans = "time dependency spans entities"
            pair = self.emergency_pair(before, after, emergencies, store.tdt, "dependency", spans)
            if pair is None:
                continue
            a, b = pair
            if a.prio >= b.prio:
                self.error(before, "first emergency must have strictly higher priority")
                continue
            store.tdt.add((a.eid, b.eid))

        pairs: dict[tuple[str, str], InfluencePair] = {}
        for source, target, sigmas in p.influences:
            spans = "influence pair spans entities"
            pair = self.emergency_pair(source, target, emergencies, pairs, "influence", spans)
            if pair is None:
                continue
            a, b = pair
            if a.eid == b.eid:
                self.error(source, "an emergency cannot influence itself")
                continue
            pairs[(a.eid, b.eid)] = sigmas

        for entity, group in p.fgroups:
            if self.known(entity, entities, "entity") and self.fresh(
                entity, store.efgt, "failure group for"
            ):
                store.efgt[entity.value] = group.value

        name = "unnamed" if p.scenario_name is None else p.scenario_name.value
        if p.scenario_name is None and p.tokens:
            self.error(p.tokens[0], "missing scenario declaration")

        config = _resolve_config(p.config)
        events = self.resolve_events(store, emergencies, entities)

        return Scenario(
            name=name,
            entities=entities,
            store=store,
            emergencies=emergencies,
            infl=InfluenceSpec(pairs),
            config=config,
            events=events,
        )

    def resolve_events(self, store, emergencies, entities) -> list[ScenarioEvent]:
        events: list[ScenarioEvent] = []
        for when, kind, args in self.p.raw_events:
            if kind == "raise":
                ok = self.known(args[0], emergencies, "emergency")
            elif kind == "fail":
                ok = self.known(args[0], entities, "entity")
            elif kind == "force":
                ok = self.known(args[0], emergencies, "emergency")
                if ok and emergencies[args[0].value].task_set(args[1].value) is None:
                    self.error(args[1], f"{args[0].value} has no task set {args[1].value}")
                    ok = False
            else:
                subject_ok = self.known(args[0], store.subjects, "subject")
                object_ok = self.known(args[1], store.objects, "object")
                ok = subject_ok and object_ok
            if ok:
                events.append(ScenarioEvent(when, kind, tuple(tok.value for tok in args)))
        return events


def _resolve_config(given: dict[str, Fraction | str | None]) -> EngineConfig:
    """The engine configuration, with a default for each key not given well."""
    values = EngineConfig().by_key()
    values.update((key, value) for key, value in given.items() if value is not None)
    planner = PlannerConfig(
        alpha=values["alpha"],
        beta=values["beta"],
        k_cap=int(values["k"]),
        seed=int(values["seed"]),
    )
    return EngineConfig(
        tp=values["tp"],
        planner=planner,
        fallback_strategy=values["fallback"],
        horizon=values["horizon"],
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_scenario(text: str, filename: str = "<string>") -> tuple[Scenario, list[Diagnostic]]:
    """Parse and resolve; the scenario is meaningful only if no diagnostics."""
    parser = Parser(text, filename)
    parser.parse()
    scenario = _Resolver(parser).resolve()
    diags = sorted(parser.diags, key=lambda d: (d.line, d.col))
    return scenario, diags


def load_scenario(path: str) -> tuple[Scenario, list[Diagnostic]]:
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle.read(), path)


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def print_scenario(sc: Scenario) -> str:
    """Canonical text form; parsing it reproduces the scenario."""
    out: list[str] = [f"scenario {sc.name}", ""]
    for key, value in sc.config.by_key().items():
        text = value if isinstance(value, str) else format_number(value)
        out.append(f"config {key} = {text}")
    out.append("")

    store = sc.store
    for entity in sorted(sc.entities - {ENV_ENTITY}):
        out.append(f"entity {entity}")
    for role in sorted(r for r, kind in store.roles.items() if kind is RoleKind.NORMAL):
        out.append(f"role {role}")
    for name in sorted(store.constraints):
        out.append(f"constraint {name} = {constraint_to_text(store.constraints[name])}")
    out.append("")

    for sid in sorted(store.subjects):
        subject = store.subjects[sid]
        parts = []
        roles = sorted(
            r for r in store.srt.get(sid, set()) if store.roles.get(r) is RoleKind.NORMAL
        )
        active = sorted(
            r for r in store.asrt.get(sid, set()) if store.roles.get(r) is RoleKind.NORMAL
        )
        parts.append(f"roles = [{', '.join(roles)}]")
        parts.append(f"active = [{', '.join(active)}]")
        for key in sorted(subject.properties):
            parts.append(f"{key} = {literal_text(subject.properties[key])}")
        out.append(f"subject {sid} {{ {', '.join(parts)} }}")
    out.append("")

    for oid in sorted(store.objects):
        rows = []
        for entry in sorted(
            (e for e in store.objects[oid].acl if store.roles.get(e.role) is RoleKind.NORMAL),
            key=lambda e: (e.role, e.op.value),
        ):
            row = f"acl {entry.role} {entry.op.value}"
            if entry.td is not None:
                row += f" td {format_number(entry.td)}"
            rows.append(row)
        body = " ".join(rows)
        out.append(f"object {oid} {{ {body} }}" if rows else f"object {oid} {{ }}")
    out.append("")

    for eid in sorted(sc.emergencies):
        em = sc.emergencies[eid]
        out.append(f"emergency {eid} {{")
        out.append(f"  entity {em.entity}")
        out.append(f"  prio {em.prio}")
        out.append(f"  ed {format_number(em.ed)}")
        out.append(f"  ft {literal_text(em.ft_feasible)}")
        for ts in em.task_sets:
            actions = ", ".join(f"{oid} {op.value}" for oid, op in ts.actions)
            line = (
                f"  ts {ts.tsid} {{ actions = [{actions}], "
                f"time = {format_number(ts.time)}, prob = {format_number(ts.prob)}"
            )
            if ts.resources:
                line += f", resources = [{', '.join(sorted(ts.resources))}]"
            out.append(line + " }")
        out.append("}")
    out.append("")

    for erole in sorted(store.rmt):
        mapping = store.rmt[erole]
        line = f"map {erole} -> [{', '.join(mapping.roles)}]"
        if mapping.constraint is not None:
            line += f" where {constraint_to_text(mapping.constraint)}"
        out.append(line)
    for erole in sorted(store.rct):
        out.append(f"fallbackmap {erole} where {constraint_to_text(store.rct[erole])}")
    for entity, eid in sorted(store.edt):
        out.append(f"depends env {entity} on {eid}")
    for before, after in sorted(store.tdt):
        out.append(f"depends time {before} -> {after}")
    for (source, target) in sorted(sc.infl.pairs):
        pair = sc.infl.pairs[(source, target)]
        out.append(
            f"influence {source} -> {target} {{ "
            f"sigma_p = {format_number(pair.sigma_p)}, "
            f"sigma_t = {format_number(pair.sigma_t)}, "
            f"sigma_ed = {format_number(pair.sigma_ed)} }}"
        )
    for entity in sorted(store.efgt):
        out.append(f"fgroup {entity} = {store.efgt[entity]}")
    out.append("")

    for event in sorted(sc.events, key=lambda e: e.time):
        out.append(f"at {format_number(event.time)} {event.kind} {' '.join(event.args)}")
    out.append("")
    return "\n".join(out)
