"""Scenario language: lexer, recursive-descent parser, resolver, printer.

A scenario file declares the static policy world (entities, roles,
subjects, objects, constraints), the emergency catalog with task sets,
the relation tables (role mappings, dependencies, influences, failure
groups), engine configuration, and a timed event script. `parse_scenario`
returns the compiled scenario plus a list of positioned diagnostics; the
scenario is only usable when the list is empty. `print_scenario` renders
a canonical form that reparses to the same scenario.

The lexer makes one `finditer` pass with one match per token. Each match
first skips the blanks and comments before its token, then matches the
token, a newline, the end of the text, or (its last alternative) any
unexpected character; some alternative always matches after the skip, so
the skip is never backtracked into. A token's column is its group's start
less the offset where its line starts.

Parse errors resynchronize at the next top-level keyword that is the first
token on its line, so one broken declaration yields one diagnostic, not a
cascade.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
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

TOPLEVEL = {
    "scenario",
    "config",
    "entity",
    "role",
    "constraint",
    "subject",
    "object",
    "emergency",
    "map",
    "fallbackmap",
    "depends",
    "influence",
    "fgroup",
    "at",
}

CMP_TOKENS = frozenset(CMP_OPS)
OP_NAMES = {op.value: op for op in Op}
OUTCOMES = {"success", "failure"}
STRATEGIES = {PROBABILITY_FIRST, TIME_FIRST}
CONFIG_KEYS = ("tp", "alpha", "beta", "k", "seed", "fallback", "horizon")


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
    horizon: Fraction
    events: list[ScenarioEvent]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # name | number | string | punct | eof
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r]+|\#[^\n]*)*
    (?:
      (?P<nl>\n)
    | (?P<string>"[^"\n]*")
    | (?P<number>-?(?:\d+(?:\.\d+)?|\.\d+))
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>->|<=|>=|!=|[{}\[\](),=<>@])
    | (?P<end>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


def tokenize(text: str, filename: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    append = tokens.append
    # The tuple itself, without the named tuple's Python-level constructor.
    new_token = tuple.__new__
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "nl":
            line += 1
            line_start = match.end()
        elif kind == "bad":
            col = match.start(kind) - line_start + 1
            diags.append(Diagnostic(filename, line, col, f"unexpected character {match[kind]!r}"))
        elif kind != "end":
            append(new_token(Token, (kind, match[kind], line, match.start(kind) - line_start + 1)))
    append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens, diags


def _describe(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    return f"{tok.value!r}"


# ---------------------------------------------------------------------------
# Raw declaration holders (positions kept for resolution diagnostics)
# ---------------------------------------------------------------------------


@dataclass
class _RawTaskSet:
    tsid: Token
    actions: list[tuple[Token, Op]]
    time: tuple[Token, Fraction]
    prob: tuple[Token, Fraction]
    resources: list[Token]


@dataclass
class _RawEmergency:
    eid: Token
    entity: Token
    prio: tuple[Token, Fraction]
    ed: tuple[Token, Fraction]
    ft: bool
    task_sets: list[_RawTaskSet]


@dataclass
class _ExprInfo:
    """Names an expression uses, kept with positions for late checking."""

    refs: list[Token] = field(default_factory=list)
    count_roles: list[Token] = field(default_factory=list)


class _Abort(Exception):
    pass


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.tokens, self.diags = tokenize(text, filename)
        self.pos = 0
        # Number text -> value, for the texts converted so far.
        self.numbers: dict[str, Fraction] = {}

        self.scenario_name: Token | None = None
        # (key, value, the value's number when it is one)
        self.configs: list[tuple[Token, Token, Fraction | None]] = []
        self.entities: list[Token] = []
        self.role_decls: list[Token] = []
        self.constraint_decls: list[tuple[Token, ConstraintExpr, _ExprInfo]] = []
        self.subject_decls: list[tuple[Token, list[tuple[Token, object]]]] = []
        self.object_decls: list[tuple[Token, list[tuple[Token, Op, Fraction | None]]]] = []
        self.emergency_decls: list[_RawEmergency] = []
        self.map_decls: list[tuple[Token, list[Token], ConstraintExpr | None, _ExprInfo]] = []
        self.fallback_decls: list[tuple[Token, ConstraintExpr, _ExprInfo]] = []
        self.depends_env: list[tuple[Token, Token]] = []
        self.depends_time: list[tuple[Token, Token]] = []
        self.influences: list[tuple[Token, Token, dict[str, tuple[Token, Fraction]]]] = []
        self.fgroups: list[tuple[Token, Token]] = []
        self.raw_events: list[tuple[Token, Fraction, str, list[Token]]] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, tok: Token, message: str) -> None:
        self.diags.append(Diagnostic(self.filename, tok.line, tok.col, message))

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
                and tok.value in TOPLEVEL
                and (self.pos == 0 or tokens[self.pos - 1].line != tok.line)
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

    # -- top level ---------------------------------------------------------

    def parse(self) -> None:
        handlers = {
            "scenario": self.parse_scenario_line,
            "config": self.parse_config,
            "entity": self.parse_entity,
            "role": self.parse_role,
            "constraint": self.parse_constraint,
            "subject": self.parse_subject,
            "object": self.parse_object,
            "emergency": self.parse_emergency,
            "map": self.parse_map,
            "fallbackmap": self.parse_fallbackmap,
            "depends": self.parse_depends,
            "influence": self.parse_influence,
            "fgroup": self.parse_fgroup,
            "at": self.parse_event,
        }
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind != "name" or tok.value not in handlers:
                self.error(tok, f"expected a declaration keyword, found {_describe(tok)}")
                self.advance()
                self.resync()
                continue
            try:
                handlers[tok.value]()
            except _Abort:
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
        value = self.peek()
        number = None
        if value.kind == "number":
            _, number = self.expect_number("a config value")
        elif value.kind == "name":
            self.advance()
        else:
            self.abort(value, f"expected a config value, found {_describe(value)}")
        self.configs.append((key, value, number))

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
        info = _ExprInfo()
        expr = self.parse_expr(info)
        self.constraint_decls.append((name, expr, info))

    def parse_subject(self) -> None:
        self.advance()
        sid = self.expect_name("a subject name")
        self.subject_decls.append((sid, self.parse_list(self.parse_property, "{}")))

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

    def parse_emergency(self) -> None:
        self.advance()
        eid = self.expect_name("an emergency id")
        self.expect("{")
        # Required fields in the order a missing one is reported.
        readers = {
            "entity": lambda: self.expect_name("an entity name"),
            "prio": lambda: self.expect_number("a priority"),
            "ed": lambda: self.expect_number("a deadline"),
            "ft": self.parse_flag,
        }
        fields: dict[str, object] = {}
        task_sets: list[_RawTaskSet] = []
        while not self.match("}"):
            word = self.expect_name("an emergency field")
            if word.value == "ts":
                task_sets.append(self.parse_task_set())
                continue
            read = readers.get(word.value)
            if read is None:
                self.abort(word, f"unknown emergency field '{word.value}'")
            if word.value in fields:
                self.error(word, f"field '{word.value}' given twice")
            fields[word.value] = read()
        missing = [name for name in readers if name not in fields]
        if missing:
            self.abort(eid, f"emergency {eid.value} is missing field '{missing[0]}'")
        self.emergency_decls.append(_RawEmergency(eid, task_sets=task_sets, **fields))

    def parse_flag(self) -> bool:
        flag = self.expect_name("'true' or 'false'")
        if flag.value not in ("true", "false"):
            self.abort(flag, f"expected 'true' or 'false', found {_describe(flag)}")
        return flag.value == "true"

    def parse_task_set(self) -> _RawTaskSet:
        tsid = self.expect_name("a task-set id")
        self.expect("{")
        readers = {
            "actions": lambda: self.parse_list(
                lambda: (self.expect_name("an object name"), self.expect_op())
            ),
            "time": lambda: self.expect_number("a duration"),
            "prob": lambda: self.expect_number("a probability"),
            "resources": lambda: self.parse_list(lambda: self.expect_name("a resource name")),
        }
        fields: dict[str, object] = {}
        while not self.match("}"):
            key = self.expect_name("a task-set field")
            self.expect("=")
            read = readers.get(key.value)
            if read is None:
                self.abort(key, f"unknown task-set field '{key.value}'")
            if key.value in fields:
                self.error(key, f"field '{key.value}' given twice")
            # The repeat's value is still read, then dropped: the first one stays.
            fields.setdefault(key.value, read())
            self.match(",")
        missing = [name for name in ("actions", "time", "prob") if name not in fields]
        if missing:
            self.abort(tsid, f"task set {tsid.value} is missing field '{missing[0]}'")
        fields.setdefault("resources", [])
        return _RawTaskSet(tsid, **fields)

    def parse_map(self) -> None:
        self.advance()
        erole = self.expect_name("an emergency id")
        self.expect("->")
        roles = self.parse_list(lambda: self.expect_name("a role name"))
        constraint = None
        info = _ExprInfo()
        if self.match("where"):
            constraint = self.parse_expr(info)
        self.map_decls.append((erole, roles, constraint, info))

    def parse_fallbackmap(self) -> None:
        self.advance()
        erole = self.expect_name("an emergency id")
        self.expect("where")
        info = _ExprInfo()
        expr = self.parse_expr(info)
        self.fallback_decls.append((erole, expr, info))

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

    def parse_influence(self) -> None:
        self.advance()
        source = self.expect_name("an emergency id")
        self.expect("->")
        target = self.expect_name("an emergency id")
        self.expect("{")
        sigmas: dict[str, tuple[Token, Fraction]] = {}
        while not self.match("}"):
            key = self.expect_name("a sigma name")
            if key.value not in ("sigma_p", "sigma_t", "sigma_ed"):
                self.abort(key, f"unknown influence field '{key.value}'")
            if key.value in sigmas:
                self.error(key, f"field '{key.value}' given twice")
            self.expect("=")
            _, value = self.expect_number("a sigma value")
            sigmas[key.value] = (key, value)
            self.match(",")
        self.influences.append((source, target, sigmas))

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
        if kind.value == "raise":
            args = [self.expect_name("an emergency id")]
        elif kind.value == "fail":
            args = [self.expect_name("an entity name")]
        elif kind.value == "force":
            args = [
                self.expect_name("an emergency id"),
                self.expect_name("a task-set id"),
                self.expect_name("'success' or 'failure'"),
            ]
            if args[2].value not in OUTCOMES:
                self.error(args[2], f"unknown outcome '{args[2].value}'")
        elif kind.value == "request":
            args = [
                self.expect_name("a subject name"),
                self.expect_name("an object name"),
                self.expect_name("an operation"),
            ]
            if args[2].value not in OP_NAMES:
                self.error(args[2], f"unknown operation '{args[2].value}'")
        else:
            self.abort(kind, f"unknown event kind '{kind.value}'")
        self.raw_events.append((at, when, kind.value, args))

    # -- constraint expressions ---------------------------------------------

    # Nesting is bounded twice over. `depth` counts the parentheses and
    # `not`s around the current position, so no input can exhaust the
    # parser's stack; and a parsed expression is at most MAX_DEPTH levels
    # deep, so evaluating it alone never reaches the evaluator's cut-off.

    def parse_expr(self, info: _ExprInfo) -> ConstraintExpr:
        start = self.peek()
        expr = self.parse_or(info, 0)
        if nesting_depth(expr) > MAX_DEPTH:
            self.abort(start, f"constraint nested deeper than {MAX_DEPTH} levels")
        return expr

    def parse_or(self, info: _ExprInfo, depth: int) -> ConstraintExpr:
        items = [self.parse_and(info, depth)]
        while self.match("or"):
            items.append(self.parse_and(info, depth))
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self, info: _ExprInfo, depth: int) -> ConstraintExpr:
        items = [self.parse_not(info, depth)]
        while self.match("and"):
            items.append(self.parse_not(info, depth))
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_not(self, info: _ExprInfo, depth: int) -> ConstraintExpr:
        tok = self.peek()
        if self.match("not"):
            return Not(self.parse_not(info, self.nested(tok, depth)))
        return self.parse_atom(info, depth)

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

    def parse_atom(self, info: _ExprInfo, depth: int) -> ConstraintExpr:
        tok = self.peek()
        if self.match("("):
            inner = self.parse_or(info, self.nested(tok, depth))
            self.expect(")")
            return inner
        if self.match("@"):
            name = self.expect_name("a constraint name")
            info.refs.append(name)
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
            info.count_roles.append(role)
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
        self.filename = parser.filename

    def error(self, tok: Token, message: str) -> None:
        self.p.diags.append(Diagnostic(self.filename, tok.line, tok.col, message))

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

        for name, expr, _ in p.constraint_decls:
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

        for sid, pairs in p.subject_decls:
            if not self.fresh(sid, store.subjects, "subject"):
                continue
            values: dict = {}
            active_toks: list[Token] = []
            for key, value in pairs:
                if key.value in values:
                    self.error(key, f"property {key.value} given twice")
                    continue
                if key.value == "active":
                    active_toks = value
                if key.value in ("roles", "active"):
                    value = [tok.value for tok in value if self.known(tok, normal, "role")]
                values[key.value] = value
            roles = values.pop("roles", [])
            active = values.pop("active", roles)
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
            prio_tok, prio_val = raw.prio
            if prio_val.denominator != 1 or prio_val < 1:
                self.error(prio_tok, "prio must be a positive integer")
                prio_val = Fraction(max(1, int(prio_val)))
            ed_tok, ed_val = raw.ed
            if ed_val <= 0:
                self.error(ed_tok, "ed must be positive")
            task_sets: dict[str, TaskSet] = {}
            for ts in raw.task_sets:
                if not self.fresh(ts.tsid, task_sets, "task set"):
                    continue
                for oid, _ in ts.actions:
                    self.known(oid, store.objects, "object")
                if not ts.actions:
                    self.error(ts.tsid, f"task set {ts.tsid.value} has no actions")
                time_tok, time_val = ts.time
                if time_val <= 0:
                    self.error(time_tok, "time must be positive")
                prob_tok, prob_val = ts.prob
                if not (ZERO < prob_val <= ONE):
                    self.error(prob_tok, "prob must be in (0, 1]")
                task_sets[ts.tsid.value] = TaskSet(
                    tsid=ts.tsid.value,
                    actions=tuple((oid.value, op) for oid, op in ts.actions),
                    time=time_val,
                    prob=prob_val,
                    resources=frozenset(tok.value for tok in ts.resources),
                )
            if not task_sets:
                self.error(raw.eid, f"emergency {eid} declares no task sets")
            emergencies[eid] = Emergency(
                eid=eid,
                entity=raw.entity.value,
                prio=int(prio_val),
                ed=ed_val,
                ft_feasible=raw.ft,
                task_sets=tuple(task_sets[tsid] for tsid in sorted(task_sets)),
            )
            store.roles[eid] = RoleKind.EMERGENCY

        infos = [info for _, _, info in p.constraint_decls]
        infos += [info for _, _, _, info in p.map_decls]
        infos += [info for _, _, info in p.fallback_decls]
        for info in infos:
            for tok in info.refs:
                self.known(tok, store.constraints, "constraint")
            for tok in info.count_roles:
                self.known(tok, normal, "role")

        for erole, roles, constraint, _ in p.map_decls:
            if self.known(erole, emergencies, "emergency") and self.fresh(
                erole, store.rmt, "mapping for"
            ):
                names = [tok.value for tok in roles if self.known(tok, normal, "role")]
                store.rmt[erole.value] = RoleMapping(tuple(names), constraint)

        for erole, expr, _ in p.fallback_decls:
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
            if not (
                self.known(before, emergencies, "emergency")
                and self.known(after, emergencies, "emergency")
            ):
                continue
            a, b = emergencies[before.value], emergencies[after.value]
            if a.entity != b.entity:
                self.error(before, "time dependency spans entities")
                continue
            if a.prio >= b.prio:
                self.error(before, "first emergency must have strictly higher priority")
                continue
            if (a.eid, b.eid) in store.tdt:
                self.error(before, f"dependency {a.eid} -> {b.eid} declared twice")
                continue
            store.tdt.add((a.eid, b.eid))

        pairs: dict[tuple[str, str], InfluencePair] = {}
        for source, target, sigmas in p.influences:
            if not (
                self.known(source, emergencies, "emergency")
                and self.known(target, emergencies, "emergency")
            ):
                continue
            a, b = emergencies[source.value], emergencies[target.value]
            if a.eid == b.eid:
                self.error(source, "an emergency cannot influence itself")
                continue
            if a.entity != b.entity:
                self.error(source, "influence pair spans entities")
                continue
            if (a.eid, b.eid) in pairs:
                self.error(source, f"influence {a.eid} -> {b.eid} declared twice")
                continue
            values = {}
            for key in ("sigma_p", "sigma_t", "sigma_ed"):
                tok_value = sigmas.get(key)
                if tok_value is None:
                    values[key] = ZERO
                    continue
                tok, sigma = tok_value
                if not (ZERO <= sigma < ONE):
                    self.error(tok, f"{key} must be in [0, 1)")
                    sigma = ZERO
                values[key] = sigma
            pairs[(a.eid, b.eid)] = InfluencePair(
                values["sigma_p"], values["sigma_t"], values["sigma_ed"]
            )

        for entity, group in p.fgroups:
            if self.known(entity, entities, "entity") and self.fresh(
                entity, store.efgt, "failure group for"
            ):
                store.efgt[entity.value] = group.value

        name = "unnamed" if p.scenario_name is None else p.scenario_name.value
        if p.scenario_name is None and p.tokens:
            self.error(p.tokens[0], "missing scenario declaration")

        config, horizon = self.resolve_config()
        events = self.resolve_events(store, emergencies, entities)

        return Scenario(
            name=name,
            entities=entities,
            store=store,
            emergencies=emergencies,
            infl=InfluenceSpec(pairs),
            config=config,
            horizon=horizon,
            events=events,
        )

    def resolve_config(self) -> tuple[EngineConfig, Fraction]:
        values: dict[str, Fraction | str] = {}
        seen: set[str] = set()
        for key, value, number in self.p.configs:
            if key.value not in CONFIG_KEYS:
                self.error(key, f"unknown config key '{key.value}'")
                continue
            if key.value in seen:
                self.error(key, f"config key '{key.value}' given twice")
                continue
            seen.add(key.value)
            if key.value == "fallback":
                if value.kind != "name" or value.value not in STRATEGIES:
                    self.error(value, "fallback must be probability_first or time_first")
                    continue
                values[key.value] = value.value
                continue
            if number is None:
                self.error(value, f"config key '{key.value}' needs a number")
                continue
            if key.value in ("k", "seed") and number.denominator != 1:
                self.error(value, f"config key '{key.value}' must be an integer")
                continue
            if key.value in ("tp", "horizon", "k") and number <= 0:
                self.error(value, f"config key '{key.value}' must be positive")
                continue
            if key.value in ("alpha", "beta") and number < 0:
                self.error(value, f"config key '{key.value}' must not be negative")
                continue
            values[key.value] = number

        tp = values.get("tp", Fraction(1, 2))
        alpha = values.get("alpha", ONE)
        beta = values.get("beta", ONE)
        k = int(values.get("k", 64))
        seed = int(values.get("seed", 0))
        fallback = values.get("fallback", PROBABILITY_FIRST)
        horizon = values.get("horizon", Fraction(20))
        planner = PlannerConfig(alpha=alpha, beta=beta, k_cap=k, seed=seed)
        return EngineConfig(tp=tp, planner=planner, fallback_strategy=fallback), horizon

    def resolve_events(self, store, emergencies, entities) -> list[ScenarioEvent]:
        events: list[ScenarioEvent] = []
        for index, (_, when, kind, args) in enumerate(self.p.raw_events):
            if kind == "raise":
                ok = self.known(args[0], emergencies, "emergency")
            elif kind == "fail":
                ok = self.known(args[0], entities, "entity")
            elif kind == "force":
                ok = self.known(args[0], emergencies, "emergency")
                if ok and emergencies[args[0].value].task_set(args[1].value) is None:
                    self.error(args[1], f"{args[0].value} has no task set {args[1].value}")
                    ok = False
                ok = ok and args[2].value in OUTCOMES
            else:
                subject_ok = self.known(args[0], store.subjects, "subject")
                object_ok = self.known(args[1], store.objects, "object")
                ok = subject_ok and object_ok and args[2].value in OP_NAMES
            if ok:
                events.append(
                    ScenarioEvent(when, index, kind, tuple(tok.value for tok in args))
                )
        return events


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
    cfg = sc.config
    out.append(f"config tp = {format_number(cfg.tp)}")
    out.append(f"config alpha = {format_number(cfg.planner.alpha)}")
    out.append(f"config beta = {format_number(cfg.planner.beta)}")
    out.append(f"config k = {cfg.planner.k_cap}")
    out.append(f"config seed = {cfg.planner.seed}")
    out.append(f"config fallback = {cfg.fallback_strategy}")
    out.append(f"config horizon = {format_number(sc.horizon)}")
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

    for event in sorted(sc.events, key=lambda e: (e.time, e.index)):
        out.append(f"at {format_number(event.time)} {event.kind} {' '.join(event.args)}")
    out.append("")
    return "\n".join(out)
