"""Constraint expressions used by role mappings and fallback selection.

Closed grammar: comparisons over subject properties, a squared-distance
test against a fixed point, a concurrent-assignee count test, boolean
combinators, literals, and references to named constraints. Evaluation is
total: a missing property, a type mismatch, or an unresolved reference
makes the enclosing comparison false rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exact import format_number

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Lit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    """PROPERTY op LITERAL, e.g. `experience >= 3` or `ward = "icu"`."""

    prop: str
    op: str
    value: "bool | str | Fraction"


@dataclass(frozen=True)
class DistCmp:
    """dist(PROPERTY, (x, y)) op r, compared as squared distance vs r^2."""

    prop: str
    point: tuple[Fraction, Fraction]
    op: str
    radius: Fraction


@dataclass(frozen=True)
class CountCmp:
    """count(ROLE) op n over subjects currently holding ROLE active."""

    role: str
    op: str
    limit: int


@dataclass(frozen=True)
class Not:
    item: "ConstraintExpr"


@dataclass(frozen=True)
class And:
    items: tuple["ConstraintExpr", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["ConstraintExpr", ...]


@dataclass(frozen=True)
class Ref:
    """Reference to a named constraint declared elsewhere in the scenario."""

    name: str


ConstraintExpr = Union[Lit, Cmp, DistCmp, CountCmp, Not, And, Or, Ref]


def _compare(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def evaluate(expr: ConstraintExpr, subject, store, _seen: frozenset[str] = frozenset()) -> bool:
    """Evaluate `expr` for `subject` against `store`. Never raises."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Cmp):
        value = subject.properties.get(expr.prop)
        if value is None:
            return False
        lit = expr.value
        # bool is checked before numbers: Fraction(1) == True in Python.
        if isinstance(value, bool) or isinstance(lit, bool):
            if expr.op not in ("=", "!="):
                return False
            if not (isinstance(value, bool) and isinstance(lit, bool)):
                return False
            return _compare(expr.op, value, lit)
        if isinstance(value, str) or isinstance(lit, str):
            if expr.op not in ("=", "!="):
                return False
            if not (isinstance(value, str) and isinstance(lit, str)):
                return False
            return _compare(expr.op, value, lit)
        if isinstance(value, tuple):
            return False
        return _compare(expr.op, value, lit)
    if isinstance(expr, DistCmp):
        value = subject.properties.get(expr.prop)
        if not isinstance(value, tuple):
            return False
        dx = value[0] - expr.point[0]
        dy = value[1] - expr.point[1]
        return _compare(expr.op, dx * dx + dy * dy, expr.radius * expr.radius)
    if isinstance(expr, CountCmp):
        holders = sum(1 for roles in store.asrt.values() if expr.role in roles)
        return _compare(expr.op, holders, expr.limit)
    if isinstance(expr, Not):
        return not evaluate(expr.item, subject, store, _seen)
    if isinstance(expr, And):
        return all(evaluate(item, subject, store, _seen) for item in expr.items)
    if isinstance(expr, Or):
        return any(evaluate(item, subject, store, _seen) for item in expr.items)
    if isinstance(expr, Ref):
        if expr.name in _seen:
            return False
        target = store.constraints.get(expr.name)
        if target is None:
            return False
        return evaluate(target, subject, store, _seen | {expr.name})
    return False


def constraint_to_text(expr: ConstraintExpr) -> str:
    """Canonical source form; reparsing it yields an equal expression."""
    return _to_text(expr, 0)


# Precedence levels: or=1, and=2, not=3, atoms=4.
def _to_text(expr: ConstraintExpr, parent_level: int) -> str:
    if isinstance(expr, Lit):
        return "true" if expr.value else "false"
    if isinstance(expr, Cmp):
        return f"{expr.prop} {expr.op} {_literal_text(expr.value)}"
    if isinstance(expr, DistCmp):
        px, py = format_number(expr.point[0]), format_number(expr.point[1])
        return f"dist({expr.prop}, ({px}, {py})) {expr.op} {format_number(expr.radius)}"
    if isinstance(expr, CountCmp):
        return f"count({expr.role}) {expr.op} {expr.limit}"
    if isinstance(expr, Ref):
        return f"@{expr.name}"
    if isinstance(expr, Not):
        return f"not {_to_text(expr.item, 3)}"
    if isinstance(expr, And):
        body = " and ".join(_to_text(item, 2) for item in expr.items)
        return f"({body})" if parent_level > 2 else body
    body = " or ".join(_to_text(item, 1) for item in expr.items)
    return f"({body})" if parent_level > 1 else body


def _literal_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_number(value)
    return f'"{value}"'
