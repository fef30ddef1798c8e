"""Constraint expressions used by role mappings and fallback selection.

Closed grammar: comparisons over subject properties, a squared-distance
test against a fixed point, a concurrent-assignee count test, boolean
combinators, literals, and references to named constraints. Evaluation is
total: a missing property, a type mismatch, or an unresolved reference
makes the enclosing comparison false rather than raising, and so does an
operator outside `CMP_OPS` in an atom built in code.

`evaluate` walks the combinators and references and hands each atom to an
`atom` function, by default `atom_holds`. The engine's staffing index
passes its own, which caches the atoms that read only subject properties
and answers `count(...)` from per-role holder counts.

Nesting is bounded by MAX_DEPTH. The scenario parser rejects a constraint
deeper than that (see `nesting_depth`), or with more than MAX_DEPTH
parentheses and `not`s around any part of it. Evaluation treats a
subexpression more than MAX_DEPTH levels down, references included, as
false, like a reference cycle; so only references can take a constraint
the parser accepts that deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq, ge, gt, le, lt, ne
from typing import Union

from .exact import format_number

_COMPARE = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
CMP_OPS = tuple(_COMPARE)
MAX_DEPTH = 100


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
    compare = _COMPARE.get(op)
    return compare is not None and compare(left, right)


def atom_holds(expr: ConstraintExpr, subject, store) -> bool:
    """Truth of one atom (`Lit`, `Cmp`, `DistCmp`, `CountCmp`) for `subject`.

    Every atom but `count(...)` reads only the atom and the subject's
    properties. Anything that is not an atom is false.
    """
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
        return count_holds(expr, sum(1 for roles in store.asrt.values() if expr.role in roles))
    return False


def count_holds(expr: CountCmp, holders: int) -> bool:
    """Truth of `expr` when `holders` subjects hold its role active."""
    return _compare(expr.op, holders, expr.limit)


def evaluate(
    expr: ConstraintExpr,
    subject,
    store,
    atom=atom_holds,
    _seen: frozenset[str] = frozenset(),
    _depth: int = 0,
) -> bool:
    """Evaluate `expr` for `subject` against `store`. Never raises.

    `atom(expr, subject, store)` answers each atom; the default computes it
    from the subject and the store. Whatever answers the atoms, the
    combinators, references, cycles and the depth bound are handled here.
    """
    if _depth > MAX_DEPTH:
        return False
    if isinstance(expr, Not):
        return not evaluate(expr.item, subject, store, atom, _seen, _depth + 1)
    if isinstance(expr, And):
        return all(evaluate(item, subject, store, atom, _seen, _depth + 1) for item in expr.items)
    if isinstance(expr, Or):
        return any(evaluate(item, subject, store, atom, _seen, _depth + 1) for item in expr.items)
    if isinstance(expr, Ref):
        if expr.name in _seen:
            return False
        target = store.constraints.get(expr.name)
        if target is None:
            return False
        return evaluate(target, subject, store, atom, _seen | {expr.name}, _depth + 1)
    return atom(expr, subject, store)


def nesting_depth(expr: ConstraintExpr) -> int:
    """Levels of `not`, `and` and `or` above the deepest atom of `expr`."""
    if isinstance(expr, Not):
        return 1 + nesting_depth(expr.item)
    if isinstance(expr, (And, Or)):
        return 1 + max(nesting_depth(item) for item in expr.items)
    return 0


def constraint_to_text(expr: ConstraintExpr) -> str:
    """Canonical source form; reparsing it yields an equal expression."""
    return _to_text(expr, 0)


# Precedence levels: or=1, and=2, not=3, atoms=4.
def _to_text(expr: ConstraintExpr, parent_level: int) -> str:
    if isinstance(expr, Lit):
        return literal_text(expr.value)
    if isinstance(expr, Cmp):
        return f"{expr.prop} {expr.op} {literal_text(expr.value)}"
    if isinstance(expr, DistCmp):
        point = literal_text(expr.point)
        return f"dist({expr.prop}, {point}) {expr.op} {format_number(expr.radius)}"
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


def literal_text(value) -> str:
    """Source form of a subject property value or a comparison literal."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return f"({format_number(value[0])}, {format_number(value[1])})"
    if isinstance(value, Fraction):
        return format_number(value)
    return f'"{value}"'
