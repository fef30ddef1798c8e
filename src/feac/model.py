"""Core access-control model: subjects, objects, roles, task sets, policy tables.

The policy store bundles the eight tables the rest of the package works
against:

    SRT   subject -> roles it may assume
    ASRT  subject -> roles currently active (always a subset of SRT)
    ORT   subject -> roles saved away while an emergency-role is held
    TDT   ordered pairs of emergency ids: first must be handled before second
    EDT   entity -> environment emergency ids that gate it
    RMT   emergency-role -> ordered normal-role hierarchy + constraint
    RCT   emergency-role -> fallback constraint over all subjects
    EFGT  entity -> function group (substitution pool)

Emergencies and their task sets are carried separately from the store: the
store is durable policy, emergencies are workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .constraints import ConstraintExpr, constraint_to_text, literal_text
from .exact import format_number

ENV_ENTITY = "env"


class Op(Enum):
    """Operation vocabulary for permissions and task-set actions."""

    USE = "use"
    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"

    def covers(self, requested: "Op") -> bool:
        """True if holding this op satisfies a request for `requested`.

        read_write covers read and write; every op covers itself.
        """
        if self is requested:
            return True
        return self is Op.READ_WRITE and requested in (Op.READ, Op.WRITE)


class RoleKind(Enum):
    NORMAL = "normal"
    EMERGENCY = "emergency"


# Property values on subjects: scalars or a 2-D coordinate.
PropertyValue = bool | str | Fraction | tuple[Fraction, Fraction]


@dataclass(frozen=True)
class AclEntry:
    """One row of an object's access-control list.

    `td` is the expiry instant in minutes; None means the entry does not
    expire. Entries written by the engine during emergencies always carry
    a finite td.
    """

    role: str
    op: Op
    td: Fraction | None = None


@dataclass
class Subject:
    sid: str
    properties: dict[str, PropertyValue] = field(default_factory=dict)


@dataclass
class SystemObject:
    oid: str
    acl: list[AclEntry] = field(default_factory=list)


@dataclass(frozen=True)
class TaskSet:
    """A candidate response: actions to perform, expected time, success prob.

    `resources` are identifiers the engine locks exclusively while the task
    set runs; two groups needing the same resource serialize on it.
    """

    tsid: str
    actions: tuple[tuple[str, Op], ...]
    time: Fraction
    prob: Fraction
    resources: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Emergency:
    """An emergency to be handled on `entity` within `ed` minutes.

    Lower `prio` numbers mean higher priority. `ft_feasible` marks whether
    entity substitution is an acceptable response when planning fails.
    """

    eid: str
    entity: str
    prio: int
    ed: Fraction
    ft_feasible: bool
    task_sets: tuple[TaskSet, ...]

    def task_set(self, tsid: str) -> TaskSet | None:
        for ts in self.task_sets:
            if ts.tsid == tsid:
                return ts
        return None


@dataclass(frozen=True)
class RoleMapping:
    """RMT row: ordered normal-role hierarchy plus an eligibility constraint."""

    roles: tuple[str, ...]
    constraint: ConstraintExpr | None = None


@dataclass
class PolicyStore:
    subjects: dict[str, Subject] = field(default_factory=dict)
    objects: dict[str, SystemObject] = field(default_factory=dict)
    roles: dict[str, RoleKind] = field(default_factory=dict)
    srt: dict[str, set[str]] = field(default_factory=dict)
    asrt: dict[str, set[str]] = field(default_factory=dict)
    ort: dict[str, tuple[str, ...]] = field(default_factory=dict)
    tdt: set[tuple[str, str]] = field(default_factory=set)
    edt: set[tuple[str, str]] = field(default_factory=set)
    rmt: dict[str, RoleMapping] = field(default_factory=dict)
    rct: dict[str, ConstraintExpr] = field(default_factory=dict)
    efgt: dict[str, str] = field(default_factory=dict)
    constraints: dict[str, ConstraintExpr] = field(default_factory=dict)

    def clone(self) -> "PolicyStore":
        """Deep copy; ACL lists and role sets are rebuilt, shared nothing."""
        return PolicyStore(
            subjects={s.sid: Subject(s.sid, dict(s.properties)) for s in self.subjects.values()},
            objects={o.oid: SystemObject(o.oid, list(o.acl)) for o in self.objects.values()},
            roles=dict(self.roles),
            srt={k: set(v) for k, v in self.srt.items()},
            asrt={k: set(v) for k, v in self.asrt.items()},
            ort=dict(self.ort),
            tdt=set(self.tdt),
            edt=set(self.edt),
            rmt=dict(self.rmt),
            rct=dict(self.rct),
            efgt=dict(self.efgt),
            constraints=dict(self.constraints),
        )

    def gates_for(self, entity: str) -> set[str]:
        """Environment emergency ids that must clear before `entity` may act."""
        return {eid for ent, eid in self.edt if ent == entity}


@dataclass(frozen=True)
class Decision:
    """Outcome of an access check with the reason it was reached."""

    permit: bool
    reason: str
    role: str | None = None


@dataclass(frozen=True)
class Violation:
    """One broken store rule: which table, which entry, what rule."""

    table: str
    entry: str
    rule: str

    def __str__(self) -> str:
        return f"{self.table}[{self.entry}]: {self.rule}"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def acl_check(store: PolicyStore, sid: str, oid: str, op: Op, now: Fraction) -> Decision:
    """Decide whether `sid` may perform `op` on `oid` at time `now`.

    Pure function of the store: a subject is permitted iff some ACL entry on
    the object names one of the subject's ACTIVE roles, covers the requested
    op, and has not expired (td is inclusive: valid while now <= td).
    """
    subject = store.subjects.get(sid)
    if subject is None:
        return Decision(False, "unknown_subject")
    obj = store.objects.get(oid)
    if obj is None:
        return Decision(False, "unknown_object")
    active = store.asrt.get(sid, set())
    saw_expired = False
    saw_role = False
    for entry in obj.acl:
        if entry.role not in active:
            continue
        saw_role = True
        if not entry.op.covers(op):
            continue
        if entry.td is not None and now > entry.td:
            saw_expired = True
            continue
        return Decision(True, "permit", role=entry.role)
    if saw_expired:
        return Decision(False, "expired")
    if saw_role:
        return Decision(False, "op_not_covered")
    return Decision(False, "no_active_role_entry")


def validate_store(store: PolicyStore, emergencies: list[Emergency]) -> list[Violation]:
    """Check every cross-table rule; returns all violations, never raises."""
    out: list[Violation] = []
    by_eid = {em.eid: em for em in emergencies}

    normal_roles = {r for r, kind in store.roles.items() if kind is RoleKind.NORMAL}
    emergency_roles = {r for r, kind in store.roles.items() if kind is RoleKind.EMERGENCY}

    for sid, roles in store.srt.items():
        if sid not in store.subjects:
            out.append(Violation("srt", sid, "unknown subject"))
        for r in sorted(roles):
            if r not in store.roles:
                out.append(Violation("srt", sid, f"unknown role {r}"))
    for sid, roles in store.asrt.items():
        extra = roles - store.srt.get(sid, set())
        for r in sorted(extra):
            out.append(Violation("asrt", sid, f"active role {r} not assignable"))

    for obj in store.objects.values():
        seen: set[tuple[str, Op]] = set()
        for entry in obj.acl:
            if entry.role not in store.roles:
                out.append(Violation("acl", obj.oid, f"unknown role {entry.role}"))
            key = (entry.role, entry.op)
            if key in seen:
                out.append(
                    Violation("acl", obj.oid, f"duplicate entry {entry.role}/{entry.op.value}")
                )
            seen.add(key)

    for em in emergencies:
        if not em.task_sets:
            out.append(Violation("emergency", em.eid, "no task sets"))
        if em.ed <= 0:
            out.append(Violation("emergency", em.eid, "ed must be positive"))
        tsids = set()
        for ts in em.task_sets:
            if ts.tsid in tsids:
                out.append(Violation("emergency", em.eid, f"duplicate task set {ts.tsid}"))
            tsids.add(ts.tsid)
            if not ts.actions:
                out.append(Violation("task_set", f"{em.eid}.{ts.tsid}", "no actions"))
            if not (0 < ts.prob <= 1):
                out.append(Violation("task_set", f"{em.eid}.{ts.tsid}", "prob outside (0, 1]"))
            if ts.time <= 0:
                out.append(Violation("task_set", f"{em.eid}.{ts.tsid}", "time must be positive"))
            for oid, _ in ts.actions:
                if oid not in store.objects:
                    out.append(Violation("task_set", f"{em.eid}.{ts.tsid}", f"unknown object {oid}"))

    for first, second in sorted(store.tdt):
        a, b = by_eid.get(first), by_eid.get(second)
        if a is None or b is None:
            out.append(Violation("tdt", f"{first}->{second}", "unknown emergency"))
            continue
        if a.entity != b.entity:
            out.append(Violation("tdt", f"{first}->{second}", "pair spans entities"))
        if a.prio >= b.prio:
            out.append(
                Violation("tdt", f"{first}->{second}", "first member must have higher priority")
            )

    for entity, eid in sorted(store.edt):
        em = by_eid.get(eid)
        if em is None:
            out.append(Violation("edt", f"{entity}<-{eid}", "unknown emergency"))
        elif em.entity != ENV_ENTITY:
            out.append(Violation("edt", f"{entity}<-{eid}", "gate is not an environment emergency"))

    for erole, mapping in sorted(store.rmt.items()):
        if erole not in emergency_roles:
            out.append(Violation("rmt", erole, "not a declared emergency-role"))
        for r in mapping.roles:
            if r not in normal_roles:
                out.append(Violation("rmt", erole, f"{r} is not a normal role"))
    for erole in sorted(store.rct):
        if erole not in emergency_roles:
            out.append(Violation("rct", erole, "not a declared emergency-role"))

    return out


# ---------------------------------------------------------------------------
# Deterministic serialization (replay fidelity compares these bytes)
# ---------------------------------------------------------------------------


def _fmt_td(td: Fraction | None) -> str:
    return "-" if td is None else format_number(td)


def serialize_store(store: PolicyStore) -> str:
    """Canonical text dump of the store; equal stores produce equal bytes."""
    lines: list[str] = []
    for sid in sorted(store.subjects):
        sub = store.subjects[sid]
        props = " ".join(f"{k}={literal_text(v)}" for k, v in sorted(sub.properties.items()))
        lines.append(f"subject {sid} {props}".rstrip())
        lines.append(f"  srt {','.join(sorted(store.srt.get(sid, set()))) or '-'}")
        lines.append(f"  asrt {','.join(sorted(store.asrt.get(sid, set()))) or '-'}")
        lines.append(f"  ort {','.join(store.ort[sid]) if sid in store.ort else '-'}")
    for oid in sorted(store.objects):
        obj = store.objects[oid]
        lines.append(f"object {oid}")
        for entry in sorted(obj.acl, key=lambda e: (e.role, e.op.value, _fmt_td(e.td))):
            lines.append(f"  acl {entry.role} {entry.op.value} {_fmt_td(entry.td)}")
    for role in sorted(store.roles):
        lines.append(f"role {role} {store.roles[role].value}")
    for first, second in sorted(store.tdt):
        lines.append(f"tdt {first} {second}")
    for entity, eid in sorted(store.edt):
        lines.append(f"edt {entity} {eid}")
    for erole in sorted(store.rmt):
        mapping = store.rmt[erole]
        cons = constraint_to_text(mapping.constraint) if mapping.constraint else "-"
        lines.append(f"rmt {erole} [{','.join(mapping.roles)}] {cons}")
    for erole in sorted(store.rct):
        lines.append(f"rct {erole} {constraint_to_text(store.rct[erole])}")
    for entity in sorted(store.efgt):
        lines.append(f"efgt {entity} {store.efgt[entity]}")
    for name in sorted(store.constraints):
        lines.append(f"constraint {name} {constraint_to_text(store.constraints[name])}")
    return "\n".join(lines) + "\n"
