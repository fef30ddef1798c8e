"""Append-only audit trail with a fixed, replayable line format.

Each record serializes as

    seq|timestamp|kind|key=value,key=value,...

with a fixed key order per kind, timestamps as exact decimals, and ';' as
the separator inside list-valued fields ('-' stands for empty or absent).
Two runs with equal inputs and seed produce byte-identical traces.

The log is its lines: `AuditLog.append` formats each record once, straight
into its line, and keeps nothing else. The timestamp and the time fields
(`TIME_FIELDS`) take either a Fraction or, as the engine passes them, an
int count of the log's `TimeUnit` ticks; both print as the same decimal.
Records (`AuditRecord`) exist only as the result of `parse_trace`, the one
decoder of trace text: each holds its raw payload and the value of every
field that `FIELD_PARSERS` decodes.

Records carry enough payload to rebuild every policy-store mutation, so
replaying a trace against the scenario's store, where its run started,
reproduces its final store exactly: the non-repudiation check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .exact import TimeUnit, format_number, parse_integer, parse_trace_number
from .model import AclEntry, Op, PolicyStore, SystemObject

# Fixed payload layout per kind. Appending with any other keys is an error.
KIND_FIELDS: dict[str, tuple[str, ...]] = {
    "run_started": ("scenario", "seed", "tp", "horizon", "alpha", "beta", "k", "fallback"),
    "state_transition": ("from", "to"),
    "emergency_raised": ("eid", "entity", "prio", "ed"),
    "plan_selected": ("entity", "pv", "strategy", "path", "epoch", "gate"),
    "role_assigned": ("sid", "erole", "eid", "saved"),
    "permission_granted": ("erole", "oid", "op", "td", "eid", "sid"),
    "subject_notified": ("sid", "eid", "erole"),
    "subject_unavailable": ("eid", "erole"),
    "action_started": ("eid", "tsid", "sid", "start", "end", "resources"),
    "action_finished": ("eid", "tsid", "sid", "outcome"),
    "action_failed": ("eid", "tsid", "sid", "reason"),
    "permission_rescinded": ("erole", "oid", "op", "td", "reason", "eid"),
    "role_restored": ("sid", "erole", "restored"),
    "ft_substitution": ("from", "to", "acl", "roles", "notified"),
    "disaster": ("entity", "reason"),
    "emergency_expired": ("eid", "reason"),
    "entity_failed": ("entity",),
    "outcome_forced": ("eid", "tsid", "outcome"),
    "access_checked": ("sid", "oid", "op", "decision", "reason"),
}


def _parse_list(text: str) -> tuple[str, ...]:
    return () if text == "-" else tuple(text.split(";"))


def _parse_acl(text: str) -> tuple[AclEntry, ...]:
    entries = []
    for chunk in _parse_list(text):
        role, op, td = chunk.split(":")
        entries.append(AclEntry(role, Op(op), None if td == "-" else parse_trace_number(td)))
    return tuple(entries)


# The payload fields some consumer converts, by name, with the conversion it
# applies. parse_trace runs each one and keeps the value on the record, so
# checkers and replay only ever meet converted values.
FIELD_PARSERS = {
    "td": parse_trace_number,
    "pv": parse_trace_number,
    "tp": parse_trace_number,
    "horizon": parse_trace_number,
    "seed": parse_integer,
    "op": Op,
    "acl": _parse_acl,
    "saved": _parse_list,
    "restored": _parse_list,
    "roles": _parse_list,
    "resources": _parse_list,
}


# Characters the line format uses as separators, and every line boundary
# of str.splitlines, which parse_trace splits the text with.
_ILLEGAL_IN_VALUE = re.compile(r"[|,=\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]").search


class AuditFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """`payload` holds the raw texts and `decoded` the value of each field that
    `FIELD_PARSERS` decodes (lists as tuples), which only `parse_trace` fills;
    it is read-only, shared by records with equal texts, and not compared."""

    seq: int
    ts: Fraction
    kind: str
    payload: dict[str, str]
    decoded: dict[str, object] = field(default_factory=dict, compare=False, repr=False)


def fmt_value(value) -> str:
    """Payload value formatter: '-' for empty, ';' joins sequences."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_number(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else list(value)
        return ";".join(str(i) for i in items) if items else "-"
    text = str(value)
    return text if text else "-"


# Per kind: the keyword names `append` takes ('from' is a keyword, so
# callers pass from_=...), and the line template after seq|timestamp|.
_ARG_NAMES = {
    kind: tuple(f + "_" if f == "from" else f for f in fields)
    for kind, fields in KIND_FIELDS.items()
}
_TEMPLATES = {
    kind: "{}|{}|" + kind + "|" + ",".join(f + "={}" for f in fields)
    for kind, fields in KIND_FIELDS.items()
}
# Payload fields that hold a time, and their positions in each kind that has one.
TIME_FIELDS = frozenset({"td", "start", "end", "epoch", "gate"})
_TIME_POSITIONS = {
    kind: positions
    for kind, fields in KIND_FIELDS.items()
    if (positions := tuple(i for i, f in enumerate(fields) if f in TIME_FIELDS))
}
# Payload fields each kind has that FIELD_PARSERS converts, in field order.
_TYPED_FIELDS = {
    kind: tuple(f for f in fields if f in FIELD_PARSERS) for kind, fields in KIND_FIELDS.items()
}
_TYPED_TEXTS = {kind: itemgetter(*typed) for kind, typed in _TYPED_FIELDS.items() if typed}


class AuditLog:
    """The trace as a list of lines, one per record, without newlines. An
    int time it is given counts ticks of `unit`."""

    def __init__(self, unit: TimeUnit = TimeUnit()):
        self.lines: list[str] = []
        self.unit = unit
        # The last tick timestamp and its text: records at one time come in runs.
        self._ts: int | None = None
        self._ts_text = ""

    def append(self, kind: str, ts: int | Fraction, **payload) -> None:
        names = _ARG_NAMES.get(kind)
        if names is None:
            raise ValueError(f"unknown audit kind {kind!r}")
        try:
            values = [payload[name] for name in names]
        except KeyError:
            values = None
        if values is None or len(payload) != len(names):
            keys = sorted({key.rstrip("_") for key in payload})
            raise ValueError(f"{kind} payload keys {keys} != {sorted(KIND_FIELDS[kind])}")
        for i in _TIME_POSITIONS.get(kind, ()):
            if type(values[i]) is int:
                values[i] = self.unit.text(values[i])
        texts = [(v or "-") if type(v) is str else fmt_value(v) for v in values]
        if _ILLEGAL_IN_VALUE("".join(texts)):
            # Name the first bad value in the caller's keyword order.
            for value in payload.values():
                value = fmt_value(value)
                if _ILLEGAL_IN_VALUE(value):
                    raise ValueError(f"illegal character in payload value {value!r}")
        if type(ts) is not int:
            stamp = format_number(ts)
        elif ts == self._ts:
            stamp = self._ts_text
        else:
            stamp = self._ts_text = self.unit.text(ts)
            self._ts = ts
        self.lines.append(_TEMPLATES[kind].format(len(self.lines) + 1, stamp, *texts))

    def to_text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def parse_trace(text: str) -> list[AuditRecord]:
    """Parse a trace file; raises AuditFormatError with the offending line."""
    records: list[AuditRecord] = []
    # A run stamps many records with each clock value, and repeats most
    # typed values (an op, a td) many times: each distinct timestamp text is
    # converted once, and typed fields with equal names and texts decoded
    # once, whatever their kind.
    stamps: dict[str, Fraction] = {}
    shared: dict[object, dict[str, object]] = {}
    last_text: str | None = None
    last_ts = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) != 4:
            raise AuditFormatError(line_no, "expected seq|timestamp|kind|payload")
        seq_text, ts_text, kind, payload_text = parts
        seq = len(records) + 1
        if seq_text != str(seq):
            try:
                seq = parse_integer(seq_text)
            except ValueError:
                raise AuditFormatError(line_no, f"bad sequence number {seq_text!r}") from None
        ts = stamps.get(ts_text)
        if ts is None:
            try:
                ts = stamps[ts_text] = parse_trace_number(ts_text)
            except ValueError:
                raise AuditFormatError(line_no, f"bad timestamp {ts_text!r}") from None
        fields = KIND_FIELDS.get(kind)
        if fields is None:
            raise AuditFormatError(line_no, f"unknown kind {kind!r}")
        chunks = payload_text.split(",")
        payload: dict[str, str] = {}
        for chunk in chunks:
            key, sep, value = chunk.partition("=")
            if not sep:
                raise AuditFormatError(line_no, f"bad payload chunk {chunk!r}")
            payload[key] = value
        if tuple(payload) != fields:
            raise AuditFormatError(line_no, f"payload keys {tuple(payload)} != {fields}")
        if len(chunks) != len(fields):
            # A repeated key the dict folded into its first place.
            keys = tuple(chunk.partition("=")[0] for chunk in chunks)
            raise AuditFormatError(line_no, f"payload keys {keys} != {fields}")
        texts_of = _TYPED_TEXTS.get(kind)
        texts = (_TYPED_FIELDS[kind], texts_of(payload)) if texts_of else ()
        decoded = shared.get(texts)
        if decoded is None:
            decoded = shared[texts] = {}
            for key in _TYPED_FIELDS[kind]:
                value = payload[key]
                try:
                    decoded[key] = FIELD_PARSERS[key](value)
                except ValueError:
                    raise AuditFormatError(line_no, f"bad {key} {value!r}") from None
        if seq != len(records) + 1:
            raise AuditFormatError(line_no, f"sequence {seq} out of order")
        if ts_text != last_text:
            # Equal texts are equal values; only a new text can go backwards.
            if records and ts < last_ts:
                raise AuditFormatError(line_no, "timestamps must be non-decreasing")
            last_text, last_ts = ts_text, ts
        records.append(AuditRecord(seq, ts, kind, payload, decoded))
    return records


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_store(initial: PolicyStore, records: list[AuditRecord]) -> PolicyStore:
    """Apply every store mutation in `records` to a copy of `initial`."""
    store = initial.clone()
    for r in records:
        p, d = r.payload, r.decoded
        if r.kind == "role_assigned":
            sid, erole = p["sid"], p["erole"]
            store.ort[sid] = d["saved"]
            store.srt.setdefault(sid, set()).add(erole)
            store.asrt[sid] = {erole}
        elif r.kind == "role_restored":
            sid, erole = p["sid"], p["erole"]
            store.asrt[sid] = set(d["restored"])
            store.srt.get(sid, set()).discard(erole)
            store.ort.pop(sid, None)
        elif r.kind in ("permission_granted", "permission_rescinded"):
            # A record naming an object the store lacks changes nothing; the
            # grant checkers and replay fidelity report what it unbalances.
            obj = store.objects.get(p["oid"])
            if obj is None:
                continue
            entry = AclEntry(p["erole"], d["op"], d["td"])
            if r.kind == "permission_granted":
                obj.acl.append(entry)
            elif entry in obj.acl:
                obj.acl.remove(entry)
        elif r.kind == "ft_substitution":
            target = p["to"]
            if d["acl"]:
                store.objects.setdefault(target, SystemObject(target)).acl.extend(d["acl"])
            if d["roles"]:
                store.srt.setdefault(target, set()).update(d["roles"])
                store.asrt.setdefault(target, set()).update(d["roles"])
    return store


def encode_acl_entries(entries) -> str:
    """ft_substitution payload form of copied entries: role:op:td;..."""
    if not entries:
        return "-"
    chunks = []
    for entry in entries:
        td = "-" if entry.td is None else format_number(entry.td)
        chunks.append(f"{entry.role}:{entry.op.value}:{td}")
    return ";".join(chunks)
