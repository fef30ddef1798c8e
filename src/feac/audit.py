"""Append-only audit trail with a fixed, replayable line format.

Each record serializes as

    seq|timestamp|kind|key=value,key=value,...

with a fixed key order per kind, timestamps as exact decimals, and ';' as
the separator inside list-valued fields ('-' stands for empty). Two runs
with equal inputs and seed produce byte-identical traces.

The format is stated once: `KIND_FIELDS` gives each kind its fields, and
the codec table `FIELDS` gives each field one declared type. Each kind's
writer is built from the two at import; `parse_trace`, the one decoder of
trace text, reads them too. A time is a Fraction or, as the engine passes
it, an int count of the log's `TimeUnit` ticks; both print as the same
decimal. Records carry enough payload to rebuild every policy-store
mutation, so replaying a trace against the scenario's store, where its run
started, reproduces its final store exactly: the non-repudiation check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import attrgetter, itemgetter
from typing import Any, Callable, NamedTuple

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


class Codec(NamedTuple):
    """A field's type: `writers` maps each type of value it takes to the
    value's writer, and `decode` reads the text back, or is None for a
    field that `parse_trace` leaves as text."""

    kind: str  # id | time | number | int | list | op | acl
    writers: dict[type, Callable[[Any], str]]
    decode: Callable[[str], Any] | None = None

    def encode(self, value) -> str:
        """`value`'s text, '-' for an empty one; TypeError for a value of a
        type the field does not take."""
        write = self.writers.get(type(value))
        if write is None:
            raise TypeError(f"a {self.kind} field takes no {type(value).__name__}")
        return write(value) or "-"


def _encode_acl(entries) -> str:
    """Copied ACL entries as role:op:td, td '-' for one that never expires."""
    if any(type(entry) is not AclEntry for entry in entries):
        raise TypeError("an acl holds AclEntry items")
    return ";".join(
        f"{e.role}:{e.op.value}:{'-' if e.td is None else format_number(e.td)}" for e in entries
    )


def _parse_list(text: str) -> tuple[str, ...]:
    return () if text == "-" else tuple(text.split(";"))


def _parse_acl(text: str) -> tuple[AclEntry, ...]:
    return tuple(
        AclEntry(role, Op(op), None if td == "-" else parse_trace_number(td))
        for role, op, td in (chunk.split(":") for chunk in _parse_list(text))
    )


# Each codec kind's writers; every one takes a str as already written. A
# number is a Fraction or an int, and so is a time: each log writes a time
# through its own copy of _TIME, whose int writer prints a count of its ticks.
_ID = {str: str}
_NUMBER = {str: str, Fraction: format_number, int: format_number}
_TIME = dict(_NUMBER)
_INT = {str: str, int: str}
_LIST = {str: str, tuple: ";".join, list: ";".join}

# Every field's codec. parse_trace decodes the fields whose codec decodes and
# keeps the values on the record, so checkers and replay meet no text to read.
FIELDS: dict[str, Codec] = {
    "td": Codec("time", _TIME, parse_trace_number),
    **dict.fromkeys(("start", "end", "epoch", "gate"), Codec("time", _TIME)),
    **dict.fromkeys(("pv", "tp", "horizon"), Codec("number", _NUMBER, parse_trace_number)),
    **dict.fromkeys(("alpha", "beta", "ed"), Codec("number", _NUMBER)),
    "seed": Codec("int", _INT, parse_integer),
    **dict.fromkeys(("k", "prio"), Codec("int", _INT)),
    **dict.fromkeys(("saved", "restored", "roles", "resources"), Codec("list", _LIST, _parse_list)),
    "notified": Codec("list", _LIST),
    "op": Codec("op", {str: str, Op: attrgetter("value")}, Op),
    "acl": Codec("acl", {str: str, tuple: _encode_acl, list: _encode_acl}, _parse_acl),
    **dict.fromkeys(
        ("scenario", "fallback", "from", "to", "eid", "entity", "strategy", "path", "sid",
         "erole", "oid", "tsid", "outcome", "reason", "decision"),
        Codec("id", _ID),
    ),
}


class _Layout(NamedTuple):
    """A kind's writer and reader, built from `KIND_FIELDS` and `FIELDS`."""

    values: Callable[[dict], tuple]  # append's payload in field order; 'from' is from_
    writers: tuple[tuple[int, dict], ...]  # each position not holding an id, and its writers
    template: str  # the line, from seq, timestamp and each field's text
    decoded: tuple[str, ...]  # the fields parse_trace decodes
    decoded_texts: Callable[[dict], tuple]  # their names and texts, from a payload
    read: Callable[[str], re.Match | None]  # a well-formed payload text: its values, in order


def _layout(kind: str, fields: tuple[str, ...]) -> _Layout:
    names = [f + "_" if f == "from" else f for f in fields]
    codecs = [FIELDS[f] for f in fields]
    decoded = tuple(f for f, c in zip(fields, codecs) if c.decode)
    texts = itemgetter(*decoded) if decoded else None
    return _Layout(
        itemgetter(*names) if len(names) > 1 else lambda payload: (payload[names[0]],),
        tuple((i, c.writers) for i, c in enumerate(codecs) if c.kind != "id"),
        "%s|%s|" + kind + "|" + ",".join(f + "=%s" for f in fields),
        decoded,
        (lambda payload: (decoded, texts(payload))) if decoded else lambda payload: (),
        re.compile(",".join(f + "=([^,]*)" for f in fields)).fullmatch,
    )


_LAYOUTS = {kind: _layout(kind, fields) for kind, fields in KIND_FIELDS.items()}


# Characters the line format uses as separators, and every line boundary
# of str.splitlines, which parse_trace splits the text with.
_ILLEGAL_IN_VALUE = re.compile(r"[|,=\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]").search


class AuditFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """`payload` holds the raw texts and `decoded` the value of each field
    whose codec decodes (lists as tuples), which only `parse_trace` fills;
    it is read-only, shared by records with equal texts, and not compared.
    Records that `parse_trace` makes share their strings: each payload key
    is its `KIND_FIELDS` name, and equal kind and value texts of one parse
    are one string."""

    seq: int
    ts: Fraction
    kind: str
    payload: dict[str, str]
    decoded: dict[str, object] = field(default_factory=dict, compare=False, repr=False)


class AuditLog:
    """The trace as a list of lines, one per record, without newlines. An
    int time it is given counts ticks of `unit`."""

    def __init__(self, unit: TimeUnit = TimeUnit()):
        self.lines: list[str] = []
        self.unit = unit
        self._tick_text = cache(unit.text)  # this log's memo of each tick count's text
        self._time_writers = {**_TIME, int: self._tick_text}

    def append(self, kind: str, ts: int | Fraction, **payload) -> None:
        layout = _LAYOUTS.get(kind)
        if layout is None:
            raise ValueError(f"unknown audit kind {kind!r}")
        try:
            texts = list(layout.values(payload))
        except KeyError:
            texts = None
        if texts is None or len(texts) != len(payload):
            keys = sorted({key.rstrip("_") for key in payload})
            raise ValueError(f"{kind} payload keys {keys} != {sorted(KIND_FIELDS[kind])}")
        try:
            for i, writers in layout.writers:
                value = texts[i]
                if writers is _TIME:
                    writers = self._time_writers
                texts[i] = writers[type(value)](value)
            # An id that is not a str fails the join.
            bad = _ILLEGAL_IN_VALUE("".join(texts))
        except (KeyError, TypeError):
            bad = True
        if bad:
            # Name the first bad value in the caller's keyword order. An int
            # time's text has no separator, whatever the unit.
            for key, value in payload.items():
                codec = FIELDS[key.rstrip("_")]
                try:
                    text = codec.encode(value)
                except TypeError:
                    message = f"{key.rstrip('_')} takes {codec.kind} values, not {value!r}"
                    raise ValueError(f"{kind}: {message}") from None
                if _ILLEGAL_IN_VALUE(text):
                    raise ValueError(f"illegal character in payload value {text!r}")
        if "" in texts:
            texts = [text or "-" for text in texts]
        stamp = self._tick_text(ts) if type(ts) is int else format_number(ts)
        self.lines.append(layout.template % (len(self.lines) + 1, stamp, *texts))

    def to_text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def _payload_error(line_no: int, payload_text: str, fields: tuple[str, ...]):
    """Raise the AuditFormatError for a payload text that is not `fields`'s."""
    chunks = payload_text.split(",")
    payload: dict[str, str] = {}
    for chunk in chunks:
        key, sep, value = chunk.partition("=")
        if not sep:
            raise AuditFormatError(line_no, f"bad payload chunk {chunk!r}")
        payload[key] = value
    if tuple(payload) != fields:
        raise AuditFormatError(line_no, f"payload keys {tuple(payload)} != {fields}")
    # A repeated key the dict folded into its first place.
    keys = tuple(chunk.partition("=")[0] for chunk in chunks)
    raise AuditFormatError(line_no, f"payload keys {keys} != {fields}")


def parse_trace(text: str) -> list[AuditRecord]:
    """Parse a trace file; raises AuditFormatError with the offending line."""
    records: list[AuditRecord] = []
    # A run stamps many records with each clock value, and repeats most
    # typed values (an op, a td) many times: each distinct timestamp text is
    # converted once, and typed fields with equal names and texts decoded
    # once, whatever their kind.
    stamps: dict[str, Fraction] = {}
    shared: dict[object, dict[str, object]] = {}
    share = {}.setdefault  # one string per distinct kind or value text
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
        layout = _LAYOUTS.get(kind)
        if layout is None:
            raise AuditFormatError(line_no, f"unknown kind {kind!r}")
        match = layout.read(payload_text)
        if match is None:
            _payload_error(line_no, payload_text, KIND_FIELDS[kind])
        values = match.groups()
        payload = dict(zip(KIND_FIELDS[kind], map(share, values, values)))
        texts = layout.decoded_texts(payload)
        decoded = shared.get(texts)
        if decoded is None:
            decoded = shared[texts] = {}
            for key in layout.decoded:
                value = payload[key]
                try:
                    decoded[key] = FIELDS[key].decode(value)
                except ValueError:
                    raise AuditFormatError(line_no, f"bad {key} {value!r}") from None
        if seq != len(records) + 1:
            raise AuditFormatError(line_no, f"sequence {seq} out of order")
        if ts_text != last_text:
            # Equal texts are equal values; only a new text can go backwards.
            if records and ts < last_ts:
                raise AuditFormatError(line_no, "timestamps must be non-decreasing")
            last_text, last_ts = ts_text, ts
        records.append(AuditRecord(seq, ts, share(kind, kind), payload, decoded))
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

