import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from feac import audit, engine
from feac.audit import (
    FIELDS,
    AuditFormatError,
    AuditLog,
    AuditRecord,
    KIND_FIELDS,
    parse_trace,
    replay_store,
)
from feac.exact import TimeUnit, format_number, parse_integer
from feac.fixtures import hospital_text
from feac.model import AclEntry, Op, PolicyStore, Subject, SystemObject, serialize_store
from feac.scenario import load_scenario, parse_scenario
from feac.sim import run_simulation

from scenario_gen import generate_scenario_text
from test_fixtures import ROWS as FIXTURE_ROWS
from test_sim import GOLDEN

F = Fraction
DATA = GOLDEN.parent


def encode(field: str, value) -> str:
    return FIELDS[field].encode(value)


class TestCodecs:
    def test_scalars(self):
        assert encode("eid", "x") == "x"
        assert encode("prio", 7) == "7"
        assert encode("pv", F(21, 5)) == "4.2"
        assert encode("pv", F(1, 3)) == "1/3"
        assert encode("ed", 3) == "3"
        assert encode("td", F(-1, 8)) == "-0.125"
        assert encode("op", Op.READ_WRITE) == "read_write"

    def test_empties_collapse_to_dash(self):
        assert encode("eid", "") == "-"
        assert encode("saved", []) == "-"
        assert encode("saved", ()) == "-"
        assert encode("acl", ()) == "-"

    def test_sequences_join_with_semicolons(self):
        assert encode("roles", ["b", "a"]) == "b;a"
        assert encode("resources", ("a", "b")) == "a;b"

    def test_every_codec_passes_a_written_text_through(self):
        for name, codec in FIELDS.items():
            assert codec.encode("a;b:1") == "a;b:1", name
            assert codec.encode("") == "-", name

    @pytest.mark.parametrize(
        "field, value",
        [("eid", None), ("eid", 1), ("decision", True), ("sid", ["S2", "S1"]),
         ("prio", True), ("prio", F(3)), ("pv", 0.5), ("td", None), ("td", False),
         ("resources", {"a"}), ("resources", ["a", 1]), ("op", Op), ("acl", [("R", "use")]),
         ("acl", "R:use:-".split(":"))],
    )
    def test_a_value_of_another_type_is_a_type_error(self, field, value):
        with pytest.raises(TypeError):
            encode(field, value)


class TestAppend:
    def test_line_format_and_key_order(self):
        log = AuditLog()
        log.append("state_transition", F(3, 2), from_="normal", to="emergency")
        assert log.lines == ["1|1.5|state_transition|from=normal,to=emergency"]
        assert log.to_text() == "1|1.5|state_transition|from=normal,to=emergency\n"

    def test_values_write_by_their_fields_codec(self):
        log = AuditLog()
        log.append(
            "action_started", F(1, 4), eid="", tsid="-", sid="S2",
            start=F(1, 4), end=3, resources=("b", "a"),
        )
        log.append("access_checked", F(1, 4), sid="S1", oid="O1", op=Op.USE, decision="permit",
                   reason="")
        log.append(
            "ft_substitution", F(1, 4), from_="P1", to="P2", roles=[], notified=("P2",),
            acl=(AclEntry("Doctor", Op.READ_WRITE, F(9, 2)), AclEntry("Nurse", Op.USE)),
        )
        assert log.lines == [
            "1|0.25|action_started|eid=-,tsid=-,sid=S2,start=0.25,end=3,resources=b;a",
            "2|0.25|access_checked|sid=S1,oid=O1,op=use,decision=permit,reason=-",
            "3|0.25|ft_substitution|from=P1,to=P2,acl=Doctor:read_write:4.5;Nurse:use:-,"
            "roles=-,notified=P2",
        ]

    @pytest.mark.parametrize(
        "kind, payload, message",
        [
            (
                "action_started",
                dict(eid="E1", tsid="T", sid=["S2", "S1"], start=0, end=1, resources=()),
                "action_started: sid takes id values, not ['S2', 'S1']",
            ),
            (
                "access_checked",
                dict(sid="S1", oid="O1", op="use", decision=True, reason="permit"),
                "access_checked: decision takes id values, not True",
            ),
            (
                "action_started",
                dict(eid="E1", tsid=None, sid="S1", start=0, end=1, resources={"a"}),
                "action_started: tsid takes id values, not None",
            ),
            (
                "action_started",
                dict(eid="E1", tsid="T", sid="S1", start=0, end=1.5, resources=()),
                "action_started: end takes time values, not 1.5",
            ),
            (
                "emergency_raised",
                dict(eid="E1", entity="P1", prio=True, ed=F(1)),
                "emergency_raised: prio takes int values, not True",
            ),
            (
                "role_restored",
                dict(sid="S1", erole="E1", restored={"R1"}),
                "role_restored: restored takes list values, not {'R1'}",
            ),
            (
                "ft_substitution",
                dict(from_=1, to="P2", acl=[("R", "use")], roles=(), notified=()),
                "ft_substitution: from takes id values, not 1",
            ),
            (
                "ft_substitution",
                dict(from_="P1", to="P2", acl=[("R", "use")], roles=(), notified=()),
                "ft_substitution: acl takes acl values, not [('R', 'use')]",
            ),
            (
                "state_transition",
                dict(to="a,b", from_=5),
                "illegal character in payload value 'a,b'",
            ),
            (
                "state_transition",
                dict(from_=5, to="a,b"),
                "state_transition: from takes id values, not 5",
            ),
        ],
    )
    def test_a_value_of_another_type_is_rejected_by_kind_and_field(self, kind, payload, message):
        """The first bad value in the caller's keyword order is named, and
        the log is left as it was."""
        log = AuditLog()
        log.append("entity_failed", 0, entity="P1")
        with pytest.raises(ValueError) as raised:
            log.append(kind, 1, **payload)
        assert str(raised.value) == message
        assert log.lines == ["1|0|entity_failed|entity=P1"]

    def test_each_timestamp_is_its_own_value(self):
        # Equal timestamps may be one object or several; each line shows
        # the value it was given.
        log = AuditLog()
        half, two = F(1, 2), F(2)
        for ts in (half, half, two, F(1, 2), half, F(2)):
            log.append("entity_failed", ts, entity="P1")
        assert [line.split("|")[1] for line in log.lines] == ["0.5", "0.5", "2", "0.5", "0.5", "2"]

    def test_sequence_numbers_increment(self):
        log = AuditLog()
        log.append("entity_failed", F(0), entity="P1")
        log.append("entity_failed", F(1), entity="P2")
        assert [r.seq for r in parse_trace(log.to_text())] == [1, 2]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AuditLog().append("coffee_break", F(0))

    def test_wrong_keys_rejected(self):
        with pytest.raises(ValueError):
            AuditLog().append("entity_failed", F(0), entity="P1", extra="x")
        with pytest.raises(ValueError):
            AuditLog().append("state_transition", F(0), from_="normal")

    def test_delimiter_characters_rejected(self):
        for bad in ("a|b", "a,b", "a=b", "a\nb"):
            log = AuditLog()
            with pytest.raises(ValueError) as raised:
                log.append("entity_failed", F(0), entity=bad)
            assert str(raised.value) == f"illegal character in payload value {bad!r}"
            assert log.lines == []

    @pytest.mark.parametrize(
        "boundary", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_boundaries_rejected(self, boundary):
        # parse_trace splits at every str.splitlines boundary, so a value
        # holding one would not read back.
        bad = f"a{boundary}b"
        log = AuditLog()
        with pytest.raises(ValueError) as raised:
            log.append("entity_failed", F(0), entity=bad)
        assert str(raised.value) == f"illegal character in payload value {bad!r}"
        assert log.lines == []

    def test_equal_timestamps_format_once(self, monkeypatch):
        # Records written at one engine time come in runs of one tick count.
        calls = []
        text = TimeUnit.text

        def counting(unit, ticks):
            calls.append(ticks)
            return text(unit, ticks)

        monkeypatch.setattr(TimeUnit, "text", counting)
        log = AuditLog(TimeUnit(10))
        for ts in (5, 5, 5, 20, 20):
            log.append("entity_failed", ts, entity="P1")
        assert calls == [5, 20]
        assert [line.split("|")[1] for line in log.lines] == ["0.5"] * 3 + ["2"] * 2

    def test_time_fields_share_the_timestamps_tick_texts(self, monkeypatch):
        calls = []
        text = TimeUnit.text

        def counting(unit, ticks):
            calls.append(ticks)
            return text(unit, ticks)

        monkeypatch.setattr(TimeUnit, "text", counting)
        log = AuditLog(TimeUnit(10))
        log.append("action_started", 5, eid="E", tsid="T", sid="S", start=5, end=20,
                   resources=())
        log.append("plan_selected", 20, entity="P", pv=F(1), strategy="optimal", path="E:T",
                   epoch=20, gate=5)
        log.append("permission_granted", 25, erole="E", oid="O", op="use", td=F(5, 2), eid="E",
                   sid="S")
        assert calls == [5, 20, 25]
        assert log.lines == [
            "1|0.5|action_started|eid=E,tsid=T,sid=S,start=0.5,end=2,resources=-",
            "2|2|plan_selected|entity=P,pv=1,strategy=optimal,path=E:T,epoch=2,gate=0.5",
            "3|2.5|permission_granted|erole=E,oid=O,op=use,td=2.5,eid=E,sid=S",
        ]

    @pytest.mark.parametrize("scale", [10**m for m in range(16)] + [3])
    def test_tick_times_write_as_format_number_writes_their_value(self, scale):
        """A tick count prints as `format_number` prints its value: straight
        from the int's digits for a power of ten, as p/q for a unit of 3."""
        rng = random.Random(scale)
        counts = [0, 1, -1, scale, -scale, 10 * scale + 1, 10**20 + 7]
        for _ in range(200):
            bound = 10 ** rng.randint(1, 25)
            counts.append(rng.randint(-bound, bound))
        # Counts with trailing zeros, which the text strips.
        counts += [rng.randint(-5, 5) * 10 ** rng.randint(0, 18) for _ in range(50)]
        unit = TimeUnit(scale)
        log = AuditLog(unit)
        for n in counts:
            log.append(
                "permission_granted", n, erole="E", oid="O", op="use", td=n, eid="E", sid="S"
            )
        for n, line in zip(counts, log.lines):
            want = format_number(Fraction(n, scale))
            assert unit.text(n) == want, (n, scale)
            assert line.split("|")[1] == want and line.endswith(f",td={want},eid=E,sid=S"), line

    def test_first_illegal_value_in_keyword_order_is_named(self):
        log = AuditLog()
        with pytest.raises(ValueError) as raised:
            log.append("state_transition", F(0), to="a,b", from_="c|d")
        assert str(raised.value) == "illegal character in payload value 'a,b'"
        assert log.lines == []

    @pytest.mark.parametrize(
        "kind, payload, message",
        [
            ("coffee_break", {}, "unknown audit kind 'coffee_break'"),
            (
                "entity_failed",
                {"entity": "P1", "extra": "x"},
                "entity_failed payload keys ['entity', 'extra'] != ['entity']",
            ),
            (
                "state_transition",
                {"from_": "normal"},
                "state_transition payload keys ['from'] != ['from', 'to']",
            ),
        ],
    )
    def test_rejected_append_leaves_the_log_as_it_was(self, kind, payload, message):
        log = AuditLog()
        with pytest.raises(ValueError) as raised:
            log.append(kind, F(0), **payload)
        assert str(raised.value) == message
        assert log.lines == []
        assert log.to_text() == ""
        log.append("entity_failed", F(1), entity="P1")
        with pytest.raises(ValueError):
            log.append(kind, F(1), **payload)
        assert log.lines == ["1|1|entity_failed|entity=P1"]

    def test_every_kind_has_a_field_list(self):
        # Every field holds "1" except op, which must name an Op, acl, whose
        # chunks are role:op:td, and the list fields; each typed field
        # decodes to the value beside its text.
        special = {"op": "use", "acl": "R1:use:1;R2:read:-", "saved": "R1;R2",
                   "restored": "R3", "roles": "E1;E2", "resources": "-"}
        decoded = {
            "td": F(1), "pv": F(1), "tp": F(1), "horizon": F(1), "seed": 1, "op": Op.USE,
            "acl": (AclEntry("R1", Op.USE, F(1)), AclEntry("R2", Op.READ, None)),
            "saved": ("R1", "R2"), "restored": ("R3",), "roles": ("E1", "E2"), "resources": (),
        }
        assert set(decoded) == {name for name, codec in FIELDS.items() if codec.decode}
        log = AuditLog()
        for kind, fields in KIND_FIELDS.items():
            payload = {(f + "_" if f == "from" else f): special.get(f, "1") for f in fields}
            log.append(kind, F(0), **payload)
        text = log.to_text()
        assert len(text.splitlines()) == len(KIND_FIELDS)
        records = parse_trace(text)
        assert records == [
            AuditRecord(seq, F(0), kind, {f: special.get(f, "1") for f in fields})
            for seq, (kind, fields) in enumerate(KIND_FIELDS.items(), start=1)
        ]
        for record, fields in zip(records, KIND_FIELDS.values()):
            want = {f: decoded[f] for f in fields if f in decoded}
            assert record.decoded == want, record.kind
            # Equal values of another type would pass `==`: 1 == F(1).
            assert {f: type(v) for f, v in record.decoded.items()} == {
                f: type(v) for f, v in want.items()
            }, record.kind


# The records of TestParseTrace.roundtrip_log, written out.
ROUNDTRIP_RECORDS = [
    AuditRecord(
        1, F(0), "emergency_raised", {"eid": "E1", "entity": "P1", "prio": "3", "ed": "20"}
    ),
    AuditRecord(2, F(0), "state_transition", {"from": "normal", "to": "emergency"}),
    AuditRecord(
        3,
        F(1, 2),
        "plan_selected",
        {"entity": "P1", "pv": "0.684", "strategy": "optimal", "path": "E1:TS1",
         "epoch": "0.5", "gate": "0"},
    ),
]


def granted_lines(count: int, **last) -> list[str]:
    """`count` good permission_granted lines, the last one with `last`'s
    fields replaced."""
    lines = []
    for seq in range(1, count + 1):
        fields = {"erole": "E1", "oid": "O1", "op": "use", "td": "8", "eid": "E1",
                  "sid": f"S{seq}"}
        if seq == count:
            fields.update(last)
        payload = ",".join(f"{k}={v}" for k, v in fields.items())
        lines.append(f"{seq}|0|permission_granted|{payload}")
    return lines


class TestParseTrace:
    def roundtrip_log(self) -> AuditLog:
        log = AuditLog()
        log.append("emergency_raised", F(0), eid="E1", entity="P1", prio=3, ed=F(20))
        log.append("state_transition", F(0), from_="normal", to="emergency")
        log.append(
            "plan_selected", F(1, 2), entity="P1", pv=F(171, 250), strategy="optimal",
            path="E1:TS1", epoch=F(1, 2), gate=F(0),
        )
        return log

    def test_round_trip(self):
        log = self.roundtrip_log()
        assert parse_trace(log.to_text()) == ROUNDTRIP_RECORDS
        assert parse_trace(log.to_text()) == ROUNDTRIP_RECORDS

    def test_blank_lines_skipped(self):
        log = self.roundtrip_log()
        assert parse_trace(log.to_text() + "\n\n") == ROUNDTRIP_RECORDS

    def test_malformed_shape(self):
        with pytest.raises(AuditFormatError) as err:
            parse_trace("1|0|entity_failed\n")
        assert err.value.line_no == 1

    @pytest.mark.parametrize("seq", ["x", "+1", "1_0", " 1"])
    def test_bad_sequence_number(self, seq):
        with pytest.raises(AuditFormatError) as err:
            parse_trace(f"{seq}|0|entity_failed|entity=P1\n")
        assert str(err.value) == f"line 1: bad sequence number {seq!r}"

    def test_bad_timestamp(self):
        with pytest.raises(AuditFormatError):
            parse_trace("1|zero|entity_failed|entity=P1\n")

    def test_unknown_kind(self):
        with pytest.raises(AuditFormatError):
            parse_trace("1|0|coffee_break|entity=P1\n")

    def test_wrong_key_order_rejected(self):
        with pytest.raises(AuditFormatError):
            parse_trace("1|0|state_transition|to=emergency,from=normal\n")

    def test_out_of_order_sequence(self):
        log = self.roundtrip_log()
        lines = log.to_text().splitlines()
        lines[1] = lines[1].replace("2|", "9|", 1)
        with pytest.raises(AuditFormatError) as err:
            parse_trace("\n".join(lines))
        assert err.value.line_no == 2

    def test_decreasing_timestamp(self):
        text = (
            "1|5|entity_failed|entity=P1\n"
            "2|4|entity_failed|entity=P2\n"
        )
        with pytest.raises(AuditFormatError) as err:
            parse_trace(text)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1|1/0|entity_failed|entity=P1\n", "line 1: bad timestamp '1/0'"),
            (
                "1|0|entity_failed|entity=P1\n2|x|entity_failed|entity=P2\n",
                "line 2: bad timestamp 'x'",
            ),
            (
                "1|1/2|entity_failed|entity=P1\n\n2|0.5|entity_failed|entity=P2\n"
                "3|1/2|entity_failed|entity=P1\n4|0.25|entity_failed|entity=P2\n",
                "line 5: timestamps must be non-decreasing",
            ),
            (
                "1|0|entity_failed|entity=P1\n2|0|entity_failed|entity=P1\n"
                "2|1|entity_failed|entity=P2\n",
                "line 3: sequence 2 out of order",
            ),
        ],
    )
    def test_ordering_and_timestamp_errors_name_their_line(self, text, message):
        with pytest.raises(AuditFormatError) as err:
            parse_trace(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "field, bad", [("td", "x"), ("td", "1/0"), ("op", "bogus"), ("td", "use")]
    )
    def test_bad_typed_value_after_many_good_ones_names_its_line(self, field, bad):
        lines = granted_lines(60, **{field: bad})
        # Two more lines after it: one good, one repeating the bad value.
        lines += granted_lines(62)[60:]
        lines[61] = lines[59].replace("60|", "62|", 1)
        with pytest.raises(AuditFormatError) as err:
            parse_trace("\n".join(lines))
        assert str(err.value) == f"line 60: bad {field} {bad!r}"

    def test_typed_values_are_checked_per_key(self):
        # "use" is a good op but a bad td, in the same trace.
        lines = granted_lines(3) + granted_lines(4, td="use")[3:]
        with pytest.raises(AuditFormatError) as err:
            parse_trace("\n".join(lines))
        assert str(err.value) == "line 4: bad td 'use'"

    @pytest.mark.parametrize(
        "stamps, line",
        [(["1", "1", "1", "0.5"], 4), (["0.5", "1", "1", "1", "0.5"], 5), (["2", "2", "1/1"], 3)],
    )
    def test_timestamp_drop_after_equal_texts(self, stamps, line):
        text = "".join(
            f"{seq}|{ts}|entity_failed|entity=P1\n" for seq, ts in enumerate(stamps, start=1)
        )
        with pytest.raises(AuditFormatError) as err:
            parse_trace(text)
        assert str(err.value) == f"line {line}: timestamps must be non-decreasing"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("from=normal", "payload keys ('from',) != ('from', 'to')"),
            ("from=normal,from=emergency", "payload keys ('from',) != ('from', 'to')"),
            ("to=emergency,from=normal", "payload keys ('to', 'from') != ('from', 'to')"),
            (
                "from=normal,to=emergency,to=normal",
                "payload keys ('from', 'to', 'to') != ('from', 'to')",
            ),
            (
                "from=normal,to=emergency,from=emergency",
                "payload keys ('from', 'to', 'from') != ('from', 'to')",
            ),
        ],
    )
    def test_repeated_or_missing_key(self, payload, message):
        text = f"1|0|entity_failed|entity=P1\n2|0|state_transition|{payload}\n"
        with pytest.raises(AuditFormatError) as err:
            parse_trace(text)
        assert str(err.value) == f"line 2: {message}"

    def test_equal_timestamp_texts_give_equal_values(self):
        records = parse_trace(
            "1|3/2|entity_failed|entity=P1\n2|1.5|entity_failed|entity=P2\n"
            "3|3/2|entity_failed|entity=P1\n"
        )
        assert [r.ts for r in records] == [F(3, 2)] * 3



def reference_parse_trace(text: str) -> list[AuditRecord]:
    """parse_trace written plainly: every field converted on every line, every
    timestamp compared with the one before. It differs from the parser it
    replaced only in rejecting a payload that repeats a key."""
    records: list[AuditRecord] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) != 4:
            raise AuditFormatError(line_no, "expected seq|timestamp|kind|payload")
        seq_text, ts_text, kind, payload_text = parts
        try:
            seq = parse_integer(seq_text)
        except ValueError:
            raise AuditFormatError(line_no, f"bad sequence number {seq_text!r}") from None
        try:
            ts = Fraction(ts_text)
        except (ValueError, ZeroDivisionError):
            raise AuditFormatError(line_no, f"bad timestamp {ts_text!r}") from None
        fields = KIND_FIELDS.get(kind)
        if fields is None:
            raise AuditFormatError(line_no, f"unknown kind {kind!r}")
        keys, payload = [], {}
        for chunk in payload_text.split(","):
            if "=" not in chunk:
                raise AuditFormatError(line_no, f"bad payload chunk {chunk!r}")
            key, value = chunk.split("=", 1)
            keys.append(key)
            payload[key] = value
        if tuple(payload) != fields:
            raise AuditFormatError(line_no, f"payload keys {tuple(payload)} != {fields}")
        if tuple(keys) != fields:
            raise AuditFormatError(line_no, f"payload keys {tuple(keys)} != {fields}")
        for key, value in payload.items():
            parse = FIELDS[key].decode
            if parse is None:
                continue
            try:
                parse(value)
            except (ValueError, ZeroDivisionError):
                raise AuditFormatError(line_no, f"bad {key} {value!r}") from None
        if seq != len(records) + 1:
            raise AuditFormatError(line_no, f"sequence {seq} out of order")
        if records and ts < records[-1].ts:
            raise AuditFormatError(line_no, "timestamps must be non-decreasing")
        records.append(AuditRecord(seq, ts, kind, payload))
    return records


def trace_mutants(count: int, seed: int = 10):
    """Seeded edits of the golden trace: one to three field replacements
    (values the trace holds, odd values, a payload chunk written twice),
    deleted, doubled or swapped lines, and blank lines."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    pool = sorted({part for line in lines for part in re.split(r"[|,=]", line)})
    pool += ["", "x", "-1", "1/0", "1/2", "0.5", "3.0", "use", "bogus", "a:b", "R:use:x", "=", ",",
             "|", "a|b", "td=1", "op=use,td=2"]
    rng = random.Random(seed)
    for _ in range(count):
        edited = list(lines)
        for _ in range(rng.randint(1, 3)):
            index = rng.randrange(len(edited))
            move = rng.random()
            if move < 0.7:
                fields = edited[index].replace(",", "|").split("|")
                at = rng.randrange(len(fields))
                value = rng.choice(pool)
                pick = rng.random()
                if at >= 3 and pick < 0.1:
                    value = fields[at] + "," + fields[at]
                elif at >= 3 and pick < 0.8:
                    value = fields[at].partition("=")[0] + "=" + value
                fields[at] = value
                head = "|".join(fields[:3])
                edited[index] = head + "|" + ",".join(fields[3:])
            elif move < 0.8:
                del edited[index]
            elif move < 0.9:
                edited.insert(index, edited[index])
            elif move < 0.95 and index + 1 < len(edited):
                edited[index], edited[index + 1] = edited[index + 1], edited[index]
            else:
                edited.insert(index, " ")
        yield "\n".join(edited) + "\n"


def parse_outcome(parse, text):
    try:
        return parse(text)
    except AuditFormatError as exc:
        return str(exc)


def test_parse_trace_matches_the_reference_on_damaged_traces():
    outcomes = set()
    for text in trace_mutants(1500):
        got = parse_outcome(parse_trace, text)
        assert got == parse_outcome(reference_parse_trace, text), text
        if isinstance(got, str):
            words = got.split(": ", 1)[1].split()
            outcomes.add(" ".join(words[:2]) if words[0] == "bad" else words[0])
        else:
            outcomes.add("ok")
    # The mutants reach every kind of diagnostic, and some parse clean.
    assert outcomes >= {
        "ok", "expected", "bad sequence", "bad timestamp", "bad payload", "bad td", "bad op",
        "unknown", "payload", "sequence", "timestamps",
    }, outcomes


def test_encode_acl_entries():
    entries = [AclEntry("Doctor", Op.READ_WRITE, F(9, 2)), AclEntry("Nurse", Op.USE)]
    assert encode("acl", entries) == "Doctor:read_write:4.5;Nurse:use:-"
    assert encode("acl", tuple(entries)) == "Doctor:read_write:4.5;Nurse:use:-"
    assert encode("acl", []) == "-"


class TestReplay:
    def base_store(self) -> PolicyStore:
        store = PolicyStore()
        store.subjects["S1"] = Subject("S1")
        store.objects["O1"] = SystemObject("O1")
        store.srt = {"S1": {"Doctor"}}
        store.asrt = {"S1": {"Doctor"}}
        return store

    def test_grant_and_rescind_cancel_out(self):
        store = self.base_store()
        log = AuditLog()
        log.append(
            "permission_granted", F(0), erole="E1", oid="O1", op="use", td=F(8),
            eid="E1", sid="S1",
        )
        log.append(
            "permission_rescinded", F(4), erole="E1", oid="O1", op="use", td=F(8),
            reason="solved", eid="E1",
        )
        replayed = replay_store(store, parse_trace(log.to_text()))
        assert serialize_store(replayed) == serialize_store(store)

    def test_open_grant_survives_replay(self):
        store = self.base_store()
        log = AuditLog()
        log.append(
            "permission_granted", F(0), erole="E1", oid="O1", op="use", td=F(8),
            eid="E1", sid="S1",
        )
        replayed = replay_store(store, parse_trace(log.to_text()))
        assert AclEntry("E1", Op.USE, F(8)) in replayed.objects["O1"].acl

    def test_role_swap_and_restore(self):
        store = self.base_store()
        log = AuditLog()
        log.append("role_assigned", F(0), sid="S1", erole="E1", eid="E1", saved=["Doctor"])
        half = replay_store(store, parse_trace(log.to_text()))
        assert half.asrt["S1"] == {"E1"}
        assert half.ort["S1"] == ("Doctor",)
        log.append("role_restored", F(2), sid="S1", erole="E1", restored=["Doctor"])
        full = replay_store(store, parse_trace(log.to_text()))
        assert serialize_store(full) == serialize_store(store)

    def test_substitution_materializes_transfer(self):
        store = self.base_store()
        store.efgt = {"P1": "g", "P2": "g"}
        log = AuditLog()
        log.append(
            "ft_substitution", F(1), from_="P1", to="P2",
            acl="Doctor:read_write:4.5", roles="Monitor", notified="-",
        )
        replayed = replay_store(store, parse_trace(log.to_text()))
        assert replayed.objects["P2"].acl == [AclEntry("Doctor", Op.READ_WRITE, F(9, 2))]
        assert replayed.asrt["P2"] == {"Monitor"}
        assert replayed.srt["P2"] == {"Monitor"}

    def test_non_mutating_kinds_leave_the_store_alone(self):
        store = self.base_store()
        log = AuditLog()
        log.append("emergency_raised", F(0), eid="E1", entity="P1", prio=1, ed=F(5))
        log.append("entity_failed", F(1), entity="P1")
        log.append("disaster", F(2), entity="P1", reason="no_substitute")
        replayed = replay_store(store, parse_trace(log.to_text()))
        assert serialize_store(replayed) == serialize_store(store)


def test_each_typed_text_is_decoded_once_across_kinds(monkeypatch):
    # A grant and its rescind carry the same (op, td) texts and share one
    # decoded dict, and a seq written as expected is never converted.
    calls = Counter()

    def counting(name, parse):
        def counted(text):
            calls[name] += 1
            return parse(text)

        return counted

    for key, codec in list(FIELDS.items()):
        if codec.decode:
            monkeypatch.setitem(FIELDS, key, codec._replace(decode=counting(key, codec.decode)))
    monkeypatch.setattr(audit, "parse_integer", counting("seq", parse_integer))
    records = parse_trace(GOLDEN.read_text(encoding="utf-8"))
    grants = [r for r in records if r.kind in ("permission_granted", "permission_rescinded")]
    pairs = {(r.payload["op"], r.payload["td"]) for r in grants}
    assert calls["td"] == len(pairs) < len(grants) // 2
    assert calls["seq"] == 0
    shared = {(r.payload["op"], r.payload["td"]): r.decoded for r in grants}
    assert all(r.decoded is shared[r.payload["op"], r.payload["td"]] for r in grants)


def test_a_seq_text_other_than_the_expected_one_is_still_read_as_a_number():
    records = parse_trace("01|0|entity_failed|entity=P1\n2|0|entity_failed|entity=P2\n")
    assert [r.seq for r in records] == [1, 2]
    # A payload error still wins over the sequence number's order.
    with pytest.raises(AuditFormatError) as err:
        parse_trace("1|0|entity_failed|entity=P1\n3|0|entity_failed|entity\n")
    assert str(err.value) == "line 2: bad payload chunk 'entity'"
    with pytest.raises(AuditFormatError) as err:
        parse_trace("1|0|entity_failed|entity=P1\n3|0|entity_failed|entity=P2\n")
    assert str(err.value) == "line 2: sequence 3 out of order"


# ---------------------------------------------------------------------------
# The table-driven writer against the writer it replaced
# ---------------------------------------------------------------------------


def fmt_value(value) -> str:
    """The replaced writer's one formatter for every field: '-' for empty,
    ';' joins sequences, sets sorted, anything else through str()."""
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


def encode_acl_entries(entries) -> str:
    """The replaced engine's text for copied ACL entries: role:op:td;..."""
    if not entries:
        return "-"
    chunks = []
    for entry in entries:
        td = "-" if entry.td is None else format_number(entry.td)
        chunks.append(f"{entry.role}:{entry.op.value}:{td}")
    return ";".join(chunks)


def reference_append(lines: list[str], unit: TimeUnit, kind: str, ts, **payload) -> None:
    """The line the replaced `AuditLog.append` wrote for a payload it
    accepted: each field through `fmt_value`, an int time (the timestamp or
    td, start, end, epoch, gate) as a count of `unit`'s ticks first, and
    the copied ACL entries as the engine encoded them before passing them."""
    texts = []
    for name in KIND_FIELDS[kind]:
        value = payload[name + "_" if name == "from" else name]
        if name in ("td", "start", "end", "epoch", "gate") and type(value) is int:
            value = unit.text(value)
        elif name == "acl" and type(value) is not str:
            value = encode_acl_entries(value)
        texts.append(fmt_value(value))
    stamp = unit.text(ts) if type(ts) is int else format_number(ts)
    body = ",".join(f"{name}={text}" for name, text in zip(KIND_FIELDS[kind], texts))
    lines.append(f"{len(lines) + 1}|{stamp}|{kind}|{body}")


def differential_scenarios():
    """The hospital, every scenario under tests/data, and the 60 scenarios
    of the acceptance sweep."""
    hospital, diags = parse_scenario(hospital_text(), "hospital.feac")
    assert not diags
    yield "hospital", hospital
    for path in sorted(DATA.glob("*.feac")):
        sc, diags = load_scenario(str(path))
        assert not diags, path
        yield path.name, sc
    for seed in range(60):
        sc, diags = parse_scenario(generate_scenario_text(seed))
        assert not diags, seed
        yield f"sweep {seed}", sc


@pytest.mark.parametrize("factor", [1, 10**12, 3])
def test_every_engine_append_writes_the_reference_line(factor, monkeypatch):
    """Every record a run writes equals the replaced writer's line for the
    same call, with each run's time unit `factor` times finer than its own:
    1, twelve more decimal places, or 3, whose tick counts print through
    p/q. A finer unit holds the same times, so the trace is the same."""
    natural = engine.run_time_unit

    def finer(*inputs):
        return TimeUnit(natural(*inputs).scale * factor)

    write = AuditLog.append
    kinds = Counter()

    def checked(log, kind, ts, **payload):
        want = log.lines[:]
        reference_append(want, log.unit, kind, ts, **payload)
        write(log, kind, ts, **payload)
        assert log.lines == want
        kinds[kind] += 1
        if kind == "ft_substitution" and payload["acl"]:
            kinds["ft_substitution with acl"] += 1

    monkeypatch.setattr(AuditLog, "append", checked)
    for name, sc in differential_scenarios():
        monkeypatch.setattr(engine, "run_time_unit", finer)
        trace = run_simulation(sc).trace_text
        monkeypatch.setattr(engine, "run_time_unit", natural)
        assert run_simulation(sc).trace_text == trace, name
    # Every kind is written, a substitution that copies ACL rows among them.
    assert set(kinds) == set(KIND_FIELDS) | {"ft_substitution with acl"}


def test_every_decoding_codec_round_trips():
    """decode(encode(v)) == v for every codec that decodes, on seeded
    values; and every field text of the committed traces writes back as
    itself from its decoded value, or as itself when it stays text."""
    rng = random.Random(26)
    numbers = [F(rng.randint(-10**9, 10**9), rng.choice([1, 2, 8, 10, 1000, 3, 7 * 10**12]))
               for _ in range(300)] + [F(0), F(1, 3), F(-5)]
    names = ["R1", "Doctor", "a_b", "E12"]
    drawn = {
        "time": numbers + [rng.randint(-10**20, 10**20) for _ in range(50)],
        "number": numbers,
        "int": [rng.randint(-10**12, 10**12) for _ in range(100)] + [0],
        "list": [tuple(rng.sample(names, rng.randint(0, 4))) for _ in range(50)],
        "op": list(Op),
        "acl": [
            tuple(AclEntry(rng.choice(names), rng.choice(list(Op)), rng.choice([None, *numbers]))
                  for _ in range(rng.randint(0, 3)))
            for _ in range(50)
        ],
    }
    decoding = {name: codec for name, codec in FIELDS.items() if codec.decode}
    assert {codec.kind for codec in decoding.values()} == set(drawn)
    for name, codec in decoding.items():
        for value in drawn[codec.kind]:
            assert codec.decode(codec.encode(value)) == value, (name, value)
    texts, longest = 0, 0
    for _, _, trace, _ in FIXTURE_ROWS:
        for record in parse_trace(trace.read_text(encoding="utf-8")):
            for name, text in record.payload.items():
                codec = FIELDS[name]
                value = codec.decode(text) if codec.decode else text
                assert codec.encode(value) == text, (trace, record.seq, name)
                texts, longest = texts + 1, max(longest, len(text))
    # long_pv's pv has more digits than int() and str() convert.
    assert texts > 2000 and longest > sys.get_int_max_str_digits()
