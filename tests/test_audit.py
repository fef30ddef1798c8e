from fractions import Fraction

import pytest

from feac.audit import (
    AuditFormatError,
    AuditLog,
    AuditRecord,
    KIND_FIELDS,
    encode_acl_entries,
    fmt_value,
    parse_trace,
    replay_store,
)
from feac.model import AclEntry, Op, PolicyStore, Subject, SystemObject, serialize_store

F = Fraction


class TestFmtValue:
    def test_scalars(self):
        assert fmt_value("x") == "x"
        assert fmt_value(7) == "7"
        assert fmt_value(True) == "true"
        assert fmt_value(False) == "false"
        assert fmt_value(F(21, 5)) == "4.2"

    def test_empties_collapse_to_dash(self):
        assert fmt_value(None) == "-"
        assert fmt_value("") == "-"
        assert fmt_value([]) == "-"
        assert fmt_value(()) == "-"

    def test_sequences_join_with_semicolons(self):
        assert fmt_value(["a", "b"]) == "a;b"
        assert fmt_value({"b", "a"}) == "a;b"


class TestAppend:
    def test_line_format_and_key_order(self):
        log = AuditLog()
        log.append("state_transition", F(3, 2), from_="normal", to="emergency")
        assert log.records[0].to_line() == "1|1.5|state_transition|from=normal,to=emergency"

    def test_sequence_numbers_increment(self):
        log = AuditLog()
        log.append("entity_failed", F(0), entity="P1")
        log.append("entity_failed", F(1), entity="P2")
        assert [r.seq for r in log.records] == [1, 2]

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
            with pytest.raises(ValueError):
                AuditLog().append("entity_failed", F(0), entity=bad)

    def test_every_kind_has_a_field_list(self):
        log = AuditLog()
        for kind, fields in KIND_FIELDS.items():
            # Every field holds "1" except op, which must name an Op.
            payload = {(f + "_" if f == "from" else f): ("use" if f == "op" else "1") for f in fields}
            log.append(kind, F(0), **payload)
        text = log.to_text()
        assert len(text.splitlines()) == len(KIND_FIELDS)
        assert parse_trace(text) == log.records


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
        assert parse_trace(log.to_text()) == log.records

    def test_blank_lines_skipped(self):
        log = self.roundtrip_log()
        assert parse_trace(log.to_text() + "\n\n") == log.records

    def test_malformed_shape(self):
        with pytest.raises(AuditFormatError) as err:
            parse_trace("1|0|entity_failed\n")
        assert err.value.line_no == 1

    def test_bad_sequence_number(self):
        with pytest.raises(AuditFormatError):
            parse_trace("x|0|entity_failed|entity=P1\n")

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


def test_encode_acl_entries():
    entries = [AclEntry("Doctor", Op.READ_WRITE, F(9, 2)), AclEntry("Nurse", Op.USE)]
    assert encode_acl_entries(entries) == "Doctor:read_write:4.5;Nurse:use:-"
    assert encode_acl_entries([]) == "-"


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
        replayed = replay_store(store, log.records)
        assert AclEntry("E1", Op.USE, F(8)) in replayed.objects["O1"].acl

    def test_role_swap_and_restore(self):
        store = self.base_store()
        log = AuditLog()
        log.append("role_assigned", F(0), sid="S1", erole="E1", eid="E1", saved=["Doctor"])
        half = replay_store(store, log.records)
        assert half.asrt["S1"] == {"E1"}
        assert half.ort["S1"] == ("Doctor",)
        log.append("role_restored", F(2), sid="S1", erole="E1", restored=["Doctor"])
        full = replay_store(store, log.records)
        assert serialize_store(full) == serialize_store(store)

    def test_substitution_materializes_transfer(self):
        store = self.base_store()
        store.efgt = {"P1": "g", "P2": "g"}
        log = AuditLog()
        log.append(
            "ft_substitution", F(1), from_="P1", to="P2",
            acl="Doctor:read_write:4.5", roles="Monitor", notified="-",
        )
        replayed = replay_store(store, log.records)
        assert replayed.objects["P2"].acl == [AclEntry("Doctor", Op.READ_WRITE, F(9, 2))]
        assert replayed.asrt["P2"] == {"Monitor"}
        assert replayed.srt["P2"] == {"Monitor"}

    def test_non_mutating_kinds_leave_the_store_alone(self):
        store = self.base_store()
        log = AuditLog()
        log.append("emergency_raised", F(0), eid="E1", entity="P1", prio=1, ed=F(5))
        log.append("entity_failed", F(1), entity="P1")
        log.append("disaster", F(2), entity="P1", reason="no_substitute")
        replayed = replay_store(store, log.records)
        assert serialize_store(replayed) == serialize_store(store)
