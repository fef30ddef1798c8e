from fractions import Fraction

from feac.model import (
    AclEntry,
    Emergency,
    Op,
    PolicyStore,
    RoleKind,
    RoleMapping,
    Subject,
    SystemObject,
    TaskSet,
    acl_check,
    serialize_store,
    validate_store,
)


def small_store() -> PolicyStore:
    store = PolicyStore()
    store.subjects["S1"] = Subject("S1", {"location": (Fraction(3), Fraction(4))})
    store.subjects["S2"] = Subject("S2")
    store.objects["O1"] = SystemObject(
        "O1",
        [
            AclEntry("Doctor", Op.READ_WRITE),
            AclEntry("Nurse", Op.READ),
            AclEntry("Visitor", Op.USE, td=Fraction(10)),
        ],
    )
    store.roles = {
        "Doctor": RoleKind.NORMAL,
        "Nurse": RoleKind.NORMAL,
        "Visitor": RoleKind.NORMAL,
    }
    store.srt = {"S1": {"Doctor"}, "S2": {"Nurse", "Visitor"}}
    store.asrt = {"S1": {"Doctor"}, "S2": {"Nurse", "Visitor"}}
    return store


def make_emergency(eid="E1", entity="P1", prio=3, ed=10, times=(2,), probs=None):
    probs = probs or [Fraction(4, 5)] * len(times)
    task_sets = tuple(
        TaskSet(
            tsid=f"TS{i + 1}",
            actions=(("O1", Op.USE),),
            time=Fraction(t),
            prob=p,
        )
        for i, (t, p) in enumerate(zip(times, probs))
    )
    return Emergency(eid=eid, entity=entity, prio=prio, ed=Fraction(ed),
                     ft_feasible=True, task_sets=task_sets)


class TestOpCovers:
    def test_every_op_covers_itself(self):
        for op in Op:
            assert op.covers(op)

    def test_read_write_covers_both_directions_of_data_access(self):
        assert Op.READ_WRITE.covers(Op.READ)
        assert Op.READ_WRITE.covers(Op.WRITE)

    def test_nothing_else_crosses(self):
        assert not Op.READ.covers(Op.WRITE)
        assert not Op.WRITE.covers(Op.READ)
        assert not Op.READ.covers(Op.READ_WRITE)
        assert not Op.READ_WRITE.covers(Op.USE)
        assert not Op.USE.covers(Op.READ)


class TestAclCheck:
    def test_permit_via_active_role(self):
        d = acl_check(small_store(), "S1", "O1", Op.WRITE, Fraction(0))
        assert d.permit and d.reason == "permit" and d.role == "Doctor"

    def test_unknown_subject_and_object(self):
        store = small_store()
        assert acl_check(store, "ghost", "O1", Op.USE, Fraction(0)).reason == "unknown_subject"
        assert acl_check(store, "S1", "ghost", Op.USE, Fraction(0)).reason == "unknown_object"

    def test_op_not_covered(self):
        d = acl_check(small_store(), "S2", "O1", Op.WRITE, Fraction(0))
        assert not d.permit and d.reason == "op_not_covered"

    def test_no_active_role_entry(self):
        store = small_store()
        store.asrt["S1"] = set()
        d = acl_check(store, "S1", "O1", Op.READ, Fraction(0))
        assert not d.permit and d.reason == "no_active_role_entry"

    def test_td_is_inclusive(self):
        store = small_store()
        assert acl_check(store, "S2", "O1", Op.USE, Fraction(10)).permit
        late = acl_check(store, "S2", "O1", Op.USE, Fraction(21, 2))
        assert not late.permit and late.reason == "expired"


class TestValidateStore:
    def test_clean_store_has_no_violations(self):
        assert validate_store(small_store(), [make_emergency()]) == []

    def test_active_role_must_be_assignable(self):
        store = small_store()
        store.asrt["S1"].add("Nurse")
        issues = validate_store(store, [])
        assert any(v.table == "asrt" and "Nurse" in v.rule for v in issues)

    def test_duplicate_acl_entry(self):
        store = small_store()
        store.objects["O1"].acl.append(AclEntry("Doctor", Op.READ_WRITE))
        issues = validate_store(store, [])
        assert any(v.table == "acl" and "duplicate" in v.rule for v in issues)

    def test_emergency_shape_rules(self):
        bad = Emergency("E9", "P1", 1, Fraction(0), True, task_sets=())
        issues = validate_store(small_store(), [bad])
        messages = {v.rule for v in issues}
        assert "no task sets" in messages
        assert "ed must be positive" in messages

    def test_task_set_value_ranges(self):
        em = make_emergency(times=(0,), probs=[Fraction(3, 2)])
        issues = validate_store(small_store(), [em])
        messages = {v.rule for v in issues}
        assert "prob outside (0, 1]" in messages
        assert "time must be positive" in messages

    def test_task_set_actions_must_name_known_objects(self):
        em = make_emergency()
        ts = TaskSet("TS1", (("Nowhere", Op.USE),), Fraction(1), Fraction(1, 2))
        em = Emergency("E1", "P1", 1, Fraction(5), True, (ts,))
        issues = validate_store(small_store(), [em])
        assert any("unknown object Nowhere" in v.rule for v in issues)

    def test_time_dependency_direction(self):
        store = small_store()
        store.tdt.add(("E2", "E1"))
        ems = [make_emergency("E1", prio=2), make_emergency("E2", prio=5)]
        issues = validate_store(store, ems)
        assert any(v.table == "tdt" and "higher priority" in v.rule for v in issues)

    def test_time_dependency_must_stay_on_one_entity(self):
        store = small_store()
        store.tdt.add(("E1", "E2"))
        ems = [make_emergency("E1", prio=1), make_emergency("E2", entity="P2", prio=5)]
        issues = validate_store(store, ems)
        assert any(v.table == "tdt" and "spans entities" in v.rule for v in issues)

    def test_environment_gate_must_be_env_emergency(self):
        store = small_store()
        store.edt.add(("P1", "E1"))
        issues = validate_store(store, [make_emergency("E1", entity="P1")])
        assert any(v.table == "edt" for v in issues)

    def test_role_mapping_kinds(self):
        store = small_store()
        store.roles["E1"] = RoleKind.EMERGENCY
        store.rmt["E1"] = RoleMapping(roles=("Doctor",))
        assert validate_store(store, [make_emergency()]) == []
        store.rmt["Doctor"] = RoleMapping(roles=("Nurse",))
        issues = validate_store(store, [make_emergency()])
        assert any(v.table == "rmt" and v.entry == "Doctor" for v in issues)


class TestStoreSerialization:
    def test_equal_stores_equal_bytes(self):
        assert serialize_store(small_store()) == serialize_store(small_store())

    def test_any_mutation_changes_the_bytes(self):
        base = serialize_store(small_store())
        with_role = small_store()
        with_role.asrt["S1"].discard("Doctor")
        assert serialize_store(with_role) != base
        with_acl = small_store()
        with_acl.objects["O1"].acl.append(AclEntry("Nurse", Op.USE, td=Fraction(5)))
        assert serialize_store(with_acl) != base

    def test_clone_is_deep(self):
        store = small_store()
        twin = store.clone()
        twin.asrt["S1"].add("Visitor")
        twin.objects["O1"].acl.pop()
        twin.subjects["S1"].properties["ward"] = "icu"
        assert store.asrt["S1"] == {"Doctor"}
        assert len(store.objects["O1"].acl) == 3
        assert "ward" not in store.subjects["S1"].properties
