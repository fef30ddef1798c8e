from fractions import Fraction

from feac.fault import apply_fault_tolerance, find_substitute
from feac.model import (
    AclEntry,
    Emergency,
    Op,
    PolicyStore,
    Subject,
    SystemObject,
    TaskSet,
)


def pool_store() -> PolicyStore:
    store = PolicyStore()
    store.efgt = {"P1": "icu", "P2": "icu", "P3": "icu", "Q1": "ward"}
    store.objects["P1"] = SystemObject(
        "P1",
        [AclEntry("Doctor", Op.READ_WRITE), AclEntry("Nurse", Op.READ, td=Fraction(9))],
    )
    return store


def emergency(ft: bool) -> Emergency:
    ts = TaskSet("TS1", (("P1", Op.USE),), Fraction(1), Fraction(1, 2))
    return Emergency("E1", "P1", 1, Fraction(5), ft, (ts,))


class TestFindSubstitute:
    def test_smallest_healthy_peer(self):
        assert find_substitute(pool_store(), set(), "P1") == "P2"

    def test_skips_unhealthy_peers(self):
        engaged = {"P2"}
        assert find_substitute(pool_store(), engaged, "P1") == "P3"
        engaged.add("P3")
        assert find_substitute(pool_store(), engaged, "P1") is None

    def test_no_group_membership(self):
        assert find_substitute(pool_store(), set(), "Q1") is None
        assert find_substitute(pool_store(), set(), "unknown") is None

    def test_never_picks_itself(self):
        store = PolicyStore()
        store.efgt = {"P1": "solo"}
        assert find_substitute(store, set(), "P1") is None


class TestApplyFaultTolerance:
    def test_substitution_copies_acl_rows(self):
        store = pool_store()
        engaged: set[str] = set()
        report = apply_fault_tolerance(store, engaged, "P1", [emergency(ft=True)])
        assert report.outcome == "substituted"
        assert report.substitute == "P2"
        assert [e.role for e in report.acl_copied] == ["Doctor", "Nurse"]
        assert store.objects["P2"].acl == store.objects["P1"].acl
        assert engaged == {"P1", "P2"}

    def test_copy_deduplicates_existing_rows(self):
        store = pool_store()
        store.objects["P2"] = SystemObject("P2", [AclEntry("Doctor", Op.READ_WRITE)])
        report = apply_fault_tolerance(store, set(), "P1", [])
        assert [e.role for e in report.acl_copied] == ["Nurse"]
        assert len(store.objects["P2"].acl) == 2

    def test_subject_substitute_inherits_roles_and_is_notified(self):
        store = pool_store()
        store.subjects["P1"] = Subject("P1")
        store.subjects["P2"] = Subject("P2")
        store.srt = {"P1": {"Monitor"}, "P2": set()}
        store.asrt = {"P1": {"Monitor"}, "P2": set()}
        report = apply_fault_tolerance(store, set(), "P1", [])
        assert report.roles_copied == ("Monitor",)
        assert report.notified == ("P2",)
        assert store.asrt["P2"] == {"Monitor"}
        assert store.srt["P2"] == {"Monitor"}

    def test_non_subject_substitute_is_not_notified(self):
        report = apply_fault_tolerance(pool_store(), set(), "P1", [])
        assert report.notified == ()
        assert report.roles_copied == ()

    def test_infeasible_emergency_means_disaster(self):
        engaged: set[str] = set()
        report = apply_fault_tolerance(pool_store(), engaged, "P1", [emergency(ft=False)])
        assert report.outcome == "disaster"
        assert report.reason == "ft_infeasible"
        assert engaged == {"P1"}

    def test_no_candidate_means_disaster(self):
        store = pool_store()
        report = apply_fault_tolerance(store, {"P2", "P3"}, "P1", [emergency(ft=True)])
        assert report.outcome == "disaster"
        assert report.reason == "no_substitute"

    def test_missing_source_object_copies_nothing(self):
        store = pool_store()
        del store.objects["P1"]
        report = apply_fault_tolerance(store, set(), "P1", [])
        assert report.outcome == "substituted"
        assert report.acl_copied == ()
        assert "P2" not in store.objects
