from fractions import Fraction

from feac.fault import apply_fault_tolerance, find_substitute
from feac.model import (
    AclEntry,
    Emergency,
    Op,
    PolicyStore,
    RoleKind,
    Subject,
    SystemObject,
    TaskSet,
)
from feac.scenario import parse_scenario
from feac.sim import run_simulation

# E1 is granted `Pump1 use` until 6, and Pump1 fails at 1 while E1 runs:
# Pump2 takes over a copy of Pump1's rows, E1's live grant among them.
GRANT_COPY_SCENARIO = """\
scenario grant_copy
config tp = 0.5
config seed = 3
config horizon = 20
entity P1
entity Pump1
entity Pump2
role Nurse
role Doctor
subject S1 { roles = [Nurse] }
subject S2 { roles = [Doctor] }
object Pump1 { acl Nurse use td 7.5 acl Doctor read_write }
object Pump2 { acl Doctor read }
emergency E1 {
  entity P1
  prio 2
  ed 6
  ft true
  ts TS1 { actions = [Pump1 use], time = 1.5, prob = 0.9 }
}
map E1 -> [Nurse]
fgroup Pump1 = pumps
fgroup Pump2 = pumps
at 0 raise E1
at 0 force E1 TS1 success
at 1 fail Pump1
"""


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

    def test_live_emergency_grant_stays_on_its_object(self):
        store = pool_store()
        store.roles = {"Doctor": RoleKind.NORMAL, "E1": RoleKind.EMERGENCY}
        grant = AclEntry("E1", Op.USE, td=Fraction(6))
        store.objects["P1"] = SystemObject("P1", [AclEntry("Doctor", Op.READ_WRITE), grant])
        report = apply_fault_tolerance(store, set(), "P1", [emergency(ft=True)])
        assert report.acl_copied == (AclEntry("Doctor", Op.READ_WRITE),)
        assert store.objects["P2"].acl == [AclEntry("Doctor", Op.READ_WRITE)]
        assert store.objects["P1"].acl[1] == grant

    def test_only_emergency_rows_create_no_object(self):
        store = pool_store()
        store.roles = {"E1": RoleKind.EMERGENCY}
        store.objects["P1"] = SystemObject("P1", [AclEntry("E1", Op.USE, td=Fraction(6))])
        report = apply_fault_tolerance(store, set(), "P1", [emergency(ft=True)])
        assert report.acl_copied == ()
        assert "P2" not in store.objects

    def test_missing_source_object_copies_nothing(self):
        store = pool_store()
        del store.objects["P1"]
        report = apply_fault_tolerance(store, set(), "P1", [])
        assert report.outcome == "substituted"
        assert report.acl_copied == ()
        assert "P2" not in store.objects


def test_no_copied_emergency_grant_outlives_its_emergency():
    sc, diags = parse_scenario(GRANT_COPY_SCENARIO)
    assert not diags
    store = run_simulation(sc).final_store
    held = set().union(*store.srt.values(), *store.asrt.values())
    emergency_roles = {role for role, kind in store.roles.items() if kind is RoleKind.EMERGENCY}
    stale = [
        (obj.oid, entry.role)
        for obj in store.objects.values()
        for entry in obj.acl
        if entry.role in emergency_roles and entry.role not in held
    ]
    assert stale == []
