"""Entity substitution: move a failing entity's duties onto a healthy peer.

Substitution is proactive and copy-based: ACL entries naming the entity as
an object are copied (not moved) onto the substitute, and roles the entity
holds as a subject are added to the substitute's assignable and active
sets. Candidates come from the entity's function group. A row whose role is
an emergency role is a live grant, and it is not copied: it stays on its
own object, where its emergency's rescind removes it.

Fault tolerance keeps one set of engaged entities: each entity that has
failed, and each that has taken over for a failed one. An engaged entity is
never chosen as a substitute, and a failure reported for one starts no
second substitution. No candidate, or a group whose active emergencies do
not allow substitution, means disaster.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import AclEntry, Emergency, PolicyStore, RoleKind, SystemObject


@dataclass(frozen=True)
class FtReport:
    outcome: str  # "substituted" | "disaster"
    substitute: str | None
    acl_copied: tuple[AclEntry, ...]
    roles_copied: tuple[str, ...]
    notified: tuple[str, ...]
    reason: str


def find_substitute(store: PolicyStore, engaged: set[str], entity: str) -> str | None:
    """Unengaged same-function-group peer with the smallest id, or None."""
    fgroup = store.efgt.get(entity)
    if fgroup is None:
        return None
    candidates = sorted(
        peer
        for peer, group in store.efgt.items()
        if group == fgroup and peer != entity and peer not in engaged
    )
    return candidates[0] if candidates else None


def apply_fault_tolerance(
    store: PolicyStore,
    engaged: set[str],
    entity: str,
    active_emergencies: list[Emergency],
) -> FtReport:
    """Substitute for `entity` or report disaster.

    Mutates the store and marks `entity` engaged, and the substitute too
    when one takes over. The caller is responsible for emitting audit
    records from the report; this function only performs the transfer.
    """
    engaged.add(entity)
    if not all(em.ft_feasible for em in active_emergencies):
        return FtReport("disaster", None, (), (), (), "ft_infeasible")
    substitute = find_substitute(store, engaged, entity)
    if substitute is None:
        return FtReport("disaster", None, (), (), (), "no_substitute")

    acl_copied: list[AclEntry] = []
    source = store.objects.get(entity)
    if source is not None:
        target = store.objects.get(substitute)
        existing = set(target.acl) if target is not None else set()
        for entry in source.acl:
            if entry not in existing and store.roles.get(entry.role) is not RoleKind.EMERGENCY:
                existing.add(entry)
                acl_copied.append(entry)
        if acl_copied:
            store.objects.setdefault(substitute, SystemObject(substitute)).acl.extend(acl_copied)

    roles_copied: tuple[str, ...] = ()
    if substitute in store.subjects:
        held = sorted(store.asrt.get(entity, set()))
        if held:
            store.srt.setdefault(substitute, set()).update(held)
            store.asrt.setdefault(substitute, set()).update(held)
            roles_copied = tuple(held)

    engaged.add(substitute)
    notified = (substitute,) if substitute in store.subjects else ()
    return FtReport("substituted", substitute, tuple(acl_copied), roles_copied, notified, "")
