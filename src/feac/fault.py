"""Entity substitution: move a failing entity's duties onto a healthy peer.

Substitution is proactive and copy-based: ACL entries naming the entity as
an object are copied (not moved) onto the substitute, and roles the entity
holds as a subject are added to the substitute's assignable and active
sets. Candidates come from the entity's function group; an entity that is
failed or already substituting is never chosen. No candidate, or a group
whose active emergencies do not allow substitution, means disaster.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import AclEntry, Emergency, PolicyStore, SystemObject


class HealthStatus(Enum):
    HEALTHY = "healthy"
    FAILED = "failed"
    SUBSTITUTING = "substituting"


@dataclass
class EntityHealth:
    entity: str
    status: HealthStatus = HealthStatus.HEALTHY


@dataclass(frozen=True)
class FtReport:
    outcome: str  # "substituted" | "disaster"
    entity: str
    substitute: str | None
    acl_copied: tuple[AclEntry, ...]
    roles_copied: tuple[str, ...]
    notified: tuple[str, ...]
    reason: str


def _status(health: dict[str, EntityHealth], entity: str) -> HealthStatus:
    record = health.get(entity)
    return record.status if record else HealthStatus.HEALTHY


def find_substitute(
    store: PolicyStore, health: dict[str, EntityHealth], entity: str
) -> str | None:
    """Healthy same-function-group peer with the smallest id, or None."""
    fgroup = store.efgt.get(entity)
    if fgroup is None:
        return None
    candidates = sorted(
        peer
        for peer, group in store.efgt.items()
        if group == fgroup and peer != entity and _status(health, peer) is HealthStatus.HEALTHY
    )
    return candidates[0] if candidates else None


def apply_fault_tolerance(
    store: PolicyStore,
    health: dict[str, EntityHealth],
    entity: str,
    active_emergencies: list[Emergency],
) -> FtReport:
    """Substitute for `entity` or report disaster. Mutates store and health.

    The caller is responsible for emitting audit records from the report;
    this function only performs the transfer.
    """
    health[entity] = EntityHealth(entity, HealthStatus.FAILED)
    if not all(em.ft_feasible for em in active_emergencies):
        return FtReport("disaster", entity, None, (), (), (), "ft_infeasible")
    substitute = find_substitute(store, health, entity)
    if substitute is None:
        return FtReport("disaster", entity, None, (), (), (), "no_substitute")

    acl_copied: list[AclEntry] = []
    source = store.objects.get(entity)
    if source is not None and source.acl:
        target = store.objects.get(substitute)
        if target is None:
            target = SystemObject(substitute)
            store.objects[substitute] = target
        existing = set(target.acl)
        for entry in source.acl:
            if entry not in existing:
                target.acl.append(entry)
                existing.add(entry)
                acl_copied.append(entry)

    roles_copied: tuple[str, ...] = ()
    if substitute in store.subjects:
        held = sorted(store.asrt.get(entity, set()))
        if held:
            store.srt.setdefault(substitute, set()).update(held)
            store.asrt.setdefault(substitute, set()).update(held)
            roles_copied = tuple(held)

    health[substitute] = EntityHealth(substitute, HealthStatus.SUBSTITUTING)
    notified = (substitute,) if substitute in store.subjects else ()
    return FtReport("substituted", entity, substitute, tuple(acl_copied), roles_copied, notified, "")
