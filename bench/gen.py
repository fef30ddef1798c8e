"""Seeded, scale-parameterised scenario sources for the benchmark workloads.

Every workload is a list of `.feac` scenario texts built from one integer
seed and a `Scale`. Equal seed and scale give byte-equal texts. Nothing here
imports the program or its tests, so neither a program change nor a test
edit can change a workload.

- `incident_mix`: many small random scenarios (every code path: gates,
  time dependencies, influence, sampling, forced failures, substitution,
  the occasional disaster, access requests).
- `ward_scale`: one large ward whose role maps combine a distance test with
  a `count(...)` constraint, so staffing does most of the work.
- `surge`: a few entities, each hit at once by one large equal-priority
  group with cross-influence, so planning does most of the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

OPS = ("use", "read", "write", "read_write")


@dataclass(frozen=True)
class Scale:
    """Named size knobs of a workload.

    For `incident_mix` each knob is the upper end of a random draw; for the
    other workloads it is the size used.
    """

    scenarios: int = 1  # scenario texts in the workload
    entities: int = 1  # non-environment entities per scenario
    subjects_per_entity: int = 3
    emergencies_per_entity: int = 3
    group_size: int = 3  # emergencies sharing one priority within an entity
    acl_rows: int = 2  # ACL rows per declared object
    requests: int = 0  # `request` probes per scenario
    horizon: int = 60  # minutes of scenario time (incident_mix: after the last deadline)
    sparsity: int = 6  # minutes over which raises are spread
    fail_minutes: int = 0  # minutes from the start in which every draw fails


SCALES: dict[str, Scale] = {
    "incident_mix": Scale(
        scenarios=200,
        entities=3,
        subjects_per_entity=4,
        emergencies_per_entity=4,
        group_size=4,
        acl_rows=2,
        requests=3,
        horizon=8,
        sparsity=6,
    ),
    "ward_scale": Scale(
        entities=100,
        subjects_per_entity=3,
        emergencies_per_entity=3,
        group_size=3,
        acl_rows=3,
        requests=300,
        horizon=60,
        sparsity=30,
    ),
    "surge": Scale(
        entities=6,
        subjects_per_entity=8,
        emergencies_per_entity=6,
        group_size=6,
        acl_rows=2,
        requests=6,
        horizon=120,
        sparsity=0,
        fail_minutes=2,
    ),
}


def _num(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return str(float(value))


def _frac(rng: random.Random, lo: int, hi: int) -> Fraction:
    value = Fraction(rng.randint(lo, hi))
    if rng.random() < 0.4:
        value += Fraction(1, 2)
    return value


def _acl_rows(rng: random.Random, roles: list[str], count: int) -> str:
    rows = sorted({f"acl {rng.choice(roles)} {rng.choice(OPS)}" for _ in range(count)})
    return (" " + " ".join(rows) + " ") if rows else " "


# ---------------------------------------------------------------------------
# incident_mix: small random scenarios
# ---------------------------------------------------------------------------


def incident_text(seed: int, scale: Scale) -> str:
    """One small random scenario that parses cleanly and ends by its horizon."""
    rng = random.Random(seed)
    lines: list[str] = [f"scenario mix{seed}", ""]

    tp = rng.choice((Fraction(1, 2), Fraction(1)))
    lines.append(f"config tp = {_num(tp)}")
    lines.append(f"config alpha = {_num(rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))))}")
    lines.append(f"config beta = {_num(rng.choice((Fraction(1, 2), Fraction(1))))}")
    lines.append(f"config k = {rng.choice((2, 6, 64))}")
    lines.append(f"config seed = {rng.randint(0, 999983)}")
    lines.append(f"config fallback = {rng.choice(('probability_first', 'time_first'))}")

    entities = [f"W{i}" for i in range(1, rng.randint(1, scale.entities) + 1)]
    use_env = rng.random() < 0.7
    lines.append("")
    lines.extend(f"entity {entity}" for entity in entities)

    roles = [f"R{i}" for i in range(1, rng.randint(2, 4) + 1)]
    lines.append("")
    lines.extend(f"role {role}" for role in roles)
    lines.append("")
    lines.append("constraint near = dist(location, (0, 0)) <= 900")

    # 2-4 roles; up to a quarter of the subject budget per role, so at most
    # `subjects_per_entity * entities` subjects.
    per_role = max(1, scale.subjects_per_entity * scale.entities // 4)
    subjects = [f"S{i}" for i in range(1, rng.randint(len(roles), len(roles) * per_role) + 1)]
    lines.append("")
    for index, sid in enumerate(subjects):
        held = {roles[index % len(roles)]}
        if rng.random() < 0.4:
            held.add(rng.choice(roles))
        x, y = rng.randint(-20, 20), rng.randint(-20, 20)
        lines.append(
            f"subject {sid} {{ roles = [{', '.join(sorted(held))}], location = ({x}, {y}) }}"
        )

    objects = [f"O{i}" for i in range(1, rng.randint(2, 5) + 1)]
    lines.append("")
    for oid in objects:
        lines.append(f"object {oid} {{{_acl_rows(rng, roles, rng.randint(0, scale.acl_rows))}}}")

    groups = entities + (["env"] if use_env else [])
    emergencies: dict[str, tuple[str, int, int]] = {}  # eid -> (entity, prio, ed)
    per_group: dict[str, list[str]] = {g: [] for g in groups}
    for entity in groups:
        top = 3 if entity == "env" else scale.emergencies_per_entity
        for _ in range(rng.randint(1, top)):
            eid = f"E{len(emergencies) + 1}"
            prio = rng.randint(1, scale.group_size)
            ed = rng.randint(9, 30)
            lines.append("")
            lines.append(f"emergency {eid} {{")
            lines.append(f"  entity {entity}")
            lines.append(f"  prio {prio}")
            lines.append(f"  ed {ed}")
            lines.append(f"  ft {'true' if rng.random() < 0.92 else 'false'}")
            for t in range(1, rng.randint(1, 2) + 1):
                actions = ", ".join(
                    f"{rng.choice(objects)} {rng.choice(OPS)}" for _ in range(rng.randint(1, 2))
                )
                res = f", resources = [Q{rng.randint(1, 2)}]" if rng.random() < 0.3 else ""
                prob = Fraction(rng.randint(40, 100), 100)
                lines.append(
                    f"  ts TS{t} {{ actions = [{actions}], time = {rng.randint(1, 4)}, "
                    f"prob = {_num(prob)}{res} }}"
                )
            lines.append("}")
            emergencies[eid] = (entity, prio, ed)
            per_group[entity].append(eid)

    lines.append("")
    for eid in emergencies:
        if rng.random() < 0.9:
            picked = sorted(rng.sample(roles, rng.randint(1, min(2, len(roles)))))
            where = " where @near" if rng.random() < 0.4 else ""
            lines.append(f"map {eid} -> [{', '.join(picked)}]{where}")
        if rng.random() < 0.15:
            lines.append(f"fallbackmap {eid} where true")

    extra: list[str] = []
    for entity in groups:
        members = per_group[entity]
        for a in members:
            for b in members:
                if emergencies[a][1] < emergencies[b][1] and rng.random() < 0.15:
                    extra.append(f"depends time {a} -> {b}")
    if use_env and per_group["env"]:
        for entity in entities:
            if rng.random() < 0.6:
                gates = rng.sample(per_group["env"], rng.randint(1, len(per_group["env"])))
                extra.extend(f"depends env {entity} on {gate}" for gate in gates)
    for entity in groups:
        members = per_group[entity]
        done = set()
        for a in members:
            for b in members:
                if a != b and (a, b) not in done and rng.random() < 0.2:
                    done.add((a, b))
                    parts = [
                        f"{channel} = {_num(Fraction(rng.randint(1, 7), 10))}"
                        for channel in ("sigma_p", "sigma_t", "sigma_ed")
                        if rng.random() < 0.6
                    ]
                    if parts:
                        extra.append(f"influence {a} -> {b} {{ {' '.join(parts)} }}")
    if len(entities) >= 2 and rng.random() < 0.85:
        extra.extend(f"fgroup {entity} = pool" for entity in entities)
    if extra:
        lines.append("")
        lines.extend(extra)

    events: list[tuple[Fraction, str]] = []
    latest = Fraction(0)
    for eid, (entity, _, ed) in emergencies.items():
        when = Fraction(rng.randint(0, 2 * scale.sparsity), 2)
        events.append((when, f"raise {eid}"))
        latest = max(latest, when + ed)
        if rng.random() < 0.55:
            # Environment emergencies have no substitution peers, so forced
            # failures there mostly end in disaster: keep that path rare.
            ok = 0.9 if entity == "env" else 0.7
            outcome = "success" if rng.random() < ok else "failure"
            events.append((Fraction(0), f"force {eid} TS1 {outcome}"))
    if len(entities) >= 2 and rng.random() < 0.25:
        events.append((_frac(rng, 1, 5), f"fail {rng.choice(entities)}"))
    for _ in range(rng.randint(0, scale.requests)):
        events.append(
            (
                _frac(rng, 0, 8),
                f"request {rng.choice(subjects)} {rng.choice(objects)} {rng.choice(OPS)}",
            )
        )

    horizon = latest + scale.horizon
    lines.insert(lines.index(f"config tp = {_num(tp)}") + 1, f"config horizon = {_num(horizon)}")
    lines.append("")
    for when, body in sorted(events, key=lambda item: item[0]):
        lines.append(f"at {_num(when)} {body}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# ward_scale: one large ward, staffing-bound
# ---------------------------------------------------------------------------

WARD_ROLES = ("Doctor", "Nurse", "Tech")


def ward_text(seed: int, scale: Scale) -> str:
    """One ward: `entities` beds, role maps `@near and @spare`, fallback maps.

    `spare` counts active Nurses, so evaluating it scans every subject;
    `near` holds for three subjects in four. Roles, nearness and the number
    of forced failures follow from the scale alone, and every draw is
    forced, so the amount of staffing work barely depends on the seed.
    A bed's emergencies are raised together. All beds share one function
    group, so a failed bed is substituted and the run returns to `normal`.
    """
    rng = random.Random(seed)
    n_subjects = scale.entities * scale.subjects_per_entity
    lines = [
        f"scenario ward{seed}",
        "",
        "config tp = 0.5",
        f"config horizon = {scale.horizon + scale.sparsity}",
        "config k = 64",
        f"config seed = {rng.randint(0, 999983)}",
        "config fallback = probability_first",
        "",
    ]
    beds = [f"B{i:03d}" for i in range(1, scale.entities + 1)]
    lines.extend(f"entity {bed}" for bed in beds)
    lines.append("")
    lines.extend(f"role {role}" for role in WARD_ROLES)
    lines.append("")
    lines.append("constraint near = dist(location, (0, 0)) <= 70")
    lines.append(f"constraint spare = count(Nurse) >= {max(1, n_subjects // 6)}")
    lines.append("")

    subjects = [f"S{i:04d}" for i in range(1, n_subjects + 1)]
    for index, sid in enumerate(subjects):
        held = {WARD_ROLES[index % 3]}
        if index % 5 == 0:
            held.add(WARD_ROLES[(index + 1) % 3])
        if index % 4 == 3:
            x, y = rng.choice((-1, 1)) * rng.randint(75, 90), rng.randint(-90, 90)
        else:
            x, y = rng.randint(-45, 45), rng.randint(-45, 45)
        lines.append(
            f"subject {sid} {{ roles = [{', '.join(sorted(held))}], "
            f"location = ({x}, {y}), years = {rng.randint(0, 30)} }}"
        )
    lines.append("")

    shared = [f"Cart{i:02d}" for i in range(1, max(2, scale.entities // 10) + 1)]
    objects = shared + [f"{bed}Chart" for bed in beds]
    for oid in objects:
        lines.append(f"object {oid} {{{_acl_rows(rng, list(WARD_ROLES), scale.acl_rows)}}}")

    eids = [
        f"E{b * scale.emergencies_per_entity + m + 1:04d}"
        for b in range(len(beds))
        for m in range(scale.emergencies_per_entity)
    ]
    failing = set(rng.sample(eids, len(eids) // 20))
    events: list[tuple[Fraction, str]] = []
    maps: list[str] = []
    for b, bed in enumerate(beds):
        raised = Fraction(rng.randint(0, 2 * scale.sparsity), 2)
        for m in range(scale.emergencies_per_entity):
            eid = eids[b * scale.emergencies_per_entity + m]
            lines.append("")
            lines.append(f"emergency {eid} {{")
            lines.append(f"  entity {bed}")
            lines.append(f"  prio {1 + m // scale.group_size}")
            lines.append(f"  ed {rng.randint(30, 45)}")
            lines.append("  ft true")
            lines.append(
                f"  ts TS1 {{ actions = [{bed}Chart read_write, {rng.choice(shared)} use], "
                f"time = {rng.randint(1, 3)}, prob = {_num(Fraction(rng.randint(85, 100), 100))} }}"
            )
            lines.append("}")
            picked = sorted(rng.sample(WARD_ROLES, 2))
            maps.append(f"map {eid} -> [{', '.join(picked)}] where @near and @spare")
            maps.append(f"fallbackmap {eid} where @near")
            events.append((raised, f"raise {eid}"))
            if eid in failing:
                events.append((Fraction(0), f"force {eid} TS1 failure"))
                events.append((raised + 3, f"force {eid} TS1 success"))
            else:
                events.append((Fraction(0), f"force {eid} TS1 success"))
    lines.append("")
    lines.extend(maps)
    lines.append("")
    lines.extend(f"fgroup {bed} = ward" for bed in beds)

    for bed in rng.sample(beds, max(1, scale.entities // 50)):
        events.append((Fraction(rng.randint(2, 2 * scale.sparsity), 2), f"fail {bed}"))
    for _ in range(scale.requests):
        events.append(
            (
                Fraction(rng.randint(0, 2 * (scale.sparsity + 10)), 2),
                f"request {rng.choice(subjects)} {rng.choice(objects)} {rng.choice(OPS)}",
            )
        )
    lines.append("")
    for when, body in sorted(events, key=lambda item: item[0]):
        lines.append(f"at {_num(when)} {body}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# surge: equal-priority groups, planner-bound
# ---------------------------------------------------------------------------


def surge_text(seed: int, scale: Scale) -> str:
    """`entities` sites, each hit at time 0 by `group_size` equal-priority
    emergencies that all influence each other's probability and window.

    K covers every order, so each plan is exhaustive. On every other site
    each draw is forced to fail until minute `fail_minutes`, elsewhere and
    after it to succeed; each failure replans the whole group, so those
    sites plan `fail_minutes` times at full size whatever the seed. One
    site fails at minute 1. Windows
    leave room for the whole group, and standby entities in the same
    function group absorb any substitution, so the run returns to `normal`.
    """
    rng = random.Random(seed)
    size = scale.group_size
    k_cap = 1
    for n in range(2, size + 1):
        k_cap *= n
    lines = [
        f"scenario surge{seed}",
        "",
        "config tp = 0.5",
        f"config horizon = {scale.horizon}",
        f"config k = {k_cap}",
        f"config seed = {rng.randint(0, 999983)}",
        "config fallback = time_first",
        "",
    ]
    sites = [f"X{i}" for i in range(1, scale.entities + 1)]
    standby = [f"R{i}" for i in range(1, scale.entities + 1)]
    lines.extend(f"entity {entity}" for entity in sites + standby)
    lines.append("")
    lines.append("role Responder")
    lines.append("role Lead")
    lines.append("")
    lines.append("constraint ready = on_call = true")
    lines.append("")
    subjects = [f"S{i:03d}" for i in range(1, scale.entities * scale.subjects_per_entity + 1)]
    for index, sid in enumerate(subjects):
        role = "Lead" if index % 4 == 0 else "Responder"
        on_call = "false" if index % 5 == 4 else "true"
        lines.append(
            f"subject {sid} {{ roles = [{role}], location = ({index}, 0), on_call = {on_call} }}"
        )
    lines.append("")
    objects = [f"{site}Panel" for site in sites] + ["Radio"]
    for oid in objects:
        lines.append(f"object {oid} {{{_acl_rows(rng, ['Responder', 'Lead'], scale.acl_rows)}}}")

    events: list[tuple[Fraction, str]] = []
    extra: list[str] = []
    for s, site in enumerate(sites):
        members = [f"E{s * size + i + 1:03d}" for i in range(size)]
        for eid in members:
            lines.append("")
            lines.append(f"emergency {eid} {{")
            lines.append(f"  entity {site}")
            lines.append("  prio 1")
            lines.append(f"  ed {rng.randint(4 * size, 6 * size) + scale.fail_minutes}")
            lines.append("  ft true")
            prob = Fraction(rng.randint(60, 99), 100)
            lines.append(
                f"  ts TS1 {{ actions = [{site}Panel use, Radio read], time = 1, "
                f"prob = {_num(prob)} }}"
            )
            lines.append("}")
            extra.append(f"map {eid} -> [Responder, Lead] where @ready")
            extra.append(f"fallbackmap {eid} where true")
            events.append((Fraction(0), f"raise {eid}"))
            if s % 2 == 0:
                events.append((Fraction(0), f"force {eid} TS1 failure"))
                events.append((Fraction(scale.fail_minutes), f"force {eid} TS1 success"))
            else:
                events.append((Fraction(0), f"force {eid} TS1 success"))
        for a in members:
            for b in members:
                if a != b:
                    sigma_p = _num(Fraction(rng.randint(1, 3), 20))
                    sigma_ed = _num(Fraction(rng.randint(1, 3), 20))
                    extra.append(
                        f"influence {a} -> {b} {{ sigma_p = {sigma_p} sigma_ed = {sigma_ed} }}"
                    )
    extra.extend(f"fgroup {entity} = sites" for entity in sites + standby)
    events.append((Fraction(1), f"fail {rng.choice(sites)}"))
    for _ in range(scale.requests):
        events.append(
            (_frac(rng, 0, 10), f"request {rng.choice(subjects)} {rng.choice(objects)} read")
        )
    lines.append("")
    lines.extend(extra)
    lines.append("")
    for when, body in sorted(events, key=lambda item: item[0]):
        lines.append(f"at {_num(when)} {body}")
    lines.append("")
    return "\n".join(lines)


GENERATORS = {"incident_mix": incident_text, "ward_scale": ward_text, "surge": surge_text}


def workload_texts(name: str, seed: int, scale: Scale | None = None) -> list[tuple[str, str]]:
    """(scenario name, source) pairs of workload `name` for `seed`."""
    scale = SCALES[name] if scale is None else scale
    rng = random.Random(f"{name}/{seed}")
    out = []
    for index in range(scale.scenarios):
        text = GENERATORS[name](rng.getrandbits(32), scale)
        out.append((f"{name}-{index:03d}", text))
    return out


def scaled(name: str, **knobs) -> Scale:
    """The workload's default scale with some knobs replaced."""
    return replace(SCALES[name], **knobs)
