"""Deterministic random inputs for planner comparisons and end-to-end runs.

`random_group` builds in-memory groups for planner-versus-oracle checks.
`generate_scenario_text` emits a complete scenario source that parses
without diagnostics and always reaches quiescence, disaster, or expiry
before its horizon, so traces stay bounded. Both draw every choice from a
caller-seeded Random, making each case reproducible from one integer.
`clean_scenario_texts` lists every scenario the tests expect to be clean.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from feac.fixtures import hospital_text
from feac.model import Emergency, TaskSet
from feac.planner import InfluencePair, InfluenceSpec

OPS = ("use", "read", "write", "read_write")


def _frac(rng: random.Random, lo: int, hi: int, halves: bool = True) -> Fraction:
    value = Fraction(rng.randint(lo, hi))
    if halves and rng.random() < 0.4:
        value += Fraction(1, 2)
    return value


def random_group(rng: random.Random, max_size: int = 5, sigma_denominators=None):
    """(group, tdt_pairs, InfluenceSpec) for one synthetic entity.

    Priorities are drawn from a narrow range so equal-priority freedom (and
    with it multi-order graphs) shows up often; deadlines are drawn tight
    enough that some orders die on the deadline checks. Sigmas are tenths up
    to 0.8, or with `sigma_denominators` a denominator drawn from it and any
    numerator below it.
    """
    size = rng.randint(1, max_size)
    eids = [f"E{i}" for i in range(1, size + 1)]
    group = []
    for eid in eids:
        n_ts = rng.randint(1, 3)
        task_sets = []
        for t in range(1, n_ts + 1):
            resources = frozenset()
            roll = rng.random()
            if roll < 0.15:
                resources = frozenset({"R1"})
            elif roll < 0.25:
                resources = frozenset({"R2"})
            task_sets.append(
                TaskSet(
                    tsid=f"TS{t}",
                    actions=(("O1", rng.choice(("use", "read", "write"))),),
                    time=_frac(rng, 1, 6),
                    prob=Fraction(rng.randint(40, 100), 100),
                    resources=resources,
                )
            )
        group.append(
            Emergency(
                eid=eid,
                entity="X",
                prio=rng.randint(1, 4),
                ed=_frac(rng, 3, 26),
                ft_feasible=True,
                task_sets=tuple(task_sets),
            )
        )

    tdt_pairs: set[tuple[str, str]] = set()
    for a in group:
        for b in group:
            if a.prio < b.prio and rng.random() < 0.2:
                tdt_pairs.add((a.eid, b.eid))

    def pick() -> Fraction:
        if rng.random() >= 0.6:
            return Fraction(0)
        if sigma_denominators is None:
            return Fraction(rng.randint(0, 8), 10)
        den = rng.choice(sigma_denominators)
        return Fraction(rng.randint(0, den - 1), den)

    pairs: dict[tuple[str, str], InfluencePair] = {}
    for a in eids:
        for b in eids:
            if a != b and rng.random() < 0.25:
                pairs[(a, b)] = InfluencePair(sigma_p=pick(), sigma_t=pick(), sigma_ed=pick())
    return group, tdt_pairs, InfluenceSpec(pairs=pairs)


def _fmt(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return str(float(value))


def generate_scenario_text(seed: int) -> str:
    rng = random.Random(seed)
    lines: list[str] = [f"scenario gen{seed}", ""]

    tp = rng.choice((Fraction(1, 2), Fraction(1)))
    lines.append(f"config tp = {_fmt(tp)}")
    lines.append(f"config alpha = {_fmt(rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))))}")
    lines.append(f"config beta = {_fmt(rng.choice((Fraction(1, 2), Fraction(1))))}")
    lines.append(f"config k = {rng.choice((2, 6, 64))}")
    lines.append(f"config seed = {rng.randint(0, 999983)}")
    lines.append(f"config fallback = {rng.choice(('probability_first', 'time_first'))}")

    n_entities = rng.randint(1, 3)
    entities = [f"W{i}" for i in range(1, n_entities + 1)]
    use_env = rng.random() < 0.7
    lines.append("")
    for entity in entities:
        lines.append(f"entity {entity}")

    roles = [f"R{i}" for i in range(1, rng.randint(2, 4) + 1)]
    lines.append("")
    for role in roles:
        lines.append(f"role {role}")

    lines.append("")
    lines.append("constraint near = dist(location, (0, 0)) <= 900")

    n_subjects = rng.randint(len(roles), len(roles) * 3)
    subjects = [f"S{i}" for i in range(1, n_subjects + 1)]
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
        rows = {f"acl {rng.choice(roles)} {rng.choice(OPS)}" for _ in range(rng.randint(0, 2))}
        body = (" " + " ".join(sorted(rows)) + " ") if rows else " "
        lines.append(f"object {oid} {{{body}}}")

    groups = list(entities)
    if use_env:
        groups.append("env")
    counters = {"n": 0}
    emergencies: dict[str, dict] = {}
    per_entity: dict[str, list[str]] = {g: [] for g in groups}
    for entity in groups:
        for _ in range(rng.randint(1, 3 if entity == "env" else 4)):
            counters["n"] += 1
            eid = f"E{counters['n']}"
            prio = rng.randint(1, 4)
            ed = rng.randint(9, 30)
            task_count = rng.randint(1, 2)
            tss = []
            for t in range(1, task_count + 1):
                actions = ", ".join(
                    f"{rng.choice(objects)} {rng.choice(OPS)}"
                    for _ in range(rng.randint(1, 2))
                )
                res = ""
                if rng.random() < 0.3:
                    res = f", resources = [Q{rng.randint(1, 2)}]"
                prob = Fraction(rng.randint(40, 100), 100)
                tss.append(
                    f"  ts TS{t} {{ actions = [{actions}], time = {rng.randint(1, 4)}, "
                    f"prob = {_fmt(prob)}{res} }}"
                )
            emergencies[eid] = {"entity": entity, "prio": prio, "ed": ed}
            per_entity[entity].append(eid)
            ft = "true" if rng.random() < 0.92 else "false"
            lines.append("")
            lines.append(f"emergency {eid} {{")
            lines.append(f"  entity {entity}")
            lines.append(f"  prio {prio}")
            lines.append(f"  ed {ed}")
            lines.append(f"  ft {ft}")
            lines.extend(tss)
            lines.append("}")

    lines.append("")
    for eid in emergencies:
        if rng.random() < 0.9:
            picked = sorted(rng.sample(roles, rng.randint(1, min(2, len(roles)))))
            where = " where @near" if rng.random() < 0.4 else ""
            lines.append(f"map {eid} -> [{', '.join(picked)}]{where}")
        if rng.random() < 0.15:
            lines.append(f"fallbackmap {eid} where true")

    tdt_lines = []
    for entity in groups:
        members = per_entity[entity]
        for a in members:
            for b in members:
                if emergencies[a]["prio"] < emergencies[b]["prio"] and rng.random() < 0.15:
                    tdt_lines.append(f"depends time {a} -> {b}")
    if tdt_lines:
        lines.append("")
        lines.extend(tdt_lines)

    if use_env and per_entity["env"]:
        gated = []
        for entity in entities:
            if rng.random() < 0.6:
                for gate in rng.sample(per_entity["env"], rng.randint(1, len(per_entity["env"]))):
                    gated.append(f"depends env {entity} on {gate}")
        if gated:
            lines.append("")
            lines.extend(gated)

    infl_lines = []
    for entity in groups:
        members = per_entity[entity]
        done = set()
        for a in members:
            for b in members:
                if a != b and (a, b) not in done and rng.random() < 0.2:
                    done.add((a, b))
                    parts = []
                    for channel in ("sigma_p", "sigma_t", "sigma_ed"):
                        if rng.random() < 0.6:
                            parts.append(f"{channel} = {_fmt(Fraction(rng.randint(1, 7), 10))}")
                    if parts:
                        infl_lines.append(
                            f"influence {a} -> {b} {{ {' '.join(parts)} }}"
                        )
    if infl_lines:
        lines.append("")
        lines.extend(infl_lines)

    if n_entities >= 2 and rng.random() < 0.85:
        lines.append("")
        for entity in entities:
            lines.append(f"fgroup {entity} = pool")

    events: list[tuple[Fraction, str]] = []
    latest_deadline = Fraction(0)
    for eid, meta in emergencies.items():
        when = Fraction(rng.randint(0, 12), 2)
        events.append((when, f"raise {eid}"))
        latest_deadline = max(latest_deadline, when + meta["ed"])
        if rng.random() < 0.55:
            # Environment emergencies have no substitution peers, so repeated
            # forced failure there almost always snowballs into disaster;
            # keep that path present but rare.
            ok = 0.9 if meta["entity"] == "env" else 0.7
            outcome = "success" if rng.random() < ok else "failure"
            events.append((Fraction(0), f"force {eid} TS1 {outcome}"))
    if n_entities >= 2 and rng.random() < 0.25:
        events.append((_frac(rng, 1, 5), f"fail {rng.choice(entities)}"))
    for _ in range(rng.randint(0, 3)):
        events.append(
            (
                _frac(rng, 0, 8),
                f"request {rng.choice(subjects)} {rng.choice(objects)} {rng.choice(OPS)}",
            )
        )

    horizon = latest_deadline + 8
    lines.insert(lines.index("config tp = " + _fmt(tp)) + 1, f"config horizon = {_fmt(horizon)}")

    lines.append("")
    for when, body in sorted(events, key=lambda item: item[0]):
        lines.append(f"at {_fmt(when)} {body}")
    lines.append("")
    return "\n".join(lines)


def clean_scenario_texts() -> list[tuple[str, str]]:
    """(name, text) of each scenario that parses without diagnostics: the
    hospital fixture, tests/data/*.feac and the 60-run acceptance sweep."""
    data = Path(__file__).parent / "data"
    texts = [("hospital", hospital_text())]
    texts += [(path.name, path.read_text(encoding="utf-8")) for path in sorted(data.glob("*.feac"))]
    texts += [(f"sweep {seed}", generate_scenario_text(seed)) for seed in range(60)]
    return texts
