"""Tests of the benchmark itself: generator, tracer, count repeatability.

    python3 -m pytest bench -q

Small scales keep this under a minute; the workloads' shapes are the same.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

run.load_program()

SMALL = {
    "incident_mix": gen.scaled("incident_mix", scenarios=6),
    "ward_scale": gen.scaled("ward_scale", entities=8, requests=20),
    "surge": gen.scaled("surge", entities=2, group_size=4),
}


@pytest.fixture
def workdir(tmp_path):
    return tmp_path / "work"


def traced_round(workload: str, seed: int, workdir: Path) -> tuple[run.Round, tracing.Tracer]:
    ops = run.prepare(workload, seed, workdir, SMALL[workload])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.run_round(ops, tracer)
    finally:
        tracer.remove()
    return result, tracer


@pytest.mark.parametrize("workload", list(SMALL))
def test_generator_is_a_function_of_seed_and_scale(workload):
    first = gen.workload_texts(workload, 7, SMALL[workload])
    assert first == gen.workload_texts(workload, 7, SMALL[workload])
    assert first != gen.workload_texts(workload, 8, SMALL[workload])
    assert len(first) == SMALL[workload].scenarios


@pytest.mark.parametrize("workload", list(SMALL))
def test_default_scale_parses_and_validates(workload):
    from feac import model, scenario

    for name, text in gen.workload_texts(workload, 3)[:5]:
        sc, diags = scenario.parse_scenario(text, name)
        assert diags == []
        assert model.validate_store(sc.store, list(sc.emergencies.values())) == []


@pytest.mark.parametrize("workload", list(SMALL))
def test_every_operation_passes(workload, workdir):
    ops = run.prepare(workload, 5, workdir, SMALL[workload])
    result = run.run_round(ops)
    assert result.failures == {}
    assert all(result.digests)


@pytest.mark.parametrize("workload", list(SMALL))
def test_counts_repeat_and_spans_nest(workload, workdir):
    first, tracer = traced_round(workload, 2, workdir)
    assert first.failures == {}
    assert tracing.span_tree_errors(tracer) == []
    own = tracing.span_totals(tracer)[2]
    assert all(value > -1e-9 for value in own.values())
    counts = {name: tracing.layer_metrics(tracer)[name] for name in tracing.COUNT_METRICS}

    second, again = traced_round(workload, 2, workdir)
    assert second.digests == first.digests
    assert {name: tracing.layer_metrics(again)[name] for name in tracing.COUNT_METRICS} == counts


def test_tracer_restores_what_it_wraps():
    from feac import audit, checks, engine, model, sim

    before = (
        sim.engine_tick,
        engine.select_subject,
        engine.evaluate,
        checks.check_gating,
        audit.AuditLog.__dict__["append"],
        model.PolicyStore.__dict__["clone"],
    )
    tracer = tracing.Tracer()
    tracer.install()
    assert sim.engine_tick is not before[0]
    tracer.remove()
    after = (
        sim.engine_tick,
        engine.select_subject,
        engine.evaluate,
        checks.check_gating,
        audit.AuditLog.__dict__["append"],
        model.PolicyStore.__dict__["clone"],
    )
    assert after == before


def test_layers_where_the_workloads_say(workdir):
    _, ward = traced_round("ward_scale", 1, workdir)
    ward_metrics = tracing.layer_metrics(ward)
    assert ward_metrics["constraints.evaluate_calls"] > ward_metrics["engine.select_subject_calls"]
    assert ward_metrics["model.acl_check_calls"] > 0
    _, surge = traced_round("surge", 1, workdir / "surge")
    surge_metrics = tracing.layer_metrics(surge)
    assert surge_metrics["planner.sampled_ratio"] == 0
    assert surge_metrics["planner.build_s"] > surge_metrics["engine.select_subject_s"]
    assert surge_metrics["checks.violations"] == 0


def test_reference_workload_is_fixed():
    assert calibrate.reference_workload() == calibrate.reference_workload()
    assert len(calibrate.sample(2)) == 2


def test_sampler_scales_by_the_median_of_its_samples():
    ref = calibrate.REFERENCE_S
    sampler = calibrate.Sampler()
    sampler.times = [2 * ref, 9 * ref, 2 * ref]
    assert sampler.scale() == pytest.approx(0.5)
    assert sampler.times == [2 * ref, 9 * ref, 2 * ref][-calibrate.SAMPLES :]
    sampler.poll()
    sampler.poll()  # too soon after the last: no sample
    assert len(sampler.times) == 2 * calibrate.SAMPLES
    sampler.restart()
    assert len(sampler.times) == calibrate.SAMPLES


def test_digest_mismatch_fails_the_operation(workdir):
    ops = run.prepare("surge", 1, workdir, SMALL["surge"])
    result = run.run_round(ops)
    ((trace_digest, plan_digest),) = result.digests
    run.check_digests([result], [[trace_digest, plan_digest]], ops)
    assert result.failures == {}
    run.check_digests([result], [[trace_digest, "0" * 64]], ops)
    assert list(result.failures) == [0] and "plan digest" in result.failures[0]


COUNTS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_bench, tracing
from pathlib import Path
_, tracer = test_bench.traced_round(sys.argv[2], 4, Path(sys.argv[3]))
print(json.dumps({n: tracing.layer_metrics(tracer)[n] for n in tracing.COUNT_METRICS}))
"""


@pytest.mark.parametrize("workload", list(SMALL))
def test_counts_repeat_across_processes(workload, tmp_path):
    """String hashing differs per process; the counts must not."""
    seen = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", COUNTS_SCRIPT, str(BENCH), workload, str(tmp_path / hash_seed)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        seen.append(json.loads(out.stdout.splitlines()[-1]))
    assert seen[0] == seen[1]


def test_fails_without_program_source(tmp_path):
    """Beside only the benchmark's own files, the run exits non-zero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "surge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
