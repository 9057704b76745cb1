"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload family-dense --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` prints the per-layer metrics instead: it first repeats the
untraced run in a fresh process (the baseline of ``obs.overhead_frac``),
then measures again with the program's ``repro.obs`` spans and the
benchmark's layer wrappers on.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries the run metadata.  See ``perfbench/README.md``.

The library is imported from ``src/`` next to this directory and nowhere
else: without it the run fails before printing a result.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

#: One BLAS thread per process, set before NumPy loads (pool workers and
#: set-up probes inherit it).  An idle BLAS pool spins on the spare core
#: of a small shared host and made the serial kernels' speed swing twice
#: as much from one run to the next.
BLAS_THREADS = {
    name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from harness import Outcomes, emit, median, peak_rss_mb, run_metadata, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh processes that repeat the set-up, besides the measured run itself.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150


def import_library():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return repro


def set_up(args):
    """Build the workload up to its first ready request; returns (w, seconds)."""
    import_library()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.setup()
    workload.first_request()
    return workload, time.perf_counter() - START


def child(args, *extra) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    return subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def probe_setup(args) -> list[float]:
    """Set-up times of fresh processes (each one imports, builds, binds)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = child(args, "--setup-probe")
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "shots_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "goodput_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: Self-time metrics: the partition of each request's traced wall time.
SELF_TIME = (
    "api.validate_s", "api.hash_s", "api.exact_s", "api.envelope_s", "api.glue_s",
    "client.lateness_s", "service.parse_s", "service.http_s", "service.queue_wait_s",
    "service.glue_s", "engine.job_hash_s", "engine.route_s", "engine.reduce_s",
    "engine.cache_lookup_s", "engine.dispatch_wait_s", "engine.glue_s",
    "sim.compile_s", "sim.execute_s", "sim.glue_s", "core.build_s",
    "network.lower_s", "obs.report_s", "obs.unattributed_s",
)

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    "service.run_s": "s",
    "service.dedupe_joins": "count",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "engine.cache_stores": "count",
    "engine.cache_hit_ratio": "ratio",
    "engine.batches": "count",
    "engine.pool_busy_ratio": "ratio",
    "engine.costmodel_ratio": "ratio",
    "sim.compile_misses": "count",
    "sim.ops": "count",
    "sim.stochastic_sites": "count",
    "sim.state_qubits": "qubits",
    "sim.bytes_computed": "B",
    "network.bell_pairs": "count",
    "network.physical_bell_pairs": "count",
    "network.depth": "count",
    "obs.overhead_frac": "ratio",
    "obs.traced_wall_s": "s",
}


def with_units(values: dict, units: dict) -> dict:
    """Pair every metric with its unit; the names must be exactly ``units``."""
    if set(values) != set(units):
        raise RuntimeError(f"metric names differ: {sorted(set(values) ^ set(units))}")
    return {name: (values[name], units[name]) for name in units}


def end_to_end(args) -> None:
    workload, setup_s = set_up(args)
    try:
        workload.prepare()
        phase = workload.measure(args.seconds, None)
        verified, windows = workload.verify()
    finally:
        workload.close()
    phase.outcomes.merge(verified)
    rss = peak_rss_mb(workload.pool)
    setups = [setup_s] if args.skip_setup_probes else [setup_s, *probe_setup(args)]
    tail_s, tail_pct, samples = tail(phase.latencies)
    shots, requests, good = (
        median([part[column] / part[3] for part in phase.slices]) for column in range(3)
    )
    metrics = {
        "setup_s": median(setups),
        "shots_per_s": shots,
        "requests_per_s": requests,
        "latency_p50_s": median(phase.latencies),
        "latency_tail_s": tail_s,
        "goodput_rps": good,
        "peak_rss_mb": rss,
    }
    meta = run_metadata(ROOT, args.workload, args.seed, {
        "trace": 0,
        "seconds": args.seconds,
        "measured_wall_s": phase.wall,
        "rate_slices": len(phase.slices),
        "latency_samples": samples,
        "latency_tail_percentile": tail_pct,
        "latency_limit_s": workload.latency_limit_s,
        "setup_samples_s": setups,
        "verify_windows": windows,
        "failure_reasons": phase.outcomes.reasons,
        **phase.meta,
    })
    emit(phase.outcomes.wrong == 0, phase.outcomes, with_units(metrics, END_TO_END), meta)


def per_layer(args) -> None:
    from layers import Instrumentation, Timeline, traced_observability

    baseline = child(args, "--trace", "0", "--skip-setup-probes")
    if baseline.returncode != 0:
        sys.exit(f"perfbench: untraced baseline run failed:\n{baseline.stderr}")
    untraced = json.loads(baseline.stdout.strip().splitlines()[-1])

    workload, _ = set_up(args)
    try:
        workload.prepare()
        from repro.sim.compile import compile_cache_stats
        from workloads import Tracing

        service = getattr(workload, "service", None)
        engine = service.engine if service is not None else workload.engine
        obs = traced_observability(service.obs.metrics if service is not None else None)
        engine.set_observability(obs)
        before = compile_cache_stats()
        with Instrumentation() as instr:
            instr.active = True
            phase = workload.measure(args.seconds, Tracing(obs=obs, instr=instr))
            instr.active = False
        after = compile_cache_stats()
        # Distinct programs that missed the parent's cache: two pool threads
        # that race to compile one circuit count once, so the count repeats.
        compile_misses = after["cached_programs"] - before["cached_programs"]
        compile_misses += obs.metrics.counter("engine.worker_compile", outcome="miss").value
        spans = obs.tracer.span_dicts()
        verified, windows = workload.verify()
    finally:
        workload.close()
    phase.outcomes.merge(verified)

    requests = len(phase.latencies)
    timeline = Timeline(instr.frames, spans)
    totals = dict.fromkeys(SELF_TIME, 0.0)
    for tid, w0, w1 in phase.windows:
        timeline.partition(tid, w0, w1, totals)
    for name, value in phase.extra_totals.items():
        totals[name] += value
    metrics = {name: value / requests for name, value in totals.items()}
    traced_wall = sum(phase.latencies) / requests

    counts, shapes = _job_counts(instr.jobs, spans, engine, requests)
    busy = sum(s["duration"] for s in spans if s["name"] == "worker.batch")
    cache = phase.meta.get("cache", {"hits": 0, "misses": 0, "stores": 0})
    lookups = cache["hits"] + cache["misses"]
    untraced_p50 = untraced["metrics"]["latency_p50_s"]["value"]
    metrics.update({
        "service.run_s": phase.meta.get("service_run_s_total", 0.0) / requests,
        "service.dedupe_joins": phase.meta.get("dedupe_joins", 0),
        "engine.cache_hits": cache["hits"],
        "engine.cache_misses": cache["misses"],
        "engine.cache_stores": cache["stores"],
        "engine.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "engine.pool_busy_ratio": busy / (engine.scheduler.workers * phase.wall),
        "sim.compile_misses": compile_misses,
        "obs.overhead_frac": median(phase.latencies) / untraced_p50 - 1.0,
        "obs.traced_wall_s": traced_wall,
        **counts,
        **_network_counts(phase.envelopes, requests),
    })
    outcomes = Outcomes(
        attempted=phase.outcomes.attempted + untraced["attempted"],
        failed=phase.outcomes.failed + untraced["failed"],
    )
    correct = phase.outcomes.wrong == 0 and untraced["correct"]
    meta = run_metadata(ROOT, args.workload, args.seed, {
        "trace": 1,
        "seconds": args.seconds,
        "requests": requests,
        "compiles_raw": after["compiles"] - before["compiles"],
        "spans": len(spans),
        "frames": len(instr.frames),
        "self_time_sum_s": sum(totals.values()) / requests,
        "traced_wall_per_request_s": traced_wall,
        "untraced_latency_p50_s": untraced_p50,
        "costmodel_ratio_by_shape": shapes,
        "verify_windows": windows,
        "bytes_computed_model": "shots * 2**n * 16 B per op after the shared prefix",
        "failure_reasons": phase.outcomes.reasons,
        **phase.meta,
    })
    emit(correct, outcomes, with_units(metrics, PER_LAYER), meta)


def _job_counts(jobs, spans, engine, requests):
    """Kernel counts from the compiled programs, and cost-model ratios by shape."""
    from repro.sim.compile import get_compiled

    measured: dict[str, float] = {}
    job_of_span = {
        s["span_id"]: s["attrs"].get("job_hash") for s in spans if s["name"] == "engine.job"
    }
    parents = {s["span_id"]: s.get("parent_id") for s in spans}
    batches = 0
    for span in spans:
        if span["name"] == "worker.batch":
            batches += span["attrs"].get("batches", 1)
        if span["name"] != "worker.execute":
            continue
        ancestor = span.get("parent_id")
        while ancestor is not None and ancestor not in job_of_span:
            ancestor = parents.get(ancestor)
        if ancestor is not None:
            key = job_of_span[ancestor]
            measured[key] = measured.get(key, 0.0) + span["duration"]
    dense = ops = sites = qubits = computed = 0
    estimated = {}
    executed = {}
    for shape, job, backend in jobs:
        if backend == "statevector":
            live = job.noise is not None and not job.noise.is_noiseless
            program = get_compiled(
                job.circuit,
                gate_noise=live and job.noise.has_gate_noise,
                link_noise=live and job.noise.has_link_noise,
            )
            deterministic = program.prefix_len
            dense += 1
            ops += len(program.ops)
            sites += sum(op.is_stochastic for op in program.ops)
            qubits += program.num_qubits
            amplitudes = 16 * program.dim
            computed += amplitudes * (
                job.shots * (len(program.ops) - deterministic) + deterministic
            )
        seconds = measured.get(job.content_hash()[:16], 0.0)
        if seconds > 0.0:
            estimate = engine.scheduler.estimate_job_seconds(job, backend)
            estimated[shape] = estimated.get(shape, 0.0) + estimate
            executed[shape] = executed.get(shape, 0.0) + seconds
    shapes = {shape: estimated[shape] / executed[shape] for shape in sorted(estimated)}
    total_executed = sum(executed.values())
    ratio = sum(estimated.values()) / total_executed if total_executed else 0.0
    counts = {
        "engine.batches": batches / requests,
        "engine.costmodel_ratio": ratio,
        "sim.ops": ops / requests,
        "sim.stochastic_sites": sites / requests,
        "sim.state_qubits": qubits / dense if dense else 0.0,
        "sim.bytes_computed": computed / requests,
    }
    return counts, shapes


def _network_counts(envelopes, requests) -> dict:
    """The paper's Table 1-2 quantities of the lowered programs, per request."""
    totals = {"network.bell_pairs": 0, "network.physical_bell_pairs": 0, "network.depth": 0}
    for envelope in envelopes:
        lowered = envelope["extra"].get("resources", {}).get("lowered")
        if lowered:
            totals["network.bell_pairs"] += lowered["logical_bells"]
            totals["network.physical_bell_pairs"] += lowered["physical_bells"]
            totals["network.depth"] += lowered["depth"]
    return {name: value / requests for name, value in totals.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--skip-setup-probes", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        workload, setup_s = set_up(args)
        workload.close()
        print(setup_s)
    elif args.trace:
        per_layer(args)
    else:
        end_to_end(args)


if __name__ == "__main__":
    main()
