"""Measurement helpers shared by every workload.

Statistics (median, the tail rule), the correctness check against the
benchmark's own references, run metadata, peak memory, and the result
line.  Nothing here imports ``repro`` at module level, so the self-tests
run without the library on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Metric and workload names: a letter or digit, then letters, digits, ``_.-``.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

#: Statistical tolerance of the correctness check, in standard errors.
Z_TOLERANCE = 5.0

#: CPUs this process may run on when the benchmark starts (a workload may
#: narrow its own affinity later).
CPUS = len(os.sched_getaffinity(0))

#: Absolute slack for floating-point rounding when a window is otherwise 0
#: (a noiseless deterministic parity).
ROUNDING = 1e-9


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``.  The value is the
    ``beyond + 1``-th largest sample, so exactly ``beyond`` samples lie
    beyond it and the percentile is ``100 * (n - beyond) / n``.  With no
    more than ``beyond`` samples the rule cannot be met; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n, n


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def fault_probability(program, noise) -> float:
    """Probability that at least one stochastic fault fires in one shot.

    Walks a compiled program's fault sites (gate faults, hop-weighted
    link faults, readout flips) at the rates the noise model assigns
    them.  A shot with no fault is an ideal shot, so the noisy output
    state is within this trace distance of the ideal one (the fault-path
    bound), whatever Pauli the faults apply.
    """
    if noise is None:
        return 0.0
    survive = 1.0
    for op in program.ops:
        if op.sample_fault:
            survive *= 1.0 - noise.gate_error_rate(len(op.qubits), op.qpu)
        if op.link_hops:
            survive *= 1.0 - noise.link_error_rate(op.link_hops)
        if op.kind == "measure":
            survive *= 1.0 - noise.meas_flip_rate(op.qpu)
    return 1.0 - survive


def parity_sigma(mean: float, shots: int, allowance: float = 0.0) -> float:
    """Largest standard error of the mean of ``shots`` +-1 outcomes.

    The true mean lies within ``allowance`` of ``mean`` (noise can move it
    that far); the variance ``1 - m**2`` is largest at the ``m`` of that
    interval closest to 0.
    """
    nearest = max(abs(mean) - allowance, 0.0)
    return math.sqrt(max(1.0 - nearest * nearest, 0.0) / max(shots, 1))


@dataclass(frozen=True)
class Reference:
    """What one estimate must agree with.

    ``value`` is the exact trace computed by the benchmark; ``sigma_re``
    and ``sigma_im`` the largest shot-noise standard errors of the two
    readout bases (see :func:`parity_sigma`); ``allowance`` the largest
    shift noise can cause in either parity mean (twice the fault-path
    trace distance).
    """

    value: complex
    sigma_re: float
    sigma_im: float
    allowance: float = 0.0


def estimate_ok(estimate: complex, reference: Reference) -> bool:
    """Whether an estimate lies within 5 sigma plus the noise allowance.

    Each component is checked on its own, with the sigma the reference
    implies.  The standard error the run reports is not used: a wrong
    kernel whose outcomes look like coin flips reports a large error and
    would otherwise widen its own window.
    """
    estimate = complex(estimate)
    if not (math.isfinite(estimate.real) and math.isfinite(estimate.imag)):
        return False
    parts = (
        (estimate.real, reference.value.real, reference.sigma_re),
        (estimate.imag, reference.value.imag, reference.sigma_im),
    )
    return all(
        abs(got - want) <= Z_TOLERANCE * sigma + reference.allowance + ROUNDING
        for got, want, sigma in parts
    )


@dataclass
class Outcomes:
    """Attempted and failed operations of one run, with the first reasons.

    ``wrong`` counts the failures that make a run incorrect: wrong results
    and errors.  Overload (a request refused at the door with 429, or not
    finished before the drain deadline) is a failure but not a wrong output.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, reason: str = "", overload: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += not overload
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    def merge(self, other: "Outcomes") -> None:
        """Add the counts and first reasons of ``other`` to these."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.reasons = (self.reasons + other.reasons)[:20]


# ----------------------------------------------------------------------
# Environment and output
# ----------------------------------------------------------------------
def peak_rss_mb(pool: bool = True) -> float:
    """Peak resident memory of this process plus its largest reaped child.

    Pool workers are reaped when their pool shuts down, so call this after
    closing every pool and before starting any unrelated child process.
    With ``pool`` false the workload has no pool and only this process
    counts (its :class:`CoreKeeper` is no part of the program).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool else 0
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


#: The keeper's loop: idle priority on one core, until its parent is gone.
_KEEPER = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    pass
"""


class CoreKeeper:
    """A busy loop that keeps one core from going idle while a workload runs.

    A lightly loaded core halts between requests, and on a virtual machine
    each wake-up from a halt waits for the host to run the core again, a
    wait that follows the load of the whole host.  The keeper runs at
    ``SCHED_IDLE`` priority, so any thread of the program preempts it when
    it wakes: it only takes time the program leaves unused, as booting
    with ``idle=poll`` would.  It ends when stopped or when its parent
    exits.
    """

    def __init__(self, cpu: int):
        self.process = subprocess.Popen([sys.executable, "-c", _KEEPER, str(cpu)])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        self.process.wait()


def source_digest(root: Path) -> str:
    """SHA-256 over the library sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path) -> str:
    """The commit checked out at ``root``, or ``unknown`` if it is no work tree.

    Git does not look above ``root`` for a repository.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_metadata(root: Path, workload: str, seed: int, extra: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "commit": commit(root),
        "source_digest": source_digest(root),
        "cpus": CPUS,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **extra,
    }


def emit(correct: bool, outcomes: Outcomes, metrics: dict, meta: dict) -> None:
    """Print the metadata line, then the result line (always the last line)."""
    for name in metrics:
        if not NAME_PATTERN.match(name):
            raise ValueError(f"bad metric name {name!r}")
    print(json.dumps({"meta": meta}, default=str))
    result = {
        "correct": bool(correct),
        "attempted": int(outcomes.attempted),
        "failed": int(outcomes.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()
