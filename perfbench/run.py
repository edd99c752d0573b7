"""Closed-loop benchmark of the lsl command line, one client, no threads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload campaign-cubic --seed 1 \
        --seconds 30 --trace 0

One op is one in-process call of ``lsl.cli.main(argv)`` with ``--out``
pointed at a scratch file; the next op starts when the previous one has
returned and its CSV has been checked.  Per-op ``--seed`` values are
drawn from the workload seed.  With ``--trace 0`` the run measures the
end-to-end metrics, scaled to a reference speed (``end_to_end_metrics``);
with ``--trace 1`` it runs each op untraced and then again traced (see
``tracer.py``) and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records and
span files go to ``.perfbench_out/`` at the repository root.

Exit codes: 0 a result was printed, 1 a run-level check failed, 2 the
lsl sources are missing from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

RNG_CONTRACT = "v1: sha256(master:i)[:8] + per-trial default_rng replay"
#: The tail percentile needs at least ten ops beyond it.
MIN_OPS = 11
#: Ops whose CSVs every run digests, whatever the run's length.
DIGEST_OPS = 10
#: Fresh-process set-ups per run, spread over it; the median is reported.
SETUP_PROBES = 15
#: Wall time of one ``reference_kernel()`` call on a quiet core of the
#: machine the benchmark was calibrated on (2-core Xeon VM, 2.1 GHz).
#: Gated times are scaled to that speed; the value only sets the scale.
REF_S = 0.006
#: Allowed relative gap between a campaign's mean effective noise power
#: and its prediction: over four standard errors at the workloads' trial
#: counts.
NOISE_TOL = 0.10
#: Alternating --jobs 1 / --jobs 2 op pairs in a traced run.
JOBS_PAIRS = 3

HEADERS = {
    "simulate": (
        "config_hash,trials,seed,e1_count,e1_rate,e1_lo,e1_hi,"
        "e2_count,e2_rate,e2_lo,e2_hi,e3_count,e3_rate,e3_lo,e3_hi,"
        "direct_counts,direct_rates,direct_lo,direct_hi,"
        "mean_eff_noise_power,predicted_eff_noise_var,mean_residual_power"),
    "repr-check": (
        "family,q,N,K,trials,failures,max_index,index_bound,passed"),
    "leakage": (
        "K,q,N,M,rate_per_dim,h_cond,identity_target,identity_ok,"
        "chain_first,chain_last,leakage,bound,modsum_entropy,"
        "index_entropy,index_bound,passed"),
}


@dataclass(frozen=True)
class Workload:
    """One fixed lsl invocation; only ``--seed`` changes from op to op."""

    name: str
    subcommand: str
    K: int
    q: int
    N: int
    trials: int | None
    family: str = "cubic"
    generator: tuple[tuple[int, ...], ...] | None = None
    #: Trials of the run-level engine-equals-reference check (campaigns).
    check_trials: int = 0

    @property
    def flags(self) -> list[str]:
        """The subcommand and every flag that stays fixed across ops."""
        flags = [self.subcommand, "--K", str(self.K), "--family",
                 self.family, "--q", str(self.q), "--N", str(self.N)]
        if self.generator:
            flags += ["--generator", ";".join(
                ",".join(map(str, row)) for row in self.generator)]
        if self.trials is not None:
            flags += ["--trials", str(self.trials)]
        return flags

    def argv(self, seed: int, out: Path, jobs: int = 1) -> list[str]:
        return self.flags + ["--seed", str(seed), "--jobs", str(jobs),
                             "--out", str(out)]

    @property
    def trials_per_op(self) -> int:
        # An exact leakage op has no sampling: it counts as one trial.
        return self.trials if self.trials is not None else 1

    @property
    def states_per_op(self) -> int:
        # A Monte Carlo trial evaluates one joint codeword state; the
        # exact leakage tally enumerates all M^(K-1) of them.
        if self.subcommand == "leakage":
            return (self.q ** self.N) ** (self.K - 1)
        return self.trials


# Ops are kept short, about 50 ms on a quiet core, so that the reference
# kernel run after each op samples the machine's speed densely.
# campaign-coded is the exception: below about 400 trials the 10%
# noise-power check would be less than four standard errors wide.
WORKLOADS = {w.name: w for w in (
    Workload("campaign-cubic", "simulate", K=3, q=2, N=2, trials=2_000,
             check_trials=200),
    Workload("campaign-coded", "simulate", K=3, q=3, N=4, trials=500,
             family="construction-a",
             generator=((1, 0, 1, 1), (0, 1, 1, 2)), check_trials=20),
    Workload("certify", "repr-check", K=4, q=2, N=3, trials=300),
    Workload("leakage-exact", "leakage", K=3, q=3, N=4, trials=None),
)}

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "op_cpu_s_p50": "s",
    "trials_per_s": "trials/s",
    "states_per_s": "states/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read straight off the span summary: (span, field).
SPAN_METRICS = (
    ("simulate.run_campaign", "self_s"),
    ("simulate.derive_trial_seed", "calls"),
    ("simulate.derive_trial_seed", "self_s"),
    ("simulate.run_trial", "calls"),
    ("simulate.run_trial", "self_s"),
    ("simulate.encode_interferer", "self_s"),
    ("simulate.encode_user_k", "self_s"),
    ("simulate.apply_channel", "self_s"),
    ("simulate.decode_direct", "self_s"),
    ("simulate.decode_mod_sum", "self_s"),
    ("simulate.subtract_interference", "self_s"),
    ("simulate.decode_user_k", "self_s"),
    ("simulate.Scheme.for_config", "self_s"),
    ("lattices.codebook", "self_s"),
    ("lattices.quantize", "calls"),
    ("lattices.quantize", "self_s"),
    ("lattices.mod_lattice", "calls"),
    ("lattices.mod_lattice", "self_s"),
    ("lattices.in_voronoi", "calls"),
    ("lattices.in_voronoi", "self_s"),
    ("lattices.sample_dither", "calls"),
    ("lattices.sample_dither", "self_s"),
    ("representation.certify_sum", "calls"),
    ("representation.certify_sum", "self_s"),
    ("representation.reconstruct_sum", "self_s"),
    ("representation.mod_sum", "self_s"),
    ("representation.candidate_set", "calls"),
    ("leakage.conditional_entropy_given_modsum", "self_s"),
    ("leakage.chain_conditional_entropy", "self_s"),
    ("leakage.leakage_bound_check", "self_s"),
    ("rates.rate_report", "calls"),
    ("rates.rate_report", "self_s"),
    ("cli.main", "calls"),
)
PER_LAYER = {
    **{f"{span}.{field}": "s" if field == "self_s" else "count"
       for span, field in SPAN_METRICS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "lattices.quantize.cosets_per_call": "cosets",
    "leakage.DiscreteEnsemble.init_s": "s",
    "leakage.closure_pairs": "count",
    "leakage.states_tallied": "count",
    "simulate.jobs2_over_jobs1": "ratio",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "fraction",
}


class RunLevelError(Exception):
    """A check outside the timed ops failed; the run has no result."""


class SourceMissing(Exception):
    """The checkout holds no lsl sources to benchmark."""


@dataclass
class Op:
    seed: int
    wall_s: float
    cpu_s: float
    text: str
    error: str | None
    #: Times of the reference kernel run right after this op (untraced
    #: end-to-end runs only).
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0


def import_cli():
    """Import ``lsl.cli`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "lsl" / "cli.py").is_file():
        raise SourceMissing(f"no lsl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("lsl.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"lsl was imported from {cli.__file__}")
    return cli


def op_seeds(workload: Workload, seed: int, stream: str = "ops"):
    """Endless, reproducible per-op seeds for one workload seed."""
    rng = random.Random(f"{workload.name}:{seed}:{stream}")
    while True:
        yield rng.randrange(1, 2 ** 31)


def _check_campaign(w: Workload, row: dict) -> str | None:
    trials = int(row["trials"])
    if trials != w.trials:
        return f"trials={trials}, expected {w.trials}"
    events = [int(row[k]) for k in ("e1_count", "e2_count", "e3_count")]
    direct = [int(c) for c in row["direct_counts"].split(";")]
    if any(not 0 <= c <= trials for c in events + direct):
        return "an event count lies outside 0..trials"
    if sum(events) > trials:
        return "e1+e2+e3 exceeds trials"
    mean = float(row["mean_eff_noise_power"])
    predicted = float(row["predicted_eff_noise_var"])
    if abs(mean - predicted) > NOISE_TOL * predicted:
        return (f"mean_eff_noise_power {mean} is not within "
                f"{NOISE_TOL:.0%} of {predicted}")
    return None


def _check_certify(w: Workload, row: dict) -> str | None:
    bound = w.K ** w.N
    if int(row["trials"]) != w.trials:
        return f"trials={row['trials']}, expected {w.trials}"
    if int(row["failures"]) != 0:
        return f"failures={row['failures']}"
    if int(row["index_bound"]) != bound or int(row["max_index"]) > bound:
        return f"max_index={row['max_index']} against K^N={bound}"
    if row["passed"] != "1":
        return "passed is not 1"
    return None


def _check_leakage(w: Workload, row: dict) -> str | None:
    if row["identity_ok"] != "1" or row["passed"] != "1":
        return "identity_ok or passed is not 1"
    target = (w.K - 2) * w.N * math.log2(w.q)
    # h_cond is printed with six decimals: allow half a unit of the last
    # printed digit on top of the 1e-9 identity tolerance.
    if abs(float(row["h_cond"]) - target) > 5e-7 + 1e-9:
        return f"h_cond={row['h_cond']}, expected (K-2)*N*log2(q)={target}"
    return None


_CHECKS = {"simulate": _check_campaign, "repr-check": _check_certify,
           "leakage": _check_leakage}


def check_csv(w: Workload, text: str, seed: int) -> str | None:
    """Why one op's CSV is wrong, or None when it passes every check."""
    lines = text.splitlines()
    if len(lines) != 3 or not lines[0].startswith("# config: "):
        return "expected a config line, a header and one row"
    if not lines[0].endswith(f" seed={seed}"):
        return "config echo names another seed"
    if lines[1] != HEADERS[w.subcommand]:
        return "unexpected CSV header"
    header, cells = lines[1].split(","), lines[2].split(",")
    if len(cells) != len(header):
        return "row and header differ in length"
    try:
        return _CHECKS[w.subcommand](w, dict(zip(header, cells)))
    except ValueError as exc:
        return f"unparsable row: {exc}"


def run_op(cli, w: Workload, seed: int, out: Path, jobs: int = 1) -> Op:
    """One timed CLI invocation, checked after the clock stops."""
    argv = w.argv(seed, out, jobs)
    out.unlink(missing_ok=True)
    c0 = time.process_time()
    t0 = time.perf_counter()
    error = None
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a failed op, not a dead run
        traceback.print_exc()
        error = f"raised {type(exc).__name__}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    text = out.read_text(encoding="utf-8") if out.is_file() else ""
    if error is None:
        error = f"exit code {code}" if code else check_csv(w, text, seed)
    return Op(seed, wall, cpu, text, error)


def reference_kernel() -> None:
    """Fixed work that samples the machine's current speed between ops.

    A mix of what the lsl layers spend their time on: numpy Generator
    construction and draws, small-array arithmetic, hashing, and tuple
    and dict work.  Do not change it: every gated time is scaled by it.
    """
    x = np.zeros(3)
    counts: dict = {}
    for i in range(300):
        x = x + np.random.default_rng(i).random(3)
        key = tuple(int(v) % 7 for v in np.ceil(x / 1.7 - 0.5))
        hashlib.sha256(f"{i}:{i}".encode()).digest()
        for j in range(20):
            counts[key, j] = counts.get((key, j), 0) + j


def measure(cli, w: Workload, seeds, out: Path, seconds: float,
            probe=None, probes: int = 0) -> tuple[list[Op], list[float]]:
    """Closed loop: ops back to back until ``seconds`` and MIN_OPS are met.

    After each op the reference kernel runs once, so the run samples the
    machine's speed at the moments the ops ran.  ``probe()`` runs
    ``probes`` times between ops, evenly spread over the run.
    """
    ops: list[Op] = []
    probed: list[float] = []
    start = time.perf_counter()
    for seed in seeds:
        elapsed = time.perf_counter() - start
        if len(probed) < probes and elapsed >= seconds * len(probed) / probes:
            probed.append(probe())
        elif len(ops) >= MIN_OPS and elapsed >= seconds:
            break
        op = run_op(cli, w, seed, out)
        c0 = time.process_time()
        t0 = time.perf_counter()
        reference_kernel()
        op.ref_wall_s = time.perf_counter() - t0
        op.ref_cpu_s = time.process_time() - c0
        ops.append(op)
    while len(probed) < probes:
        probed.append(probe())
    return ops, probed


def measure_traced(cli, w: Workload, seed: int, out: Path, seconds: float):
    """Closed loop of op pairs: each seed untraced, then again traced.

    Interleaving keeps both ops of a pair under the same machine load,
    which ``pair_ratio`` relies on.  Both runs of a seed must write the
    same CSV.
    """
    tracer = Tracer()
    plain: list[Op] = []
    traced: list[Op] = []
    deadline = time.perf_counter() + seconds
    for i, op_seed in enumerate(op_seeds(w, seed)):
        if len(plain) >= MIN_OPS and time.perf_counter() >= deadline:
            break
        plain.append(run_op(cli, w, op_seed, out))
        tracer.op = i
        with patched(tracer):
            traced.append(run_op(cli, w, op_seed, out))
        if traced[-1].text != plain[-1].text:
            raise RunLevelError(f"{w.name}: traced CSV differs from the "
                                f"untraced one at op seed {op_seed}")
    return plain, traced, tracer


def csv_digest(ops: list[Op]) -> str:
    """SHA-256 of the concatenated CSVs of the first DIGEST_OPS ops."""
    h = hashlib.sha256()
    for op in ops[:DIGEST_OPS]:
        h.update(op.text.encode())
    return h.hexdigest()


def check_engine(w: Workload, seed: int) -> None:
    """``run_campaign`` must equal folding ``run_trial`` over its seeds."""
    from lsl.cli import RunConfig
    from lsl.simulate import (Scheme, derive_trial_seed, run_campaign,
                              run_trial)

    cfg = RunConfig(K=w.K, family=w.family, q=w.q, N=w.N,
                    generator=w.generator)
    scheme = Scheme.for_config(cfg.system(), cfg.pair())
    n = w.check_trials
    report = run_campaign(scheme, n, seed)
    outs = [run_trial(scheme, derive_trial_seed(seed, i)) for i in range(n)]
    folded = (
        sum(o.e1 for o in outs), sum(o.e2 for o in outs),
        sum(o.e3 for o in outs),
        tuple(sum(o.direct_errors[j] for o in outs) for j in range(w.K - 1)),
        float(np.mean([o.effective_noise_power for o in outs])),
        float(np.mean([o.residual_power for o in outs])))
    got = (report.e1_count, report.e2_count, report.e3_count,
           report.direct_error_counts, report.mean_effective_noise_power,
           report.mean_residual_power)
    if got != folded:
        raise RunLevelError(
            f"{w.name}: run_campaign {got} differs from folded run_trial "
            f"{folded} at master seed {seed}")


def run_level_checks(cli, w: Workload, seed: int, out: Path) -> None:
    """Untimed: a warm-up op that must pass, then the engine oracle."""
    warm = next(op_seeds(w, seed, "warmup"))
    op = run_op(cli, w, warm, out)
    if op.error:
        raise RunLevelError(f"{w.name}: warm-up op (seed {warm}): {op.error}")
    if w.check_trials:
        check_engine(w, next(op_seeds(w, seed, "engine")))


def setup_seconds(w: Workload) -> float:
    """One cold set-up, timed inside a fresh interpreter."""
    spec = json.dumps({"K": w.K, "family": w.family, "q": w.q, "N": w.N,
                       "generator": w.generator,
                       "scheme": w.subcommand == "simulate"})
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), spec],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RunLevelError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def tail_index(n: int) -> int:
    """Sorted index of the highest percentile with ten samples beyond it."""
    return max(n - 11, 0)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pair_ratio(num: list[Op], den: list[Op]) -> float:
    """Median over adjacent op pairs of their wall-time ratio.

    The two ops of a pair run under the same machine load, so the ratio
    is steadier than a ratio of two medians.
    """
    return statistics.median(a.wall_s / b.wall_s for a, b in zip(num, den))


def jobs_ratio(cli, w: Workload, seed: int, out: Path) -> float:
    """Wall at --jobs 2 over --jobs 1, requiring byte-identical CSVs."""
    jobs = min(2, nproc())
    ones, twos = [], []
    for _ in range(JOBS_PAIRS):
        ones.append(run_op(cli, w, seed, out, jobs=1))
        twos.append(run_op(cli, w, seed, out, jobs=jobs))
    for op in ones + twos:
        if op.error:
            raise RunLevelError(f"{w.name} --jobs: {op.error}")
        if op.text != ones[0].text:
            raise RunLevelError(f"{w.name}: --jobs {jobs} changed the CSV")
    return pair_ratio(twos, ones)


def end_to_end_metrics(w: Workload, ops: list[Op], setups: list[float]):
    """Gated metrics at reference speed, plus the raw figures for the record.

    On a shared host the neighbours' load changes this machine's speed by
    more than any bound could allow, for seconds to minutes at a time.
    Each op is therefore divided by the reference kernel run right after
    it, and the median of those ratios is multiplied by REF_S.  The tail
    pairs op and kernel samples of equal rank instead: a slow op and the
    kernel after it need not share one slow moment, and in the tail that
    difference dominates.  Set-up is scaled by the run's median kernel.
    """
    n = len(ops)
    walls = sorted(op.wall_s for op in ops)
    refs = sorted(op.ref_wall_s for op in ops)
    i = tail_index(n)
    p50 = REF_S * statistics.median(op.wall_s / op.ref_wall_s for op in ops)
    values = {
        "setup_s": statistics.median(setups) * REF_S / statistics.median(refs),
        "op_s_p50": p50,
        "op_s_tail": walls[i] * REF_S / refs[i],
        "op_cpu_s_p50": REF_S * statistics.median(
            op.cpu_s / op.ref_cpu_s for op in ops),
        "trials_per_s": w.trials_per_op / p50,
        "states_per_s": w.states_per_op / p50,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "raw_op_s_p50": statistics.median(walls),
        "raw_op_s_tail": walls[i],
        "raw_op_cpu_s_p50": statistics.median(op.cpu_s for op in ops),
        "raw_setup_s": setups,
        "raw_ref_s_p50": statistics.median(refs),
        "op_s_tail_percentile": 100.0 * (i + 1) / n,
        "op_s_tail_ops_beyond": n - 1 - i,
    }
    return values, raw


def per_layer_metrics(tracer, traced: list[Op], plain: list[Op],
                      jobs2_over_jobs1: float) -> dict[str, float]:
    summary = tracer.summary()
    n = len(traced)

    def field(span, key):
        return summary.get(span, {}).get(key, 0)

    values = {f"{span}.{key}": field(span, key) / n
              for span, key in SPAN_METRICS}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in summary.items()
            if name.startswith(layer + ".")) / n
    quantize_calls = field("lattices.quantize", "calls")
    values["lattices.quantize.cosets_per_call"] = (
        tracer.counts.get("lattices.quantize.cosets", 0) / quantize_calls
        if quantize_calls else 0.0)
    values["leakage.DiscreteEnsemble.init_s"] = field(
        "leakage.DiscreteEnsemble.__post_init__", "self_s") / n
    values["leakage.closure_pairs"] = (
        tracer.counts.get("leakage.closure_pairs", 0) / n)
    values["leakage.states_tallied"] = (
        tracer.counts.get("leakage.states_tallied", 0) / n)
    values["simulate.jobs2_over_jobs1"] = jobs2_over_jobs1
    values["trace.overhead_ratio"] = pair_ratio(traced, plain)
    ops = plain + traced
    values["failed_ratio"] = sum(op.error is not None for op in ops) / len(ops)
    return values


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
            check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and writes a record."""
    cli = import_cli()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    out = OUT_DIR / f"op-{os.getpid()}.csv"
    extra: dict = {}
    try:
        run_level_checks(cli, w, seed, out)
        if trace:
            plain, traced, tracer = measure_traced(cli, w, seed, out, seconds)
            ratio = jobs_ratio(cli, w, plain[0].seed, out)
            metrics = per_layer_metrics(tracer, traced, plain, ratio)
            tracer.write_spans(OUT_DIR / f"spans-{w.name}.npz")
            ops, units = plain + traced, PER_LAYER
        else:
            # One core for the ops, the reference kernel and the set-up
            # probes (children inherit it), so all see the same load.
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(cpus)})
            try:
                ops, setups = measure(cli, w, op_seeds(w, seed), out,
                                      seconds, lambda: setup_seconds(w),
                                      SETUP_PROBES)
            finally:
                os.sched_setaffinity(0, cpus)
            metrics, extra = end_to_end_metrics(w, ops, setups)
            units = END_TO_END
    finally:
        out.unlink(missing_ok=True)

    failed = sum(op.error is not None for op in ops)
    sha, dirty = git_state()
    record = {
        "workload": w.name, "seed": seed, "trace": int(trace),
        "flags": w.flags,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": nproc(), "git_sha": sha, "git_dirty": dirty,
        "rng_contract": RNG_CONTRACT, "ops": len(ops),
        "digest_ops": DIGEST_OPS, "csv_sha256": csv_digest(ops),
        "errors": sorted({op.error for op in ops if op.error}),
        "op_wall_s": [op.wall_s for op in ops],
        "op_cpu_s": [op.cpu_s for op in ops],
        "ref_wall_s": [op.ref_wall_s for op in ops],
        **extra, "metrics": metrics,
    }
    (OUT_DIR / f"record-{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "record": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except RunLevelError as exc:
        print(f"perfbench: run-level check failed: {exc}", file=sys.stderr)
        return 1
    record = result.pop("record")
    print("record " + json.dumps({k: v for k, v in record.items() if k not in
                                  ("metrics", "op_wall_s", "op_cpu_s",
                                   "ref_wall_s")}))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
