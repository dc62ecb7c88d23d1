#!/usr/bin/env python3
"""Wall-clock benchmark of the RAVE reproduction.

Measures the host cost of four canonical workloads (see ``README.md`` in
this directory) and checks on every run that their *simulated* outputs are
unchanged: each episode's digest must match the committed digest for its
seed (``digests.json``) and every other episode of the run.

    python3 perfbench/run.py --workload pda-orbit --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, with every time scaled to a
reference host speed measured after every op (``reference.py``);
``--trace 1`` runs untraced and traced episodes in alternation and prints
the per-layer metrics, unscaled.  The
last line of standard output is one JSON object; the lines before it are
the same metrics as a table, with sample counts.

    python3 perfbench/run.py --record-digests 0-31 [--workload NAME]

re-records the committed digests (only after an intended change to the
simulated outputs).
"""

import os

# one thread per native library: the benchmark measures the program, not
# how many cores BLAS happens to find (set before numpy is imported)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("pda-orbit", "distributed", "farm-crash", "grid-churn")
#: workloads whose event loop is worth a sanitized pass
SANITIZED = ("farm-crash", "grid-churn")
#: ops a run collects at least, so op_p75_ms has >= 10 samples beyond it
MIN_OPS = 40
#: cold interpreter start-ups timed per run for setup_s
IMPORT_PROBES = 3
#: start no episode after this much wall time, whatever else holds
HARD_STOP_S = 120.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program() -> dict[str, float]:
    """Import the program from this checkout; returns seconds per step."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.ndimage  # noqa: F401
    t2 = time.perf_counter()
    import networkx  # noqa: F401
    t3 = time.perf_counter()
    import repro
    from perfbench import workloads  # noqa: F401  (imports every layer)
    t4 = time.perf_counter()
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")
    return {"numpy": t1 - t0, "scipy": t2 - t1, "networkx": t3 - t2,
            "repro": t4 - t3, "total": t4 - t0}


def probe_imports() -> list[float]:
    """Wall seconds of fresh interpreters that only import the program."""
    samples = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                        "--import-only"], check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def check_episodes(episodes, expected: str | None) -> list[str]:
    """Fail every episode whose digest strays; returns the messages."""
    reference = expected or (episodes[0].digest if episodes else None)
    messages = []
    for ep in episodes:
        if not ep.errors and ep.digest != reference:
            ep.errors.append(f"simulated-output digest {ep.digest[:16]} "
                             f"!= expected {str(reference)[:16]}")
            ep.failed = ep.ops
        messages.extend(ep.errors)
    return messages


def _done(start: float, rounds: int, seconds: float) -> bool:
    """Whether to stop: one more (average) round would overshoot
    ``seconds`` by more than stopping now falls short of it."""
    elapsed = time.perf_counter() - start
    return (elapsed + 0.5 * elapsed / rounds >= seconds
            or elapsed >= HARD_STOP_S)


def run_untraced(workload, inputs, seconds, ruler):
    from perfbench.workloads import run_episode

    episodes = []
    start = time.perf_counter()
    while True:
        episodes.append(run_episode(workload, inputs, ruler=ruler))
        ops = sum(len(ep.op_s) for ep in episodes)
        if ops >= MIN_OPS and _done(start, len(episodes), seconds):
            return episodes


def run_traced(workload, inputs, seconds):
    """Rounds of (untraced, traced[, sanitized]) episodes."""
    from perfbench.layers import SANITIZER_TARGETS, TARGETS
    from perfbench.tracing import Tracer
    from perfbench.workloads import run_episode

    tracer = Tracer(TARGETS)
    san_tracer = Tracer(SANITIZER_TARGETS)
    bare, traced, sanitized, summaries = [], [], [], []
    start = time.perf_counter()
    while True:
        bare.append(run_episode(workload, inputs))
        tracer.install()
        try:
            traced.append(run_episode(workload, inputs, tracer=tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        tracer.reset()
        if workload in SANITIZED:
            san_tracer.install()
            try:
                episode = run_episode(workload, inputs, sanitize=True)
            finally:
                san_tracer.uninstall()
            checked = episode.counts.get("sanitizer.events_checked", 0)
            cost = san_tracer.summary().self_s.get("sanitizer.step", 0.0)
            episode.counts["sanitizer.us_per_event"] = (
                1e6 * cost / checked if checked else 0.0)
            san_tracer.reset()
            sanitized.append(episode)
        if _done(start, len(bare), seconds):
            return bare, traced, sanitized, summaries


def throughput(episodes) -> float:
    phase = sum(ep.phase_s for ep in episodes)
    return sum(len(ep.op_s) for ep in episodes) / phase if phase else 0.0


def timings(episodes, probes, setup_f: float, op_f) -> dict:
    """The timed end-to-end metrics, each time multiplied by its factor:
    ``setup_f`` for set-up, ``op_f`` one list per episode with one per op
    (the part of an episode's phase outside ops takes their mean)."""
    from perfbench.workloads import nearest_rank

    mean = [statistics.fmean(f) if f else 1.0 for f in op_f]
    # an episode that raised before its first op leaves no samples; its
    # failed ops already make the run incorrect
    op_s = [t * g for ep, f in zip(episodes, op_f)
            for t, g in zip(ep.op_s, f)] or [0.0]
    setup = setup_f * (statistics.median(probes) + statistics.median(
        ep.setup_s for ep in episodes))
    phase = sum(t * g for ep, f in zip(episodes, op_f)
                for t, g in zip(ep.op_s, f)) + sum(
        (ep.phase_s - sum(ep.op_s)) * f for ep, f in zip(episodes, mean))
    return {
        "setup_s": ("s", setup, len(probes) * len(episodes)),
        "ops_per_s": ("1/s", len(op_s) / phase if phase else 0.0,
                      len(op_s)),
        "op_p50_ms": ("ms", 1e3 * statistics.median(op_s), len(op_s)),
        "op_p75_ms": ("ms", 1e3 * nearest_rank(op_s, 0.75), len(op_s)),
    }


def end_to_end(episodes, probes, ruler) -> tuple[dict, dict]:
    """Times scaled to the reference host, and the same times unscaled.

    Each op is scaled by the ruler ticks around it; set-up, which runs
    before and between ops, by the median tick of the run.
    """
    # episodes that raised before their first op leave no ticks
    ticks = [t for ep in episodes for t in ep.tick_s] or [ruler.nominal_s]
    factors = iter(ruler.scales(ticks))
    op_f = [[next(factors) for _ in ep.tick_s] for ep in episodes]
    scaled = timings(episodes, probes,
                     ruler.nominal_s / statistics.median(ticks), op_f)
    scaled["peak_rss_mb"] = ("MB", peak_rss_mb(), 1)
    raw = timings(episodes, probes, 1.0,
                  [[1.0] * len(ep.tick_s) for ep in episodes])
    raw["host.ruler_ms"] = ("ms", 1e3 * statistics.median(ticks),
                            len(ticks))
    return scaled, raw


def per_layer(bare, traced, sanitized, summaries, imports) -> dict:
    from perfbench.layers import METRICS, from_summary

    med = statistics.median
    spans = [from_summary(s) for s in summaries]
    out = {key: med(row[key] for row in spans) for key in spans[0]}
    every = bare + traced + sanitized
    counts = every[0].counts
    for key, value in counts.items():
        if not key.startswith("sanitizer."):
            out[key] = value
    renders = out.pop("renders")
    completes = counts.get("farm.completes", 0)
    out["farm.frame_yield"] = completes / renders if renders and completes \
        else 0.0
    out["network.events"] = bare[0].events
    phase = sum(ep.phase_s for ep in bare)
    out["events_per_s"] = (sum(ep.events for ep in bare) / phase
                           if phase else 0.0)
    out["sim_s"] = bare[0].sim_s
    out["setup.import_s"] = imports["total"]
    out["setup.import_scipy_s"] = imports["scipy"]
    out["setup.import_networkx_s"] = imports["networkx"]
    out["setup.testbed_s"] = med(ep.setup.get("testbed", 0.0) for ep in bare)
    out["data.generate_s"] = med(ep.setup.get("generate", 0.0)
                                 for ep in bare)
    out["setup.bootstrap_s"] = med(ep.setup.get("bootstrap", 0.0)
                                   for ep in bare)
    if sanitized:
        out["sanitizer.us_per_event"] = med(
            ep.counts["sanitizer.us_per_event"] for ep in sanitized)
        out["sanitizer.events_checked"] = sanitized[0].counts[
            "sanitizer.events_checked"]
        out["sanitizer.violations"] = max(
            ep.counts["sanitizer.violations"] for ep in sanitized)
    base = throughput(bare)
    out["trace.overhead_ratio"] = throughput(traced) / base if base else 0.0
    attempted = sum(ep.ops for ep in every)
    out["failed_op_ratio"] = (sum(ep.failed for ep in every) / attempted
                              if attempted else 0.0)
    out["ops_per_episode"] = bare[0].ops
    out["env.nproc"] = os.cpu_count() or 0
    extra = set(out) - set(METRICS)
    if extra:
        raise RuntimeError(f"unknown per-layer metrics {sorted(extra)}")
    # a layer this workload never enters reads 0
    for key in METRICS:
        out.setdefault(key, 0.0)
    samples = len(summaries)
    return {key: (METRICS[key][0], out[key], samples) for key in METRICS}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(metrics: dict, episodes, messages, unscaled=None) -> None:
    import numpy

    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    for name, (unit, value, samples) in metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit:<6} n={samples}")
    if unscaled:
        print("# the same times, unscaled host wall time:")
        for name, (unit, value, samples) in unscaled.items():
            print(f"# {name:<32} {value:>16.6g} {unit:<6} n={samples}")
    for message in dict.fromkeys(messages):
        print(f"# FAILED: {message}")
    attempted = sum(ep.ops for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value, _) in metrics.items()},
    }))


def record_digests(seed_range: str, workloads) -> None:
    from perfbench.workloads import make_inputs, run_episode

    lo, _, hi = seed_range.partition("-")
    digests = load_digests()
    for workload in workloads:
        table = digests.setdefault(workload, {})
        for seed in range(int(lo), int(hi or lo) + 1):
            ep = run_episode(workload, make_inputs(workload, seed))
            if ep.errors:
                _fail(f"{workload} seed {seed}: {ep.errors}")
            table[str(seed)] = ep.digest
            print(f"{workload} {seed} {ep.digest}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", metavar="LO-HI")
    args = parser.parse_args()

    imports = import_program()
    if args.import_only:
        return
    if args.record_digests:
        record_digests(args.record_digests,
                       [args.workload] if args.workload else WORKLOADS)
        return
    if args.workload is None:
        parser.error("--workload is required")

    from perfbench.workloads import make_inputs

    inputs = make_inputs(args.workload, args.seed)
    expected = load_digests().get(args.workload, {}).get(str(args.seed))
    unscaled = None
    if args.trace:
        bare, traced, sanitized, summaries = run_traced(
            args.workload, inputs, args.seconds)
        episodes = bare + traced + sanitized
        messages = check_episodes(episodes, expected)
        metrics = per_layer(bare, traced, sanitized, summaries, imports)
    else:
        from perfbench.reference import ruler

        probes = probe_imports()
        host = ruler(args.workload)
        host.tick()  # warm
        episodes = run_untraced(args.workload, inputs, args.seconds, host)
        messages = check_episodes(episodes, expected)
        metrics, unscaled = end_to_end(episodes, probes, host)
    report(metrics, episodes, messages, unscaled)


if __name__ == "__main__":
    main()
