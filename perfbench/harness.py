"""Measurement, correctness accounting and reporting for ``run.py``.

One process, one thread, one closed-loop client: each pass runs the
workload's operation list in order, each operation computing one
verdict, until the run's seconds have passed (at least one pass).
An untraced run reports the end-to-end metrics.  A traced run alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead between the two.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

import hu_shadow
import workloads
from speed import SpeedProbe
from tracer import COUNTED_SPANS, COUNTERS, SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"
REFERENCE_SEED = 0

#: Fresh-interpreter imports per run for ``setup_s``, after one discarded
#: import that fills the bytecode cache.
SETUP_SAMPLES = 11

IMPORT_PROBE = (
    "from time import perf_counter\n"
    "t0 = perf_counter()\n"
    "import hu_shadow, hu_shadow.cli\n"
    "seconds = perf_counter() - t0\n"
    f"import sys; sys.path.append({str(HERE)!r}); import speed\n"
    "print(seconds, speed.speed_now(), hu_shadow.__file__)\n"
)

#: (metric, span, operation group, horizon): the exponent compares the
#: span's time at the group's two sizes.  "reached" uses the pseudo-orbit's
#: reached horizons, falling back to the requested ones when both orbits
#: truncate at the same index; "size" uses the requested horizon (or k).
SCALING = (
    ("shadowing.shadow_contracting.scaling_exp",
     "shadowing.shadow_contracting", "periodic_linear", "reached"),
    ("shadowing.shadow_expanding.expanding.scaling_exp",
     "shadowing.shadow_expanding", "index_scaled_linear", "reached"),
    ("shadowing.shadow_expanding.nonlinear.scaling_exp",
     "shadowing.shadow_expanding", "affine_sinusoid", "reached"),
    ("growth.classify.expanding.scaling_exp",
     "growth.classify", "index_scaled_linear", "size"),
    ("growth.classify.nonlinear.scaling_exp",
     "growth.classify", "affine_sinusoid", "size"),
    ("growth.double_factorial_envelope_holds.scaling_exp",
     "growth.double_factorial_envelope_holds", "envelope", "size"),
)

#: Metrics that must repeat exactly between traced passes and runs.
COUNT_METRICS = (*COUNTERS, *(s + "_calls" for s in COUNTED_SPANS), "cli.bytes_written")


def span_metric(span: str) -> str:
    return "cli.main_self_s" if span == "cli.main" else span + "_s"


# -- run record -------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout's own ``.git``, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "a1": workloads.start_point(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def fingerprint() -> str:
    """sha256 over the package and benchmark sources, to pair traced runs."""
    h = hashlib.sha256()
    package = SRC / "hu_shadow"
    for path in sorted([*package.rglob("*.py"), *package.rglob("*.json"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- measurement ------------------------------------------------------------


def measure_setup() -> tuple:
    """Fresh-interpreter import times: (rescaled, raw, raw launch-to-exit).

    Each import is rescaled by the speed sampled right after it.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    rescaled, imports, launches = [], [], []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        launch = perf_counter() - t0
        seconds, speed, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"a fresh interpreter imported hu_shadow from {where}")
        if i:
            rescaled.append(float(seconds) * float(speed))
            imports.append(float(seconds))
            launches.append(launch)
    return rescaled, imports, launches


class OpResult:
    __slots__ = ("name", "wall", "speed", "summary", "problems", "error")

    def __init__(self, name, wall, speed, summary, problems, error):
        self.name, self.wall, self.speed, self.summary = name, wall, speed, summary
        self.problems, self.error = problems, error

    @property
    def seconds(self) -> float:
        """Wall time at the reference speed (see ``speed.py``)."""
        return self.wall * self.speed

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def run_pass(workload, tracer=None, references=None) -> list:
    """One pass over the operation list, then its verdicts, untimed and untraced.

    Each operation writes (if at all) under a fresh directory, removed
    after the verdicts.  An operation that raises is a failed operation,
    not a crash of the benchmark.
    """
    out = OUT / "pass"
    shutil.rmtree(out, ignore_errors=True)
    raws = []
    probe = SpeedProbe()
    with tracer.installed() if tracer else contextlib.nullcontext(), probe.sampling():
        for op in workload.ops:
            if tracer:
                tracer.operation = op.name
            probe.sample()
            first, spent = len(probe.speeds) - 1, probe.spent
            t0 = perf_counter()
            try:
                raw, error = op.run(out / op.name), None
            except Exception as exc:
                raw, error = None, f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - t0 - (probe.spent - spent)
            probe.sample()
            speeds = probe.speeds[first:]
            raws.append((op, wall, sum(speeds) / len(speeds), raw, error))
    results = []
    for op, wall, speed, raw, error in raws:
        summary, problems = (None, []) if error else op.verdict(raw, out / op.name)
        want = (references or {}).get(op.name)
        if summary is not None and want is not None:
            problems += ["reference " + m for m in workloads.mismatches(summary, want)]
        results.append(OpResult(op.name, wall, speed, summary, problems, error))
    shutil.rmtree(out, ignore_errors=True)
    return results


def warm_up(workload) -> None:
    out = OUT / "warmup"
    for op in workload.warmup:
        try:
            op.run(out / op.name)
        except Exception:  # the measured passes count and report failures
            pass
    shutil.rmtree(out, ignore_errors=True)


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load_references(workload, seed):
    """Recorded summaries for this workload, when the seed gives the recorded inputs."""
    if not REFERENCES.is_file():
        return None
    refs = json.loads(REFERENCES.read_text())
    if workload.seeded and seed != refs["seed"]:
        return None
    return refs["workloads"].get(workload.name)


# -- per-layer metrics ------------------------------------------------------


def traced_metrics(tracer, results, workload) -> dict:
    """Per-layer metrics of one traced pass, times rescaled like the operations'."""
    speed = {r.name: r.speed for r in results}
    metrics = {span_metric(name): 0.0 for name in SPANS}
    for (name, op), seconds in tracer.self_times().items():
        seconds *= speed[op]
        metrics[span_metric(name)] += seconds
        if workload.name == "long-horizon":
            key = f"{span_metric(name)}.{op}"
            metrics[key] = metrics.get(key, 0.0) + seconds
    metrics.update(tracer.counts)
    metrics["cli.bytes_written"] = sum(
        r.summary.get("bytes", 0) for r in results if r.summary is not None)
    inclusive = tracer.inclusive_times()
    summaries = {r.name: r.summary for r in results}
    for metric, span, group, horizon in SCALING:
        pair = sorted((op for op in workload.ops if op.group == group), key=lambda op: op.size)
        if len(pair) != 2:
            continue
        times = [inclusive.get((span, op.name), 0.0) * speed[op.name] for op in pair]
        sizes = [op.size for op in pair]
        if horizon == "reached" and all(summaries[op.name] for op in pair):
            reached = [summaries[op.name]["reached"] for op in pair]
            if reached[0] != reached[1]:
                sizes = reached
        if min(times) > 0:
            metrics[metric] = math.log(times[1] / times[0]) / math.log(sizes[1] / sizes[0])
    return metrics


def per_layer(args, record, untraced, traced, per_pass, last_tracer) -> tuple:
    """Median per-layer metrics over the traced passes, and report lines.

    Count metrics must be identical across this run's traced passes, and
    across traced runs of the same code and seed in this checkout; the
    counts of each traced run are kept to pair it with the next one.
    """
    lines, consistent = [], True
    counts = {k: per_pass[0][k] for k in COUNT_METRICS}
    if any(p[k] != counts[k] for p in per_pass[1:] for k in COUNT_METRICS):
        lines.append("COUNTS DIFFER between the traced passes of this run")
        consistent = False
    metrics = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in set().union(*per_pass)}
    metrics.update(counts)
    metrics["trace.overhead_s"] = (statistics.median(t for t, _ in traced)
                                   - statistics.median(t for t, _ in untraced))
    # every metric the benchmark can produce is reported; zero when unused
    for name in SPANS:
        for family in workloads.FAMILIES:
            for horizon in workloads.LONG_HORIZONS:
                op = workloads.pipeline_name(family, horizon)
                metrics.setdefault(f"{span_metric(name)}.{op}", 0.0)
    for metric, *_ in SCALING:
        metrics.setdefault(metric, 0.0)

    saved = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    current = {"fingerprint": fingerprint(), "counts": counts}
    if saved.is_file():
        earlier = json.loads(saved.read_text())
        if earlier["fingerprint"] == current["fingerprint"]:
            if earlier["counts"] == counts:
                lines.append(f"counts identical to the earlier traced run ({saved.name})")
            else:
                lines.append(f"COUNTS DIFFER from the earlier traced run ({saved.name})")
                consistent = False
    saved.write_text(json.dumps(current, indent=1, sort_keys=True))
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps({"record": record, "spans": last_tracer.spans}))
    lines.append(f"spans of the last traced pass in {spans.relative_to(ROOT)}")
    return metrics, lines, consistent


# -- entry points -----------------------------------------------------------


def run(args, spec) -> int:
    if not args.trace:
        setup, imports, launches = measure_setup()
    if not Path(hu_shadow.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported hu_shadow from {hu_shadow.__file__}, not {SRC}")
    os.environ.pop("HU_SHADOW_OUT", None)
    OUT.mkdir(exist_ok=True)
    record = run_record(args)
    workload = workloads.build(args.workload, args.seed)
    references = load_references(workload, args.seed)
    warm_up(workload)

    untraced, traced = [], []  # passes as (seconds, results)
    traced_per_pass, tracer = [], None  # only the last traced pass keeps its spans
    deadline = perf_counter() + args.seconds
    while not untraced or perf_counter() < deadline:
        results = run_pass(workload, references=references)
        untraced.append((sum(r.seconds for r in results), results))
        if args.trace:
            tracer = Tracer()
            results = run_pass(workload, tracer, references)
            traced.append((sum(r.seconds for r in results), results))
            traced_per_pass.append(traced_metrics(tracer, results, workload))

    everything = [r for _, results in untraced + traced for r in results]
    attempted = len(everything)
    failed = sum(r.failed for r in everything)
    correct = not any(r.problems for r in everything)
    pass_times = [t for t, _ in untraced]
    q1, med, q3 = quartiles(pass_times)
    lines = [
        "run " + json.dumps(record, sort_keys=True),
        "references " + ("checked" if references else "not checked at this seed"),
        f"pass_s median {med:.6f} q1 {q1:.6f} q3 {q3:.6f} n {len(pass_times)} (untraced); "
        f"raw wall median {statistics.median(sum(r.wall for r in rs) for _, rs in untraced):.6f}",
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)",
    ]
    for op in workload.ops:
        mine = [r for _, rs in untraced for r in rs if r.name == op.name]
        lines.append(f"op {op.name} median {statistics.median(r.seconds for r in mine):.6f} s; "
                     f"raw wall {statistics.median(r.wall for r in mine):.6f} s")
    seen = set()
    for r in everything:
        key = (r.name, r.error, tuple(r.problems))
        if r.failed and key not in seen:
            seen.add(key)
            lines.append(f"FAILED {r.name}: {r.error or '; '.join(r.problems)}")

    if args.trace:
        metrics, more, consistent = per_layer(args, record, untraced, traced, traced_per_pass, tracer)
        lines += more
        correct = correct and consistent
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": med,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        q1, m, q3 = quartiles(setup)
        lines.append(f"setup_s median {m:.6f} q1 {q1:.6f} q3 {q3:.6f} n {len(setup)}; raw import "
                     f"median {statistics.median(imports):.6f}, raw interpreter launch + import "
                     f"median {statistics.median(launches):.6f}")
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics the benchmark does not produce: {missing}")
    listed = {m["name"] for m in wanted}
    lines += [f"{m['name']} = {metrics[m['name']]:.9g} {m['unit']}" for m in wanted]
    lines += [f"(not in BENCHMARK.json) {k} = {metrics[k]:.9g}"
              for k in sorted(set(metrics) - listed) if metrics[k]]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"record": record, "lines": lines, "result": result}, indent=1))
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


def record_references() -> int:
    """Write every workload's seed-0 summaries to ``references.json``."""
    OUT.mkdir(exist_ok=True)
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    for name in workloads.BUILDERS:
        workload = workloads.build(name, REFERENCE_SEED)
        warm_up(workload)
        results = run_pass(workload)
        bad = [f"{r.name}: {r.problems}" for r in results if r.problems]
        if bad:
            print("perfbench: not recording references with failed checks: " + "; ".join(bad),
                  file=sys.stderr)
            return 1
        out["workloads"][name] = {r.name: r.summary for r in results}
        for r in results:
            if r.error:
                print(f"# {name} {r.name}: no reference, it raised {r.error}")
    REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {REFERENCES.relative_to(ROOT)}")
    return 0
