"""Benchmark of the dicke package: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is taken from the `src/` next to this
directory.  `--workload` is expand, verify, figures or all.  The run
repeats the workload's case list in passes until `--seconds` have gone by
and reports medians over passes.  With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
passes and prints the per-layer metrics of the traced ones, plus the
tracing overhead.  Outputs are checked after each pass, outside the timed
region.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a record with the run metadata
and every pass goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

import tracer as tracing
import workloads
from cli_child import peak_rss_kb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("expand", "verify", "figures")
# set-up samples are taken between passes, so they span the run like the
# passes do; at least this many
SETUP_SAMPLES = 9
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import dicke; "
    "t = time.perf_counter() - t; print(repr(t), dicke.__file__)"
)


class BenchError(Exception):
    """The benchmark cannot run here (no package, or it fails to import)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def from_src(path: str) -> bool:
    return Path(path).resolve().parent == (SRC / "dicke").resolve()


def import_seconds() -> float:
    """`import dicke` time in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        env=child_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"import dicke failed: {proc.stderr.strip()}")
    seconds, path = proc.stdout.split()
    if not from_src(path):
        raise BenchError(f"imported dicke from {path}, not from {SRC}")
    return float(seconds)


def import_package():
    if not (SRC / "dicke" / "__init__.py").is_file():
        raise BenchError(f"no dicke package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import dicke
        import dicke.cli
        import dicke.tables
    except ImportError as exc:
        raise BenchError(f"import dicke failed: {exc}") from exc
    if not from_src(dicke.__file__):
        raise BenchError(f"imported dicke from {dicke.__file__}, not from {SRC}")
    return dicke


def metadata(name: str, args) -> dict:
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=False,
            )
            rev = proc.stdout.strip() or rev
        except OSError:
            pass
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_pass(workload, traced: bool, reports_dir: Path):
    """One timed pass over the case list; returns (wall, results, spans,
    peak RSS in kB of the process or processes that ran it)."""
    ctx = workloads.PassContext(traced, {}, reports_dir)
    workload.before_pass()
    gc.collect()
    tracer = tracing.Tracer() if traced and workload.in_process else None
    if tracer:
        tracer.install()
    results = []
    try:
        start = perf_counter()
        for case in workload.cases:
            for _ in range(workload.small_repeats if case.role == "small" else 1):
                if tracer:
                    tracer.case = case.name
                t0 = perf_counter()
                try:
                    output, error = case.run(ctx), None
                except Exception as exc:  # a raising case is a failed case
                    output, error = None, f"{type(exc).__name__}: {exc}"
                results.append((case, perf_counter() - t0, output, error))
                ctx.outputs[case.name] = output
        wall = perf_counter() - start
    finally:
        if tracer and not tracer.uninstall():
            raise RuntimeError("a tracing wrapper was left in place")
    if workload.in_process:
        return wall, results, tracer.spans if tracer else [], peak_rss_kb()
    spans, peak_kb = [], 0
    for path in sorted(reports_dir.glob("*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        spans += report["spans"]
        peak_kb = max(peak_kb, report["vm_hwm_kb"])
        path.unlink()
    return wall, results, spans, peak_kb


def check_pass(results) -> list[tuple[str, str, str]]:
    verdicts = []
    for case, _, output, error in results:
        if error is not None:
            status = ("failed", error)
        else:
            try:
                status = case.check(output)
            except Exception as exc:  # an output the check cannot read
                status = ("wrong", f"check raised {type(exc).__name__}: {exc}")
        verdicts.append((case.name, *status))
    return verdicts


def run_workload(name: str, args, dicke) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        if name == "figures":
            (work / "figs").mkdir()
            workload = workloads.build_figures(args.seed, ROOT, work)
        else:
            workload = getattr(workloads, f"build_{name}")(args.seed, dicke)
        reports_dir = work / "reports"
        reports_dir.mkdir()
        return measure(workload, args, reports_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args, reports_dir: Path, work: Path) -> dict:
    passes, verdicts, problems = [], Counter(), []
    setup_samples: list[float] = []
    if not args.trace:
        import_seconds()  # may write the bytecode cache, so not counted
    last_spans: list[dict] = []
    reference_bytes = None
    cpus = sorted(os.sched_getaffinity(0))
    deadline = perf_counter() + args.seconds
    cycle: list[float] = []
    while len(passes) < (2 if args.trace else 1) or perf_counter() + median(cycle) < deadline:
        began = perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        if workload.in_process:
            # round-robin over the CPUs, two passes each so that traced and
            # untraced passes share them: the scheduler keeps a busy process
            # on one vCPU, whose speed changes in phases of seconds, so
            # without this one slow phase decides a whole run
            os.sched_setaffinity(0, {cpus[len(passes) // 2 % len(cpus)]})
        wall, results, spans, peak_kb = run_pass(workload, traced, reports_dir)
        for verdict in check_pass(results):
            verdicts[verdict] += 1
        if workload.name == "figures" and args.trace:
            fingerprint = workloads.figures_fingerprint(work, {c.name: o for c, _, o, _ in results})
            if reference_bytes is None:
                reference_bytes = fingerprint
            elif fingerprint != reference_bytes:
                problems.append(f"pass {len(passes)}: traced output bytes differ from untraced")
        case_s: dict[str, list[float]] = {}
        for case, seconds, _, _ in results:
            case_s.setdefault(case.name, []).append(seconds)
        record = {
            "traced": traced,
            "run_s": wall,
            "large_case_s": sum(t for c, t, _, _ in results if c.role == "large"),
            "small_case_s": [t for c, t, _, _ in results if c.role == "small"],
            "case_s": case_s,
            "peak_rss_kb": peak_kb,
        }
        if traced:
            record["layers"] = tracing.layer_metrics(spans)
            last_spans = spans
        else:
            setup_samples.append(import_seconds())
        passes.append(record)
        cycle.append(perf_counter() - began)
    while not args.trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(import_seconds())
    os.sched_setaffinity(0, cpus)

    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        values = tracing.median_metrics([p["layers"] for p in traced_passes])
        values["trace_overhead_s"] = median(p["run_s"] for p in traced_passes) - median(
            p["run_s"] for p in untraced
        )
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    else:
        values = {
            "run_s": median(p["run_s"] for p in untraced),
            "large_case_s": median(p["large_case_s"] for p in untraced),
            "small_case_ms": 1000.0 * median(t for p in untraced for t in p["small_case_s"]),
            "setup_s": median(setup_samples),
            # the first pass, read before its checks: a high-water mark
            # would otherwise include the memory the checks use
            "peak_rss_mb": untraced[0]["peak_rss_kb"] / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    attempted = sum(verdicts.values())
    failed = sum(n for (_, status, _), n in verdicts.items() if status != "ok")
    wrong = sum(n for (_, status, _), n in verdicts.items() if status == "wrong")
    return {
        "correct": wrong == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "passes": passes,
        "setup_samples_s": setup_samples,
        "failures": [
            {"case": case, "status": status, "detail": detail, "count": n}
            for (case, status, detail), n in sorted(verdicts.items())
            if status != "ok"
        ] + [{"case": "*", "status": "wrong", "detail": p, "count": 1} for p in problems],
        "spans": last_spans,
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def report(name: str, meta: dict, result: dict) -> None:
    print(f"# {name}: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for key, metric in result["metrics"].items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name} failed_frac = {failed / attempted:.6g} ratio ({failed} failed of {attempted} cases attempted)")
    for f in result["failures"]:
        print(f"{name} {f['status']} x{f['count']}: {f['case']}: {f['detail']}")


def save(name: str, meta: dict, result: dict) -> None:
    stem = f"{name}-seed{meta['seed']}-trace{meta['trace']}"
    record = {"meta": meta, **{k: v for k, v in result.items() if k != "spans"}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if result["spans"]:
        tracing.write_jsonl(result["spans"], str(OUT / f"spans-{stem}.jsonl"))


def run_all(args) -> int:
    """Each workload in its own process, so that none inherits another's
    memory high-water mark; the last line sums the results."""
    finals = {}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE,
                              text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        finals[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in finals.values()),
        "attempted": sum(r["attempted"] for r in finals.values()),
        "failed": sum(r["failed"] for r in finals.values()),
        "metrics": {f"{n}.{k}": v for n, r in finals.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        dicke = import_package()
        if args.workload == "all":
            return run_all(args)
        meta = metadata(args.workload, args)
        result = run_workload(args.workload, args, dicke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, meta, result)
    save(args.workload, meta, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
