"""voxkit benchmark: the CLI as users run it, on synthetic corpora made from a seed.

    python3 bench/run.py --workload eval --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for the inputs):
    eval    voxkit metrics, default --which mcd,msd,f0,cer, --workers 1
    curate  voxkit preprocess --stages DN,VAD-2,FLT,VN, --workers 2
    vocode  voxkit vocode round trip, --iters 32, --workers 1

With --trace 0 the command runs again and again for --seconds, closed
loop: each repetition is a fresh interpreter that imports voxkit.cli and
calls cli.main once, and the next starts only after it exits. Each
repetition's outputs are checked and hashed. The end-to-end metrics are
medians over the repetitions:
    setup_s            time to import voxkit.cli
    audio_s_per_s      input audio seconds / wall time of cli.main
    cpu_s_per_audio_s  user+sys CPU of cli.main and its pool workers / input audio seconds
    peak_rss_mb        largest resident set of the command's processes

With --trace 1 the command runs once in-process at --workers 1 with every
public function of the layers wrapped (tracing.py), between two untraced
runs; the per-layer metrics come from its spans.

`attempted` counts the utterances of every checked run and `failed` those
with an unexpected outcome, so fail_ratio = failed / attempted. The last
line of standard output is the result as JSON; a detailed record goes to
.bench_work/results/ and spans to .bench_work/traces/.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170
WORKLOADS = tuple(workloads.BUILDERS)


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(spec, run_dir):
    """Run child.py on a spec; returns its JSON result, or an error string."""
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return f"timed out after {CHILD_TIMEOUT_S} s"
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"child exited {proc.returncode}: {stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    expected = str(ROOT / "src" / "voxkit")
    if not result["voxkit"].startswith(expected):
        return f"imported voxkit from {result['voxkit']}, not from {expected}"
    return result


def warm_up():
    """Import voxkit.cli once untimed, so compiled bytecode exists before timing."""
    done = subprocess.run(
        [sys.executable, "-c", "import voxkit.cli"],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"cannot import voxkit.cli from {ROOT / 'src'}: {done.stderr.strip()}")


def environment(seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
        "thread_pins": THREAD_PINS,
        "loadavg_before": os.getloadavg(),
    }


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def _rep_failures(corpus, out_dir, result):
    """{utterance: reason} for one checked invocation."""
    if isinstance(result, str):
        return {utt: result for utt in corpus.ids}
    if result["traceback"] or any(rc != 0 for rc in result["rc"]):
        reason = f"exit codes {result['rc']}: {result['traceback'] or ''}".strip()
        return {utt: reason for utt in corpus.ids}
    return checks.check(corpus, out_dir)


def _argv(corpus, out_dir, workers):
    return corpus.argv + ["--out-dir", out_dir, "--workers", str(workers)]


def measure(corpus, seconds):
    """Closed-loop repetitions for `seconds`; returns (record, failures, gates)."""
    run_dir = corpus.root
    failures, gates, digests = [], [], []
    reference = None
    if corpus.workers > 1:
        # The README's contract: outputs never depend on the worker count.
        spec = {"mode": "rep", "cwd": str(run_dir), "argv": _argv(corpus, "out_w1", 1)}
        result = run_child(spec, run_dir)
        failures.append(_rep_failures(corpus, run_dir / "out_w1", result))
        reference = checks.digest(run_dir / "out_w1")
    reps = []
    start = time.monotonic()
    while not digests or time.monotonic() - start < seconds:
        _fresh(run_dir / "out")
        spec = {"mode": "rep", "cwd": str(run_dir), "argv": _argv(corpus, "out", corpus.workers)}
        result = run_child(spec, run_dir)
        failures.append(_rep_failures(corpus, run_dir / "out", result))
        digests.append(checks.digest(run_dir / "out"))
        if isinstance(result, dict):
            audio_s = corpus.properties["audio_s"]
            reps.append(
                {
                    "setup_s": result["setup_s"],
                    "main_s": result["main_s"],
                    "audio_s_per_s": audio_s / result["main_s"],
                    "cpu_s_per_audio_s": result["cpu_s"] / audio_s,
                    "peak_rss_mb": result["peak_rss_mb"],
                }
            )
    if len(set(digests)) > 1:
        gates.append(f"output digests differ between repetitions: {sorted(set(digests))}")
    if reference is not None and digests and reference != digests[0]:
        gates.append(f"--workers {corpus.workers} digest {digests[0]} != --workers 1 digest {reference}")
    if not reps:
        raise BenchError(f"no repetition completed: {failures[-1]}")
    metrics = {
        name: statistics.median(r[name] for r in reps)
        for name in ("setup_s", "audio_s_per_s", "cpu_s_per_audio_s", "peak_rss_mb")
    }
    record = {"metrics": metrics, "reps": reps, "digest": digests[0] if digests else None}
    return record, failures, gates


def trace(corpus):
    """One traced in-process run between two untraced ones, all at --workers 1."""
    run_dir = corpus.root
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = f"{corpus.workload}-seed{corpus.seed}"
    spec = {
        "mode": "trace",
        "cwd": str(run_dir),
        "argv_before": _argv(corpus, "out_before", 1),
        "argv_traced": _argv(corpus, "out_traced", 1),
        "argv_after": _argv(corpus, "out_after", 1),
        "ids": corpus.ids,
        "texts": corpus.texts,
        "spans_path": str(traces / f"{stem}.spans.jsonl"),
    }
    result = run_child(spec, run_dir)
    if isinstance(result, str):
        raise BenchError(f"traced run failed: {result}")
    failures = [_rep_failures(corpus, run_dir / "out_traced", result)]
    digests = {name: checks.digest(run_dir / name) for name in ("out_before", "out_traced", "out_after")}
    gates = []
    if len(set(digests.values())) != 1:
        gates.append(f"traced outputs differ from untraced ones: {digests}")
    summary = {"metrics": result["metrics"], **result["detail"], "untraced_s": result["untraced_s"]}
    (traces / f"{stem}.summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    record = {"metrics": result["metrics"], "detail": result["detail"], "digest": digests["out_traced"]}
    return record, failures, gates


def run(workload, seed, seconds, trace_on, tiny=False):
    """Generate, run and check one workload; returns the detailed record."""
    started = time.monotonic()
    env = environment(seed)
    run_dir = _fresh(WORK / workload)  # one corpus per workload on disk at a time
    corpus = workloads.build(workload, seed, run_dir, tiny=tiny)
    warm_up()
    record, failures, gates = trace(corpus) if trace_on else measure(corpus, seconds)
    env["loadavg_after"] = os.getloadavg()
    attempted = len(corpus.ids) * len(failures)
    failed = sum(len(f) for f in failures)
    reasons = sorted({reason for f in failures for reason in f.values()})
    record.update(
        workload=workload,
        seed=seed,
        trace=int(trace_on),
        seconds=seconds,
        tiny=tiny,
        wall_s=time.monotonic() - started,
        env=env,
        inputs=corpus.properties,
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        failure_reasons=reasons[:20],
        gates=gates,
        correct=failed == 0 and not gates,
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace_on)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def result_line(record, units):
    metrics = {name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items() if name in units}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def declared_units(trace_on):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "voxkit" / "cli.py").is_file():
        print(f"voxkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
        units = declared_units(bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(record["metrics"]))
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"env: {json.dumps(record['env'])}")
    print(f"inputs: {json.dumps(record['inputs'])}")
    print(f"digest: {record['digest']}")
    if record["gates"] or record["failure_reasons"]:
        print(f"problems: {json.dumps(record['gates'] + record['failure_reasons'])}")
    if args.trace:
        print(f"shares: {json.dumps(record['detail']['shares'])}")
    else:
        print(f"repetitions: {len(record['reps'])}")
    print(result_line(record, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
