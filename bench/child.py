"""One measured CLI invocation in a fresh interpreter.

Usage: python3 child.py SPEC.json

The spec names a mode, the directory to run in and the CLI arguments.
Mode "rep" times `import voxkit.cli` (the set-up every invocation pays),
then one `cli.main(argv)` call with its CPU time and peak memory. Mode
"trace" runs the command untraced, traced and untraced again at
--workers 1 and records the spans of the traced call. The last line of
standard output is the result as JSON.

Nothing but the standard library is imported before voxkit.cli, so the
import is timed as a user pays it.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def _call_main(main, argv):
    """Run main, capturing its output; returns (exit code or None, traceback text, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return main(argv), None, out.getvalue()
    except SystemExit as exc:  # argparse usage errors
        return exc.code, None, out.getvalue()
    except Exception:
        return None, traceback.format_exc(), out.getvalue()


def run_rep(spec):
    t0 = time.perf_counter()
    import voxkit.cli

    setup_s = time.perf_counter() - t0
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t1 = time.perf_counter()
    rc, tb, stdout = _call_main(voxkit.cli.main, spec["argv"])
    main_s = time.perf_counter() - t1
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, reaped at shutdown
    return {
        "voxkit": voxkit.__file__,
        "rc": [rc],
        "traceback": tb,
        "stdout": stdout[-2000:],
        "setup_s": setup_s,
        "main_s": main_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(workers),
        "peak_rss_mb": max(self1.ru_maxrss, workers.ru_maxrss) / 1024.0,
    }


def run_trace(spec):
    import voxkit.cli

    import tracing

    results = {"voxkit": voxkit.__file__, "rc": [], "traceback": None}

    def untraced(argv):
        t = time.perf_counter()
        rc, tb, _ = _call_main(voxkit.cli.main, argv)
        results["rc"].append(rc)
        results["traceback"] = results["traceback"] or tb
        return time.perf_counter() - t

    before_s = untraced(spec["argv_before"])
    tracer = tracing.Tracer(spec["ids"], spec["texts"])
    tracer.install()
    try:
        rc, tb, _ = _call_main(lambda argv: tracer.run_root(voxkit.cli.main, argv), spec["argv_traced"])
    finally:
        tracer.uninstall()
    results["rc"].append(rc)
    results["traceback"] = results["traceback"] or tb
    after_s = untraced(spec["argv_after"])
    metrics, detail = tracing.summarize(tracer)
    # the untraced runs bracket the traced one, so a steady drift in machine speed cancels
    untraced_s = (before_s + after_s) / 2
    metrics["trace.overhead_s"] = metrics["trace.root_s"] - untraced_s
    tracing.write_spans(tracer, spec["spans_path"])
    results.update(metrics=metrics, detail=detail, untraced_s=untraced_s)
    return results


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    os.chdir(spec["cwd"])
    result = run_rep(spec) if spec["mode"] == "rep" else run_trace(spec)
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
