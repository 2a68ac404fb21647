"""Tiny self-test of the benchmark itself; runs in well under a minute.

    python3 bench/selftest.py

Checks that the generator is deterministic in its seed, that every
workload passes its output checks untraced and traced on tiny corpora,
that the checks catch broken outputs, and that compare.py's verdicts
follow its rule. Exits 0 when all hold.
"""

import shutil
import sys

import checks
import compare
import run
import workloads

SELF = run.WORK / "selftest"


def _expect(condition, message):
    if not condition:
        raise SystemExit(f"self-test failed: {message}")


def test_generator():
    for workload in run.WORKLOADS:
        first = workloads.build(workload, 7, SELF / f"{workload}-a", tiny=True)
        again = workloads.build(workload, 7, SELF / f"{workload}-b", tiny=True)
        other = workloads.build(workload, 8, SELF / f"{workload}-c", tiny=True)
        a, b, c = (checks.digest(x.root / "corpus") for x in (first, again, other))
        _expect(a == b, f"{workload}: same seed gave different inputs")
        _expect(a != c, f"{workload}: different seeds gave the same inputs")
        _expect(first.properties == again.properties, f"{workload}: properties differ")


def test_workloads():
    for workload in run.WORKLOADS:
        for trace_on in (False, True):
            record = run.run(workload, 0, 0, trace_on, tiny=True)
            _expect(record["correct"], f"{workload} trace={trace_on}: {record['gates']} {record['failure_reasons']}")
            _expect(record["attempted"] > 0 and record["failed"] == 0, f"{workload}: {record['failed']} failed")
        if workload == "curate":
            _expect(record["metrics"]["wavio.write_wav.calls"] > 0, "curate traced no WAV writes")


def _broken_copy(workload, break_it):
    """Check a damaged copy of the last traced outputs; returns the failures."""
    corpus = workloads.build(workload, 0, SELF / f"{workload}-regen", tiny=True)
    broken = shutil.copytree(run.WORK / workload / "out_traced", corpus.root / "out")
    break_it(corpus, broken)
    return checks.check(corpus, broken)


def test_checks_catch_damage():
    def wrong_cer(corpus, out):
        path = out / "report.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[1].split("\t")
        cells[6] = repr(float(cells[6]) + 0.5)
        lines[1] = "\t".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")

    def lost_wav(corpus, out):
        next(out.glob("u*.wav")).unlink()

    def short_wav(corpus, out):
        path = out / f"{corpus.ids[0]}.wav"
        data = path.read_bytes()
        path.write_bytes(data[:-512])

    for workload, damage in (("eval", wrong_cer), ("curate", lost_wav), ("vocode", short_wav)):
        _expect(_broken_copy(workload, damage), f"{workload}: damaged outputs passed the checks")


def test_verdicts():
    base = [100.0 + k for k in range(10)]

    def pairs(change):
        return list(zip(base, change))

    faster = [v * 1.3 for v in base]
    slower = [v * 0.7 for v in base]
    cases = (
        (faster, "improved"),
        (slower, "worse"),
        ([v * 1.01 for v in base], "unchanged"),
        (faster[:5], "unresolved"),
    )
    for change, expected in cases:
        got = compare.verdict(base, change, pairs(change), "higher", 0.1)
        _expect(got == expected, f"verdict {got}, expected {expected}")
    noisy = [50.0, 150.0] * 5
    _expect(compare.verdict(noisy, noisy, pairs(noisy), "higher", 0.1) == "unresolved", "noisy verdict")


def main():
    shutil.rmtree(SELF, ignore_errors=True)
    try:
        test_generator()
        test_workloads()
        test_checks_catch_damage()
        test_verdicts()
    finally:
        shutil.rmtree(SELF, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
