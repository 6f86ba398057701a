#!/usr/bin/env python3
"""Validate a BENCH_core.json emitted by tools/mpcc_bench.

Usage: check_bench_json.py FILE [--no-ab] [--baseline PREV.json]

FILE (and PREV.json) must be an mpcc_bench=1 document; any other schema
is malformed.

Exit codes:
  0  well-formed and every enabled gate passed
  1  well-formed but a measured gate failed: the MPCC_NO_PERF overhead
     reached its target, or (with --baseline) a benchmark's
     allocs_per_event rose more than 10% against the previous file.
     Retryable failures: a loaded host can push one attempt over the line.
  2  malformed output (wrong schema, missing keys, too few benchmarks,
     zero counters), or (with --baseline) a benchmark whose
     events_dispatched differs from the previous file. Both are real
     changes, not noise, and not worth retrying.

Shape: schema tag, env provenance (git_sha/compiler/build_type/
hardware_threads), >= 6 named benchmarks each with ops/wall_s/perf,
nonzero events_dispatched on every benchmark that drives a simulation,
and a perf_overhead block with overhead_pct below target_pct.
--baseline gates only what a full run reproduces on any host: per-
benchmark perf.events_dispatched must equal the previous file's exactly
(the count is sim-deterministic), and perf.allocs_per_event must not rise
>10% (with a small absolute grace so 0-vs-0.001 jitter does not gate).
No wall-clock rate is compared across hosts; speed verdicts belong to
perfbench's same-host pairs.
"""
import json
import sys

# --baseline allocs_per_event gate thresholds.
REGRESSION_TOLERANCE = 0.10   # fractional rise allowed before gating
ALLOC_ABS_GRACE = 0.01        # allocs/event floor: below this, never gate

# Benchmarks that only exercise non-sim code paths (no event loop).
NO_EVENTS_OK = {"psi_eval", "pool_churn", "eps_exact", "eps_fixed",
                "eps_taylor3"}

ENV_KEYS = ("git_sha", "compiler", "build_type", "hardware_threads")
BENCH_KEYS = ("name", "ops", "wall_s", "ns_per_op", "perf")
PERF_KEYS = (
    "events_dispatched", "timers_fired", "packets_enqueued",
    "packets_forwarded", "packets_dropped", "allocs", "wall_s", "cpu_s",
)


def malformed(msg):
    print("check_bench_json: MALFORMED: %s" % msg, file=sys.stderr)
    sys.exit(2)


def load_bench(path):
    try:
        doc = json.load(open(path))
    except (OSError, ValueError) as e:
        malformed("cannot parse %s: %s" % (path, e))
    if not isinstance(doc, dict) or doc.get("mpcc_bench") != 1:
        malformed("%s is not an mpcc_bench=1 document" % path)
    return doc


def check_baseline(doc, prev):
    """Gates the new benchmarks against a previous BENCH_core.json.

    Exits 2 if any benchmark present in both files dispatched a different
    number of events. Otherwise returns the number of >10% allocs_per_event
    rises.
    """
    prev_by_name = {b["name"]: b for b in prev.get("benchmarks", [])}
    regressions = 0
    mismatches = 0
    compared = 0
    for b in doc["benchmarks"]:
        old = prev_by_name.get(b["name"])
        if old is None:
            print("check_bench_json: baseline lacks %r (new benchmark, "
                  "not gated)" % b["name"], file=sys.stderr)
            continue
        compared += 1
        old_ev = old["perf"]["events_dispatched"]
        new_ev = b["perf"]["events_dispatched"]
        if new_ev != old_ev:
            print("check_bench_json: MISMATCH %s events_dispatched %d -> %d"
                  % (b["name"], old_ev, new_ev), file=sys.stderr)
            mismatches += 1
        old_ape = old["perf"].get("allocs_per_event", 0.0)
        new_ape = b["perf"].get("allocs_per_event", 0.0)
        if (new_ape > ALLOC_ABS_GRACE
                and new_ape > old_ape * (1.0 + REGRESSION_TOLERANCE)):
            print("check_bench_json: REGRESSION %s allocs_per_event "
                  "%.4f -> %.4f" % (b["name"], old_ape, new_ape),
                  file=sys.stderr)
            regressions += 1
    for name in prev_by_name:
        if not any(b["name"] == name for b in doc["benchmarks"]):
            print("check_bench_json: benchmark %r vanished vs baseline"
                  % name, file=sys.stderr)
    print("check_bench_json: baseline gate compared %d benchmarks, "
          "%d events mismatch(es), %d allocs regression(s)"
          % (compared, mismatches, regressions))
    if mismatches:
        print("check_bench_json: a full run dispatches the same events on "
              "every host, so the simulated work changed. If that was "
              "intended, re-emit the baseline (mpcc_bench at a clean SHA) "
              "in the same change.", file=sys.stderr)
        sys.exit(2)
    return regressions


def check(doc, baseline, check_ab):
    env = doc.get("env")
    if not isinstance(env, dict):
        malformed("missing env provenance object")
    for k in ENV_KEYS:
        if k not in env:
            malformed("env lacks %r" % k)

    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or len(benches) < 6:
        malformed("expected >= 6 benchmarks, found %s"
                  % (len(benches) if isinstance(benches, list) else "none"))
    for b in benches:
        for k in BENCH_KEYS:
            if k not in b:
                malformed("benchmark %r lacks %r" % (b.get("name", "?"), k))
        if b["ops"] <= 0 or b["wall_s"] <= 0:
            malformed("benchmark %r has no measured work" % b["name"])
        perf = b["perf"]
        for k in PERF_KEYS:
            if k not in perf:
                malformed("benchmark %r perf lacks %r" % (b["name"], k))
        if b["name"] not in NO_EVENTS_OK and perf["events_dispatched"] <= 0:
            malformed("benchmark %r dispatched no events" % b["name"])

    print("check_bench_json: %d benchmarks ok (%s, %s)"
          % (len(benches), env["compiler"], env["build_type"]))

    failed = False
    if baseline is not None:
        failed = check_baseline(doc, baseline) > 0

    if check_ab:
        ab = doc.get("perf_overhead")
        if not isinstance(ab, dict) or "overhead_pct" not in ab:
            malformed("missing perf_overhead block (was --no-ab used?)")
        pct, target = ab["overhead_pct"], ab.get("target_pct", 2.0)
        print("check_bench_json: MPCC_NO_PERF overhead %.2f%% (target < %g%%)"
              % (pct, target))
        if pct >= target:
            failed = True
    return failed


def main():
    argv = list(sys.argv[1:])
    baseline_path = None
    if "--baseline" in argv:
        i = argv.index("--baseline")
        if i + 1 >= len(argv):
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        baseline_path = argv[i + 1]
        del argv[i:i + 2]
    args = [a for a in argv if not a.startswith("--")]
    check_ab = "--no-ab" not in argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    doc = load_bench(args[0])
    baseline = load_bench(baseline_path) if baseline_path is not None else None
    sys.exit(1 if check(doc, baseline, check_ab) else 0)


if __name__ == "__main__":
    main()
