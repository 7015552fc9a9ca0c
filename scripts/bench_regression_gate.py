#!/usr/bin/env python3
"""Bench regression gate: compare BENCH_micro.json against a baseline.

Usage:
    scripts/bench_regression_gate.py BENCH_baseline.json build/BENCH_micro.json \
        [--max-regression 0.25] [--min-seconds 1e-5]
    scripts/bench_regression_gate.py --serve build/BENCH_serve.json

Compares the tracked single-threaded sections of bench_micro's timed
output (distance_matrix per architecture, route_pass, the
routing_context shared-distance-matrix path, the pool_dispatch
overhead, the distance_lazy big-device route, and the certify_unsat
batch of aspen4 UNSAT-at-k-1 proofs) and
fails — exit code 1 — when any section regressed by more than
--max-regression (default 25%, overridable with the
QUBIKOS_BENCH_GATE_PCT env var, e.g.
QUBIKOS_BENCH_GATE_PCT=40).

On top of the relative comparisons, absolute properties of the
*current* run are enforced:

  - route_sabre_trials: when the run's thread_scaling_valid flag is true
    (>= 2 live pool workers), the 2-thread trial loop must be at least
    1.5x faster than serial. Runs on 1-core machines carry
    thread_scaling_valid=false and are exempt — a threaded speedup
    cannot be measured there, and pretending otherwise would gate on
    noise.
  - trial_arena: marginal heap allocations per extra trial within the
    recorded threshold (steady-state trials must reuse their arena).
  - obs_overhead: the telemetry registry enabled must cost at most the
    document's recorded ceiling (5%) over disabled on the route_pass
    workload, and both runs must route identically (telemetry never
    perturbs results).
  - certify_unsat: every proof of the batch must answer infeasible
    (symmetry breaking and other solver speed-ups never change a
    verdict), and the batch's work counts (sat.conflicts, exact.clauses,
    exact.symmetry_clauses) must equal the baseline's exactly. They
    depend on the code, not the machine, so any change is a change of
    the search and needs a documented baseline refresh.
  - distance_lazy: the lazy provider must route the equivalence device
    identically to the dense provider, the big device must actually run
    in lazy mode, and the route must touch at most the recorded
    fraction of all BFS rows (the point of laziness).

Sections faster than --min-seconds in the baseline are reported but never
gated: at that duration the comparison measures scheduler noise. A large
*improvement* is reported too, as a hint to refresh the baseline (commit
the new BENCH_micro.json as BENCH_baseline.json).

With --serve the gate instead checks a BENCH_serve.json document (the
routing-service bench) on absolute properties of the current run only —
no baseline, since requests/sec is machine-dependent but the cached/cold
*ratio* is not:

  - speedup: requests/sec with the per-device context cache on must be
    at least the document's recorded threshold (2x) over rebuilding the
    context on every request;
  - responses_match: the cached and cold runs must have produced
    bit-identical response lines (the cache is an optimization, never an
    observable).

Exit codes: 0 ok, 1 regression, 2 schema/usage problem.
"""

import argparse
import json
import os
import sys


def tracked_sections(doc):
    """Yield (key, seconds) for every gated section of a bench document."""
    for entry in doc.get("distance_matrix", []):
        yield "distance_matrix/" + entry["arch"], float(entry["seconds"])
    rp = doc.get("route_pass")
    if rp is not None:
        yield "route_pass/" + rp["arch"], float(rp["seconds"])
    rc = doc.get("routing_context")
    if rc is not None:
        # Gate the shared-context path (the registry tools' hot path);
        # the rebuild timing is informational — it measures the fallback.
        yield "routing_context/" + rc["arch"], float(rc["seconds_shared"])
    pd = doc.get("pool_dispatch")
    if pd is not None:
        yield "pool_dispatch", float(pd["seconds_per_dispatch"])
    dl = doc.get("distance_lazy")
    if dl is not None:
        yield "distance_lazy/" + dl["big_arch"], float(dl["seconds_route"])
    cu = doc.get("certify_unsat")
    if cu is not None:
        yield "certify_unsat/" + cu["arch"], float(cu["seconds"])


MIN_THREAD_SPEEDUP = 1.5
MAX_OBS_OVERHEAD_RATIO = 1.05


def absolute_checks(doc):
    """Yield (name, ok, detail) for the current run's absolute gates."""
    trials = doc.get("route_sabre_trials")
    # Pre-v2 documents stored a bare entry list with no validity flag.
    if isinstance(trials, dict):
        if trials.get("thread_scaling_valid"):
            two = [e for e in trials.get("entries", []) if e.get("threads") == 2]
            if two:
                speedup = float(two[0]["speedup_vs_serial"])
                yield ("route_sabre_trials 2-thread speedup",
                       speedup >= MIN_THREAD_SPEEDUP,
                       f"{speedup:.2f}x (floor {MIN_THREAD_SPEEDUP}x)")
            else:
                yield ("route_sabre_trials 2-thread speedup", False,
                       "no 2-thread entry in a thread_scaling_valid run")
        else:
            yield ("route_sabre_trials 2-thread speedup", True,
                   "skipped: thread_scaling_valid=false "
                   f"({trials.get('max_workers', '?')} worker(s))")
    ta = doc.get("trial_arena")
    if ta is not None:
        per_trial = float(ta["allocs_per_extra_trial"])
        limit = float(ta["threshold"])
        yield ("trial_arena allocs per extra trial", per_trial <= limit,
               f"{per_trial:.2f} (limit {limit:.0f})")
    obs = doc.get("obs_overhead")
    if obs is not None:
        ratio = float(obs["overhead_ratio"])
        ceiling = float(obs.get("threshold", MAX_OBS_OVERHEAD_RATIO))
        yield ("obs_overhead enabled/disabled ratio", ratio <= ceiling,
               f"{ratio:.3f}x (ceiling {ceiling:.2f}x)")
        yield ("obs_overhead identical routing", bool(obs.get("identical_swaps", True)),
               "enabled and disabled runs must agree on swap count")
    dl = doc.get("distance_lazy")
    if dl is not None:
        yield ("distance_lazy dense equivalence", bool(dl["identical_swaps"]),
               f"lazy vs dense on {dl['equiv_arch']}: {dl['equiv_swaps']} swaps")
        yield ("distance_lazy big device runs lazy", bool(dl["is_lazy"]),
               f"{dl['big_arch']} ({dl['big_qubits']} qubits)")
        frac = float(dl["row_fraction"])
        limit = float(dl["max_row_fraction"])
        yield ("distance_lazy row fraction", frac <= limit,
               f"{dl['rows_built']}/{dl['big_qubits']} rows = {frac:.3f} "
               f"(ceiling {limit:.2f})")
    cu = doc.get("certify_unsat")
    if cu is not None:
        yield ("certify_unsat verdicts", bool(cu["all_infeasible"]),
               f"{cu['proofs']} aspen4 proofs at k-1 must all be infeasible")


def count_checks(base, doc):
    """Yield (name, ok, detail): work counts that must match the baseline."""
    want = (base.get("certify_unsat") or {}).get("counts")
    cu = doc.get("certify_unsat")
    if want is None or cu is None:
        return
    same_batch = int(cu["proofs"]) == int(base["certify_unsat"]["proofs"])
    have = cu.get("counts", {})
    for name in sorted(want):
        got = have.get(name)
        yield (f"certify_unsat {name}", same_batch and got == want[name],
               f"{got} (baseline {want[name]}, {cu['proofs']} vs "
               f"{base['certify_unsat']['proofs']} proofs)")


def serve_checks(doc):
    """Yield (name, ok, detail) for a qubikos.bench_serve document."""
    speedup = float(doc["speedup"])
    threshold = float(doc["speedup_threshold"])
    yield ("serve context-cache speedup", speedup >= threshold,
           f"{speedup:.2f}x ({doc['rps_cached']:.0f} vs {doc['rps_cold']:.0f} rps, "
           f"floor {threshold:.1f}x)")
    yield ("serve cached/cold responses bit-identical", bool(doc["responses_match"]),
           f"{doc['requests']} requests on {len(doc['devices'])} devices")


def gate_serve(path):
    """Run the absolute serve checks; exit 1 on failure, 0 otherwise."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot load {path}: {err}")
    if doc.get("schema") != "qubikos.bench_serve.v1":
        print(f"error: {path} is not a qubikos.bench_serve document", file=sys.stderr)
        sys.exit(2)

    print(f"serve gate: {path} (scale {doc.get('scale', '?')}, "
          f"{doc.get('clients', '?')} clients)")
    print(f"  latency cached: p50 {float(doc['latency_p50_seconds']) * 1e3:.2f} ms, "
          f"p99 {float(doc['latency_p99_seconds']) * 1e3:.2f} ms (informational)")
    failed = []
    for name, ok, detail in serve_checks(doc):
        mark = "ok" if ok else "FAIL"
        print(f"  [{mark}] {name}: {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"FAIL: {len(failed)} serve gate check(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        sys.exit(1)
    print("OK: serve bench within gates")
    sys.exit(0)


def default_max_regression():
    """25%, unless QUBIKOS_BENCH_GATE_PCT overrides (empty = unset)."""
    raw = os.environ.get("QUBIKOS_BENCH_GATE_PCT", "").strip()
    if not raw:
        return 0.25
    try:
        return float(raw) / 100.0
    except ValueError:
        print(f"error: QUBIKOS_BENCH_GATE_PCT={raw!r} is not a number", file=sys.stderr)
        sys.exit(2)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot load {path}: {err}")
    if doc.get("schema") not in ("qubikos.bench_micro.v1", "qubikos.bench_micro.v2"):
        print(f"error: {path} is not a qubikos.bench_micro document", file=sys.stderr)
        sys.exit(2)
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument(
        "--serve",
        metavar="BENCH_SERVE_JSON",
        help="gate a BENCH_serve.json document instead (absolute checks, "
             "no baseline)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=default_max_regression(),
        help="allowed slowdown as a fraction (default 0.25 = 25%%, or "
             "QUBIKOS_BENCH_GATE_PCT/100 when that env var is set)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=1e-5,
        help="baseline durations below this are reported but not gated",
    )
    args = parser.parse_args()

    if args.serve is not None:
        if args.baseline is not None or args.current is not None:
            parser.error("--serve takes no baseline/current positionals")
        gate_serve(args.serve)
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required (or use --serve)")

    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    base = dict(tracked_sections(base_doc))
    cur = dict(tracked_sections(cur_doc))
    if not base:
        print("error: baseline has no tracked sections", file=sys.stderr)
        sys.exit(2)

    missing = sorted(set(base) - set(cur))
    if missing:
        print("error: current run is missing tracked sections (schema drift?):",
              ", ".join(missing), file=sys.stderr)
        sys.exit(2)

    regressions = []
    width = max(len(k) for k in base)
    print(f"bench gate: max allowed regression {args.max_regression:.0%}")
    for key in sorted(base):
        b, c = base[key], cur[key]
        ratio = c / b if b > 0 else float("inf")
        note = ""
        if b < args.min_seconds:
            note = "  (below noise floor, not gated)"
        elif ratio > 1.0 + args.max_regression:
            note = "  <-- REGRESSION"
            regressions.append((key, ratio))
        elif ratio < 1.0 - args.max_regression:
            note = "  (improved; consider refreshing the baseline)"
        print(f"  {key:<{width}}  {b * 1e6:10.1f} us -> {c * 1e6:10.1f} us"
              f"  ({ratio:6.2f}x){note}")

    for key in sorted(set(cur) - set(base)):
        print(f"  {key:<{width}}  (new section, not in baseline — not gated)")

    failed_absolute = []
    for name, ok, detail in [*absolute_checks(cur_doc), *count_checks(base_doc, cur_doc)]:
        mark = "ok" if ok else "FAIL"
        print(f"  [{mark}] {name}: {detail}")
        if not ok:
            failed_absolute.append(name)

    if regressions or failed_absolute:
        parts = [f"{k} ({r:.2f}x)" for k, r in regressions] + failed_absolute
        print(f"FAIL: {len(parts)} gate check(s) failed: {', '.join(parts)}",
              file=sys.stderr)
        sys.exit(1)
    print("OK: no tracked section regressed past the gate")


if __name__ == "__main__":
    main()
