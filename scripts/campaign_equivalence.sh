#!/usr/bin/env bash
# 2-shard mini-campaign equivalence drill (run by CI, useful locally).
#
# Exercises the campaign engine's core guarantees end to end with the CLI:
#   1. single-process reference run + report;
#   2. shard 0/2 runs to completion;
#   3. shard 1/2 is interrupted midway (--max-units) and its record file
#      is torn mid-line, as a SIGKILL during an append would leave it;
#   4. shard 1/2 is re-launched and resumes past the intact records;
#   5. both stores sync into one, and its report must be byte-identical
#      to the single-process reference;
#   6. fault drill: a deterministically failing unit (env-var fault hook)
#      quarantines without killing its shard, `campaign status` shows it
#      (on a synced copy too), `campaign run --retry-quarantined` drains
#      it once the fault is cleared, and the drained report is
#      byte-identical to the reference again;
#   7. two-machine sync drill: each "machine" runs its shard into its own
#      store, one is killed mid-run, `campaign sync` collects both — torn
#      tail and all — the killed machine resumes, a re-sync picks up only
#      the grown file, a further re-sync is a no-op, and the collected
#      report is byte-identical to the reference;
#   8. tool-variant drill: a spec-v3 campaign (an option-overridden
#      registry variant next to a stock tool) runs sharded with a
#      kill/resume, and the synced report — variant labels and all — is
#      byte-identical to its single-process reference;
#   9. telemetry drill: a run under QUBIKOS_OBS=metrics persists sidecar
#      records (placement.* counters included) without disturbing
#      completion, `campaign profile` renders byte-identically across
#      invocations, `campaign status --json` parses, and QUBIKOS_TRACE
#      emits a well-formed Chrome-trace JSON array (CI uploads it; set
#      QUBIKOS_OBS_ARTIFACT_DIR to keep it);
#  10. retired-layout drill: a copy of a finished store with a stray
#      runs.jsonl dropped in, and one rewritten to the rotated
#      runs-<writer>-<seq>.jsonl + head-<writer>.json layout, each make
#      `campaign status`, `campaign report` and `campaign sync` exit 1
#      with an error naming the file, and the failed sync creates no
#      destination.
set -euo pipefail

BUILD_DIR=${1:-build}
CLI="$BUILD_DIR/example_qubikos_cli"
if [[ ! -x "$CLI" ]]; then
  echo "error: $CLI not found (pass the build directory as the first argument)" >&2
  exit 1
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$CLI" campaign init "$WORK/spec.json"
"$CLI" campaign plan "$WORK/spec.json" 2

echo "--- single-process reference"
"$CLI" campaign run "$WORK/spec.json" "$WORK/ref"
"$CLI" campaign report "$WORK/spec.json" "$WORK/ref" > "$WORK/ref_report.txt"

echo "--- shard 0/2 (complete)"
"$CLI" campaign run "$WORK/spec.json" "$WORK/s0" --shard 0/2

echo "--- shard 1/2 (killed midway: stop after 5 units, tear its record file)"
"$CLI" campaign run "$WORK/spec.json" "$WORK/s1" --shard 1/2 --max-units 5
# Writer 1's record file is the only file a crash can tear.
printf '{"unit_id": "torn-by-crash' >> "$WORK/s1/runs-1.jsonl"

echo "--- shard 1/2 (resumed)"
"$CLI" campaign run "$WORK/spec.json" "$WORK/s1" --shard 1/2 \
  | tee "$WORK/resume.txt"
grep -q "5 resumed" "$WORK/resume.txt" || {
  echo "error: resume did not skip the 5 durable units" >&2
  exit 1
}

echo "--- sync + report"
"$CLI" campaign sync "$WORK/synced" "$WORK/s0" "$WORK/s1"
"$CLI" campaign report "$WORK/spec.json" "$WORK/synced" > "$WORK/synced_report.txt"

diff "$WORK/ref_report.txt" "$WORK/synced_report.txt"
echo "OK: synced 2-shard report is byte-identical to the single-process reference"

echo "--- fault drill: failing unit quarantines instead of killing the shard"
# The fault hook makes this one unit throw deterministically; with
# max_attempts=2 it fails twice and is quarantined, every other unit
# completes, and the worker exits nonzero to flag the quarantine.
FAULT_UNIT="u0:aspen4:n2:i0:seed7:qmap"
if QUBIKOS_CAMPAIGN_FAULT_UNIT="$FAULT_UNIT" \
    "$CLI" campaign run "$WORK/spec.json" "$WORK/faulty" | tee "$WORK/faulty_run.txt"; then
  echo "error: worker should exit nonzero while a unit is quarantined" >&2
  exit 1
fi
grep -q "1 quarantined" "$WORK/faulty_run.txt" || {
  echo "error: expected exactly one quarantined unit" >&2
  exit 1
}

echo "--- status probe shows the quarantined unit (read-only, no spec needed)"
"$CLI" campaign status "$WORK/faulty" > "$WORK/status.txt" && {
  echo "error: status should exit nonzero while units are quarantined" >&2
  exit 1
}
cat "$WORK/status.txt"
grep -q "1 quarantined" "$WORK/status.txt" || {
  echo "error: status did not count the quarantined unit" >&2
  exit 1
}
grep -q "$FAULT_UNIT" "$WORK/status.txt" || {
  echo "error: status did not name the quarantined unit" >&2
  exit 1
}

echo "--- a synced copy keeps the failure records (still quarantined)"
"$CLI" campaign sync "$WORK/faulty_synced" "$WORK/faulty"
"$CLI" campaign status "$WORK/faulty_synced" > "$WORK/status_synced.txt" || true
grep -q "1 quarantined" "$WORK/status_synced.txt" || {
  echo "error: sync dropped the quarantined unit's failure records" >&2
  exit 1
}

echo "--- retry drains the quarantine (fault cleared)"
"$CLI" campaign run "$WORK/spec.json" "$WORK/faulty" --retry-quarantined
"$CLI" campaign status "$WORK/faulty" > "$WORK/status_after.txt"
grep -q "0 quarantined" "$WORK/status_after.txt" || {
  echo "error: retry did not drain the quarantine" >&2
  exit 1
}

echo "--- drained report is byte-identical to the reference"
"$CLI" campaign report "$WORK/spec.json" "$WORK/faulty" > "$WORK/faulty_report.txt"
diff "$WORK/ref_report.txt" "$WORK/faulty_report.txt"
echo "OK: quarantine + retry leaves the report byte-identical to the fault-free reference"

echo "--- two-machine sync drill: disjoint shards on separate stores, one killed"
"$CLI" campaign run "$WORK/spec.json" "$WORK/m0" --shard 0/2
"$CLI" campaign run "$WORK/spec.json" "$WORK/m1" --shard 1/2 --max-units 3
printf '{"unit_id": "torn-by-crash' >> "$WORK/m1/runs-1.jsonl"

echo "--- sync the incomplete fleet (torn tail rides along)"
"$CLI" campaign sync "$WORK/collect" "$WORK/m0" "$WORK/m1" | tee "$WORK/sync1.txt"

echo "--- machine 1 resumes and finishes; re-sync copies only its grown file"
"$CLI" campaign run "$WORK/spec.json" "$WORK/m1" --shard 1/2
"$CLI" campaign sync "$WORK/collect" "$WORK/m0" "$WORK/m1" | tee "$WORK/sync2.txt"
grep -q " 0 copied, 0 grown" "$WORK/sync2.txt" && {
  echo "error: second sync should have picked up machine 1's new records" >&2
  exit 1
}

echo "--- a further re-sync is a no-op (idempotence)"
"$CLI" campaign sync "$WORK/collect" "$WORK/m0" "$WORK/m1" | tee "$WORK/sync3.txt"
grep -q " 0 copied, 0 grown" "$WORK/sync3.txt" || {
  echo "error: re-sync of unchanged stores must copy nothing" >&2
  exit 1
}

echo "--- report from the synced collection is byte-identical to the reference"
"$CLI" campaign report "$WORK/spec.json" "$WORK/collect" > "$WORK/collect_report.txt"
diff "$WORK/ref_report.txt" "$WORK/collect_report.txt"
echo "OK: two-machine sync + report is byte-identical to the single-process reference"

echo "--- tool-variant drill: spec v3 with an overridden registry variant"
# A trimmed-trials lightsabre variant next to stock tket: the spec must
# come out v3, plan unit IDs must carry the variant label, and the
# sharded kill/resume/sync pipeline must hold for variant campaigns
# exactly as it does for the stock lineup.
"$CLI" campaign init "$WORK/v3_spec.json" \
  --tool lightsabre:trials=2 --tool tket
grep -q '"schema": "qubikos.campaign_spec.v3"' "$WORK/v3_spec.json" || {
  echo "error: --tool with overrides should emit a v3 spec" >&2
  exit 1
}
"$CLI" campaign plan "$WORK/v3_spec.json" 2 | tee "$WORK/v3_plan.txt"
grep -q "lightsabre:trials=2" "$WORK/v3_plan.txt" || {
  echo "error: plan does not carry the variant label in unit IDs" >&2
  exit 1
}

echo "--- v3 single-process reference"
"$CLI" campaign run "$WORK/v3_spec.json" "$WORK/v3_ref"
"$CLI" campaign report "$WORK/v3_spec.json" "$WORK/v3_ref" > "$WORK/v3_ref_report.txt"
grep -q "lightsabre:trials=2" "$WORK/v3_ref_report.txt" || {
  echo "error: report tables do not list the variant label" >&2
  exit 1
}

echo "--- v3 shards (shard 1 killed midway, torn, resumed)"
"$CLI" campaign run "$WORK/v3_spec.json" "$WORK/v3_s0" --shard 0/2
"$CLI" campaign run "$WORK/v3_spec.json" "$WORK/v3_s1" --shard 1/2 --max-units 3
printf '{"unit_id": "torn-by-crash' >> "$WORK/v3_s1/runs-1.jsonl"
"$CLI" campaign run "$WORK/v3_spec.json" "$WORK/v3_s1" --shard 1/2

echo "--- v3 synced report is byte-identical to the reference"
"$CLI" campaign sync "$WORK/v3_synced" "$WORK/v3_s0" "$WORK/v3_s1"
"$CLI" campaign report "$WORK/v3_spec.json" "$WORK/v3_synced" > "$WORK/v3_synced_report.txt"
diff "$WORK/v3_ref_report.txt" "$WORK/v3_synced_report.txt"
echo "OK: v3 tool-variant campaign survives kill/resume/sync byte-identically"

echo "--- telemetry drill: metrics store, deterministic profile, trace file"
OBS_OUT=${QUBIKOS_OBS_ARTIFACT_DIR:-$WORK}
mkdir -p "$OBS_OUT"
QUBIKOS_OBS=metrics QUBIKOS_TRACE="$OBS_OUT/trace.json" \
  "$CLI" campaign run "$WORK/spec.json" "$WORK/obs_store"
grep -q '"kind":"metrics"' "$WORK/obs_store"/runs-*.jsonl || {
  echo "error: QUBIKOS_OBS=metrics did not persist metrics sidecar records" >&2
  exit 1
}
grep -q '"placement.token_swap_distance"' "$WORK/obs_store"/runs-*.jsonl || {
  echo "error: metrics sidecars carry no placement.* counters" >&2
  exit 1
}
"$CLI" campaign profile "$WORK/obs_store" > "$WORK/profile_a.txt"
"$CLI" campaign profile "$WORK/obs_store" > "$WORK/profile_b.txt"
diff "$WORK/profile_a.txt" "$WORK/profile_b.txt"
grep -q "campaign.unit.calls" "$WORK/profile_a.txt" || {
  echo "error: campaign profile does not aggregate the unit timer" >&2
  exit 1
}
# Sidecars must not perturb the report: byte-identical to the reference.
"$CLI" campaign report "$WORK/spec.json" "$WORK/obs_store" > "$WORK/obs_report.txt"
diff "$WORK/ref_report.txt" "$WORK/obs_report.txt"
"$CLI" campaign status "$WORK/obs_store" --json > "$WORK/status.json"
python3 - "$WORK/status.json" "$OBS_OUT/trace.json" <<'PY'
import json, sys
status = json.load(open(sys.argv[1]))
assert status["complete"] is True, status
assert status["totals"]["done"] == status["totals"]["total"], status
trace = json.load(open(sys.argv[2]))
assert isinstance(trace, list) and trace, "trace must be a non-empty JSON array"
for event in trace:
    assert event["ph"] == "X" and "ts" in event and "dur" in event, event
names = {event["name"] for event in trace}
assert "campaign.unit" in names, sorted(names)
PY
echo "OK: metrics store profiles deterministically; trace is well-formed Chrome JSON"

echo "--- retired-layout drill: files of a retired layout are load errors on every command"
cp -r "$WORK/ref" "$WORK/stray"
head -n 1 "$WORK/ref/runs-0.jsonl" > "$WORK/stray/runs.jsonl"
cp -r "$WORK/ref" "$WORK/rotated"
mv "$WORK/rotated/runs-0.jsonl" "$WORK/rotated/runs-0-000000.jsonl"
printf '{\n  "open_seq": 0,\n  "schema": "qubikos.campaign_head.v1",\n  "sealed": [],\n  "writer": 0\n}\n' \
  > "$WORK/rotated/head-0.json"
expect_retired_error() {
  local file=$1 name=$2
  shift 2
  local rc=0
  "$@" > "$WORK/retired_out.txt" 2> "$WORK/retired_err.txt" || rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q "$file" "$WORK/retired_err.txt"; then
    echo "error: campaign $name should exit 1 naming the retired $file (exit $rc)" >&2
    cat "$WORK/retired_err.txt" >&2
    exit 1
  fi
  echo "  campaign $name: $(cat "$WORK/retired_err.txt")"
}
for retired in stray:runs.jsonl rotated:runs-0-000000.jsonl; do
  store=${retired%%:*}
  file=${retired#*:}
  expect_retired_error "$file" status "$CLI" campaign status "$WORK/$store"
  expect_retired_error "$file" report "$CLI" campaign report "$WORK/spec.json" "$WORK/$store"
  expect_retired_error "$file" sync "$CLI" campaign sync "$WORK/${store}_sync" "$WORK/$store"
  if [[ -e "$WORK/${store}_sync" ]]; then
    echo "error: a sync that failed to load its source must not create the destination" >&2
    exit 1
  fi
done
echo "OK: runs.jsonl and runs-<writer>-<seq>.jsonl are rejected by status, report and sync"
