#!/usr/bin/env bash
# Routing-service end-to-end drill (run by CI, useful locally).
#
# Exercises the serve daemon's operational guarantees with the real CLI
# binary over a real unix socket:
#   1. daemon starts, prints its readiness line, answers a mixed
#      valid/invalid request stream from 4 concurrent clients — every
#      client gets one response per request in its own request order,
#      with the right ok/error envelope per request;
#   2. a served route response is byte-identical to `qubikos_cli route
#      --json` run in-process on the same circuit (one code path,
#      no daemon drift);
#   3. hostile lines (nesting past the parser's cap, a duplicate key, a
#      circuit wider than the device) get error envelopes, and the same
#      connection still routes after each;
#   4. the daemon is SIGKILLed mid-life; the stale socket it leaves
#      behind does not block a restarted daemon, and the restarted
#      daemon's responses are byte-identical to the first daemon's
#      (the service is stateless and deterministic);
#   5. clean SIGTERM shutdown prints the served-request summary.
set -euo pipefail

BUILD_DIR=${1:-build}
CLI="$BUILD_DIR/example_qubikos_cli"
if [[ ! -x "$CLI" ]]; then
  echo "error: $CLI not found (pass the build directory as the first argument)" >&2
  exit 1
fi

WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

SOCK="$WORK/serve.sock"

start_daemon() {
  local log=$1
  "$CLI" serve --socket "$SOCK" > "$log" 2>&1 &
  SERVE_PID=$!
  # Readiness: the daemon prints "serving on <path>" once the socket
  # is bound and the accept loop is live.
  for _ in $(seq 1 200); do
    grep -q "serving on" "$log" 2>/dev/null && return 0
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.05
  done
  echo "error: daemon did not become ready; log:" >&2
  cat "$log" >&2
  return 1
}

# 4 concurrent clients, each sending its own mixed valid/invalid stream
# and checking per-line expectations; response lines are saved per client
# for the cross-restart determinism diff.
run_clients() {
  local outdir=$1
  mkdir -p "$outdir"
  python3 - "$SOCK" "$outdir" <<'PY'
import json
import socket
import sys
import threading

sock_path, outdir = sys.argv[1], sys.argv[2]

def route(i, seed):
    return (json.dumps({
        "id": f"c{i}-r{seed}", "op": "route", "device": "grid4x4",
        "tool": "lightsabre", "options": {"trials": 4},
        "generate": {"swaps": 3, "gates": 40, "seed": seed},
    }), "route")

def client(i):
    # Mixed stream: good routes, a parse error, an unknown device, a bad
    # option, a certify, and the tools dump. Expectations are per line.
    stream = [
        route(i, 1),
        ("this is not json", "error:parse_error"),
        route(i, 2),
        (json.dumps({"id": f"c{i}-bad-dev", "op": "route", "device": "gridzzz",
                     "tool": "sabre", "generate": {"swaps": 1, "gates": 10}}),
         "error:unknown_device"),
        (json.dumps({"id": f"c{i}-bad-opt", "op": "route", "device": "grid4x4",
                     "tool": "sabre", "options": {"no_such_option": 1},
                     "generate": {"swaps": 1, "gates": 10}}),
         "error:bad_option"),
        (json.dumps({"id": f"c{i}-cert", "op": "certify", "device": "grid3x3",
                     "generate": {"swaps": 2, "gates": 20, "seed": 5}}),
         "certify"),
        (json.dumps({"id": f"c{i}-tools", "op": "tools"}), "tools"),
        route(i, 3),
    ]
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sock_path)
    f = s.makefile("rw", encoding="utf-8", newline="\n")
    lines = []
    for line, expect in stream:
        f.write(line + "\n")
        f.flush()
        resp = f.readline().rstrip("\n")
        assert resp, f"client {i}: EOF instead of a response to {line!r}"
        doc = json.loads(resp)
        if expect.startswith("error:"):
            code = expect.split(":", 1)[1]
            assert doc["ok"] is False and doc["error"]["code"] == code, \
                f"client {i}: expected {code}, got {resp}"
        else:
            assert doc["ok"] is True and doc["op"] == expect, \
                f"client {i}: expected ok {expect}, got {resp}"
            if expect == "route":
                assert doc["legal"] is True, f"client {i}: illegal routing: {resp}"
            if expect == "certify":
                assert doc["confirmed"] is True, f"client {i}: not confirmed: {resp}"
                assert doc["solver_swaps"] == doc["declared_swaps"], \
                    f"client {i}: solver count differs from the declared one: {resp}"
                assert doc["aborted"] is False, f"client {i}: aborted: {resp}"
        lines.append(resp)
    s.close()
    with open(f"{outdir}/client{i}.jsonl", "w", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")

threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print("clients ok")
PY
}

echo "--- daemon up, mixed 4-client stream"
start_daemon "$WORK/serve1.log"
run_clients "$WORK/run1"

echo "--- served route line == in-process 'route --json' (one code path)"
"$CLI" generate grid4x4 3 40 7 "$WORK/instance" > /dev/null
"$CLI" route lightsabre:trials=4 grid4x4 "$WORK/instance.qasm" --json \
  > "$WORK/direct.json"
python3 - "$SOCK" "$WORK/instance.qasm" "$WORK/direct.json" <<'PY'
import json
import socket
import sys

sock_path, qasm_path, direct_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(qasm_path, encoding="utf-8") as f:
    qasm = f.read()
with open(direct_path, encoding="utf-8") as f:
    direct = f.read().rstrip("\n")

req = {"id": "cli", "op": "route", "device": "grid4x4",
       "tool": "lightsabre", "options": {"trials": 4}, "qasm": qasm}
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)
f = s.makefile("rw", encoding="utf-8", newline="\n")
f.write(json.dumps(req) + "\n")
f.flush()
served = f.readline().rstrip("\n")
s.close()
assert served == direct, \
    f"served response drifted from the CLI:\n  served: {served}\n  direct: {direct}"
print("served == direct")
PY

echo "--- hostile lines get error envelopes; the connection keeps routing"
python3 - "$SOCK" <<'PY'
import json
import socket
import sys

sock_path = sys.argv[1]
wide_qasm = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[40];\n' +
             "".join(f"cx q[{q}],q[{q + 1}];\n" for q in range(39)))
hostile = [
    # 200 KB, under the 1 MiB line cap, but past the parser's nesting cap.
    ("[" * 200000, "parse_error"),
    ('{"id":"dup","op":"route","device":"aspen4","tool":"tket",'
     '"tool":"nosuchtool","generate":{"swaps":1,"gates":10}}', "parse_error"),
    # 40 qubits on the 16-qubit aspen4.
    (json.dumps({"id": "wide", "op": "route", "device": "aspen4", "tool": "mlqls",
                 "qasm": wide_qasm}), "bad_request"),
]
good = json.dumps({"id": "after", "op": "route", "device": "aspen4",
                   "tool": "lightsabre", "options": {"trials": 4},
                   "generate": {"swaps": 3, "gates": 40, "seed": 7}})
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)
f = s.makefile("rw", encoding="utf-8", newline="\n")
for line, code in hostile:
    for request, expect in ((line, "error:" + code), (good, "route")):
        f.write(request + "\n")
        f.flush()
        resp = f.readline().rstrip("\n")
        assert resp, f"EOF instead of a response to {request[:60]!r}"
        doc = json.loads(resp)
        if expect == "route":
            assert doc["ok"] is True and doc["legal"] is True, f"expected a route, got {resp}"
        else:
            assert doc["ok"] is False and doc["error"]["code"] == code, \
                f"expected {code}, got {resp}"
s.close()
print("hostile lines ok")
PY

echo "--- SIGKILL mid-life; stale socket must not block a restart"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
[[ -S "$SOCK" ]] || {
  echo "error: expected the killed daemon to leave a stale socket" >&2
  exit 1
}

start_daemon "$WORK/serve2.log"
run_clients "$WORK/run2"

echo "--- responses byte-identical across the restart"
for i in 0 1 2 3; do
  diff "$WORK/run1/client$i.jsonl" "$WORK/run2/client$i.jsonl"
done
echo "OK: restarted daemon serves byte-identical responses"

echo "--- clean SIGTERM shutdown prints the served summary"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
grep -q "served .* requests" "$WORK/serve2.log" || {
  echo "error: shutdown summary missing; log:" >&2
  cat "$WORK/serve2.log" >&2
  exit 1
}
[[ -S "$SOCK" ]] && {
  echo "error: clean shutdown left the socket behind" >&2
  exit 1
}
cat "$WORK/serve2.log"
echo "OK: serve drill complete"
