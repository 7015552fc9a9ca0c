#!/usr/bin/env python3
"""Smoke-runs the committed paper experiments and pins their reports.

usage: check_experiments.py <qubikos_cli> <repo_root>

Each experiments/<name>.smoke.json runs through `campaign run` into a
temporary store; `campaign report` must equal
experiments/expected/<name>.smoke.txt byte for byte. Also checked:
every smoke spec has a golden and a paper twin, every golden has a smoke
spec, and every <name>.paper.json equals its smoke twin once the scale
knobs (circuits_per_count, sabre_trials, variant options.trials) are
removed; a store with one invalid record makes `campaign report` exit 1;
and malformed numeric arguments exit 2 without creating a store.
"""
import difflib
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile

failures = []


def fail(message):
    failures.append(message)
    print("FAIL: " + message)


def cli(binary, *args):
    return subprocess.run([binary, *args], capture_output=True, text=True)


def scale_free(path):
    with open(path) as f:
        spec = json.load(f)
    spec.pop("sabre_trials", None)
    for suite in spec["suites"]:
        suite.pop("circuits_per_count", None)
    for tool in spec["tools"]:
        if isinstance(tool, dict):
            tool.get("options", {}).pop("trials", None)
    return spec


def check_parity(experiments):
    for paper in sorted(glob.glob(os.path.join(experiments, "*.paper.json"))):
        smoke = paper.replace(".paper.json", ".smoke.json")
        if not os.path.exists(smoke) or scale_free(paper) != scale_free(smoke):
            fail("%s has no smoke twin equal up to the scale knobs" % os.path.basename(paper))
    for smoke in sorted(glob.glob(os.path.join(experiments, "*.smoke.json"))):
        if not os.path.exists(smoke.replace(".smoke.json", ".paper.json")):
            fail("%s has no paper twin" % os.path.basename(smoke))


def check_goldens(experiments):
    for golden in sorted(glob.glob(os.path.join(experiments, "expected", "*.smoke.txt"))):
        name = os.path.basename(golden)[: -len(".txt")]
        if not os.path.exists(os.path.join(experiments, name + ".json")):
            fail("expected/%s.txt has no spec %s.json" % (name, name))


def check_report_gate(binary, spec, store, work):
    broken = os.path.join(work, "invalid_store")
    shutil.copytree(store, broken)
    # A one-process run writes all its records to writer 0's file.
    records = os.path.join(broken, "runs-0.jsonl")
    with open(records) as f:
        text = f.read()
    with open(records, "w") as f:
        f.write(text.replace('"valid":true', '"valid":false', 1))
    result = cli(binary, "campaign", "report", spec, broken)
    if result.returncode != 1 or " 1 invalid, 0 missing" not in result.stdout:
        fail("report over one invalid record exited %d, expected 1" % result.returncode)


def check_strict_args(binary, spec, work):
    store = os.path.join(work, "never_created")
    for args in (["run", spec, store, "--max-units", "-1"],
                 ["run", spec, store, "--threads", "four"],
                 ["run", spec, store, "--shard", "0/1junk"],
                 ["plan", spec, "2x"]):
        result = cli(binary, "campaign", *args)
        if result.returncode != 2 or os.path.exists(store):
            fail("campaign %s exited %d, expected a usage error and no store"
                 % (" ".join(args), result.returncode))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, experiments = sys.argv[1], os.path.join(sys.argv[2], "experiments")
    check_parity(experiments)
    check_goldens(experiments)
    specs = sorted(glob.glob(os.path.join(experiments, "*.smoke.json")))
    if not specs:
        fail("no smoke specs under " + experiments)
        return 1
    with tempfile.TemporaryDirectory() as work:
        for spec in specs:
            name = os.path.basename(spec)[: -len(".json")]
            store = os.path.join(work, name)
            run = cli(binary, "campaign", "run", spec, store)
            report = cli(binary, "campaign", "report", spec, store)
            if run.returncode != 0 or report.returncode != 0:
                fail("%s: run exited %d, report exited %d\n%s%s" % (
                    name, run.returncode, report.returncode, run.stderr, report.stderr))
            golden = os.path.join(experiments, "expected", name + ".txt")
            if not os.path.exists(golden):
                fail("%s has no golden expected/%s.txt" % (name, name))
                continue
            with open(golden) as f:
                expected = f.read()
            if report.stdout != expected:
                fail("%s: report differs from expected/%s.txt\n%s" % (name, name, "".join(
                    difflib.unified_diff(expected.splitlines(True),
                                         report.stdout.splitlines(True), "expected", "got"))))
        check_report_gate(binary, specs[-1], store, work)
        check_strict_args(binary, specs[-1], work)
    print("experiments_smoke: %d smoke specs, %d failures" % (len(specs), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
