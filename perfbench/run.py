#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the rfclib library from src/ plus the perfbench program) in Release
mode under .bench_build/; later calls rebuild incrementally.  A run
prints every metric by name with its unit, the operation counts, and
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  The full report (manifest, deterministic results,
telemetry) and, for traced runs, a Chrome trace-event file go to
.bench_out/.  Exit status: 0 when every output check passed; 1 when a
check failed (after the result line, with "correct": false); 1 with no
result line when the build failed or the program stopped on an error;
2 on a usage error or a build that must not be timed.

--selftest runs every workload at reduced length and checks that the
results section is byte-identical across repeated runs, traced and
untraced, and across thread counts (1 and 4) for the sharded workloads,
and that one process running vct_paper_sharded and fluid_paper reports
the cross-tier field.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["vct_serial_r24", "vct_paper_sharded", "drill_sharded", "fluid_paper"]
SHARDED = ["vct_paper_sharded", "drill_sharded"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (until a binary exists) and build; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def invoke(args, workloads=1):
    """Run the perfbench binary; returns (exit code, stdout text)."""
    limit = RUN_TIMEOUT_S * workloads
    try:
        p = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=limit)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % limit)
        return 1, ""
    return p.returncode, p.stdout


def raw_results(stdout):
    """The verbatim results text of each workload in a report."""
    out, pos = [], 0
    while True:
        start = stdout.find('\n"results": ', pos)
        if start < 0:
            return out
        end = stdout.index(',\n"checks": ', start)
        out.append(stdout[start + len('\n"results": '):end])
        pos = end


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def print_report(report, trace):
    for w in report["workloads"]:
        c, t = w["checks"], w["telemetry"]
        print("== %s  ops=%d ops_failed=%d  rounds=%d" % (w["name"], c["ops"], c["ops_failed"], t["rounds"]))
        for f in c["failures"]:
            print("   FAILED: " + f)
        section = t["per_layer"] if trace else t["end_to_end"]
        for name, m in section.items():
            print("   %-40s %14s %s" % (name, fmt(m["value"]), m["unit"]))
        if trace:
            print("   self time by layer (s):")
            for name, v in sorted(t["self_time_s"].items(), key=lambda kv: -kv[1]):
                print("     %-38s %14s" % (name, fmt(v)))
    for x in report.get("cross_tier", []):
        print("cross-tier %s: vct/ecmp=%.4g vct/gk=%.4g (reported, not gated)"
              % (x["net"], x["vct_over_ecmp"], x["vct_over_gk"]))


def run(a):
    names = WORKLOADS if a.workload == "all" else [a.workload]
    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace))
    args = ["--workload", ",".join(names), "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-out", stem + ".chrome.json"]
    code, stdout = invoke(args, len(names))
    if code not in (0, 1) or not stdout:
        return code or 1
    report = json.loads(stdout)
    report["manifest"]["git_sha"] = git_sha()
    report["manifest"]["source_sha256"] = source_digest()
    with open(stem + ".report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(report, a.trace)

    attempted = sum(w["checks"]["ops"] for w in report["workloads"])
    failed = sum(w["checks"]["ops_failed"] for w in report["workloads"])
    key = "per_layer" if a.trace else "end_to_end"
    metrics = {}
    for w in report["workloads"]:
        for name, m in w["telemetry"][key].items():
            if name.count(".") > 1:
                continue  # per-network splits stay in the report file
            metrics[name if len(names) == 1 else w["name"] + "." + name] = m
    print(json.dumps({"correct": code == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if code == 0 and failed == 0 else 1


def selftest(a):
    if not build():
        return 1
    ok = True

    def check(cond, what):
        nonlocal ok
        print(("ok    " if cond else "FAIL  ") + what)
        ok = ok and cond

    base = ["--quick", "--seed", str(a.seed)]
    reports, raws = {}, {}
    for name in WORKLOADS:
        code1, out1 = invoke(base + ["--workload", name, "--rounds", "1"])
        code2, out2 = invoke(base + ["--workload", name, "--rounds", "2", "--trace", "1"])
        check(code1 == 0 and code2 == 0, "%s: both runs pass their checks" % name)
        if not (out1 and out2):
            continue
        check(raw_results(out1) == raw_results(out2),
              "%s: results byte-identical across runs, traced and untraced" % name)
        reports[name] = json.loads(out1)
        raws[name] = raw_results(out1)[0]
        layers = json.loads(out2)["workloads"][0]["telemetry"]["per_layer"]
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = [m["name"] for m in json.load(fh)["per_layer"]]
        check(all(m in layers for m in declared), "%s: every declared per-layer metric reported" % name)
        if name in SHARDED:
            threads = reports[name]["manifest"]["threads"][name]
            other = 4 if threads == 1 else 1
            code3, out3 = invoke(base + ["--workload", name, "--rounds", "1", "--threads", str(other)])
            check(code3 == 0 and raw_results(out3) == raw_results(out1),
                  "%s: results byte-identical on %d and on %d threads" % (name, threads, other))
    pair = ["vct_paper_sharded", "fluid_paper"]
    code, out = invoke(base + ["--workload", ",".join(pair), "--rounds", "1"], len(pair))
    cross = json.loads(out).get("cross_tier", []) if out else []
    check(code == 0 and raw_results(out) == [raws.get(n) for n in pair],
          "vct_paper_sharded and fluid_paper give the same results in one process as alone")
    check(len(cross) == 2 and all(x["vct_over_ecmp"] > 0 and x["vct_over_gk"] > 0 for x in cross),
          "one process running both reports the cross-tier field for CFT and RFC")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")
    if a.selftest:
        return selftest(a)
    if not a.workload:
        ap.error("--workload is required")
    return run(a)


if __name__ == "__main__":
    sys.exit(main())
