#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload db_search --seed 7 --seconds 40 --trace 0

builds the harness from source on first use, runs the named workload from
the seed, and prints the host/build fingerprint line followed by one result
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics of a
traced run (spans are written under .bench_out/).  A run that is incorrect
or not valid (see refusal()) prints no result line and exits 1.

Repeat and compare:
    python3 perfbench/run.py --repeat 10 --workload db_search --out a.json
    python3 perfbench/run.py --compare a.json b.json

Self-test of the benchmark's own helpers and metric coverage:
    python3 perfbench/run.py --selftest
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("db_search", "pair_service")
RUN_TIMEOUT_S = 170
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build

def build_dir():
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # One build tree per source tree: a shared target directory must never
    # hand one checkout's CMake cache to another.
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:10]
    return os.path.join(base, "perfbench-" + tag)


def build():
    """Configures and builds the harness; returns the build directory."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return bdir


# ---------------------------------------------------------------------------
# Host and build fingerprint

def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def _tree_sha256(paths):
    h = hashlib.sha256()
    for top in paths:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_fingerprint(bdir):
    cpu = {}
    for line in _read("/proc/cpuinfo").splitlines():
        key, _, val = line.partition(":")
        key = key.strip()
        if key in ("model name", "flags") and key not in cpu:
            cpu[key] = val.strip()
    flags = cpu.get("flags", "").split()
    caches = {}
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(cache_root)) if os.path.isdir(cache_root) else []:
        d = os.path.join(cache_root, idx)
        level, ctype = _read(os.path.join(d, "level")), _read(os.path.join(d, "type"))
        if ctype in ("Unified", "Data"):
            caches["L" + level + ("d" if ctype == "Data" else "")] = _read(os.path.join(d, "size"))
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    build_type = ""
    for line in _read(os.path.join(bdir, "CMakeCache.txt")).splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    return {
        "cpu_model": cpu.get("model name", "unknown"),
        "cpu_flags": sorted(f for f in flags if f.startswith(("avx", "sse", "fma", "bmi"))),
        "cpu_flags_sha1": hashlib.sha1(" ".join(sorted(flags)).encode()).hexdigest(),
        "nproc": os.cpu_count(),
        "caches": caches,
        "build_type": build_type,
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
        "source_sha256": _tree_sha256([os.path.join(ROOT, "src"), HERE]),
        "forcings": {k: os.environ[k] for k in sorted(os.environ)
                     if k.startswith("GDSM_")},
    }


# ---------------------------------------------------------------------------
# One run

def load_definition():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_once(bdir, workload, seed, seconds, trace, size="full"):
    """Runs the harness once; returns (exit code, full record or None)."""
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-s%d-t%d" % (workload, seed, trace)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--size", size]
    if trace:
        cmd += ["--spans", os.path.join(out_dir, stem + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: harness exited %d without a result" % proc.returncode)
        return proc.returncode or 1, None
    record = json.loads(lines[-1])
    record["fingerprint"] = dict(record.get("fingerprint", {}), **host_fingerprint(bdir))
    record["run"] = {"workload": workload, "seed": seed, "seconds": seconds,
                     "trace": trace, "size": size}
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    return proc.returncode, record


def expected_metrics(definition, trace):
    if definition is None:
        return None
    return {m["name"] for m in definition["per_layer" if trace else "end_to_end"]}


def refusal(record, want, check_validity=True):
    """Reasons a run's result must not be reported; empty when it may be.

    A result is refused when any answer was missing or wrong (`correct` is
    false: a query failed, expired, overflowed or was rejected, or an answer
    differed from its oracle), when a metric is not a finite number, when the
    metric set is not the one BENCHMARK.json names, and - unless
    `check_validity` is false - when the run was not valid: the open-loop
    generator ran late (it under-offered its load).
    """
    reasons = []
    detail = record.get("detail", {})
    metrics = record.get("metrics", {})
    if not record.get("correct"):
        reasons.append("incorrect: %s of %s queries failed or mismatched their oracle; "
                       "errors %s, oracle %s"
                       % (record.get("failed"), record.get("attempted"),
                          detail.get("query_errors"), detail.get("oracle")))
    for name in detail.get("nonfinite_metrics", []):
        reasons.append("metric %s is not finite" % name)
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            reasons.append("metric %s has no finite value" % name)
    if want is not None and set(metrics) != want:
        reasons.append("metric set differs from BENCHMARK.json: missing %s, extra %s"
                       % (sorted(want - set(metrics)), sorted(set(metrics) - want)))
    if check_validity and detail.get("valid") is not True:
        reasons.append("not valid: generator lateness p99 %s ms exceeds a fifth "
                       "of the latency limit" % detail.get("gen_late_ms_p99"))
    return reasons


def cmd_run(args):
    bdir = build()
    rc, record = run_once(bdir, args.workload, args.seed, args.seconds, args.trace)
    if record is None:
        return rc or 1
    reasons = refusal(record, expected_metrics(load_definition(), args.trace))
    if rc != 0:
        reasons.append("harness exited %d" % rc)
    if reasons:
        for r in reasons:
            log("perfbench: result refused: " + r)
        return 1
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    print(json.dumps({k: record[k] for k in RESULT_KEYS}))
    return 0


# ---------------------------------------------------------------------------
# Repeat and compare

def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med) if med else 0.0


def comparable_fingerprint(fp):
    keys = ("cpu_model", "cpu_flags_sha1", "nproc", "caches", "build_type",
            "forcings", "simd_backend", "db_bound", "dsm_backend")
    return {k: fp.get(k) for k in keys}


def cmd_repeat(args):
    bdir = build()
    want = expected_metrics(load_definition(), args.trace)
    runs = []
    for k in range(args.repeat):
        seed = args.seed + k
        rc, record = run_once(bdir, args.workload, seed, args.seconds, args.trace)
        reasons = ["exit %s" % rc] if record is None or rc != 0 else refusal(record, want)
        if reasons:
            log("perfbench: run with seed %d refused: %s" % (seed, "; ".join(reasons)))
            return 1
        runs.append(record)
        log("seed %d: %s" % (seed, {k: round(v["value"], 4) for k, v in record["metrics"].items()}))
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, sp = spread(vals)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": sp, "values": vals}
        print("%-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f"
              % (name, med, q1, q3, sp))
    result = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "fingerprint": runs[0]["fingerprint"], "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    return 0


def compare(a, b, definition):
    """Metric-by-metric verdicts of set `b` against baseline set `a`."""
    bounds = {m["name"]: m for m in definition["end_to_end"]}
    verdicts = []
    for name, ma in a["summary"].items():
        mb = b["summary"].get(name)
        spec = bounds.get(name)
        if mb is None or spec is None:
            continue
        base, new = ma["median"], mb["median"]
        change = (new - base) / base if base else 0.0
        worse = change if spec["better"] == "lower" else -change
        noisy = name != "setup_s" and max(ma["spread"], mb["spread"]) > spec["bound"]
        verdict = "regression" if worse > spec["bound"] else ("noisy" if noisy else "ok")
        verdicts.append({"metric": name, "base": base, "new": new, "change": change,
                         "bound": spec["bound"], "spread_base": ma["spread"],
                         "spread_new": mb["spread"], "verdict": verdict})
    return verdicts


def cmd_compare(args):
    with open(args.compare[0]) as f:
        a = json.load(f)
    with open(args.compare[1]) as f:
        b = json.load(f)
    if a["workload"] != b["workload"]:
        log("perfbench: sets are of different workloads")
        return 2
    if comparable_fingerprint(a["fingerprint"]) != comparable_fingerprint(b["fingerprint"]):
        log("perfbench: host/build fingerprints differ; results are not comparable")
        return 2
    definition = load_definition()
    if definition is None:
        log("perfbench: BENCHMARK.json not found")
        return 2
    bad = 0
    for v in compare(a, b, definition):
        print("%-18s base %-12.6g new %-12.6g change %+.3f bound %.2f spreads %.3f/%.3f %s"
              % (v["metric"], v["base"], v["new"], v["change"], v["bound"],
                 v["spread_base"], v["spread_new"], v["verdict"]))
        bad += v["verdict"] != "ok"
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Self-test

def selftest_refusal(definition):
    """refusal() accepts a good record and refuses each kind of bad one."""
    want = expected_metrics(definition, 0)
    good = {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {n: {"value": 1.0, "unit": "u"} for n in want},
            "detail": {"valid": True, "gen_late_ms_p99": 0.1, "nonfinite_metrics": []}}
    cases = {
        "generator late": {"detail": dict(good["detail"], valid=False,
                                          gen_late_ms_p99=90.0)},
        "failed query": {"correct": False, "failed": 1},
        "non-finite metric": {"detail": dict(good["detail"],
                                             nonfinite_metrics=["latency_p50_ms"])},
        "missing metric": {"metrics": {n: good["metrics"][n] for n in sorted(want)[1:]}},
    }
    failures = []
    if refusal(good, want):
        failures.append("refusal() refused a good record: %s" % refusal(good, want))
    for name, change in cases.items():
        if not refusal(dict(good, **change), want):
            failures.append("refusal() accepted a record with: " + name)
    return failures


def cmd_selftest(_args):
    bdir = build()
    failures = []
    if subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode != 0:
        failures.append("perfbench_selftest")
    definition = load_definition()
    if definition is None:
        failures.append("BENCHMARK.json not found")
    else:
        for w in definition["workloads"]:
            for trace in (0, 1):
                rc, record = run_once(bdir, w["name"], 1, 1, trace, size="tiny")
                want = expected_metrics(definition, trace)
                # A one-second tiny run is too short to be a valid measurement;
                # it must still be correct and emit exactly the named metrics.
                reasons = (["exit %s" % rc] if record is None or rc != 0
                           else refusal(record, want, check_validity=False))
                if reasons:
                    failures.append("%s trace %d: %s" % (w["name"], trace, "; ".join(reasons)))
                else:
                    log("ok  %s trace %d emits all %d metrics" % (w["name"], trace, len(want)))
        failures += selftest_refusal(definition)
        # compare(): a shift past the bound is a regression, within it is ok.
        spec = definition["end_to_end"][0]
        base = {"summary": {spec["name"]: {"median": 1.0, "spread": 0.0}}}
        sign = 1 if spec["better"] == "lower" else -1
        worse = {"summary": {spec["name"]: {"median": 1 + sign * 2 * spec["bound"], "spread": 0.0}}}
        same = {"summary": {spec["name"]: {"median": 1 + sign * spec["bound"] / 2, "spread": 0.0}}}
        if [v["verdict"] for v in compare(base, worse, definition)] != ["regression"]:
            failures.append("compare() missed a regression")
        if [v["verdict"] for v in compare(base, same, definition)] != ["ok"]:
            failures.append("compare() flagged a change within the bound")
        med, q1, q3, sp = spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        if (med, q1, q3) != (5.5, 2.75, 8.25) or abs(sp - 1.0) > 1e-12:
            failures.append("spread() disagrees with statistics.quantiles")
    for f in failures:
        log("FAIL " + f)
    log("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, help="run N times with seeds seed..seed+N-1")
    ap.add_argument("--out", help="--repeat: write the set of results here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two --repeat result sets against the bounds")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return cmd_selftest(args)
        if args.compare:
            return cmd_compare(args)
        if not args.workload:
            ap.error("--workload is required")
        return cmd_repeat(args) if args.repeat else cmd_run(args)
    except (RuntimeError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
