#!/usr/bin/env python3
"""Benchmark of the table pipeline (dataset build, NRMSE grids, bounds).

Usage, from the repository root:

    python3 perfbench/run.py --workload facebook-tables|facebook-sims \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the program and the benchmark from source on first use (the Scala
compiler that ships with Spark, into perfbench/.build), runs the workload in a
fresh JVM on a pinned local[N] Spark master, checks the outputs, and prints as
its last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The line before it
carries the run's fingerprint and environment. See perfbench/README.md.
"""
import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
STATE = os.path.join(HERE, ".state")

# Default workload seeds: each dataset spec's own seed (see README.md for the
# held-out seed).
DEFAULT_SEEDS = {"facebook-tables": 101, "facebook-sims": 101}

# Today's generated graphs depend on Spark's default parallelism (rand(seed)
# is seeded per partition), so every output and timing compares only under
# one master. Pin it.
CORES = 4
PIN_REASON = ("outputs depend on defaultParallelism (partition-seeded rand), "
              "so results compare only under one local[N]")

# Test-scope jars that SparkSpec.scala and Oracle.scala compile against, by
# file-name prefix, looked up in the offline coursier cache.
CACHE_JARS = ["scalatest-core_2.13-", "scalatest-funsuite_2.13-", "scalactic_2.13-",
              "scalatest-compatible-", "duckdb_jdbc-"]

JVM_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    main = sorted(glob.glob(os.path.join(ROOT, "src/main/scala/**/*.scala"), recursive=True))
    spark_spec = os.path.join(ROOT, "src/test/scala/repro/SparkSpec.scala")
    if not main or not os.path.isfile(spark_spec):
        fail(f"program sources not found under {ROOT}/src; run from a full checkout")
    return main + [spark_spec] + sorted(glob.glob(os.path.join(HERE, "src/*.scala")))


def classpath_jars():
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home or not os.path.isdir(os.path.join(spark_home, "jars")):
        fail("SPARK_HOME must name a Spark distribution with a jars/ directory")
    jars = sorted(glob.glob(os.path.join(spark_home, "jars", "*.jar")))
    cache = os.environ.get("COURSIER_CACHE") or os.path.expanduser("~/.cache/coursier/v1")
    for prefix in CACHE_JARS:
        found = sorted(glob.glob(os.path.join(cache, "**", prefix + "[0-9]*.jar"), recursive=True))
        if not found:
            fail(f"{prefix}*.jar not found in the coursier cache {cache}")
        jars.append(found[-1])
    return jars


def build(srcs, jars):
    """Compiles once per distinct source set; returns the classes directory."""
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    for jar in jars:
        h.update(os.path.basename(jar).encode())
    source_sha = h.hexdigest()[:16]
    classes = os.path.join(BUILD, source_sha)
    if os.path.isdir(classes):
        return classes, source_sha
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cp = os.pathsep.join(jars)
    t0 = time.time()
    r = subprocess.run(["java", "-Xss8m", "-Xmx2g", "-cp", cp, "scala.tools.nsc.Main",
                        "-nowarn", "-d", tmp, "-cp", cp] + srcs,
                       stdout=sys.stderr, timeout=600)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("compilation failed")
    os.rename(tmp, classes)
    for old in os.listdir(BUILD):
        if old != source_sha:
            shutil.rmtree(os.path.join(BUILD, old), ignore_errors=True)
    print(f"[perfbench] compiled {len(srcs)} sources in {time.time() - t0:.1f} s", file=sys.stderr)
    return classes, source_sha


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def run_jvm(classes, jars, args, master):
    tmp = os.path.join(STATE, "tmp")
    local = os.path.join(STATE, "spark-local")
    for d in (tmp, local):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    env = dict(os.environ, SPARK_MASTER=master, SPARK_LOCAL_DIRS=local)
    # Session settings come from SparkSpec.shared's own defaults.
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    # A fixed, pre-touched heap: VmHWM then does not depend on when G1
    # chose to grow the heap, and heap retention shows in live_heap_mb.
    cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-Djava.io.tmpdir=" + tmp,
           "-cp", os.pathsep.join([classes] + jars),
           "perfbench.PerfBench"] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=STATE)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark JVM did not finish within {JVM_TIMEOUT_S} s")
    finally:
        for d in (tmp, local):
            shutil.rmtree(d, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with code {proc.returncode}")
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        fail("benchmark JVM printed no result")
    return json.loads(lines[-1])


def check_fingerprint(key, fp):
    """Flags a fingerprint that differs from an earlier run, traced or not,
    of the same sources, workload, seed and master."""
    path = os.path.join(STATE, "fingerprints.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    if seen.setdefault(key, fp) != fp:
        print(f"[perfbench] FINGERPRINT DRIFT: earlier {seen[key]}, now {fp}", file=sys.stderr)
        return False
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    seed = DEFAULT_SEEDS[a.workload] if a.seed is None else a.seed

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    srcs = sources()
    jars = classpath_jars()
    classes, source_sha = build(srcs, jars)
    n = min(CORES, len(os.sched_getaffinity(0)))
    master = f"local[{n}]"
    os.makedirs(STATE, exist_ok=True)
    # The set-up time starts here, after any compilation.
    launch = time.time()
    res = run_jvm(classes, jars, [a.workload, seed, a.seconds, a.trace, f"{launch:.6f}"], master)

    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"])):
            fail(f"metric {m['name']} missing, not finite or not in {m['unit']}: {got}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    key = f"{a.workload}|seed={seed}|{master}|src={source_sha}"
    steady = check_fingerprint(key, res["fingerprint"])
    env = dict(res["environment"], source_sha=source_sha, git_sha=git_sha(),
               master_pinned_because=PIN_REASON)
    print(json.dumps({"workload": a.workload, "seed": seed, "trace": a.trace,
                      "fingerprint": res["fingerprint"], "fingerprint_steady": steady,
                      "environment": env, "problems": res["problems"]}))
    print(json.dumps({"correct": res["failed"] == 0 and steady,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
