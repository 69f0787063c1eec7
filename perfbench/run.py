#!/usr/bin/env python3
"""Run one workload of the OREO benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The first run compiles
the repo's main sources and the benchmark with sbt (perfbench/build.sbt) and
caches the runtime classpath; later runs start the JVM directly. The last
line of standard output is the JSON result; the full result file (and, for
--trace 1, the span file) is written under perfbench/results/.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay-tpch", "physical-tpch")
CLASSPATH = os.path.join(HERE, "target", "classpath.txt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
JVM_HEAP = "2g"  # fixed size: a growing heap slows the first passes
# Spark needs these JDK internals opened on Java 17 (as spark-submit does).
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the compiled benchmark depends on."""
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
                os.path.join(ROOT, "project"), os.path.join(HERE, "src", "main"),
                os.path.join(HERE, "project")):
        for d, dirs, names in os.walk(top):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names]
    return sorted(f for f in files if os.path.isfile(f))


def build():
    """Compile with sbt unless the cached classpath is newer than every source."""
    if os.path.exists(CLASSPATH):
        built = os.path.getmtime(CLASSPATH)
        if all(os.path.getmtime(f) <= built for f in sources()):
            return
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, stdout=sys.stderr, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(CLASSPATH):
        fail("build failed")


def digest():
    """Hash of the sources, to identify the code when git is not available."""
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    for need in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found at {ROOT}: run from a full checkout of the repository")
    build()
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()

    results = os.path.join(HERE, "results")
    tmp = os.path.join(results, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", *OPENS,
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           f"-Djava.io.tmpdir={tmp}", "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", results,
           "--record", f"git_revision={git_revision()}", "--record", f"source_digest={digest()}"]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(results, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
