#!/usr/bin/env python3
"""Runs one workload of the correlation-sketch benchmark.

    python3 corrbench/run.py --workload build|query|rank|estimate \
        --seed N --seconds S --trace 0|1
    python3 corrbench/run.py --self-test

Run it from the root of a checkout. It compiles the program's sources
(src/main/scala) together with the benchmark's own (corrbench/src) into
.bench_build/corrbench, unless that build is current, then starts one JVM
that runs the workload and prints the result as the last line.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_build", "corrbench")
CLASSES = os.path.join(OUT, "classes")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600

# Spark on Java 17 needs these modules opened (as the repository's build.sbt does).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def spark_jars():
    """Spark's jars, which hold the Scala compiler too: $SPARK_HOME/jars, or
    the first jars/ beside a spark-submit on the PATH that has one.
    """
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep) if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and os.path.isdir(jars) and any(f.startswith("scala-compiler") for f in os.listdir(jars)):
            return os.path.join(jars, "*")
    sys.exit("corrbench: no Spark jars found; set SPARK_HOME")


def scala_sources():
    program = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(program):
        sys.exit(f"corrbench: no program sources at {program}; run from the root of a checkout")
    found = []
    for base in (program, os.path.join(BENCH, "src", "main", "scala")):
        for d, _, files in os.walk(base):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def build():
    """Compiles with the Scala compiler that ships in Spark's jars; skips when current."""
    sources = scala_sources()
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = os.path.join(OUT, "stamp")
    if os.path.exists(stamp) and open(stamp).read() == digest.hexdigest():
        return
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    cmd = ["java", "-Xmx2g", "-Xss8m", "-cp", spark_jars(), "scala.tools.nsc.Main", "-usejavacp",
           "-nowarn", "-d", CLASSES] + sources
    subprocess.run(cmd, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    with open(stamp, "w") as f:
        f.write(digest.hexdigest())


def java(main, args):
    work = os.path.join(OUT, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:+IgnoreUnrecognizedVMOptions",
           "-Djdk.reflect.useDirectMethodHandle=false"] + JVM_OPENS + [
        f"-Djava.io.tmpdir={tmp}", f"-Dcorrbench.work={work}",
        f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
        "-cp", os.pathsep.join([CLASSES, spark_jars()]), main] + args
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=["build", "query", "rank", "estimate"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=8)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    build()
    if a.self_test:
        return java("corrbench.SelfTest", [])
    return java("corrbench.Main", ["--workload", a.workload, "--seed", str(a.seed),
                                   "--seconds", str(a.seconds), "--trace", a.trace])


if __name__ == "__main__":
    sys.exit(main())
