#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the STOKE reproduction.

Usage, from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: search-short, search-long, validate, serve-mix. The benchmark
builds itself (a Cargo package of its own, into $CARGO_TARGET_DIR or
e2ebench/target), runs the workload, and relays its report. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Reports and span traces are written under e2ebench/out/, where
out/REPORT.md holds one row per workload from the latest runs.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# The run itself measures for --seconds; this caps a stuck run well
# inside the 180-second limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    return 1


def build():
    """Build the benchmark binary; return its path, or None."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(target, "release", "e2ebench")
    return exe if os.path.isfile(exe) else None


def run(exe, args):
    """Run the benchmark in its own process group; return (code, stdout)."""
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    return proc.returncode, out


def write_summary():
    """One row per workload from the latest untraced and traced runs."""
    rows = []
    for name in ["search-short", "search-long", "validate", "serve-mix"]:
        runs = {}
        for suffix in ["", "-traced"]:
            path = os.path.join(OUT, f"{name}{suffix}.json")
            if os.path.isfile(path):
                with open(path) as f:
                    runs[suffix] = json.load(f)
        if not runs:
            continue
        plain = runs.get("", {})
        traced = runs.get("-traced", {})
        m = plain.get("metrics", {})

        def fig(key, fmt="{:.3f}"):
            return fmt.format(m[key][0]) if key in m else "-"

        untraced_s = plain.get("wall_s")
        traced_s = traced.get("traced_wall_s")
        overhead = "-"
        if traced.get("wall_s") and traced_s:
            overhead = f"{(traced_s / traced['wall_s'] - 1) * 100:+.1f}%"
        rows.append([
            name,
            f"{untraced_s:.3f}" if untraced_s else "-",
            f"{traced_s:.3f}" if traced_s else "-",
            overhead,
            str(plain.get("attempted", "-")),
            str(plain.get("failed", "-")),
            fig("ok_frac"),
            fig("speedup_geomean"),
            fig("proven_frac"),
            fig("decided_frac"),
            fig("hit_ratio"),
            fig("op_ms.p50"),
            fig("op_ms.tail"),
        ])
    header = ["workload", "wall s", "traced wall s", "trace overhead",
              "operations", "failed", "ok_frac", "speedup geomean",
              "proven", "decided", "hit ratio", "op ms p50", "op ms tail"]
    lines = ["# e2ebench: latest run of each workload", "",
             "| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    with open(os.path.join(OUT, "REPORT.md"), "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    args = sys.argv[1:]
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        return fail("the repository's crates are not next to the benchmark")
    exe = build()
    if exe is None:
        return fail("build failed")
    code, out = run(exe, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code is None:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
    if code != 0:
        return fail(f"benchmark exited with code {code}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed result line")
    try:
        write_summary()
    except (OSError, ValueError, KeyError) as e:
        print(f"e2ebench: could not write REPORT.md: {e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
