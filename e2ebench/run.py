#!/usr/bin/env python3
"""End-to-end benchmark of the smn broadcast engine.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the C++ harness in this directory against the library sources of the
enclosing tree (into .bench_build/e2ebench), runs one workload in one
single-threaded harness process, verifies every replication, prints a
human-readable report and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (untraced engine runs);
with --trace 1 they are the per-layer ones of the traced replay. The full
record, with provenance, goes to .bench_build/e2ebench/results/.

The exit status is 0 only when every replication verified. Workloads and
metrics are described in README.md next to this file.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
HARNESS = BUILD / "e2ebench_harness"
EXPECTED = HERE / "expected_hashes.json"
DEFAULT_SEED = 1

# rep_s / trace_rep_s: seconds per replication, untraced / untraced run plus
# its traced replay, as measured on a 4-vCPU x86-64 VM (Release, AVX2). They
# turn --seconds into a fixed replication count, so the same seed and
# --seconds always run the same replications on any machine.
WORKLOADS = {
    "sparse_r0_tb": dict(side=1024, k=64, radius=0, mobility="all-move", window=0,
                         rep_s=0.95, trace_rep_s=2.4),
    "rc_allmove_tb": dict(side=256, k=4096, radius=4, mobility="all-move", window=0,
                          rep_s=0.062, trace_rep_s=0.15),
    "frog_r1_window": dict(side=1024, k=4096, radius=1, mobility="frog", window=2000,
                           rep_s=0.8, trace_rep_s=1.9),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "mem_bytes_per_agent": "bytes/agent",
}

PER_LAYER = {
    "walk.busy_s": "s", "walk.node_changes": "count", "walk.blocks_decoded": "count",
    "walk.blocks_scalar": "count",
    "spatial.busy_s": "s", "spatial.relinks": "count", "spatial.relink_frac": "ratio",
    "graph.busy_s": "s", "graph.passes": "count", "graph.bypass_frac": "ratio",
    "graph.pairs_tested": "count", "graph.pair_survivor_rate": "ratio",
    "graph.dsu_unites": "count", "graph.replay_ratio": "ratio", "graph.edges_replayed": "count",
    "core.exchange_busy_s": "s", "core.informs": "count", "core.idle_pass_frac": "ratio",
    "setup.agents_s": "s", "setup.builder_s": "s", "setup.first_build_s": "s",
    "setup.builder_bytes": "bytes",
    "trace.overhead_frac": "ratio", "trace.unaccounted_frac": "ratio",
}


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no smn library sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"configure failed, see {log}")
        cmd = ["cmake", "--build", str(BUILD), "--target", "e2ebench_harness", "-j", "4"]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            fail(f"build failed, see {log}")


def source_digest():
    """SHA-256 over the library sources: identifies the code measured even
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_harness(spec, seed, reps, trace, spans):
    cmd = [str(HARNESS), "--side", str(spec["side"]), "--k", str(spec["k"]),
           "--radius", str(spec["radius"]), "--mobility", spec["mobility"],
           "--window", str(spec["window"]), "--seed", str(seed), "--reps", str(reps)]
    if trace:
        cmd += ["--trace", "--spans", str(spans)]
    env = dict(os.environ, SMN_STEP_THREADS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    return [r for r in lines if "rep" in r], lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", type=Path, default=EXPECTED,
                    help="file of expected outcome hashes per workload for --seed %d"
                    % DEFAULT_SEED)
    ap.add_argument("--record", action="store_true",
                    help="write this run's hashes into --expected instead of checking them")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.record and args.seed != DEFAULT_SEED:
        fail(f"--record keeps hashes for --seed {DEFAULT_SEED} only")

    spec = WORKLOADS[args.workload]
    per_rep = spec["trace_rep_s"] if args.trace else spec["rep_s"]
    reps = max(1, round(args.seconds / per_rep))
    build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BUILD / "results").mkdir(exist_ok=True)
    spans = BUILD / "results" / f"{tag}.spans.jsonl"
    rows, summary = run_harness(spec, args.seed, reps, args.trace, spans)

    expected = json.loads(args.expected.read_text()) if args.expected.is_file() else {}
    golden = []
    if args.record:
        expected["seed"] = DEFAULT_SEED
        expected.setdefault("workloads", {})[args.workload] = [r["hash"] for r in rows]
        args.expected.write_text(json.dumps(expected, indent=1) + "\n")
    elif args.seed == expected.get("seed"):
        golden = expected["workloads"].get(args.workload, [])

    failures = []
    for r in rows:
        i = r["rep"]
        why = []
        if not r["valid"]:
            why.append("engine outcome invalid or max steps reached")
        if "replay_hash" in r and (r["replay_hash"] != r["hash"] or not r["replay_valid"]):
            why.append(f"replay hash {r['replay_hash']} != engine {r['hash']}")
        if i < len(golden) and golden[i] != r["hash"]:
            why.append(f"hash {r['hash']} != expected {golden[i]}")
        if why:
            failures.append((i, "; ".join(why)))

    attempted = len(rows)
    steps = sum(r["steps"] for r in rows)
    step_s = sum(r["step_s"] for r in rows)
    end_to_end = {
        "wall_s": summary["wall_s"],
        "setup_s": statistics.median(r["setup_s"] for r in rows),
        "steps_per_s": steps / step_s,
        "mem_bytes_per_agent": (summary["rss_peak_bytes"] - summary["rss_before_bytes"])
        / spec["k"],
    }
    if args.trace:
        metrics = {n: {"value": summary["layers"][n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": end_to_end[n], "unit": u} for n, u in END_TO_END.items()}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "replications": attempted, "engine_steps": steps,
        "golden_checked": min(len(golden), attempted),
        "git_sha": summary["git_sha"], "source_digest": source_digest(),
        "build_type": summary["build_type"], "simd_backend": summary["simd_backend"],
        "obs_enabled": summary["obs_enabled"], "nproc": summary["nproc"],
        "machine": platform.machine(), "step_threads": 1,
    }
    record = {"provenance": provenance, "params": spec, "metrics": metrics,
              "failed_frac": len(failures) / attempted, "harness": summary,
              "replications": rows}
    if args.trace:
        record["spans"] = str(spans.relative_to(ROOT))
    (BUILD / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(provenance))
    for i, why in failures:
        print(f"FAILED rep {i}: {why}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':28s} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)}/{attempted} replications)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
