#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload bfa-search|serve-attack \
        --seed N --seconds S --trace 0|1

Builds the perfbench program from this checkout's sources (into .bench_build/),
runs one workload in one process, checks its outputs, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics, and the run also writes a Chrome
trace-event file and a per-layer table under .bench_build/perfbench-out/ and
reports the tracing overhead. perfbench/NOTES.md explains the workloads, the
metrics and what each is expected to move.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import stats  # noqa: E402  (after dont_write_bytecode)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
EXPECTED = HERE / "expected"
WORKLOADS = ("bfa-search", "serve-attack")
RUN_TIMEOUT_S = 170  # a whole benchmark run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_op": "ms",
}

LAYER_UNITS = {
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.forward_from_us": "us",
    "quant.top_k_ms": "ms",
    "quant.flip_us": "us",
    "quant.quantize_ms": "ms",
    "attack.prepare_ms": "ms",
    "attack.probe_ms": "ms",
    "attack.probes_per_step": "count",
    "attack.fallback_frac": "ratio",
    "harness.train_s.vgg11": "s",
    "defense.binary_finetune_s": "s",
    "defense.piecewise_finetune_s": "s",
    "defense.attack_binary_s": "s",
    "core.profile_s": "s",
    "core.swaps": "count",
    "system.build_ms": "ms",
    "system.tick_us_p50": "us",
    "system.tick_ms_first100": "ms",
    "system.attack_bit_ms": "ms",
    "dram.acts_per_attempt": "count",
    "dram.host_ns_per_act": "ns",
    "serving.plan_ms": "ms",
    "serving.service_ms_p50": "ms",
    "serving.attack_slot_ms_p50": "ms",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ----- build & run ----------------------------------------------------------------

def build():
    """Configures (once) and builds the perfbench program; returns its path."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def steal_ticks():
    """Cumulative steal time of all CPUs (USER_HZ ticks) from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(binary, args, raw_path):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(raw_path)]
    steal0 = steal_ticks()
    t0 = time.monotonic()
    subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S, stdout=sys.stderr)
    wall = time.monotonic() - t0
    steal1 = steal_ticks()
    with open(raw_path) as f:
        doc = json.load(f)
    meta = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "isa": doc["facts"].get("isa", "unknown"),
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "run_wall_s": wall,
    }
    return doc, meta


# ----- metrics --------------------------------------------------------------------

def e2e_metrics(workload, doc):
    s, x = doc["samples"], doc["scalars"]
    m = {"setup_s": stats.median(s["setup_s"]), "peak_rss_mb": x["peak_rss_mb"]}
    if workload == "bfa-search":
        # An upper percentile: the host moves whole stretches of a run between
        # step costs up to ~1.6x apart, and only the loaded-host cost shows in
        # every run (NOTES.md).
        m["cpu_ms_per_op"] = stats.percentile(s["bfa.step_cpu_ms"], 90.0)
    else:
        m["cpu_ms_per_op"] = x["serve.cpu_s"] * 1e3 / x["serve.admitted"]
    return m


def latency_info(workload, doc):
    """Tail latencies the run also measured. Printed, not gated: their
    spread on a shared host exceeds the bounds (NOTES.md)."""
    if workload == "bfa-search":
        return {"step_ms_p90": stats.percentile(doc["samples"]["bfa.step_ms"], 90.0)}
    return {"request_ms_p99": doc["scalars"]["serve.p99_ms"]}


def layer_metrics(workload, doc):
    """Every per-layer metric; 0 for a layer this workload's traced run does
    not exercise (see NOTES.md for which workload measures which layer)."""
    s, x = doc["samples"], doc["scalars"]
    m = {name: 0.0 for name in LAYER_UNITS}

    def med(name):
        return stats.median(s[name]) if s.get(name) else 0.0

    for name in ("nn.forward_ms", "nn.backward_ms", "quant.top_k_ms", "quant.flip_us",
                 "quant.quantize_ms", "attack.prepare_ms", "attack.probe_ms",
                 "harness.train_s.vgg11", "defense.binary_finetune_s",
                 "defense.piecewise_finetune_s", "defense.attack_binary_s", "core.profile_s",
                 "system.build_ms", "system.attack_bit_ms", "serving.plan_ms"):
        m[name] = med(name)
    per_k = [stats.median(v) for k, v in s.items() if k.startswith("nn.forward_from_us.k")]
    m["nn.forward_from_us"] = sum(per_k) / len(per_k) if per_k else 0.0
    steps = sum(s.get("attack.steps", []))
    if steps:
        m["attack.probes_per_step"] = sum(s["attack.measures"]) / steps
        m["attack.fallback_frac"] = sum(s["attack.fallbacks"]) / steps
    if workload == "serve-attack":
        ticks = s["system.tick_us"]
        m["system.tick_us_p50"] = stats.median(ticks)
        m["system.tick_ms_first100"] = sum(ticks[:100]) / 1e3
        m["core.swaps"] = x["core.swaps"]
        m["dram.acts_per_attempt"] = x["dram.acts"] / x["dram.attempts"]
        m["dram.host_ns_per_act"] = sum(s["system.attack_bit_ms"]) * 1e6 / x["dram.acts"]
        m["serving.service_ms_p50"] = med("serving.service_ms")
        m["serving.attack_slot_ms_p50"] = med("serving.attack_slot_ms")
    return m


# ----- output checks --------------------------------------------------------------

def load_expected(name):
    path = EXPECTED / name
    return path.read_text() if path.exists() else None


def check_bfa(args, doc, fail):
    """Every search's flip sequence must match the committed hash of its
    batch (all batches of the pool have one)."""
    want = json.loads(load_expected("bfa-search-hashes.json"))["flip_hashes"]
    reps = [r.split(":") for r in doc["facts"]["bfa.rep_hashes"].split(",")]
    bad = 0
    for batch, h in reps:
        if want.get(batch) != h:
            bad += 1
            fail(f"search on batch {batch} committed flip sequence {h}, expected {want.get(batch)}")
    return len(reps), bad


def check_serve(args, doc, fail):
    x, facts = doc["scalars"], doc["facts"]
    failed = int(x["serve.dropped"])
    if failed:
        fail(f"{failed} requests dropped")
    if x["serve.attack_landed"]:
        failed += int(x["serve.attack_landed"])
        fail(f"{int(x['serve.attack_landed'])} attack flips landed under DNN-Defender")
    if x["serve.accuracy_after"] != x["serve.accuracy_before"]:
        failed += 1
        fail(f"accuracy moved {x['serve.accuracy_before']} -> {x['serve.accuracy_after']}")
    if x["serve.latencies_seen"] != x["serve.admitted"]:
        failed += 1
        fail("latency count differs from admitted requests")
    # The decision digest is pinned for seed 0, and for every seed the serial
    # replay must reproduce the threaded run's digest: a threaded run whose
    # attacker raced the server (ROADMAP item 4) shows up here.
    expected = load_expected(f"serve-attack-seed{args.seed}-s{args.seconds}.json")
    if expected is not None and json.loads(expected)["digest"] != facts["serve.digest"]:
        failed += 1
        fail(f"digest {facts['serve.digest']} differs from the committed one")
    if facts["serve.replay_digest"] != facts["serve.digest"]:
        failed += 1
        fail(f"threaded digest {facts['serve.digest']} != serial replay {facts['serve.replay_digest']}")
    return int(x["serve.requests"]), failed


CHECKS = {"bfa-search": check_bfa, "serve-attack": check_serve}


# ----- traced-run output ----------------------------------------------------------

def write_trace_outputs(tag, doc, e2e, args):
    spans = doc["spans"]
    with open(OUT / f"{tag}.trace.json", "w") as f:
        json.dump(stats.chrome_trace(spans), f)
    table = stats.layer_table(spans)
    lines = [f"{'span':36} {'count':>7} {'total_ms':>12} {'self_ms':>12} {'p50_ms':>10}"]
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append(f"{name:36} {r['count']:>7} {r['total_ms']:>12.3f} {r['self_ms']:>12.3f} "
                     f"{r['p50_ms']:>10.4f}")
    base_path = OUT / f"{args.workload}.untraced.json"
    if base_path.exists():
        base = json.loads(base_path.read_text())
        lines.append("")
        lines.append(f"tracing overhead: traced minus untraced (untraced run: seed {base['seed']})")
        for name, v in e2e.items():
            b = base["metrics"][name]
            lines.append(f"  {name:16} {v - b:+.6g} {E2E_UNITS[name]} "
                         f"({(v - b) / b:+.1%} of {b:.6g})")
    else:
        lines.append("tracing overhead: no untraced run of this workload in this checkout yet")
    text = "\n".join(lines) + "\n"
    (OUT / f"{tag}.layers.txt").write_text(text)
    log(text)


# ----- main -----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
        OUT.mkdir(parents=True, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        doc, meta = run_binary(binary, args, OUT / f"{tag}.raw.json")
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    failures = []
    attempted, failed = CHECKS[args.workload](args, doc, failures.append)
    for msg in failures:
        print(f"[check] FAIL {msg}")
    print(f"[meta] {json.dumps(meta)}")
    print(f"[info] {json.dumps(latency_info(args.workload, doc))}")

    e2e = e2e_metrics(args.workload, doc)
    if args.trace:
        write_trace_outputs(tag, doc, e2e, args)
        values, units = layer_metrics(args.workload, doc), LAYER_UNITS
    else:
        (OUT / f"{args.workload}.untraced.json").write_text(
            json.dumps({"seed": args.seed, "metrics": e2e}))
        values, units = e2e, E2E_UNITS
    for name, v in values.items():
        print(f"{name:32} {v:>16.6f} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
