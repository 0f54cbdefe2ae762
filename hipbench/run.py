#!/usr/bin/env python3
"""hipcloud benchmark: builds the driver, repeats workload passes for a
fixed host time, gates correctness and prints one JSON result line.

    python3 hipbench/run.py --workload fig2_grid --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics (medians over untraced passes).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (medians over traced passes) plus the tracing overhead. See
hipbench/README.md for the workloads and the layer map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ("fig2_grid", "rubis_hip_c50", "sharded_rubis_1w")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
}

PER_LAYER = {
    "setup.topology_s": "s",
    "setup.service_s": "s",
    "setup.warmup_s": "s",
    "crypto.rsa1024_keygen_ms": "ms",
    "hip.esp_packets": "count",
    "hip.esp_bytes_per_packet": "B",
    "hip.bex_completed": "count",
    "hip.bex_failed": "count",
    "hip.esp_probe_bytes": "B",
    "hip.esp_protect_ns": "ns",
    "hip.esp_unprotect_ns": "ns",
    "hip.esp_share_est": "share",
    "arm.basic.steady_s": "s",
    "arm.basic.setup_s": "s",
    "arm.hip.steady_s": "s",
    "arm.hip.setup_s": "s",
    "arm.ssl.steady_s": "s",
    "arm.ssl.setup_s": "s",
    "arm.hip_accel.steady_s": "s",
    "arm.hip_accel.setup_s": "s",
    "sim.steady_s": "s",
    "sim.events_fired": "count",
    "sim.events_cancelled": "count",
    "sim.ns_per_event": "ns",
    "net.packets_delivered": "count",
    "net.bytes_copied_per_packet": "B",
    "net.bytes_moved_per_packet": "B",
    "net.pool_hit_rate": "share",
    "shard.epochs": "count",
    "shard.events_per_epoch": "count",
    "shard.strides": "count",
    "shard.barrier_wait_s": "s",
    "shard.steady_2w_s": "s",
    "shard.us_per_epoch": "us",
    "shard.payload_bytes_copied": "B",
    "shard.workspan_bound": "x",
    "apps.requests_completed": "count",
    "apps.request_errors": "count",
    "apps.db_queries": "count",
    "apps.proxy_retries": "count",
    "apps.us_per_request": "us",
    "vcycles.lb_per_request": "cycles",
    "vcycles.web_per_request": "cycles",
    "vcycles.db_per_request": "cycles",
    "sim.determinism_hash": "hash52",
    "trace.overhead_s": "s",
    "host.cpus": "count",
    "host.threads": "count",
}

# A pass shorter than the run's --seconds is repeated; at least this many
# passes (rounds of untraced + traced with --trace 1) always run, so every
# reported figure is a median and every run checks determinism in-run.
MIN_PASSES = 3
MIN_TRACE_ROUNDS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(os.getcwd(), d))


def build(out):
    """Configure and build the driver; returns its path."""
    bdir = os.path.join(out, "hipbench")
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", bdir, "-j2"], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(bdir, "hipbench_driver")


def run_pass(exe, args, trace_out=None):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def world_key(w):
    return "%s/c%d" % (w["arm"], w["clients"])


def check_pass(p, reference, golden):
    """Returns {world key: [reasons]} for every world failing the gate."""
    bad = {}

    def fail(w, why):
        bad.setdefault(world_key(w), []).append(why)

    by_key = {world_key(w): w for w in p["worlds"]}
    for w in p["worlds"]:
        if w["errors"]:
            fail(w, "%d request errors" % w["errors"])
        if w["arm"].startswith("hip") and w["bex_failed"]:
            fail(w, "%d failed BEX" % w["bex_failed"])
        if w["completed"] == 0:
            fail(w, "no requests completed")
        ref = reference.get(world_key(w))
        if ref and (ref["hash"], ref["completed"]) != (w["hash"],
                                                      w["completed"]):
            fail(w, "not deterministic: %s/%d vs %s/%d in an earlier pass" %
                 (w["hash"], w["completed"], ref["hash"], ref["completed"]))
        rec = golden.get(world_key(w))
        if rec and (rec["hash"], rec["completed"]) != (w["hash"],
                                                      w["completed"]):
            fail(w, "differs from recorded %s/%d: %s/%d" %
                 (rec["hash"], rec["completed"], w["hash"], w["completed"]))
    # Fig. 2 ordering: unsecured basic is never beaten by hip or ssl. Each
    # closed-loop client's last request may land on either side of the
    # window's edge, so counts are compared to within one per client.
    for w in p["worlds"]:
        if w["arm"] not in ("hip", "ssl"):
            continue
        basic = by_key.get("basic/c%d" % w["clients"])
        if basic and basic["completed"] + w["clients"] < w["completed"]:
            fail(w, "%s above basic at %d clients: %d vs %d requests" %
                 (w["arm"], w["clients"], w["completed"], basic["completed"]))
    return bad


def golden_for(path, p):
    """Recorded per-world hash/count for this pass's config and seed."""
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        rec = json.load(f).get(p["config"], {})
    return rec.get("worlds", {}) if rec.get("seed") == p["seed"] else {}


def record_golden(path, p):
    data = {}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
    data[p["config"]] = {
        "seed": p["seed"],
        "worlds": {world_key(w): {"hash": w["hash"],
                                  "completed": w["completed"]}
                   for w in p["worlds"]},
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def median_metric(passes, key):
    return statistics.median(float(p[key]) for p in passes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short simulated windows, one pass: plumbing only")
    ap.add_argument("--record-golden", action="store_true",
                    help="record this run's per-world hashes in golden.json "
                         "instead of gating against them")
    args = ap.parse_args(argv)

    out = build_dir()
    try:
        exe = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    min_rounds = MIN_TRACE_ROUNDS if args.trace else MIN_PASSES
    plain, traced = [], []
    start = time.monotonic()
    while len(plain) < min_rounds or time.monotonic() - start < args.seconds:
        plain.append(run_pass(exe, args))
        if args.trace:
            path = os.path.join(trace_dir, "%s-seed%d-%d.json" % (
                args.workload, args.seed, len(traced)))
            traced.append(run_pass(exe, args, trace_out=path))
            log("spans written to %s" % path)
        if args.smoke:
            break

    golden = {} if args.record_golden else golden_for(GOLDEN, plain[0])
    reference = {world_key(w): w for w in plain[0]["worlds"]}
    failing = {}
    attempted = failed = 0
    for p in plain + traced:
        bad = check_pass(p, reference, golden)
        for key, why in bad.items():
            failing.setdefault(key, set()).update(why)
        for w in p["worlds"]:
            attempted += w["completed"] + w["errors"]
            failed += w["errors"]
            if world_key(w) in bad:
                failed += w["completed"]
    correct = not failing
    for key in sorted(failing):
        log("FAIL %s %s: %s" % (args.workload, key,
                                "; ".join(sorted(failing[key]))))
    if args.record_golden and correct:
        record_golden(GOLDEN, plain[0])

    host = dict(plain[0]["host"])
    host["nproc"] = len(os.sched_getaffinity(0))
    host["passes"] = len(plain)
    host["traced_passes"] = len(traced)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host": host}))

    if args.trace:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in PER_LAYER if name in traced[0]["layers"]}
        values["trace.overhead_s"] = (median_metric(traced, "wall_s") -
                                      median_metric(plain, "wall_s"))
        values["host.cpus"] = host["nproc"]
        values["host.threads"] = traced[0]["host"]["threads"]
        units = PER_LAYER
    else:
        values = {
            "wall_s": median_metric(plain, "wall_s"),
            "setup_s": median_metric(plain, "setup_s"),
            "peak_rss_mb": median_metric(plain, "peak_rss_mb"),
            "success_rate": (attempted - failed) / attempted
                            if attempted else 0.0,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
