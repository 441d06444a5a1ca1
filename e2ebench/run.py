#!/usr/bin/env python3
"""End-to-end benchmark of the live CrowdWeb platform.

One run of one workload:

    python3 e2ebench/run.py --workload live_city --seed 1 --seconds 30 --trace 0

builds the library and the benchmark programs (CMake + Ninja, under
.bench_build/), generates the workload's inputs from the seed, boots the
system under test (SUT) as its own process several times to time set-up,
drives one of them with the load generator, stops it, checks the
outputs, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs the workload untraced and then traced, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced) of each
end-to-end metric. --record FILE appends the full result to a JSON-lines
file; --compare A B compares two such files (see README.md).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "e2ebench")
BUILD_TYPE = "RelWithDebInfo"
SETUP_REPEATS = 9
RUN_BUDGET_S = 170
# A run whose load generator fell further behind its open-loop schedule
# than this (p99) measured the generator, not the system: it is marked
# invalid and compare mode leaves it out.
LATE_LIMIT_MS = 50.0


def load_spec():
    """BENCHMARK.json: the one list of metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and provenance


def build():
    """Configures (once) and builds the benchmark package; returns bin dir."""
    os.makedirs(CMAKE_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(CMAKE_DIR, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return CMAKE_DIR


def provenance():
    compiler = "unknown"
    try:
        cache = open(os.path.join(CMAKE_DIR, "CMakeCache.txt")).read()
        for line in cache.splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                compiler = subprocess.run([path, "--version"], capture_output=True,
                                          text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "none (not a git checkout)"
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
        if result.returncode == 0:
            commit = result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": BUILD_TYPE,
        "git_commit": commit,
        "source_digest": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Running the system under test


class Sut:
    """One SUT process: spawned, waited until READY, stopped with SIGTERM."""

    def __init__(self, bindir, inputs, store, shards, trace, spans):
        args = [os.path.join(bindir, "e2e_sut"), "--inputs", inputs, "--store", store,
                "--shards", str(shards), "--trace", "1" if trace else "0", "--spans", spans]
        self.spawn_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError("system under test did not start")
        self.ready = json.loads(line[len("READY "):])
        self.setup_s = (self.ready["ready_ns"] - self.spawn_ns) / 1e9

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def run_pass(bindir, workdir, inputs, manifest, args, trace, repeats, deadline):
    """Set-up `repeats` times and drive one of the SUTs, and join the results.

    The boots are split around the driven one: half before the load and
    half after, so the median set-up time spans the whole run rather
    than the few seconds the shared machine happened to have at its
    start."""
    shards = manifest["shards"]
    spans = os.path.join(workdir, "spans-%d.json" % int(trace))
    setups = []

    def boot(k):
        store = os.path.join(workdir, "store-%d-%d" % (int(trace), k))
        sut = Sut(bindir, inputs, store, shards, trace, spans)
        setups.append(sut.setup_s)
        return sut, store

    before = (repeats + 1) // 2
    for k in range(before - 1):
        sut, store = boot(k)
        sut.stop()
        shutil.rmtree(store, ignore_errors=True)
    sut, _ = boot(before - 1)
    report_path = os.path.join(workdir, "report-%d.json" % int(trace))
    try:
        load = subprocess.run(
            [os.path.join(bindir, "e2e_load"), "--inputs", inputs,
             "--http-port", str(sut.ready["http_port"]),
             "--frame-port", str(sut.ready["frame_port"]),
             "--sut-pid", str(sut.proc.pid), "--seconds", str(args.seconds),
             "--seed", str(args.seed), "--trace", "1" if trace else "0", "--out", report_path],
            timeout=max(10, deadline - time.monotonic()))
    finally:
        sut_code = sut.stop()
    if not os.path.exists(report_path):
        raise RuntimeError("load generator exited %d without a report" % load.returncode)
    for k in range(before, repeats):
        after, store = boot(k)
        after.stop()
        shutil.rmtree(store, ignore_errors=True)
    report = json.load(open(report_path))
    report["sut_exit"] = sut_code
    report["setup_s_samples"] = setups
    report["setup_ms"] = sut.ready["setup_ms"]
    report["spans"] = json.load(open(spans)) if trace and os.path.exists(spans) else []
    return report


# ---------------------------------------------------------------------------
# Metrics


def percentile(values, p):
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def parse_prometheus(text):
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        name, _, labels = key.partition("{")
        series[(name, labels.rstrip("}"))] = float(value)
    return series


class Scrape:
    """Deltas of /metrics families between two scrapes."""

    def __init__(self, before, after):
        self.before = parse_prometheus(before)
        self.after = parse_prometheus(after)

    def delta(self, name, label=""):
        return sum(v - self.before.get(k, 0.0) for k, v in self.after.items()
                   if k[0] == name and label in k[1])

    def gauge(self, name, label=""):
        return [v for k, v in self.after.items() if k[0] == name and label in k[1]]

    def hist(self, name, label=""):
        """(count, sum, [(le, cumulative)]) of a histogram's delta."""
        count = self.delta(name + "_count", label)
        total = self.delta(name + "_sum", label)
        buckets = {}
        for k, v in self.after.items():
            if k[0] == name + "_bucket" and label in k[1]:
                le = k[1].rsplit('le="', 1)[1].rstrip('"')
                bound = math.inf if le == "+Inf" else float(le)
                buckets[bound] = buckets.get(bound, 0.0) + v - self.before.get(k, 0.0)
        return count, total, sorted(buckets.items())

    def hist_mean(self, name, label="", scale=1e3):
        count, total, _ = self.hist(name, label)
        return total / count * scale if count > 0 else 0.0

    def hist_quantile(self, name, q, label="", scale=1e3):
        count, _, buckets = self.hist(name, label)
        if count <= 0:
            return 0.0
        rank = q * count
        lower, seen = 0.0, 0.0
        for bound, cumulative in buckets:
            if cumulative >= rank:
                if math.isinf(bound):
                    return lower * scale
                inside = cumulative - seen
                share = (rank - seen) / inside if inside > 0 else 1.0
                return (lower + (bound - lower) * share) * scale
            lower, seen = bound, cumulative
        return lower * scale


def end_to_end(report):
    return dict(report["e2e"], setup_s=statistics.median(report["setup_s_samples"]))


def per_layer(report, untraced, e2e_names):
    """Every per-layer metric: the load generator's own (a), the SUT's
    spans (b), /metrics deltas (c), and the tracing overhead.

    A family the deployment's registry does not carry reads 0: on
    dense_backfill each shard worker records its ingest and mining
    families into a private registry that no scrape reaches."""
    layer = dict(report["layer"])
    raw = report["raw"]
    scrape = Scrape(raw.get("metrics_before", ""), raw.get("metrics_after", ""))
    start, end = raw.get("start_ns", 0), raw.get("end_ns", 0) or math.inf
    spans = report["spans"]
    publishes = [s for s in spans if s[0] == "publish" and start <= s[2] <= end]
    submits = [s for s in spans if s[0] == "submit"]

    layer["ingest.submit_us.p50"] = percentile([(s[3] - s[2]) / 1e3 for s in submits], 0.50)
    layer["ingest.submit_us.p99"] = percentile([(s[3] - s[2]) / 1e3 for s in submits], 0.99)
    rebuilds = [s[4] for s in publishes]
    layer["ingest.rebuild_ms.p50"] = percentile(rebuilds, 0.50)
    layer["ingest.rebuild_ms.p99"] = percentile(rebuilds, 0.99)
    epochs = len(publishes)
    layer["ingest.epochs"] = epochs
    layer["ingest.events_per_epoch"] = report["e2e"]["events"] / epochs if epochs else 0.0

    # SSE delivery (publish hook -> receipt) and cadence wait (admission
    # -> start of the rebuild that made the event visible): live_city.
    published_at = {s[1]: s[2] for s in publishes}
    receipts = raw.get("sse_epochs", [])
    delivery = [(r[2] - published_at[r[0]]) / 1e6 for r in receipts if r[0] in published_at]
    layer["transport.sse_delivery_ms.p50"] = percentile(delivery, 0.50)
    layer["transport.sse_delivery_ms.p99"] = percentile(delivery, 0.99)
    admitted = raw.get("admitted_ns", [])
    waits = []
    covered = 0
    for epoch in sorted(publishes, key=lambda s: s[1]):
        rebuild_start = epoch[2] - epoch[4] * 1e6
        live = int(epoch[5])
        for i in range(covered, min(live, len(admitted))):
            waits.append((rebuild_start - admitted[i]) / 1e6)
        covered = max(covered, live)
    layer["ingest.cadence_wait_ms.p50"] = percentile(waits, 0.50)
    layer["ingest.cadence_wait_ms.p99"] = percentile(waits, 0.99)
    layer["transport.sse_evictions"] = scrape.delta("crowdweb_transport_sse_evictions_total")

    stage = "crowdweb_ingest_rebuild_stage_duration_seconds"
    stage_epochs = scrape.hist(stage, 'stage="mine"')[0]
    for name in ("merge", "mine", "grid", "crowd"):
        total = scrape.hist(stage, 'stage="%s"' % name)[1]
        layer["ingest.stage_ms." + name] = total * 1e3 / stage_epochs if stage_epochs else 0.0
    delta_users = scrape.delta("crowdweb_ingest_delta_users_total")
    layer["ingest.delta_users"] = delta_users
    reused = scrape.delta("crowdweb_ingest_delta_shards_reused_total")
    rebuilt = scrape.delta("crowdweb_ingest_delta_shards_rebuilt_total")
    layer["ingest.shard_reuse_ratio"] = reused / (reused + rebuilt) if reused + rebuilt else 0.0
    layer["ingest.crowd_full_rebuilds"] = scrape.delta(
        "crowdweb_ingest_delta_crowd_full_rebuilds_total")
    mine_ms = scrape.hist(stage, 'stage="mine"')[1] * 1e3
    layer["mining.mine_ms_per_user"] = mine_ms / delta_users if delta_users else 0.0
    for name, family in (("emitted", "crowdweb_mining_patterns_emitted_total"),
                         ("expanded", "crowdweb_mining_patterns_expanded_total"),
                         ("pruned", "crowdweb_mining_pruned_total"),
                         ("truncated", "crowdweb_mining_truncated_total")):
        layer["mining.patterns_" + name] = scrape.delta(family)

    append = "crowdweb_store_append_duration_seconds"
    layer["store.append_ms.mean"] = scrape.hist_mean(append)
    layer["store.append_ms.p99"] = scrape.hist_quantile(append, 0.99)
    layer["store.fsyncs"] = scrape.delta("crowdweb_store_fsyncs_total")
    layer["store.append_bytes"] = scrape.delta("crowdweb_store_append_bytes_total")

    merge = "crowdweb_shard_merge_duration_seconds"
    layer["shard.merge_ms.mean"] = scrape.hist_mean(merge)
    layer["shard.merge_ms.p99"] = scrape.hist_quantile(merge, 0.99)
    requests = scrape.delta("crowdweb_http_requests_total")
    merges = scrape.delta("crowdweb_shard_merges_total")
    layer["shard.merges_per_read"] = merges / requests if requests else 0.0
    live = scrape.gauge("crowdweb_shard_live_checkins")
    layer["shard.live_skew"] = max(live) / statistics.mean(live) if live and sum(live) else 0.0

    hits = scrape.delta("crowdweb_http_cache_hits_total")
    misses = scrape.delta("crowdweb_http_cache_misses_total")
    layer["http.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layer["http.cache_evictions"] = scrape.delta("crowdweb_http_cache_evictions_total")
    layer["http.cache_bytes"] = sum(scrape.gauge("crowdweb_http_cache_bytes"))
    for route, pattern in raw["routes"].items():
        layer["core.handler_us." + route] = scrape.hist_mean(
            "crowdweb_http_request_duration_seconds", 'route="%s"' % pattern, scale=1e6)

    setup = report["setup_ms"]
    layer["setup.load_ms"] = setup["load"]
    for name in ("acquisition", "mining", "crowd"):
        layer["setup.build_ms." + name] = setup["build." + name]
    for name in ("worker", "frames", "server"):
        layer["setup.start_ms." + name] = setup["start." + name]
    layer["ops_failed_frac"] = report["failed"] / max(1, report["attempted"])
    layer["read_p50_ms"] = report["e2e"]["read_p50_ms"]
    layer["read_p99_ms"] = report["e2e"]["read_p99_ms"]

    traced = end_to_end(report)
    base = end_to_end(untraced)
    for name in e2e_names:
        layer["trace_overhead." + name] = traced[name] - base[name]
    return layer


# ---------------------------------------------------------------------------
# Compare mode


def load_results(path):
    results = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                results.append(json.loads(line))
    return results


def compare(path_a, path_b):
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    a, b = load_results(path_a), load_results(path_b)
    workloads = sorted({r["workload"] for r in a} | {r["workload"] for r in b})
    print("%-16s %-15s %12s %12s %8s %8s  %s" % ("workload", "metric", "A median", "B median",
                                                 "delta", "spread", "verdict"))
    disagree = False
    for workload in workloads:
        runs_a = [r for r in a if r["workload"] == workload and r.get("valid", True)
                  and not r.get("trace")]
        runs_b = [r for r in b if r["workload"] == workload and r.get("valid", True)
                  and not r.get("trace")]
        for name, metric in bounds.items():
            va = [r["metrics"][name]["value"] for r in runs_a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in runs_b if name in r["metrics"]]
            if len(va) < 2 or len(vb) < 2:
                print("%-16s %-15s %s" % (workload, name, "too few valid runs"))
                disagree = True
                continue
            qa, qb = statistics.quantiles(va, n=4), statistics.quantiles(vb, n=4)
            ma, mb = statistics.median(va), statistics.median(vb)
            spread = max((qa[2] - qa[0]) / ma if ma else 0.0, (qb[2] - qb[0]) / mb if mb else 0.0)
            delta = (mb - ma) / ma if ma else 0.0
            worse = delta if metric["better"] == "lower" else -delta
            lower_better = metric["better"] == "lower"
            b_always_better = (max(vb) < min(va)) if lower_better else (min(vb) > max(va))
            if spread > metric["bound"] and not b_always_better:
                verdict = "unresolved (spread above bound %.2f)" % metric["bound"]
                disagree = True
            elif worse > metric["bound"]:
                verdict = "B worse beyond bound %.2f" % metric["bound"]
                disagree = True
            else:
                verdict = "agree within bound %.2f" % metric["bound"]
            print("%-16s %-15s %12.4g %12.4g %+7.1f%% %7.1f%%  %s  (A q1..q3 %.4g..%.4g, B %.4g..%.4g)"
                  % (workload, name, ma, mb, 100 * delta, 100 * spread, verdict,
                     qa[0], qa[2], qb[0], qb[2]))
    return 1 if disagree else 0


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["live_city", "dense_backfill"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: a few dozen users, for the self-test")
    parser.add_argument("--feed-rate", type=float,
                        help="offered events/s instead of the workload's (saturation sweeps)")
    parser.add_argument("--read-rate", type=float,
                        help="offered reads/s instead of the workload's (saturation sweeps)")
    parser.add_argument("--record", help="append the full result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --record files per workload and metric")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")

    started = time.monotonic()
    spec = load_spec()
    bindir = build()
    # The first run in a checkout also builds; the budget covers the rest.
    deadline = time.monotonic() + RUN_BUDGET_S
    prov = provenance()
    os.makedirs(BUILD, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        inputs = os.path.join(workdir, "inputs")
        gen_args = [os.path.join(bindir, "e2e_gen"), "--workload", args.workload, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale,
                    "--out", inputs]
        if args.feed_rate:
            gen_args += ["--feed-rate", str(args.feed_rate)]
        if args.read_rate:
            gen_args += ["--read-rate", str(args.read_rate)]
        gen = subprocess.run(gen_args, stdout=subprocess.PIPE, text=True, check=True)
        manifest = json.loads(gen.stdout.strip().splitlines()[-1])
        untraced = run_pass(bindir, workdir, inputs, manifest, args, False, SETUP_REPEATS,
                            deadline)
        report = untraced
        if args.trace:
            report = run_pass(bindir, workdir, inputs, manifest, args, True, 1, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = untraced["checks"] + (report["checks"] if report is not untraced else [])
    correct = all(c["ok"] for c in checks) and untraced["sut_exit"] == 0 and \
        report["sut_exit"] == 0
    late = report["layer"]["loadgen.late_ms.p99"]
    valid = late <= LATE_LIMIT_MS
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        values = per_layer(report, untraced, e2e_names)
        declared = spec["per_layer"]
    else:
        values = end_to_end(report)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print("workload %s seed %d seconds %d trace %d scale %s" %
          (args.workload, args.seed, args.seconds, args.trace, args.scale))
    print("inputs %s (feed %d events at %g/s, %g reads/s, base %d check-ins, %d users)" %
          (json.dumps(manifest["digest"], sort_keys=True), manifest["feed_events"],
           manifest["feed_rate"], manifest["read_rate"], manifest["base_checkins"],
           manifest["base_users"]))
    if "stream_digest" in report["raw"]:
        print("frame stream digest %s" % report["raw"]["stream_digest"])
    print("provenance %s" % json.dumps(prov, sort_keys=True))
    for check in checks:
        print("check %-4s %s %s" % ("ok" if check["ok"] else "FAIL", check["name"],
                                    check["detail"]))
    print("load generator late p99 %.3f ms (limit %.0f ms): %s" %
          (late, LATE_LIMIT_MS, "valid" if valid else "INVALID run"))
    print("elapsed %.1f s" % (time.monotonic() - started))
    result = {"correct": correct, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "valid": valid, "provenance": prov,
                                "feed_rate": manifest["feed_rate"],
                                "read_rate": manifest["read_rate"],
                                "untraced": {name: end_to_end(untraced)[name]
                                             for name in e2e_names},
                                "inputs": manifest["digest"], **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log("benchmark failed: %s" % error)
        sys.exit(2)
