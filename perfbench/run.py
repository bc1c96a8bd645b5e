#!/usr/bin/env python3
"""Served-query benchmark: one workload against a freshly started `htlq serve`.

Run from the repository root:

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 20 --trace 0

It builds `htlq` and the benchmark's own tool (`perfbench/pbtool.exe`)
with dune, generates the workload's inputs from the seed, starts the
server several times (setup_s is the median time from spawn to the first
answered query; the last start serves the load), drives it for
--seconds from this one process over at most two connections, checks
the answers with pbtool, and prints one JSON object as its last line:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same
load twice, untraced and then with every request traced, and reports
the per-layer metrics (span self times, /metrics deltas, in-process
layer timings, the layers sweep and the tracing overhead).  See
perfbench/README.md.
"""

import argparse
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("paper-tables", "store-fresh", "ingest-browse")
# Server starts per run; setup_s is their median.  One start of
# store-fresh takes 20-50 ms and varies by a quarter from start to
# start, so the median takes many; an ingest-browse start loads its
# 6 144-shot store (~0.15 s) and varies less; a paper-tables start
# loads 1M-segment tables (~0.7 s) and that workload is not gated.
SETUPS = {"paper-tables": 3, "store-fresh": 25, "ingest-browse": 15}
CONNS = 2  # client connections
K = 10  # results per query
CHECK_LIMIT = 64  # answers checked per load phase (a seeded sample)
ROUND = 8  # operations per round; every run attempts whole rounds
# ingest-browse: operations per second, open loop.  About a sixth of
# the same mix's closed-loop throughput over two connections (116-127
# ops/s measured), so queueing stays a small part of query_p50_ms.
BROWSE_RATE = 20.0
ZIPF_S = 1.0  # ingest-browse: skew of the popular-formula draw
LAYER_TABLE_SIZES = ("10000", "100000", "1000000")
LAYER_STORE_SIZES = ("10000", "30000")

# The first query of each server start: no request of the load asks it,
# so the load's cache state does not depend on it.
SETUP_QUERY = {
    "paper-tables": "p1",
    "store-fresh": 'exists x . (present(x) and name(x) = "alpha")',
    "ingest-browse": 'exists x . (present(x) and name(x) = "alpha")',
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Fatal(Exception):
    """The benchmark itself cannot go on (build, start-up, tool failure)."""


# --- HTTP/1.1 over one keep-alive connection ----------------------------------


def connect(port):
    # http.client sets TCP_NODELAY and keeps the connection alive
    return http.client.HTTPConnection("127.0.0.1", port, timeout=60)


def request(conn, method, target, body=None):
    """Returns (status, headers, body bytes)."""
    conn.request(method, target, body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.headers, resp.read()


# --- build, inputs, server ---------------------------------------------------


def build(root):
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isfile(os.path.join(root, "bin", "htlq.ml"))
    ):
        raise Fatal("run from the repository root: no dune-project or bin/htlq.ml here")
    cmd = ["dune", "build", "--root", root, "bin/htlq.exe", "perfbench/pbtool.exe"]
    done = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise Fatal(f"build failed: {' '.join(cmd)}")


def tool(root, *args, timeout=170):
    exe = os.path.join(root, "_build", "default", "perfbench", "pbtool.exe")
    try:
        done = subprocess.run(
            [exe, *args], cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise Fatal(f"pbtool {args[0]} took over {timeout} s") from None
    if done.returncode != 0:
        raise Fatal(f"pbtool {args[0]} failed with code {done.returncode}")
    out = done.stdout.decode().strip().splitlines()
    return json.loads(out[-1]) if out else None


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def server_args(workload, work):
    if workload == "paper-tables":
        return ["--load-tables", os.path.join(work, "tables.sexp")]
    if workload == "store-fresh":
        return ["--snapshot", os.path.join(work, "store.snap"), "--domains", "2"]
    return ["--load-store", os.path.join(work, "store.sexp")]


class Server:
    """One `htlq serve` child; `setup_s` is spawn to first answered query."""

    def __init__(self, root, workload, work, traced):
        exe = os.path.join(root, "_build", "default", "bin", "htlq.exe")
        port_file = os.path.join(work, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        cmd = [exe, "serve", "--port", "0", "--port-file", port_file]
        cmd += server_args(workload, work)
        if traced:
            cmd += ["--trace-sample", "1"]
        self.log = open(os.path.join(work, "server.log"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, stdout=self.log, stderr=self.log)
        try:
            self.port = self._wait_port(port_file)
            conn = connect(self.port)
            body = json.dumps({"query": SETUP_QUERY[workload], "k": K})
            status, _, payload = request(conn, "POST", "/query", body)
            self.setup_s = time.perf_counter() - t0
            conn.close()
            if status != 200:
                raise Fatal(f"set-up query answered {status}: {payload[:200]!r}")
        except BaseException:
            self.stop()
            raise

    def _wait_port(self, port_file):
        deadline = time.perf_counter() + 120
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise Fatal(f"htlq serve exited with code {self.proc.returncode}")
            try:
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.0005)
        raise Fatal("htlq serve did not start listening")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Fatal("no VmHWM for the server")

    def get(self, target):
        conn = connect(self.port)
        try:
            status, _, payload = request(conn, "GET", target)
        finally:
            conn.close()
        if status != 200:
            raise Fatal(f"GET {target} answered {status}")
        return payload.decode()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# --- traces and /metrics -------------------------------------------------------


def union_length(intervals):
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_costs(trace):
    """Per-request span aggregates (ms) from a Chrome trace: self time is
    a span's duration minus the time its child spans cover."""
    spans = {}
    for ev in trace.get("traceEvents", []):
        args = ev.get("args", {})
        spans[args["span_id"]] = (ev["name"], ev["ts"], ev["ts"] + ev["dur"], args["parent"])
    root = next((i for i, s in spans.items() if s[0] == "server.request"), None)
    children = {}
    for i, (_, lo, hi, parent) in spans.items():
        if i == root:
            continue
        # spans begun on a pool domain root there; they belong to the request
        parent = parent if parent in spans else root
        children.setdefault(parent, []).append((lo, hi))

    def self_ms(i):
        _, lo, hi, _ = spans[i]
        inner = [(max(a, lo), min(b, hi)) for a, b in children.get(i, []) if b > lo and a < hi]
        return (hi - lo - union_length(inner)) / 1000.0

    agg = {"server_self": 0.0, "type1_self": 0.0, "direct_self": 0.0, "picture_eval": 0.0, "shard_scatter": 0.0}
    for i, (name, lo, hi, _) in spans.items():
        if i == root:
            agg["server_self"] += self_ms(i)
        elif name.startswith("type1."):
            agg["type1_self"] += self_ms(i)
        elif name.startswith("direct."):
            agg["direct_self"] += self_ms(i)
        elif name == "picture.eval":
            agg["picture_eval"] += (hi - lo) / 1000.0
        elif name == "shard.scatter":
            agg["shard_scatter"] += (hi - lo) / 1000.0
    return agg


def parse_prometheus(text):
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            pass
    return values


# --- the load ------------------------------------------------------------------


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timing(due, waited, sent, done):
    """Latency and lateness of one operation.  Open loop: an operation
    that found no free connection at its due time (`waited`) is timed
    from that due time, so queueing behind slow answers counts; one
    whose connection was free is timed from when it was sent, so the
    client's own sleep overshoot (`late_s`, reported as
    client.lateness_ms) does not."""
    return {
        "latency_s": done - (due if waited else sent),
        "late_s": 0.0 if due is None else max(0.0, sent - due),
    }


class Load:
    """Runs operations over CONNS connections and records one log entry each."""

    def __init__(self, port, fetch_traces):
        self.port = port
        # --trace 1 fetches GET /trace/<id> after every query in both
        # phases (404 when untraced), so the two phases differ only in
        # the server's tracing
        self.fetch_traces = fetch_traces

    def _query(self, conn, op, due, waited=False, kind="query"):
        body = json.dumps({"query": op["query"], "k": K, "level": op.get("level")})
        sent = time.perf_counter()
        status, headers, payload = request(conn, "POST", "/query", body)
        done = time.perf_counter()
        rec = {
            "op": kind,
            "query": op["query"],
            "level": op.get("level"),
            "k": K,
            "status": status,
            **timing(due, waited, sent, done),
        }
        # responses are parsed after the load, off the timed path
        rec["raw"] = payload
        if self.fetch_traces and status == 200:
            tid = headers.get("x-trace-id")
            s2, _, tpayload = request(conn, "GET", f"/trace/{tid}")
            if s2 == 200:
                rec["raw_trace"] = tpayload
        return rec

    def _ingest(self, conn, op, due, waited):
        sent = time.perf_counter()
        status, _, payload = request(conn, "POST", "/ingest", op["body"])
        done = time.perf_counter()
        rec = {
            "op": "ingest",
            "batch": op["batch"],
            "status": status,
            **timing(due, waited, sent, done),
            "visible": False,
        }
        if status != 200:
            return rec
        rec["body"] = ack = json.loads(payload)
        # read-your-writes: the batch's marker finds exactly its shots
        s2, _, p2 = request(
            conn, "POST", "/query", json.dumps({"query": op["marker_query"], "k": K})
        )
        if s2 == 200:
            results = json.loads(p2)["results"]
            want = list(range(ack["leaf_count"] - ack["appended"] + 1, ack["leaf_count"] + 1))
            rec["visible"] = sorted(r["id"] for r in results) == want and all(
                r["sim"] == r["max"] for r in results
            )
        return rec

    def run_op(self, conn, op, due, waited):
        if op.get("op") == "ingest":
            return self._ingest(conn, op, due, waited)
        return self._query(conn, op, due, waited)

    def run(self, ops, seconds, rate=None):
        """Closed loop (rate None): each connection sends its next
        operation when the last one is answered, until the first round
        boundary past `seconds`.  Open loop: operation i is due at
        i / rate, latency counts from that due time when both
        connections were still busy then (see `timing`), and the run is
        ceil(seconds * rate) operations rounded up to whole rounds."""
        lock = threading.Lock()
        state = {"next": 0, "stop": None}
        if rate is not None:
            n = ROUND * math.ceil(seconds * rate / ROUND)
            if n > len(ops):
                raise Fatal("not enough generated operations for the open loop")
            state["stop"] = n
        records = [None] * len(ops)
        start = time.perf_counter() + 0.01
        deadline = start + seconds
        errors = []

        def worker():
            conn = None
            try:
                while True:
                    with lock:
                        i = state["next"]
                        if state["stop"] is not None and i >= state["stop"]:
                            return
                        if rate is None and i % ROUND == 0 and (
                            time.perf_counter() >= deadline or i + ROUND > len(ops)
                        ):
                            state["stop"] = i
                            return
                        state["next"] = i + 1
                    due, waited = None, False
                    if rate is not None:
                        due = start + i / rate
                        wait = due - time.perf_counter()
                        if wait > 0:
                            time.sleep(wait)
                        else:
                            waited = True
                    try:
                        if conn is None:
                            conn = connect(self.port)
                        records[i] = self.run_op(conn, ops[i], due, waited)
                    except (OSError, http.client.HTTPException, ValueError) as e:
                        if conn is not None:
                            conn.close()
                        conn = None
                        records[i] = {"op": ops[i].get("op", "query"), "status": 0, "error": str(e),
                                      "latency_s": 0.0, "late_s": 0.0}
            except BaseException as e:  # noqa: BLE001 - reported by the caller
                errors.append(e)
            finally:
                if conn is not None:
                    conn.close()

        threads = [threading.Thread(target=worker) for _ in range(CONNS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        elapsed = time.perf_counter() - start
        return records[: state["stop"]], elapsed


# --- workloads -------------------------------------------------------------------


def zipf_picks(seed, n, count):
    """`count` draws over ranks 0..n-1 in Zipf proportions.  The number of
    draws of each rank is fixed (largest remainders), so every seed asks
    the same mix, up to the one generated round a run leaves unasked;
    the seed shuffles their order."""
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(n)]
    quotas = [count * w / sum(weights) for w in weights]
    counts = [math.floor(q) for q in quotas]
    by_remainder = sorted(range(n), key=lambda r: counts[r] - quotas[r])
    for r in by_remainder[: count - sum(counts)]:
        counts[r] += 1
    picks = [r for r in range(n) for _ in range(counts[r])]
    random.Random(seed).shuffle(picks)
    return picks


def operations(workload, seed, work):
    """The run's operation list (dicts with "op", "query", "level", ...)."""
    if workload != "ingest-browse":
        return [dict(r, op="query") for r in read_jsonl(os.path.join(work, "requests.jsonl"))]
    popular = read_jsonl(os.path.join(work, "requests.jsonl"))
    ingests = read_jsonl(os.path.join(work, "ingest.jsonl"))
    ops = []
    picks = iter(zipf_picks(seed, len(popular), len(ingests) * (ROUND - 1)))
    for batch in ingests:
        ops.append({"op": "ingest", "batch": batch["batch"], "body": json.dumps(batch["body"]),
                    "marker_query": batch["marker_query"]})
        for _ in range(ROUND - 1):
            ops.append(dict(popular[next(picks)], op="query"))
    return ops


def generate(root, workload, seed, seconds, work):
    # closed-loop streams are sized well past any plausible rate; the
    # open loop needs exactly ceil(seconds * rate) operations
    if workload == "paper-tables":
        count = ROUND * 8 * seconds
    elif workload == "store-fresh":
        count = ROUND * 32 * seconds
    else:
        count = math.ceil(seconds * BROWSE_RATE / ROUND) + 1
    tool(root, "gen", workload, str(seed), work, str(count))


def phase(root, workload, seed, seconds, work, traced, tag, fetch_traces):
    """Start the server SETUPS times, load the last start, check its answers."""
    setups = []
    for _ in range(SETUPS[workload] - 1):
        s = Server(root, workload, work, traced)
        setups.append(s.setup_s)
        s.stop()
    server = Server(root, workload, work, traced)
    setups.append(server.setup_s)
    try:
        load = Load(server.port, fetch_traces)
        rate = BROWSE_RATE if workload == "ingest-browse" else None
        records, elapsed = load.run(operations(workload, seed, work), seconds, rate)
        if workload == "ingest-browse":
            conn = connect(server.port)
            try:
                for op in read_jsonl(os.path.join(work, "requests.jsonl")):
                    records.append(load._query(conn, op, None, kind="final"))
            finally:
                conn.close()
        metrics_text = server.get("/metrics") if traced else ""
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    for r in records:
        if "raw" in r:
            try:
                r["body"] = json.loads(r.pop("raw"))
            except ValueError:
                r["status"] = -r["status"]
        if "raw_trace" in r:
            r["spans"] = span_costs(json.loads(r.pop("raw_trace")))
    log_path = os.path.join(work, f"log-{tag}.jsonl")
    with open(log_path, "w") as f:
        for r in records:
            f.write(json.dumps({k: v for k, v in r.items() if k != "spans"}) + "\n")
    verdict = tool(root, "check", workload, str(seed), log_path, str(CHECK_LIMIT))
    bad_checks = set(verdict["failed"])
    failed = 0
    for i, r in enumerate(records):
        if r["status"] != 200 or (r["op"] == "ingest" and not r["visible"]) or i in bad_checks:
            failed += 1
    for msg in verdict["errors"]:
        log(f"check failed: {msg}")
    log(f"{tag}: {len(records)} operations, {failed} failed, {verdict['checked']} answers checked")
    return {
        "records": records,
        "elapsed": elapsed,
        "setups": setups,
        "peak_rss_mb": peak,
        "metrics": parse_prometheus(metrics_text),
        "log": log_path,
        "failed": failed,
        "wrong": len(bad_checks) + sum(1 for r in records if r["op"] == "ingest" and r["status"] == 200 and not r["visible"]),
    }


def latencies_ms(records, op):
    return [r["latency_s"] * 1000.0 for r in records if r["op"] == op and r["status"] == 200]


def end_to_end(p):
    queries = latencies_ms(p["records"], "query")
    measured = [r for r in p["records"] if r["op"] != "final"]
    return {
        "qps": (len(measured) / p["elapsed"], "1/s"),
        "query_p50_ms": (percentile(queries, 50), "ms"),
        "setup_s": (statistics.median(p["setups"]), "s"),
        "peak_rss_mb": (p["peak_rss_mb"], "MB"),
    }


def per_layer(root, workload, seed, work, plain, traced):
    m = traced["metrics"]

    def ratio(num, den):
        return m.get(num, 0.0) / m[den] if m.get(den) else 0.0

    def mean_ms(hist):
        return 1000.0 * ratio(hist + "_sum", hist + "_count")

    spans = [r["spans"] for r in traced["records"] if "spans" in r]

    def span_mean(key):
        return statistics.fmean(s[key] for s in spans) if spans else 0.0

    scanned = sum(v for k, v in m.items() if k.startswith("picture_segments_scanned"))
    queries = m.get("query_count", 0.0)
    hits, misses = m.get("cache_hits", 0.0), m.get("cache_misses", 0.0)
    pruned = m.get("picture_index_pruned_segments", 0.0)
    scored = m.get("picture_index_candidates", 0.0)
    p50_plain = percentile(latencies_ms(plain["records"], "query"), 50)
    p50_traced = percentile(latencies_ms(traced["records"], "query"), 50)
    out = {
        "server.queue_wait_ms": mean_ms("server_queue_wait_s"),
        "server.self_ms": span_mean("server_self"),
        "type1.self_ms": span_mean("type1_self"),
        "direct.self_ms": span_mean("direct_self"),
        "picture.eval_ms": span_mean("picture_eval"),
        "shard.scatter_ms": span_mean("shard_scatter"),
        "shard.merge_ms": mean_ms("shard_merge_s"),
        "shard.imbalance": m.get("shard_imbalance", 0.0),
        "engine.words_per_query": ratio("query_allocated_words_sum", "query_allocated_words_count"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.survivals": m.get("cache_survivals", 0.0),
        "cache.stale_drops": m.get("cache_stale_drops", 0.0),
        "picture.scanned_per_query": scanned / queries if queries else 0.0,
        "picture.pruned_ratio": pruned / (pruned + scored) if pruned + scored else 0.0,
        "picture.index_builds": m.get("picture_index_builds", 0.0),
        "picture.delta_merges": m.get("picture_index_delta_merges", 0.0),
        "obs.trace_overhead_pct": 100.0 * (p50_traced / p50_plain - 1.0) if p50_plain else 0.0,
        "ingest.p50_ms": percentile(latencies_ms(plain["records"], "ingest"), 50),
        "client.lateness_ms": percentile([r["late_s"] * 1000.0 for r in plain["records"] if r["op"] != "final"], 99),
    }
    out.update(tool(root, "replay", workload, str(seed), work, traced["log"]))
    out.update(tool(root, "layers", "--tables", *LAYER_TABLE_SIZES, "--stores", *LAYER_STORE_SIZES))
    return out


# Every per-layer metric a --trace 1 run prints, with its unit.  A layer
# a workload does not reach reads 0 there (no shard spans on a plain
# store, no ingests in a closed-loop workload, ...).
PER_LAYER_UNITS = {
    "server.queue_wait_ms": "ms",
    "server.self_ms": "ms",
    "http.parse_us": "us",
    "json.encode_us": "us",
    "htl.parse_us": "us",
    "engine.plan_us": "us",
    "direct.self_ms": "ms",
    "type1.self_ms": "ms",
    "engine.words_per_query": "words",
    "cache.hit_ratio": "ratio",
    "cache.survivals": "count",
    "cache.stale_drops": "count",
    "topk.us": "us",
    "picture.eval_ms": "ms",
    "picture.scanned_per_query": "count",
    "picture.pruned_ratio": "ratio",
    "picture.index_builds": "count",
    "picture.delta_merges": "count",
    "shard.scatter_ms": "ms",
    "shard.merge_ms": "ms",
    "shard.imbalance": "ratio",
    "pool.wait_ms": "ms",
    "pool.sequential_ratio": "ratio",
    "storage.load_s": "s",
    "store.append_us_per_segment": "us",
    "obs.trace_overhead_pct": "%",
    "ingest.p50_ms": "ms",
    "client.lateness_ms": "ms",
    **{f"layers.{f}.{m}": u for f in ("and", "until", "join")
       for m, u in (("ns_per_entry", "ns"), ("words_per_entry", "words"), ("growth", "ratio"))},
    "layers.eq_atom.words_per_interval": "words",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    work = os.path.join(root, "perfbench", "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        build(root)
        os.makedirs(work, exist_ok=True)
        generate(root, args.workload, args.seed, args.seconds, work)
        plain = phase(root, args.workload, args.seed, args.seconds, work, False, "plain",
                      args.trace == 1)
        phases = [plain]
        if args.trace:
            traced = phase(root, args.workload, args.seed, args.seconds, work, True, "traced", True)
            phases.append(traced)
            layers = per_layer(root, args.workload, args.seed, work, plain, traced)
            metrics = {k: (layers[k], u) for k, u in PER_LAYER_UNITS.items()}
        else:
            metrics = end_to_end(plain)
    except Fatal as e:
        log(f"error: {e}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": all(p["wrong"] == 0 for p in phases),
        "attempted": sum(len(p["records"]) for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
