"""Turns a perfbench-driver record into the benchmark's metrics.

The driver writes what it saw: passes, one record per op with the
FNV-1a digest of the op's output bytes, and (in traced passes) spans
with counts. Everything derived from that -- medians, the tail
percentile, self times, the error accounting and the per-layer
figures -- is computed here, so it can be tested without a build.
"""

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)

# Untraced passes a --trace 0 run always makes, per workload. The tail
# percentile is fixed from this floor, so it does not move when a
# faster build fits more passes into the same seconds.
MIN_PASSES = {"spec_pipeline": 4, "splash_mp": 2, "serve_mix": 7}

# Layers whose metrics each workload cannot produce, and why.
ABSENT_BY_DESIGN = {
    "spec_pipeline": {
        "mp": "no SPLASH kernel runs",
        "coherence": "no SPLASH kernel runs",
        "server": "no server is started",
        "harness": "the thread pool only runs inside mw-server",
    },
    "splash_mp": {
        "trace": "the SPLASH kernels generate no synthetic trace",
        "mem": "NUMA-side caches run inside runSplashFigurePoint",
        "workloads": "no measure*Rates cache simulation",
        "gspn": "no GSPN CPI estimate",
        "server": "no server is started",
        "harness": "the thread pool only runs inside mw-server",
    },
    "serve_mix": {
        "trace": "runs inside mw-server, outside the driver's spans",
        "mem": "runs inside mw-server, outside the driver's spans",
        "workloads": "runs inside mw-server, outside the driver's spans",
        "gspn": "runs inside mw-server, outside the driver's spans",
        "mp": "no SPLASH request in the mix",
        "coherence": "no SPLASH request in the mix",
        "render": "runs inside mw-server, outside the driver's spans",
        "driver": "requests have no in-process layer calls",
    },
}

# Every per-layer metric and its unit, in report order.
PER_LAYER_UNITS = {
    "trace.refs": "count",
    "trace.busy_s": "s",
    "trace.ns_per_ref": "ns",
    "mem.accesses": "count",
    "mem.miss_ratio": "ratio",
    "mem.busy_s": "s",
    "mem.ns_per_access": "ns",
    "workloads.cache_sims": "count",
    "workloads.cache_sims_distinct": "count",
    "workloads.cache_sim_useful_ratio": "ratio",
    "gspn.calls": "count",
    "gspn.instructions": "count",
    "gspn.busy_s": "s",
    "gspn.ns_per_instr": "ns",
    "mp.points": "count",
    "mp.busy_s": "s",
    "mp.cpu_s": "s",
    "mp.offcpu_s": "s",
    "mp.vol_ctx_switches": "count",
    "coherence.accesses": "count",
    "coherence.remote_loads": "count",
    "coherence.invalidations": "count",
    "coherence.ns_per_access": "ns",
    "render.calls": "count",
    "render.bytes": "bytes",
    "render.busy_s": "s",
    "server.requests": "count",
    "server.cache_hits": "count",
    "server.hit_ratio": "ratio",
    "server.computed": "count",
    "server.points_computed": "count",
    "server.points_shared": "count",
    "server.shed": "count",
    "server.hit_rtt_p50_ms": "ms",
    "server.miss_rtt_p50_ms": "ms",
    "harness.steals": "count",
    "driver.self_s": "s",
    "tracing.overhead_s": "s",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def tail_percentile_for(n):
    """Highest ladder percentile with at least ten of n samples beyond
    it, or None when even the median has fewer than ten beyond."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(samples, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def self_times(spans):
    """Map span id -> its duration minus the part of that interval its
    child spans cover (overlapping children are counted once)."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["t0"], s["t1"]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0"]):
            a, b = max(lo, c["t0"]), min(hi, c["t1"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def load_expected(path):
    """Read 'key digest' lines."""
    expected = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 2:
                expected[parts[0]] = parts[1]
    return expected


def error_counts(ops, expected):
    """Classify every attempted op. An op is wrong when it completed
    but its digest differs from (or is missing in) the expected set.
    Refused and timed-out ops stay in the denominator."""
    c = {"attempted": len(ops), "failed": 0, "wrong": 0, "refused": 0,
         "timeout": 0}
    for op in ops:
        status = op["status"]
        if status == "ok":
            if expected.get(op["key"]) != op["digest"]:
                c["wrong"] += 1
        elif status in ("refused", "timeout"):
            c[status] += 1
        else:
            c["failed"] += 1
    c["errors"] = c["failed"] + c["wrong"] + c["refused"] + c["timeout"]
    c["error_rate"] = c["errors"] / c["attempted"] if c["attempted"] else 1.0
    return c


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def end_to_end(record, workload, setup_samples):
    """The end-to-end metrics of an untraced run."""
    passes = [p for p in record["passes"] if not p["traced"]]
    indices = {p["index"] for p in passes}
    latencies = [sec * 1e3 for pass_index, sec in record["latency"]
                 if pass_index in indices]
    per_pass = record["stamp"]["requests_per_pass"]
    tail_pct = tail_percentile_for(MIN_PASSES[workload] * per_pass)
    values = {
        "wall_s": _median([p["t1"] - p["t0"] for p in passes]),
        "cpu_s": _median([p["cpu_s"] for p in passes]),
        "req_p50_ms": percentile(latencies, 50.0),
        "req_tail_ms": percentile(latencies, tail_pct),
        "peak_rss_mb": (record["self_maxrss_kb"] +
                        record["children_maxrss_kb"]) / 1024.0,
        "setup_s": _median(setup_samples),
    }
    notes = {"passes": len(passes),
             "req_samples": len(latencies),
             "req_tail_percentile": tail_pct,
             "req_beyond_tail": sum(1 for v in latencies
                                    if v > values["req_tail_ms"]),
             "setup_samples": len(setup_samples)}
    return values, notes


def per_layer(record):
    """Per-layer metrics: each is summed over one traced pass, and the
    median over the traced passes is reported."""
    spans = record["spans"]
    selfs = self_times(spans)
    traced = [p for p in record["passes"] if p["traced"]]
    untraced = [p for p in record["passes"] if not p["traced"]]
    per_pass = []
    for p in traced:
        mine = [s for s in spans if s["pass"] == p["index"]]
        counts, busy = {}, {}
        sims = []
        for s in mine:
            for k, v in s["counts"].items():
                counts[k] = counts.get(k, 0.0) + v
            busy[s["name"]] = busy.get(s["name"], 0.0) + selfs[s["id"]]
            if s.get("sim"):
                sims.append(s["sim"])
        hits = [s["t1"] - s["t0"] for s in mine if s["name"] == "request.hit"]
        misses = [s["t1"] - s["t0"] for s in mine
                  if s["name"] == "request.miss"]
        srv = p.get("server", {})
        g = counts.get
        v = {
            "trace.refs": g("trace.refs", 0.0),
            "trace.busy_s": busy.get("trace", 0.0),
            "mem.accesses": g("mem.accesses", 0.0),
            "mem.miss_ratio": _ratio(g("mem.misses", 0.0),
                                     g("mem.accesses", 0.0)),
            "mem.busy_s": busy.get("mem", 0.0),
            "workloads.cache_sims": float(len(sims)),
            "workloads.cache_sims_distinct": float(len(set(sims))),
            "workloads.cache_sim_useful_ratio": _ratio(len(set(sims)),
                                                       len(sims)),
            "gspn.calls": g("gspn.calls", 0.0),
            "gspn.instructions": g("gspn.instructions", 0.0),
            "gspn.busy_s": busy.get("gspn", 0.0),
            "mp.points": g("mp.points", 0.0),
            "mp.busy_s": busy.get("mp", 0.0),
            "mp.cpu_s": g("mp.cpu_s", 0.0),
            "mp.offcpu_s": g("mp.offcpu_s", 0.0),
            "mp.vol_ctx_switches": g("mp.vol_ctx_switches", 0.0),
            "coherence.accesses": g("coherence.accesses", 0.0),
            "coherence.remote_loads": g("coherence.remote_loads", 0.0),
            "coherence.invalidations": g("coherence.invalidations", 0.0),
            "render.calls": g("render.calls", 0.0),
            "render.bytes": g("render.bytes", 0.0),
            "render.busy_s": busy.get("render", 0.0),
            "server.requests": srv.get("requests", 0.0),
            "server.cache_hits": srv.get("cache_hits", 0.0),
            "server.hit_ratio": _ratio(srv.get("cache_hits", 0.0),
                                       srv.get("requests", 0.0)),
            "server.computed": srv.get("computed", 0.0),
            "server.points_computed": srv.get("points_computed", 0.0),
            "server.points_shared": srv.get("points_shared", 0.0),
            "server.shed": srv.get("shed", 0.0),
            "server.hit_rtt_p50_ms": _median(hits) * 1e3,
            "server.miss_rtt_p50_ms": _median(misses) * 1e3,
            "harness.steals": srv.get("steals", 0.0),
            "driver.self_s": busy.get("op", 0.0),
        }
        v["trace.ns_per_ref"] = _ratio(v["trace.busy_s"], v["trace.refs"],
                                       1e9)
        v["mem.ns_per_access"] = _ratio(v["mem.busy_s"], v["mem.accesses"],
                                        1e9)
        v["gspn.ns_per_instr"] = _ratio(v["gspn.busy_s"],
                                        v["gspn.instructions"], 1e9)
        v["coherence.ns_per_access"] = _ratio(v["mp.cpu_s"],
                                              v["coherence.accesses"], 1e9)
        per_pass.append(v)
    values = {name: _median([v[name] for v in per_pass])
              for name in PER_LAYER_UNITS if name != "tracing.overhead_s"}
    values["tracing.overhead_s"] = (
        _median([p["t1"] - p["t0"] for p in traced]) -
        _median([p["t1"] - p["t0"] for p in untraced]))
    notes = {"traced_passes": len(traced), "untraced_passes": len(untraced),
             "spans": len(spans)}
    return values, notes


def with_units(values, units):
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}
