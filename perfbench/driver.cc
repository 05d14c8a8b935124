/**
 * @file
 * The repository benchmark driver.
 *
 * Runs one named workload against the memwall libraries and the
 * mw-server binary for a fixed number of seconds and writes a raw
 * record (passes, per-op output digests, spans with counts, rusage,
 * server stats deltas) as JSON. run.py builds this program, turns the
 * record into metrics and checks every digest against
 * expected_digests.txt.
 *
 *   perfbench-driver --workload W --seed N --seconds S --trace 0|1
 *                    --min-passes P --server BIN --work-dir DIR
 *                    --out FILE
 *   perfbench-driver --setup-only --workload W --seed N
 *   perfbench-driver --record --out FILE
 *
 * Workloads (see README.md for why each exists):
 *   spec_pipeline  fig7/fig8 miss-rate points, table3/table4 rows and
 *                  fig11 reference-latency points, serially in-process
 *   splash_mp      every fig13-17 (arch x cpus) point, quick scale
 *   serve_mix      a closed loop of two connections against a fresh
 *                  `mw-server --jobs 2` per pass
 *
 * A pass runs the workload's op list once; passes repeat until the
 * time is up. With --trace 1 untraced and traced passes alternate:
 * the traced ones time every call into a layer from outside and
 * record a span (name, start, end, parent) with counts around it.
 * On spec_pipeline the traced pass replaces each fused entry point
 * by its decomposition (generateBatch, cache replay, estimateCpi,
 * renderer), and its output digest must still match the fused one.
 */

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "gspn/models.hh"
#include "server/catalog.hh"
#include "server/json.hh"
#include "server/protocol.hh"
#include "server/wire.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/spec_eval.hh"
#include "workloads/spec_tables.hh"
#include "workloads/splash_figures.hh"

extern char **environ;

using namespace memwall;

namespace {

using Clock = std::chrono::steady_clock;

/** Thrown on any failure; main() reports it and exits 2 after the
 *  stack (and every ServerProcess on it) has been unwound. */
struct Failure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

[[noreturn]] void
die(const std::string &why)
{
    throw Failure(why);
}

// --------------------------------------------------------------------
// Measurement primitives

struct Usage
{
    double cpu_s = 0.0;
    long nvcsw = 0;  ///< voluntary context switches
    long nivcsw = 0; ///< involuntary context switches
    long maxrss_kb = 0;
};

Usage
usage(int who)
{
    rusage r{};
    getrusage(who, &r);
    Usage u;
    u.cpu_s = static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(r.ru_utime.tv_usec +
                                         r.ru_stime.tv_usec);
    u.nvcsw = r.ru_nvcsw;
    u.nivcsw = r.ru_nivcsw;
    u.maxrss_kb = r.ru_maxrss;
    return u;
}

/** FNV-1a 64 of the op's output bytes, as 16 hex digits. */
std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

/** A timed call into one layer, made from outside the layer. */
struct Span
{
    std::size_t id = 0;
    std::size_t parent = 0; ///< 0: a top-level span
    std::string name;
    int pass = 0;
    double t0 = 0.0, t1 = 0.0;
    /** Counts recorded at this boundary, summed per name by run.py. */
    std::vector<std::pair<std::string, double>> counts;
    /** Argument tuple of a cache simulation started in this span. */
    std::string sim;
};

/** Span recorder for one thread; disabled spans cost one branch. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    bool on = false;
    int pass = 0;

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    std::size_t
    open(const char *name)
    {
        if (!on)
            return 0;
        Span s;
        s.id = spans_.size() + 1;
        s.parent = stack_.empty() ? 0 : stack_.back();
        s.name = name;
        s.pass = pass;
        s.t0 = now();
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.back().id);
        return spans_.back().id;
    }

    void
    close(std::size_t id)
    {
        if (!on || id == 0)
            return;
        spans_[id - 1].t1 = now();
        stack_.pop_back();
    }

    void
    count(std::size_t id, const char *key, double v)
    {
        if (on && id != 0)
            spans_[id - 1].counts.emplace_back(key, v);
    }

    void
    sim(std::size_t id, std::string tuple)
    {
        if (on && id != 0)
            spans_[id - 1].sim = std::move(tuple);
    }

    /** Record an already-timed top-level span (client requests). */
    void
    add(const char *name, double t0, double t1)
    {
        Span s;
        s.id = spans_.size() + 1;
        s.name = name;
        s.pass = pass;
        s.t0 = t0;
        s.t1 = t1;
        spans_.push_back(std::move(s));
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

struct OpRecord
{
    std::string key;
    std::string digest;
    /** ok | failed | refused | timeout */
    std::string status = "ok";
    int pass = 0;
    double t0 = 0.0, t1 = 0.0;
    int cached = -1; ///< served ops: the envelope's "cached" flag
};

struct PassRecord
{
    int index = 0;
    bool traced = false;
    double t0 = 0.0, t1 = 0.0;
    double cpu_s = 0.0; ///< driver plus reaped children
    long nvcsw = 0;
    long nivcsw = 0;
    /** Server "stats" deltas over the pass (serve_mix only). */
    std::map<std::string, double> server;
};

struct Run
{
    explicit Run(Clock::time_point origin) : tracer(origin) {}

    Tracer tracer;
    std::vector<OpRecord> ops;
    std::vector<PassRecord> passes;
    std::vector<double> setup_s;
    /** (pass, seconds) of every request: a served request, a spec op,
     *  a SPLASH point. req_p50_ms and req_tail_ms come from these. */
    std::vector<std::pair<int, double>> latency;
    std::string notes; ///< extra stamp members, already JSON
};

void
recordOp(Run &run, std::string key, const std::string &bytes, double t0,
         double t1)
{
    OpRecord r;
    r.key = std::move(key);
    r.digest = digest(bytes);
    r.pass = run.tracer.pass;
    r.t0 = t0;
    r.t1 = t1;
    run.ops.push_back(std::move(r));
}

void
recordLatency(Run &run, double seconds)
{
    run.latency.emplace_back(run.tracer.pass, seconds);
}

// --------------------------------------------------------------------
// Seeded inputs

/** Base seeds a seeded op may draw; every one has recorded digests. */
constexpr std::uint64_t base_seeds[] = {42,  7,    1996,  2024,
                                        11,  123,  9001,  31337};
constexpr std::size_t n_base_seeds = std::size(base_seeds);

std::uint64_t
pick(std::mt19937_64 &rng, std::uint64_t n)
{
    return rng() % n;
}

template <typename T>
void
shuffle(std::vector<T> &v, std::mt19937_64 &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[pick(rng, i)]);
}

// --------------------------------------------------------------------
// spec_pipeline

/** Six SPEC'95 proxies: integer and FP, the fig11 pair, turb3d (the
 *  one I-cache regression) and swim (where the victim cache helps). */
const char *const spec_names[] = {"099.go",   "126.gcc",    "130.li",
                                  "102.swim", "125.turb3d", "141.apsi"};
const char *const fig11_names[] = {"141.apsi", "126.gcc"};
constexpr double fig11_l2[] = {4.0, 6.0, 12.0};
constexpr double fig11_mem_ns[] = {100.0, 300.0};

struct SpecOp
{
    enum class Kind { MissRate, Table, Fig11 } kind = Kind::MissRate;
    const SpecWorkload *w = nullptr;
    bool vc = false;        ///< Table: table4 (victim cache) row
    std::size_t row = 0;    ///< Table: index in specTableWorkloads()
    double l2 = 0.0;        ///< Fig11: L2 latency, cycles
    double mem_ns = 0.0;    ///< Fig11: memory latency, ns
    std::uint64_t base = 0; ///< Table/Fig11: sweep base seed
    std::string key;
};

std::size_t
tableRow(const SpecWorkload &w)
{
    const auto rows = specTableWorkloads();
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i] == &w)
            return i;
    die("workload not in the SPEC tables: " + w.name);
}

/**
 * The op list of one spec_pipeline run. With @p rng, every seeded op
 * draws its base seed and the list is shuffled; without, the whole
 * universe (every base seed) is returned for recording digests.
 */
std::vector<SpecOp>
specOps(std::mt19937_64 *rng)
{
    std::vector<SpecOp> ops;
    auto bases = [&](auto &&emit) {
        if (rng) {
            emit(base_seeds[pick(*rng, n_base_seeds)]);
            return;
        }
        for (std::uint64_t b : base_seeds)
            emit(b);
    };
    for (const char *name : spec_names) {
        const SpecWorkload &w = findWorkload(name);
        SpecOp op;
        op.w = &w;
        op.key = "missrate/" + w.name;
        ops.push_back(op);
        for (bool vc : {false, true})
            bases([&](std::uint64_t b) {
                SpecOp t;
                t.kind = SpecOp::Kind::Table;
                t.w = &w;
                t.vc = vc;
                t.row = tableRow(w);
                t.base = b;
                t.key = std::string(vc ? "table4/" : "table3/") +
                        w.name + "/seed=" + std::to_string(b);
                ops.push_back(t);
            });
    }
    for (const char *name : fig11_names)
        for (double l2 : fig11_l2)
            for (double ns : fig11_mem_ns)
                bases([&](std::uint64_t b) {
                    SpecOp f;
                    f.kind = SpecOp::Kind::Fig11;
                    f.w = &findWorkload(name);
                    f.l2 = l2;
                    f.mem_ns = ns;
                    f.base = b;
                    char buf[128];
                    std::snprintf(buf, sizeof(buf),
                                  "fig11/%s/l2=%g/mem=%gns/seed=%" PRIu64,
                                  name, l2, ns, b);
                    f.key = buf;
                    ops.push_back(f);
                });
    if (rng)
        shuffle(ops, *rng);
    return ops;
}

MissRateParams
specMissRateParams()
{
    return resolveMissRateParams(true, 0);
}

SpecEvalParams
tableParams(const SpecOp &op)
{
    SpecEvalParams p = resolveSpecEvalParams(true, 0, op.base);
    p.seed = specTablePointSeed(op.base, op.row);
    return p;
}

/** fig11_cache_latency_impact's --quick parameters. */
SpecEvalParams
fig11Params(const SpecOp &op)
{
    SpecEvalParams p;
    p.seed = op.base;
    p.banks = 2;
    p.missrate.measured_refs = 400'000;
    p.missrate.warmup_refs = 100'000;
    p.gspn_instructions = 30'000;
    return p;
}

double
fig11MemCycles(const SpecOp &op)
{
    return static_cast<double>(ClockParams{}.nsToCycles(op.mem_ns));
}

/** fig11 has no JSON renderer; the op's output is this document. */
std::string
fig11Json(const SpecOp &op, const SpecEstimate &est)
{
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\": \"%s\", \"l2_cycles\": %.17g, \"mem_ns\": %.17g, "
        "\"cpi_base\": %.17g, \"cpi_memory\": %.17g, "
        "\"bank_utilisation\": %.17g, \"icache_hit\": %.17g, "
        "\"icache_l2_hit\": %.17g, \"load_hit\": %.17g, "
        "\"load_l2_hit\": %.17g, \"store_hit\": %.17g, "
        "\"store_l2_hit\": %.17g}\n",
        est.name.c_str(), op.l2, op.mem_ns, est.cpi.base, est.cpi.memory,
        est.bank_utilisation, est.rates.icache_hit, est.rates.icache_l2_hit,
        est.rates.load_hit, est.rates.load_l2_hit, est.rates.store_hit,
        est.rates.store_l2_hit);
    return buf;
}

/** The op through the library's fused entry points. */
std::string
specOpFused(const SpecOp &op)
{
    switch (op.kind) {
    case SpecOp::Kind::MissRate: {
        const WorkloadMissRates r =
            measureMissRates(*op.w, specMissRateParams());
        return missRateFigureJson(MissRateFigure::ICache, {r}) +
               missRateFigureJson(MissRateFigure::DCache, {r});
    }
    case SpecOp::Kind::Table:
        return specTableJson(
            op.vc, {runSpecTablePoint(*op.w, op.vc, tableParams(op))});
    case SpecOp::Kind::Fig11:
        return fig11Json(op, estimateReference(*op.w, op.l2,
                                               fig11MemCycles(op),
                                               fig11Params(op)));
    }
    die("unknown spec op");
}

// ---- the traced decomposition

/**
 * Generate the @p total refs of one window of @p src with a single
 * generateBatch() call (span "trace") and replay them through @p sink
 * (span "mem"). One call per window, not fixed-size chunks: a call
 * that ends right after an instruction fetch drops that
 * instruction's data reference, so chunking would change the stream
 * the fused entry points see.
 */
template <typename Sink>
void
replay(Tracer &tr, SyntheticWorkload &src, std::uint64_t total,
       std::vector<MemRef> &buf, Sink &&sink)
{
    buf.clear();
    const std::size_t g = tr.open("trace");
    const std::uint64_t got = src.generateBatch(total, buf);
    tr.count(g, "trace.refs", static_cast<double>(got));
    tr.close(g);
    const std::size_t m = tr.open("mem");
    for (const MemRef &r : buf)
        sink(r);
    tr.close(m);
}

/** Accumulates AccessStats snapshots into the op span's mem counts. */
struct MemCounts
{
    double accesses = 0.0;
    double misses = 0.0;

    void
    add(const AccessStats &s)
    {
        accesses += static_cast<double>(s.accesses());
        misses += static_cast<double>(s.misses());
    }

    void
    flush(Tracer &tr, std::size_t span) const
    {
        tr.count(span, "mem.accesses", accesses);
        tr.count(span, "mem.misses", misses);
    }
};

std::string
simTuple(const char *kind, const SpecWorkload &w, const char *config,
         const MissRateParams &p)
{
    return std::string(kind) + "|" + w.name + "|" + config + "|" +
           std::to_string(p.measured_refs) + "/" +
           std::to_string(p.warmup_refs);
}

CacheConfig
convCache(std::uint64_t capacity, std::uint32_t ways, const char *name)
{
    CacheConfig c;
    c.capacity = capacity;
    c.line_size = 32;
    c.assoc = ways;
    c.name = name;
    return c;
}

/** measureMissRates(), decomposed: the Figure 7/8 comparison set. */
WorkloadMissRates
missRatesTraced(Tracer &tr, std::size_t op_span, const SpecWorkload &w,
                const MissRateParams &params)
{
    using namespace cachelabels;
    ColumnCacheConfig cfg;
    ColumnCacheConfig plain_cfg = cfg;
    plain_cfg.victim_enabled = false;
    ColumnInstrCache icache(cfg);
    ColumnDataCache dplain(plain_cfg);
    ColumnDataCache dvc(cfg);
    std::vector<std::pair<std::string, Cache>> conv_i, conv_d;
    conv_i.emplace_back(conv8, Cache(convCache(8 * KiB, 1, conv8)));
    conv_i.emplace_back(conv16, Cache(convCache(16 * KiB, 1, conv16)));
    conv_i.emplace_back(conv32, Cache(convCache(32 * KiB, 1, conv32)));
    conv_i.emplace_back(conv64, Cache(convCache(64 * KiB, 1, conv64)));
    conv_d.emplace_back(conv16, Cache(convCache(16 * KiB, 1, conv16)));
    conv_d.emplace_back(conv16w2, Cache(convCache(16 * KiB, 2, conv16w2)));
    conv_d.emplace_back(conv64, Cache(convCache(64 * KiB, 1, conv64)));
    conv_d.emplace_back(conv256w2,
                        Cache(convCache(256 * KiB, 2, conv256w2)));

    MemCounts mc;
    const auto snapshot = [&] {
        mc.add(icache.stats());
        mc.add(dplain.stats());
        mc.add(dvc.stats());
        for (auto &[label, c] : conv_i)
            mc.add(c.stats());
        for (auto &[label, c] : conv_d)
            mc.add(c.stats());
    };
    const auto sink = [&](const MemRef &ref) {
        if (ref.type == RefType::IFetch) {
            icache.fetch(ref.pc);
            for (auto &[label, c] : conv_i)
                c.access(ref.pc, false);
        } else {
            const bool store = ref.type == RefType::Store;
            dplain.access(ref.addr, store);
            dvc.access(ref.addr, store);
            for (auto &[label, c] : conv_d)
                c.access(ref.addr, store);
        }
    };

    SyntheticWorkload src(w.proxy);
    if (params.stationary_start)
        src.scatterState();
    std::vector<MemRef> buf;
    replay(tr, src, params.warmup_refs, buf, sink);
    snapshot();
    icache.resetStats();
    dplain.resetStats();
    dvc.resetStats();
    for (auto &[label, c] : conv_i)
        c.resetStats();
    for (auto &[label, c] : conv_d)
        c.resetStats();
    replay(tr, src, params.measured_refs, buf, sink);
    snapshot();
    mc.flush(tr, op_span);

    WorkloadMissRates out;
    out.workload = w.name;
    out.icaches.push_back(CacheMissResult{proposed, icache.stats()});
    for (auto &[label, c] : conv_i)
        out.icaches.push_back(CacheMissResult{label, c.stats()});
    out.dcaches.push_back(CacheMissResult{proposed, dplain.stats()});
    out.dcaches.push_back(CacheMissResult{proposed_vc, dvc.stats()});
    for (auto &[label, c] : conv_d)
        out.dcaches.push_back(CacheMissResult{label, c.stats()});
    return out;
}

/** measureIntegratedRates(), decomposed. */
HierarchyRates
integratedRatesTraced(Tracer &tr, std::size_t op_span,
                      const SpecWorkload &w, bool victim_cache,
                      const MissRateParams &params)
{
    tr.sim(op_span, simTuple("integrated", w, victim_cache ? "vc" : "novc",
                             params));
    ColumnCacheConfig cfg;
    cfg.victim_enabled = victim_cache;
    ColumnInstrCache icache(cfg);
    ColumnDataCache dcache(cfg);
    const auto sink = [&](const MemRef &ref) {
        if (ref.type == RefType::IFetch)
            icache.fetch(ref.pc);
        else
            dcache.access(ref.addr, ref.type == RefType::Store);
    };

    MemCounts mc;
    SyntheticWorkload src(w.proxy);
    std::vector<MemRef> buf;
    replay(tr, src, params.warmup_refs, buf, sink);
    mc.add(icache.stats());
    mc.add(dcache.stats());
    icache.resetStats();
    dcache.resetStats();
    replay(tr, src, params.measured_refs, buf, sink);
    const AccessStats &is = icache.stats();
    const AccessStats &ds = dcache.stats();
    mc.add(is);
    mc.add(ds);
    mc.flush(tr, op_span);

    HierarchyRates out;
    out.icache_hit = is.accesses()
        ? 1.0 - static_cast<double>(is.misses()) /
                    static_cast<double>(is.accesses())
        : 1.0;
    out.load_hit = ds.loads()
        ? static_cast<double>(ds.load_hits.value()) /
              static_cast<double>(ds.loads())
        : 1.0;
    out.store_hit = ds.stores()
        ? static_cast<double>(ds.store_hits.value()) /
              static_cast<double>(ds.stores())
        : 1.0;
    out.icache_l2_hit = 0.0;
    out.load_l2_hit = 0.0;
    out.store_l2_hit = 0.0;
    return out;
}

/** measureHierarchyRates(), decomposed. */
HierarchyRates
hierarchyRatesTraced(Tracer &tr, std::size_t op_span,
                     const SpecWorkload &w, const HierarchyConfig &config,
                     const MissRateParams &params)
{
    tr.sim(op_span, simTuple("hierarchy", w, config.name.c_str(), params));
    Cache l1i(config.l1i);
    Cache l1d(config.l1d);
    std::unique_ptr<Cache> l2;
    if (config.has_l2)
        l2 = std::make_unique<Cache>(config.l2);

    struct ClassCounters
    {
        std::uint64_t accesses = 0, l1_hits = 0, l2_hits = 0;
    };
    ClassCounters ifetch, load, store;
    bool counting = false;
    const auto sink = [&](const MemRef &ref) {
        const bool is_store = ref.type == RefType::Store;
        ClassCounters &ctr = ref.type == RefType::IFetch
            ? ifetch
            : (is_store ? store : load);
        Cache &l1 = ref.type == RefType::IFetch ? l1i : l1d;
        const bool l1_hit = l1.access(ref.addr, is_store).hit;
        bool l2_hit = false;
        if (!l1_hit && l2)
            l2_hit = l2->access(ref.addr, is_store).hit;
        if (counting) {
            ++ctr.accesses;
            if (l1_hit)
                ++ctr.l1_hits;
            else if (l2_hit)
                ++ctr.l2_hits;
        }
    };

    SyntheticWorkload src(w.proxy);
    std::vector<MemRef> buf;
    replay(tr, src, params.warmup_refs, buf, sink);
    counting = true;
    replay(tr, src, params.measured_refs, buf, sink);
    MemCounts mc;
    mc.add(l1i.stats());
    mc.add(l1d.stats());
    if (l2)
        mc.add(l2->stats());
    mc.flush(tr, op_span);

    const auto rates = [](const ClassCounters &ctr, double &hit,
                          double &l2_cond) {
        if (ctr.accesses == 0) {
            hit = 1.0;
            l2_cond = 1.0;
            return;
        }
        hit = static_cast<double>(ctr.l1_hits) /
              static_cast<double>(ctr.accesses);
        const std::uint64_t misses = ctr.accesses - ctr.l1_hits;
        l2_cond = misses ? static_cast<double>(ctr.l2_hits) /
                               static_cast<double>(misses)
                         : 1.0;
    };
    HierarchyRates out;
    rates(ifetch, out.icache_hit, out.icache_l2_hit);
    rates(load, out.load_hit, out.load_l2_hit);
    rates(store, out.store_hit, out.store_l2_hit);
    return out;
}

/** estimateCpi() in a "gspn" span, then the SpecEstimate. */
SpecEstimate
estimateTraced(Tracer &tr, const SpecWorkload &w, const HierarchyRates &rates,
               const ProcessorModelParams &model,
               const SpecEvalParams &params)
{
    const std::size_t g = tr.open("gspn");
    const CpiEstimate mc =
        estimateCpi(model, params.gspn_instructions, params.seed);
    tr.count(g, "gspn.calls", 1.0);
    tr.count(g, "gspn.instructions", static_cast<double>(mc.instructions));
    tr.close(g);

    SpecEstimate est;
    est.name = w.name;
    est.rates = rates;
    est.cpi.base = w.base_cpi;
    est.cpi.memory = mc.memory_cpi;
    est.bank_utilisation = mc.bank_utilisation;
    est.spec_ratio =
        w.in_spec_tables ? w.calibration().ratio(est.cpi.total()) : 0.0;
    return est;
}

/** estimateIntegrated() (= runSpecTablePoint), decomposed. */
SpecEstimate
integratedTraced(Tracer &tr, std::size_t op_span, const SpecWorkload &w,
                 bool vc, const SpecEvalParams &params)
{
    const HierarchyRates rates =
        integratedRatesTraced(tr, op_span, w, vc, params.missrate);
    ProcessorModelParams model;
    model.p_load = w.load_frac;
    model.p_store = w.store_frac;
    model.icache_hit = rates.icache_hit;
    model.load_hit = rates.load_hit;
    model.store_hit = rates.store_hit;
    model.has_l2 = false;
    model.banks = params.banks;
    model.bank_access = params.bank_access;
    model.bank_precharge = params.bank_precharge;
    model.scoreboarding = true;
    return estimateTraced(tr, w, rates, model, params);
}

/** estimateReference(), decomposed. */
SpecEstimate
referenceTraced(Tracer &tr, std::size_t op_span, const SpecWorkload &w,
                double l2_latency, double mem_latency,
                const SpecEvalParams &params)
{
    const HierarchyRates rates = hierarchyRatesTraced(
        tr, op_span, w, HierarchyConfig::reference(), params.missrate);
    ProcessorModelParams model;
    model.p_load = w.load_frac;
    model.p_store = w.store_frac;
    model.icache_hit = rates.icache_hit;
    model.icache_l2_hit = rates.icache_l2_hit;
    model.load_hit = rates.load_hit;
    model.load_l2_hit = rates.load_l2_hit;
    model.store_hit = rates.store_hit;
    model.store_l2_hit = rates.store_l2_hit;
    model.has_l2 = true;
    model.l2_latency = l2_latency;
    model.banks = params.banks ? params.banks : 2;
    model.bank_access = mem_latency;
    model.bank_precharge = params.bank_precharge;
    model.scoreboarding = true;
    return estimateTraced(tr, w, rates, model, params);
}

template <typename Render>
std::string
rendered(Tracer &tr, Render &&render)
{
    const std::size_t r = tr.open("render");
    std::string doc = render();
    tr.count(r, "render.calls", 1.0);
    tr.count(r, "render.bytes", static_cast<double>(doc.size()));
    tr.close(r);
    return doc;
}

/** The op through its decomposition; must equal specOpFused(). */
std::string
specOpTraced(Tracer &tr, std::size_t op_span, const SpecOp &op)
{
    switch (op.kind) {
    case SpecOp::Kind::MissRate: {
        const WorkloadMissRates r =
            missRatesTraced(tr, op_span, *op.w, specMissRateParams());
        return rendered(tr, [&] {
            return missRateFigureJson(MissRateFigure::ICache, {r}) +
                   missRateFigureJson(MissRateFigure::DCache, {r});
        });
    }
    case SpecOp::Kind::Table: {
        const SpecEstimate row =
            integratedTraced(tr, op_span, *op.w, op.vc, tableParams(op));
        return rendered(tr, [&] { return specTableJson(op.vc, {row}); });
    }
    case SpecOp::Kind::Fig11:
        return fig11Json(op, referenceTraced(tr, op_span, *op.w, op.l2,
                                             fig11MemCycles(op),
                                             fig11Params(op)));
    }
    die("unknown spec op");
}

void
specPass(Run &run, const std::vector<SpecOp> &ops, PassRecord &pass)
{
    Tracer &tr = run.tracer;
    pass.t0 = tr.now();
    for (const SpecOp &op : ops) {
        const double t0 = tr.now();
        std::string bytes;
        if (pass.traced) {
            const std::size_t s = tr.open("op");
            bytes = specOpTraced(tr, s, op);
            tr.close(s);
        } else {
            bytes = specOpFused(op);
        }
        recordOp(run, op.key, bytes, t0, tr.now());
        recordLatency(run, tr.now() - t0);
    }
    pass.t1 = tr.now();
}

// --------------------------------------------------------------------
// splash_mp

struct SplashOp
{
    SplashFigure fig = SplashFigure::Fig13Lu;
    unsigned cpus = 1;
    /** Order the three architectures are simulated in. */
    std::vector<std::size_t> arch_order{0, 1, 2};
    std::string key;
};

/** One op per (figure, cpus) column: its three architecture points,
 *  rendered like `mw-server` answers {"nodes": cpus}. */
std::vector<SplashOp>
splashOps(std::mt19937_64 *rng)
{
    std::vector<SplashOp> ops;
    for (SplashFigure fig : splash_figures)
        for (unsigned cpus : splashCpuCounts(0)) {
            SplashOp op;
            op.fig = fig;
            op.cpus = cpus;
            op.key = std::string("splash/") + splashFigureName(fig) +
                     "/cpus=" + std::to_string(cpus);
            if (rng)
                shuffle(op.arch_order, *rng);
            ops.push_back(op);
        }
    if (rng)
        shuffle(ops, *rng);
    return ops;
}

std::string
splashOp(Run &run, const SplashOp &op)
{
    Tracer &tr = run.tracer;
    const double scale = resolveSplashScale(op.fig, true);
    const auto &archs = splashArchs();
    std::vector<SplashResult> points(archs.size());
    for (std::size_t a : op.arch_order) {
        const std::size_t s = tr.open("mp");
        const Usage u0 = tr.on ? usage(RUSAGE_SELF) : Usage{};
        const double t0 = tr.now();
        points[a] = runSplashFigurePoint(op.fig, archs[a], op.cpus, scale,
                                         nullptr);
        const double wall = tr.now() - t0;
        recordLatency(run, wall);
        if (tr.on) {
            const Usage u1 = usage(RUSAGE_SELF);
            const SplashResult &r = points[a];
            tr.count(s, "mp.points", 1.0);
            tr.count(s, "mp.cpu_s", u1.cpu_s - u0.cpu_s);
            tr.count(s, "mp.offcpu_s", wall - (u1.cpu_s - u0.cpu_s));
            tr.count(s, "mp.vol_ctx_switches",
                     static_cast<double>(u1.nvcsw - u0.nvcsw));
            tr.count(s, "coherence.accesses",
                     static_cast<double>(r.accesses));
            tr.count(s, "coherence.remote_loads",
                     static_cast<double>(r.remote_loads));
            tr.count(s, "coherence.invalidations",
                     static_cast<double>(r.invalidations));
        }
        tr.close(s);
    }
    return rendered(tr, [&] {
        return splashFigureJson(op.fig, scale, op.cpus, points);
    });
}

void
splashPass(Run &run, const std::vector<SplashOp> &ops, PassRecord &pass)
{
    Tracer &tr = run.tracer;
    pass.t0 = tr.now();
    for (const SplashOp &op : ops) {
        const double t0 = tr.now();
        const std::size_t s = tr.open("op");
        const std::string bytes = splashOp(run, op);
        tr.close(s);
        recordOp(run, op.key, bytes, t0, tr.now());
    }
    pass.t1 = tr.now();
}

/**
 * Pin the process, and the threads it starts later, to the last CPU
 * it may run on; returns that CPU. The SPLASH kernels hand a token
 * between host threads. On a multi-CPU virtual machine each
 * cross-CPU wake-up costs an inter-processor interrupt whose latency
 * swings with the neighbours' load: the same quick fig14 sweep took
 * 2.5-19 s unpinned. On one CPU the handoffs are plain context
 * switches, the sweep takes about 2.2 s and repeats.
 */
int
pinToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        die(std::string("sched_getaffinity: ") + std::strerror(errno));
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
        if (CPU_ISSET(cpu, &set)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            if (sched_setaffinity(0, sizeof(one), &one) != 0)
                die(std::string("sched_setaffinity: ") +
                    std::strerror(errno));
            return cpu;
        }
    die("empty CPU affinity mask");
}

// --------------------------------------------------------------------
// serve_mix

/** One catalog request of the mix and its digest key. */
struct ServeKey
{
    const char *experiment = "fig7";
    bool table = false;      ///< table3/table4: param is the seed
    std::uint64_t param = 0; ///< fig7/fig8: refs

    std::string
    request(const std::string &id) const
    {
        return "{\"cmd\":\"run\",\"id\":\"" + id +
               "\",\"experiment\":\"" + experiment +
               "\",\"quick\":true,\"" + (table ? "seed" : "refs") +
               "\":" + std::to_string(param) + "}";
    }

    std::string
    key() const
    {
        return std::string("serve/") + experiment +
               (table ? "/seed=" : "/refs=") + std::to_string(param);
    }
};

/** Miss-rate windows a fresh fig7/fig8 request may ask for. */
std::uint64_t
serveRefs(std::size_t i)
{
    return 400'000 - 1024 * i;
}
constexpr std::size_t n_serve_refs = 8;

std::vector<ServeKey>
serveUniverse()
{
    std::vector<ServeKey> keys;
    for (std::size_t i = 0; i < n_serve_refs; ++i)
        for (const char *e : {"fig7", "fig8"})
            keys.push_back(ServeKey{e, false, serveRefs(i)});
    for (std::uint64_t s : base_seeds)
        for (const char *e : {"table3", "table4"})
            keys.push_back(ServeKey{e, true, s});
    return keys;
}

/** The in-process render of @p k: catalog plan, points, renderer. */
std::string
serveReference(const ServeKey &k)
{
    server::Request req;
    server::ErrorCode code{};
    std::string detail;
    if (!server::parseRequest(k.request("ref"), req, code, detail))
        die("bad reference request " + k.key() + ": " + detail);
    const server::CatalogPlan plan = server::buildCatalogPlan(req.run, "");
    std::vector<std::shared_ptr<void>> results;
    for (const auto &p : plan.points)
        results.push_back(p.compute());
    return plan.render(results);
}

/** A spawned mw-server; the destructor kills and reaps it. */
class ServerProcess
{
  public:
    ServerProcess() = default;
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;
    ~ServerProcess() { kill(); }

    void
    spawn(const std::string &bin, const std::string &socket,
          const std::string &cache_dir, const std::string &log)
    {
        socket_ = socket;
        std::vector<std::string> args = {bin,
                                         "--socket",
                                         socket,
                                         "--cache-dir",
                                         cache_dir,
                                         "--jobs",
                                         "2",
                                         "--batch-window-ms",
                                         "20"};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            die("cannot spawn " + bin + ": " + std::strerror(rc));
        }
    }

    /** Poll until a "ping" returns ok; false on timeout or exit. The
     *  poll yields instead of sleeping, so the time taken is the
     *  server's start-up, not the wake-up latency of sleeps. */
    bool
    waitReady(double timeout_s)
    {
        const auto deadline =
            Clock::now() + std::chrono::duration<double>(timeout_s);
        while (Clock::now() < deadline) {
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            std::string why;
            const int fd = server::connectUnixTimeout(socket_, 1000, &why);
            if (fd >= 0) {
                std::string reply;
                const bool ok =
                    server::writeFrame(fd, "{\"cmd\":\"ping\"}", &why) &&
                    server::readFrame(fd, reply, &why) ==
                        server::FrameStatus::Ok &&
                    reply.find("\"status\":\"ok\"") != std::string::npos;
                ::close(fd);
                if (ok)
                    return true;
            }
            std::this_thread::yield();
        }
        return false;
    }

    /** Ask for shutdown and reap; SIGKILL after @p grace_s. */
    void
    stop(double grace_s)
    {
        if (pid_ < 0)
            return;
        std::string why;
        const int fd = server::connectUnixTimeout(socket_, 1000, &why);
        if (fd >= 0) {
            server::setIoTimeout(fd, 5000, &why);
            std::string reply;
            if (server::writeFrame(fd, "{\"cmd\":\"shutdown\"}", &why))
                server::readFrame(fd, reply, &why);
            ::close(fd);
        }
        const auto deadline =
            Clock::now() + std::chrono::duration<double>(grace_s);
        while (Clock::now() < deadline) {
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        kill();
    }

  private:
    void
    kill()
    {
        if (pid_ < 0)
            return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    pid_t pid_ = -1;
    std::string socket_;
};

struct Reply
{
    std::string status; ///< ok | failed | refused | timeout
    int cached = -1;
    std::string result;
};

Reply
call(int fd, const std::string &payload)
{
    Reply out;
    std::string why, frame;
    if (!server::writeFrame(fd, payload, &why)) {
        out.status = "failed";
        return out;
    }
    const server::FrameStatus fs = server::readFrame(fd, frame, &why);
    if (fs != server::FrameStatus::Ok) {
        // A read past the SO_RCVTIMEO bound fails with EAGAIN.
        out.status = why.find(std::strerror(EAGAIN)) !=
                             std::string::npos
            ? "timeout"
            : "failed";
        return out;
    }
    server::JsonValue env;
    std::string err;
    const server::JsonValue *status = nullptr;
    if (!server::parseJson(frame, env, err) ||
        !(status = env.find("status")) || !status->isString()) {
        out.status = "failed";
        return out;
    }
    if (status->text != "ok") {
        const server::JsonValue *e = env.find("error");
        const server::JsonValue *code = e ? e->find("code") : nullptr;
        const std::string c = code && code->isString() ? code->text : "";
        out.status = c == "overloaded" || c == "shutting_down"
            ? "refused"
            : (c == "deadline_exceeded" ? "timeout" : "failed");
        return out;
    }
    out.status = "ok";
    if (const server::JsonValue *cached = env.find("cached"))
        out.cached = cached->isBool() && cached->boolean ? 1 : 0;
    // "result" is the envelope's last member: its bytes run to the
    // closing brace, so the document's trailing newline (whitespace
    // outside the value's span) is kept, as mw-client --raw-result does.
    if (const server::JsonValue *r = env.find("result"))
        out.result = frame.substr(r->begin, frame.size() - 1 - r->begin);
    return out;
}

/** Counters of the server "stats" reply, flattened. */
std::map<std::string, double>
serverStats(const std::string &socket)
{
    std::map<std::string, double> out;
    std::string why, frame;
    const int fd = server::connectUnixTimeout(socket, 1000, &why);
    if (fd < 0)
        return out;
    server::setIoTimeout(fd, 10'000, &why);
    server::JsonValue env;
    std::string err;
    if (server::writeFrame(fd, "{\"cmd\":\"stats\"}", &why) &&
        server::readFrame(fd, frame, &why) == server::FrameStatus::Ok &&
        server::parseJson(frame, env, err))
        if (const server::JsonValue *r = env.find("result")) {
            if (const server::JsonValue *s = r->find("steals"))
                out["steals"] = s->number;
            if (const server::JsonValue *c = r->find("counters"))
                for (const auto &[name, v] : c->members)
                    out[name] = v.number;
        }
    ::close(fd);
    return out;
}

/** Requests of one connection in one pass, in order. */
struct Script
{
    std::vector<ServeKey> keys;
    /** Wait for the other connection after this request. */
    std::vector<bool> sync_after;
};

/**
 * The two connection scripts of one pass, in three phases separated
 * by a barrier between the connections:
 *  1. one fresh miss-rate figure each, fig7 on one and fig8 on the
 *     other with the same window, sent together so the batcher
 *     coalesces their units;
 *  2. one fresh SPEC table each (table3 / table4), computed side by
 *     side on the two workers;
 *  3. a repeat of one of the connection's own two keys: a cache hit
 *     taken while no computation competes for the CPUs.
 * Misses are two thirds of the requests, so the median request is a
 * fig7/fig8 miss and the tail a table miss. A hit's round trip (about
 * 0.1 ms) follows the host's wake-up latency: its median moved by 41%
 * between two sets of runs of the same build, more than any bound
 * allows, so it is reported per layer (server.hit_rtt_p50_ms) only.
 */
constexpr int serve_hits = 1;
constexpr int serve_requests_per_pass = 2 * (2 + serve_hits);

std::vector<Script>
serveScripts(std::mt19937_64 &rng)
{
    const std::uint64_t refs = serveRefs(pick(rng, n_serve_refs));
    std::vector<Script> scripts(2);
    for (int c = 0; c < 2; ++c) {
        Script &s = scripts[static_cast<std::size_t>(c)];
        const ServeKey fig{c == 0 ? "fig7" : "fig8", false, refs};
        const ServeKey table{c == 0 ? "table3" : "table4", true,
                             base_seeds[pick(rng, n_base_seeds)]};
        const auto push = [&](const ServeKey &k, bool sync) {
            s.keys.push_back(k);
            s.sync_after.push_back(sync);
        };
        push(fig, true);
        push(table, true);
        for (int i = 0; i < serve_hits; ++i)
            push(pick(rng, 2) ? table : fig, false);
    }
    return scripts;
}

struct ServeContext
{
    std::string server_bin;
    std::string work_dir;
};

/** Server starts timed before the first pass, beside one per pass. */
constexpr int serve_setup_repeats = 10;

/** Start a server on a fresh cache directory under @p dir and wait
 *  for its first ping; records the set-up time. */
void
startServer(Run &run, const ServeContext &ctx, const std::string &dir,
            ServerProcess &srv)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const double s0 = run.tracer.now();
    srv.spawn(ctx.server_bin, dir + "/s.sock", dir + "/cache",
              dir + "/server.log");
    if (!srv.waitReady(30.0))
        die("mw-server did not answer ping; see " + dir + "/server.log");
    run.setup_s.push_back(run.tracer.now() - s0);
}

void
serveSetups(Run &run, const ServeContext &ctx, int n)
{
    for (int i = 0; i < n; ++i) {
        const std::string dir = ctx.work_dir + "/setup" + std::to_string(i);
        ServerProcess srv;
        startServer(run, ctx, dir, srv);
        srv.stop(10.0);
        std::filesystem::remove_all(dir);
    }
}

void
servePass(Run &run, const ServeContext &ctx, std::mt19937_64 &rng,
          PassRecord &pass)
{
    Tracer &tr = run.tracer;
    const std::string dir =
        ctx.work_dir + "/pass" + std::to_string(pass.index);
    const std::string socket = dir + "/s.sock";
    ServerProcess srv;
    startServer(run, ctx, dir, srv);

    const std::map<std::string, double> before = serverStats(socket);
    const std::vector<Script> scripts = serveScripts(rng);
    std::vector<std::vector<OpRecord>> records(scripts.size());
    std::vector<int> fds;
    for (std::size_t c = 0; c < scripts.size(); ++c) {
        std::string why;
        const int fd = server::connectUnixTimeout(socket, 5000, &why);
        if (fd < 0)
            die("cannot connect to mw-server: " + why);
        server::setIoTimeout(fd, 120'000, &why);
        fds.push_back(fd);
    }

    pass.t0 = tr.now();
    std::barrier phase(static_cast<std::ptrdiff_t>(scripts.size()));
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < scripts.size(); ++c)
        clients.emplace_back([&, c] {
            const Script &s = scripts[c];
            std::size_t i = 0;
            for (; i < s.keys.size(); ++i) {
                const std::string id = "p" + std::to_string(pass.index) +
                                       "c" + std::to_string(c) + "r" +
                                       std::to_string(i);
                OpRecord r;
                r.key = s.keys[i].key();
                r.pass = pass.index;
                r.t0 = tr.now();
                const Reply reply = call(fds[c], s.keys[i].request(id));
                r.t1 = tr.now();
                r.status = reply.status;
                r.cached = reply.cached;
                r.digest = digest(reply.result);
                records[c].push_back(std::move(r));
                if (reply.status == "failed" || reply.status == "timeout")
                    break; // the connection state is unknown now
                if (s.sync_after[i])
                    phase.arrive_and_wait();
            }
            if (i < s.keys.size())
                phase.arrive_and_drop(); // never block the other one
        });
    for (auto &t : clients)
        t.join();
    pass.t1 = tr.now();
    for (int fd : fds)
        ::close(fd);

    const std::map<std::string, double> after = serverStats(socket);
    for (const auto &[name, v] : after) {
        const auto it = before.find(name);
        pass.server[name] = v - (it == before.end() ? 0.0 : it->second);
    }
    // The server counts a frame before handling it, so the closing
    // "stats" request is inside the delta.
    pass.server["requests"] -= 1.0;
    srv.stop(10.0);

    for (auto &conn : records)
        for (auto &r : conn) {
            if (tr.on)
                tr.add(r.cached == 1 ? "request.hit" : "request.miss",
                       r.t0, r.t1);
            run.latency.emplace_back(r.pass, r.t1 - r.t0);
            run.ops.push_back(std::move(r));
        }
    std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------------
// Record output

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

void
writeRecord(const Run &run, const std::string &path)
{
    std::ostringstream o;
    const Usage self = usage(RUSAGE_SELF);
    const Usage kids = usage(RUSAGE_CHILDREN);
    o << "{\"stamp\":{\"build_type\":\"" << PERFBENCH_BUILD_TYPE
      << "\",\"optimized\":" <<
#ifdef __OPTIMIZE__
        "true"
#else
        "false"
#endif
      << ",\"server_build\":\""
      << server::jsonEscape(server::gitDescribe()) << "\"" << run.notes
      << "},\n\"self_maxrss_kb\":" << self.maxrss_kb
      << ",\"children_maxrss_kb\":" << kids.maxrss_kb
      << ",\n\"setup_s\":[";
    for (std::size_t i = 0; i < run.setup_s.size(); ++i)
        o << (i ? "," : "") << num(run.setup_s[i]);
    o << "],\n\"latency\":[";
    for (std::size_t i = 0; i < run.latency.size(); ++i)
        o << (i ? "," : "") << "[" << run.latency[i].first << ","
          << num(run.latency[i].second) << "]";
    o << "],\n\"passes\":[";
    for (std::size_t i = 0; i < run.passes.size(); ++i) {
        const PassRecord &p = run.passes[i];
        o << (i ? ",\n" : "\n") << "{\"index\":" << p.index
          << ",\"traced\":" << (p.traced ? "true" : "false")
          << ",\"t0\":" << num(p.t0) << ",\"t1\":" << num(p.t1)
          << ",\"cpu_s\":" << num(p.cpu_s) << ",\"nvcsw\":" << p.nvcsw
          << ",\"nivcsw\":" << p.nivcsw
          << ",\"server\":{";
        bool first = true;
        for (const auto &[name, v] : p.server) {
            o << (first ? "" : ",") << "\"" << server::jsonEscape(name)
              << "\":" << num(v);
            first = false;
        }
        o << "}}";
    }
    o << "],\n\"ops\":[";
    for (std::size_t i = 0; i < run.ops.size(); ++i) {
        const OpRecord &r = run.ops[i];
        o << (i ? ",\n" : "\n") << "{\"key\":\""
          << server::jsonEscape(r.key) << "\",\"digest\":\"" << r.digest
          << "\",\"status\":\"" << r.status << "\",\"pass\":" << r.pass
          << ",\"t0\":" << num(r.t0) << ",\"t1\":" << num(r.t1)
          << ",\"cached\":" << r.cached << "}";
    }
    o << "],\n\"spans\":[";
    const auto &spans = run.tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        o << (i ? ",\n" : "\n") << "{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"pass\":" << s.pass << ",\"t0\":" << num(s.t0)
          << ",\"t1\":" << num(s.t1) << ",\"counts\":{";
        for (std::size_t k = 0; k < s.counts.size(); ++k)
            o << (k ? "," : "") << "\"" << s.counts[k].first
              << "\":" << num(s.counts[k].second);
        o << "}";
        if (!s.sim.empty())
            o << ",\"sim\":\"" << server::jsonEscape(s.sim) << "\"";
        o << "}";
    }
    o << "]}\n";
    std::ofstream f(path, std::ios::trunc);
    f << o.str();
    if (!f.flush())
        die("cannot write " + path);
}

/**
 * Repeat @p pass_fn until @p seconds are used, never fewer than
 * @p min_passes passes. A new pass starts only if it is expected to
 * finish in time. With @p trace, passes alternate untraced/traced.
 */
template <typename PassFn>
void
measure(Run &run, double seconds, int min_passes, bool trace,
        PassFn &&pass_fn)
{
    // Hard stop well inside the 180 s a run may take.
    constexpr double max_seconds = 150.0;
    const double start = run.tracer.now();
    for (int i = 0;; ++i) {
        PassRecord p;
        p.index = i;
        p.traced = trace && i % 2 == 1;
        run.tracer.on = p.traced;
        run.tracer.pass = i;
        const Usage s0 = usage(RUSAGE_SELF), c0 = usage(RUSAGE_CHILDREN);
        pass_fn(p);
        const Usage s1 = usage(RUSAGE_SELF), c1 = usage(RUSAGE_CHILDREN);
        p.cpu_s = (s1.cpu_s - s0.cpu_s) + (c1.cpu_s - c0.cpu_s);
        p.nvcsw = (s1.nvcsw - s0.nvcsw) + (c1.nvcsw - c0.nvcsw);
        p.nivcsw = (s1.nivcsw - s0.nivcsw) + (c1.nivcsw - c0.nivcsw);
        run.passes.push_back(p);
        const double elapsed = run.tracer.now() - start;
        const double per_pass = elapsed / static_cast<double>(i + 1);
        const int done = i + 1;
        const bool enough = done >= min_passes && (!trace || done >= 2);
        if (elapsed >= max_seconds ||
            (enough && elapsed + per_pass > seconds))
            break;
    }
    run.tracer.on = false;
}

// --------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    bool record = false;
    int min_passes = 2;
    std::string server_bin;
    std::string work_dir = ".";
    std::string out;
};

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-')
        die("bad value for " + flag + ": '" + v + "'");
    return x;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = parseU64(a, value());
        else if (a == "--seconds")
            o.seconds = static_cast<double>(parseU64(a, value()));
        else if (a == "--trace")
            o.trace = parseU64(a, value()) != 0;
        else if (a == "--setup-only")
            o.setup_only = true;
        else if (a == "--record")
            o.record = true;
        else if (a == "--min-passes")
            o.min_passes = static_cast<int>(
                std::min<std::uint64_t>(parseU64(a, value()), 100));
        else if (a == "--server")
            o.server_bin = value();
        else if (a == "--work-dir")
            o.work_dir = value();
        else if (a == "--out")
            o.out = value();
        else
            die("unknown flag " + a);
    }
    return o;
}

/** Write "key digest" for every op any seed can draw. */
void
recordDigests(const Options &o)
{
    std::vector<std::pair<std::string, std::string>> lines;
    Tracer tr(Clock::now());
    tr.on = true;
    for (const SpecOp &op : specOps(nullptr)) {
        const std::string fused = specOpFused(op);
        const std::size_t s = tr.open("op");
        const std::string traced = specOpTraced(tr, s, op);
        tr.close(s);
        if (traced != fused)
            die("traced decomposition differs from the fused entry "
                "point on " + op.key);
        lines.emplace_back(op.key, digest(fused));
    }
    Run run(Clock::now());
    for (const SplashOp &op : splashOps(nullptr))
        lines.emplace_back(op.key, digest(splashOp(run, op)));
    for (const ServeKey &k : serveUniverse())
        lines.emplace_back(k.key(), digest(serveReference(k)));
    std::sort(lines.begin(), lines.end());
    std::ofstream f(o.out, std::ios::trunc);
    for (const auto &[key, d] : lines)
        f << key << " " << d << "\n";
    if (!f.flush())
        die("cannot write " + o.out);
}

int
runDriver(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    if (o.record) {
        if (o.out.empty())
            die("--record needs --out");
        recordDigests(o);
        return 0;
    }
    if (o.workload != "spec_pipeline" && o.workload != "splash_mp" &&
        o.workload != "serve_mix")
        die("unknown workload '" + o.workload + "'");

    if (o.out.empty() && !o.setup_only)
        die("--out is required");

    std::mt19937_64 rng(o.seed);
    Run run(Clock::now());
    if (o.workload == "spec_pipeline") {
        const std::vector<SpecOp> ops = specOps(&rng);
        if (o.setup_only)
            return 0;
        run.notes = ",\"ops_per_pass\":" + std::to_string(ops.size()) +
                    ",\"requests_per_pass\":" +
                    std::to_string(ops.size());
        measure(run, o.seconds, o.min_passes, o.trace, [&](PassRecord &p) {
            specPass(run, ops, p);
        });
    } else if (o.workload == "splash_mp") {
        const std::vector<SplashOp> ops = splashOps(&rng);
        if (o.setup_only)
            return 0;
        run.notes = ",\"ops_per_pass\":" + std::to_string(ops.size()) +
                    ",\"requests_per_pass\":" +
                    std::to_string(ops.size() * splashArchs().size()) +
                    ",\"pinned_cpu\":" + std::to_string(pinToOneCpu());
        measure(run, o.seconds, o.min_passes, o.trace,
                [&](PassRecord &p) { splashPass(run, ops, p); });
    } else {
        // Set-up here is a server start, timed inside the run.
        if (o.setup_only || o.server_bin.empty())
            die("serve_mix needs --server and has no --setup-only");
        const ServeContext ctx{o.server_bin, o.work_dir};
        run.notes = ",\"ops_per_pass\":" +
                    std::to_string(serve_requests_per_pass) +
                    ",\"requests_per_pass\":" +
                    std::to_string(serve_requests_per_pass);
        serveSetups(run, ctx, serve_setup_repeats);
        measure(run, o.seconds, o.min_passes, o.trace, [&](PassRecord &p) {
            servePass(run, ctx, rng, p);
        });
    }
    writeRecord(run, o.out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench-driver: refusing to run from a "
                         "non-optimised build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    try {
        return runDriver(argc, argv);
    } catch (const Failure &e) {
        std::fprintf(stderr, "perfbench-driver: %s\n", e.what());
        return 2;
    }
}
