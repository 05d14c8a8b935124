/**
 * @file
 * validation_static_crosscheck — hold the static workload
 * characterizer to account against real execution.
 *
 * For every guest kernel, the characterizer predicts the dynamic
 * instruction mix, the stride of each load/store site, and the
 * touched-memory footprint from the CFG/dataflow analysis alone;
 * the interpreter then runs the same program, counting per-pc
 * instruction classes, per-site effective-address deltas, and
 * touched bytes. The bench fails (exit 1) if any prediction
 * disagrees with the measurement beyond the kernel's declared
 * tolerance — this is the static-analysis analogue of the CPI
 * crosscheck: two independent paths to the same numbers.
 *
 * Checks per kernel:
 *   total   |static - dynamic| instruction count within mix_tol
 *   mix     every class count within mix_tol of the dynamic total
 *   stride  each Strided/Constant site's predicted stride is the
 *           dominant dynamic delta, covering >= stride_frac of the
 *           site's references (Unknown sites are exempt)
 *   footprint  union of predicted regions within footprint_tol of
 *           touched bytes (a statically incomplete footprint must
 *           instead be a subset: static <= dynamic)
 *   bound   the abstract interpreter's footprint upper bound exists
 *           (every site carries an address interval, even the
 *           data-dependent ones affine analysis calls Unknown) and
 *           covers the dynamically touched bytes: bound >= dynamic
 *
 * `--format=json` emits the per-kernel deltas machine-readably.
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.hh"
#include "analysis/charact.hh"
#include "analysis/lint.hh"
#include "bench_util.hh"
#include "exec/fast_executor.hh"
#include "isa/assembler.hh"
#include "isa/interpreter.hh"
#include "mem/backing_store.hh"

using namespace memwall;

namespace {

struct Kernel
{
    const char *name;
    const char *path;  ///< relative to the repository root
    double mix_tol;    ///< fraction of the dynamic total
    double stride_frac;
    double footprint_tol;
};

// All kernels are built to be statically analysable, so the
// tolerances are tight; they absorb only boundary effects (loop
// prologue references, nest-edge strides).
const Kernel kKernels[] = {
    {"dotproduct", "tools/samples/dotproduct.s", 0.01, 0.90, 0.02},
    {"saxpy", "bench/kernels/saxpy.mw32s", 0.01, 0.90, 0.02},
    {"lu", "bench/kernels/lu.mw32s", 0.01, 0.90, 0.02},
    {"ocean", "bench/kernels/ocean.mw32s", 0.01, 0.85, 0.02},
    {"water", "bench/kernels/water.mw32s", 0.01, 0.90, 0.02},
    // relu's predicted mix leans on the 50/50 branch heuristic;
    // the alternating-sign input makes it exact, but declare room.
    {"relu", "bench/kernels/relu.mw32s", 0.02, 0.90, 0.02},
    // histogram's bucket accesses are data-dependent: stride and
    // footprint checks degrade to Unknown-exempt / subset mode.
    {"histogram", "bench/kernels/histogram.mw32s", 0.01, 0.90, 0.02},
};

enum class Cls { Alu, Load, Store, Branch, Jump, Other };

Cls
classOf(const Instruction &inst, bool decoded)
{
    if (!decoded)
        return Cls::Other;
    if (isLoad(inst.op))
        return Cls::Load;
    if (isStore(inst.op))
        return Cls::Store;
    if (isBranch(inst.op))
        return Cls::Branch;
    if (inst.op == Opcode::Jal || inst.op == Opcode::Jalr)
        return Cls::Jump;
    if (inst.op == Opcode::Halt || inst.op == Opcode::Sync)
        return Cls::Other;
    return Cls::Alu;
}

struct SiteStats
{
    std::uint64_t refs = 0;
    Addr last = 0;
    std::map<std::int64_t, std::uint64_t> deltas;
};

struct KernelResult
{
    std::string name;
    double static_total = 0, dynamic_total = 0;
    double stat[6] = {}, dyn[6] = {};
    std::uint64_t static_footprint = 0, dynamic_footprint = 0;
    bool footprint_complete = true;
    std::uint64_t footprint_bound = 0;
    bool footprint_bounded = false;
    struct Site
    {
        unsigned line;
        std::string kind;
        std::int64_t static_stride;
        std::int64_t dominant_delta;
        double match_frac;
        bool ok;
    };
    std::vector<Site> sites;
    std::vector<std::string> failures;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

KernelResult
runKernel(const Kernel &k)
{
    KernelResult r;
    r.name = k.name;

    const std::string path =
        std::string(MEMWALL_SOURCE_DIR) + "/" + k.path;
    AssembledProgram asmprog = assemble(slurp(path), k.path);
    if (!asmprog.ok()) {
        for (const auto &e : asmprog.errors)
            std::fprintf(stderr, "%s\n", e.format(k.path).c_str());
        std::exit(2);
    }

    // Static side.
    Program prog = Program::build(asmprog);
    Cfg cfg = Cfg::build(prog);
    Dataflow df = Dataflow::build(prog, cfg);
    StaticCharacterization chr = characterize(prog, cfg, df);
    AbsInt ai = AbsInt::build(prog, cfg, df, chr);
    annotateRanges(prog, chr, ai);

    r.stat[0] = chr.counts.alu;
    r.stat[1] = chr.counts.load;
    r.stat[2] = chr.counts.store;
    r.stat[3] = chr.counts.branch;
    r.stat[4] = chr.counts.jump;
    r.stat[5] = chr.counts.other;
    r.static_total = chr.counts.total();
    r.static_footprint = chr.footprint_bytes;
    r.footprint_complete = chr.footprint_known;
    r.footprint_bound = chr.footprint_bound_bytes;
    r.footprint_bounded = chr.footprint_bounded;

    // Dynamic side: per-pc class counts, per-site EA deltas,
    // touched-byte intervals.
    BackingStore mem;
    asmprog.loadInto(mem);
    // Fast path by default; MEMWALL_FASTPATH=0 falls back to the
    // plain interpreter with byte-identical output (CI diffs both).
    FastExecutor cpu(mem, asmprog);
    cpu.setPc(asmprog.entry);

    std::map<Addr, Cls> cls_of;
    for (const InstrRecord &rec : prog.instrs())
        cls_of[rec.addr] = classOf(rec.inst, rec.decoded);

    std::uint64_t dyn_cls[6] = {};
    std::map<Addr, SiteStats> sites;
    std::map<Addr, Addr> touched;  // begin -> end, disjoint

    auto touch = [&](Addr begin, Addr end) {
        auto it = touched.upper_bound(begin);
        if (it != touched.begin()) {
            --it;
            if (it->second >= begin) {
                begin = it->first;
                end = std::max(end, it->second);
                it = touched.erase(it);
            } else {
                ++it;
            }
        }
        while (it != touched.end() && it->first <= end) {
            end = std::max(end, it->second);
            it = touched.erase(it);
        }
        touched[begin] = end;
    };

    RefSink sink = [&](const MemRef &ref) {
        if (ref.type == RefType::IFetch) {
            auto it = cls_of.find(ref.pc);
            ++dyn_cls[static_cast<int>(
                it != cls_of.end() ? it->second : Cls::Other)];
            return;
        }
        SiteStats &s = sites[ref.pc];
        if (s.refs > 0)
            ++s.deltas[static_cast<std::int64_t>(ref.addr) -
                       static_cast<std::int64_t>(s.last)];
        s.last = ref.addr;
        ++s.refs;
        touch(ref.addr, ref.addr + ref.size);
    };

    StopReason stop = cpu.run(10'000'000, &sink);
    if (stop != StopReason::Halted)
        r.failures.push_back("kernel did not halt cleanly");

    for (int c = 0; c < 6; ++c) {
        r.dyn[c] = static_cast<double>(dyn_cls[c]);
        r.dynamic_total += r.dyn[c];
    }
    for (auto &[b, e] : touched)
        r.dynamic_footprint += e - b;

    // --- Checks ------------------------------------------------
    static const char *cls_names[6] = {"alu",    "load", "store",
                                       "branch", "jump", "other"};
    const double tol = k.mix_tol * std::max(r.dynamic_total, 1.0);
    if (std::abs(r.static_total - r.dynamic_total) > tol)
        r.failures.push_back("total instruction count off: static " +
                             std::to_string(r.static_total) +
                             " vs dynamic " +
                             std::to_string(r.dynamic_total));
    for (int c = 0; c < 6; ++c)
        if (std::abs(r.stat[c] - r.dyn[c]) > tol)
            r.failures.push_back(
                std::string(cls_names[c]) + " count off: static " +
                std::to_string(r.stat[c]) + " vs dynamic " +
                std::to_string(r.dyn[c]));

    for (const MemOpChar &m : chr.memops) {
        Addr pc = prog.instr(m.instr).addr;
        auto it = sites.find(pc);
        if (it == sites.end())
            continue;  // site never executed (e.g. cold arm)
        const SiteStats &s = it->second;

        KernelResult::Site site;
        site.line = m.line;
        site.ok = true;
        site.static_stride =
            m.kind == MemOpChar::Kind::Strided ? m.stride : 0;
        site.kind = m.kind == MemOpChar::Kind::Constant ? "constant"
                    : m.kind == MemOpChar::Kind::Strided
                        ? "strided"
                        : "unknown";
        site.dominant_delta = 0;
        std::uint64_t best = 0, ndeltas = 0, matching = 0;
        // A site on a conditional path inside its loop skips
        // iterations, so any multiple of the stride is consistent
        // with the prediction.
        auto consistent = [&](std::int64_t d) {
            if (d == site.static_stride)
                return true;
            return m.conditional && site.static_stride != 0 &&
                   d % site.static_stride == 0;
        };
        for (auto &[d, n] : s.deltas) {
            ndeltas += n;
            if (consistent(d))
                matching += n;
            if (n > best) {
                best = n;
                site.dominant_delta = d;
            }
        }
        site.match_frac =
            ndeltas == 0 ? 1.0
                         : static_cast<double>(matching) /
                               static_cast<double>(ndeltas);

        if (m.kind != MemOpChar::Kind::Unknown && ndeltas > 0) {
            if (!consistent(site.dominant_delta) ||
                site.match_frac < k.stride_frac) {
                site.ok = false;
                r.failures.push_back(
                    "line " + std::to_string(m.line) +
                    ": predicted stride " +
                    std::to_string(site.static_stride) +
                    " but dominant dynamic delta is " +
                    std::to_string(site.dominant_delta) + " (" +
                    std::to_string(site.match_frac) + " match)");
            }
        }
        r.sites.push_back(site);
    }

    const double fp_dyn = static_cast<double>(r.dynamic_footprint);
    const double fp_stat = static_cast<double>(r.static_footprint);
    if (r.footprint_complete) {
        if (std::abs(fp_stat - fp_dyn) >
            k.footprint_tol * std::max(fp_dyn, 1.0))
            r.failures.push_back(
                "footprint off: static " +
                std::to_string(r.static_footprint) +
                " vs dynamic " +
                std::to_string(r.dynamic_footprint));
    } else if (r.static_footprint > r.dynamic_footprint) {
        r.failures.push_back(
            "incomplete static footprint exceeds dynamic: " +
            std::to_string(r.static_footprint) + " > " +
            std::to_string(r.dynamic_footprint));
    }

    // Every corpus kernel must get a footprint upper bound from the
    // abstract interpreter — including the data-dependent sites the
    // affine analysis leaves Unknown — and a sound bound can never
    // undercut what execution actually touched.
    if (!r.footprint_bounded)
        r.failures.push_back(
            "abstract interpreter left the footprint unbounded");
    else if (r.footprint_bound < r.dynamic_footprint)
        r.failures.push_back(
            "footprint bound below dynamic: " +
            std::to_string(r.footprint_bound) + " < " +
            std::to_string(r.dynamic_footprint));

    return r;
}

void
printJson(const std::vector<KernelResult> &results, int failed)
{
    static const char *cls_names[6] = {"alu",    "load", "store",
                                       "branch", "jump", "other"};
    std::printf("{\n  \"bench\": \"validation_static_crosscheck\",\n"
                "  \"kernels\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const KernelResult &r = results[i];
        std::printf("    {\"name\": \"%s\", \"static_total\": %.0f, "
                    "\"dynamic_total\": %.0f,\n     \"mix\": {",
                    r.name.c_str(), r.static_total, r.dynamic_total);
        for (int c = 0; c < 6; ++c)
            std::printf("%s\"%s\": {\"static\": %.1f, \"dynamic\": "
                        "%.0f}",
                        c ? ", " : "", cls_names[c], r.stat[c],
                        r.dyn[c]);
        std::printf("},\n     \"footprint\": {\"static\": %" PRIu64
                    ", \"dynamic\": %" PRIu64 ", \"complete\": %s, "
                    "\"bound\": %" PRIu64
                    ", \"bounded\": %s},\n     \"memops\": [",
                    r.static_footprint, r.dynamic_footprint,
                    r.footprint_complete ? "true" : "false",
                    r.footprint_bound,
                    r.footprint_bounded ? "true" : "false");
        for (std::size_t j = 0; j < r.sites.size(); ++j) {
            const auto &s = r.sites[j];
            std::printf("%s\n      {\"line\": %u, \"kind\": \"%s\", "
                        "\"static_stride\": %lld, "
                        "\"dominant_delta\": %lld, "
                        "\"match_frac\": %.3f, \"ok\": %s}",
                        j ? "," : "", s.line, s.kind.c_str(),
                        static_cast<long long>(s.static_stride),
                        static_cast<long long>(s.dominant_delta),
                        s.match_frac, s.ok ? "true" : "false");
        }
        std::printf("],\n     \"failures\": [");
        for (std::size_t j = 0; j < r.failures.size(); ++j)
            std::printf("%s\"%s\"", j ? ", " : "",
                        r.failures[j].c_str());
        std::printf("]}%s\n",
                    i + 1 < results.size() ? "," : "");
    }
    std::printf("  ],\n  \"failed\": %d\n}\n", failed);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = benchutil::parse(argc, argv, {"--format"});
    if (!opt.json())
        benchutil::banner(
            "static characterization vs execution crosscheck", opt);

    std::vector<KernelResult> results;
    int failed = 0;
    for (const Kernel &k : kKernels) {
        KernelResult r = runKernel(k);
        if (!r.failures.empty())
            ++failed;
        results.push_back(std::move(r));
    }

    if (opt.json()) {
        printJson(results, failed);
    } else {
        std::printf("%-12s %10s %10s %10s %8s %s\n", "kernel",
                    "static", "dynamic", "footprint", "sites",
                    "status");
        for (const KernelResult &r : results) {
            std::printf("%-12s %10.0f %10.0f %5" PRIu64 "/%-5" PRIu64
                        " %6zu  %s\n",
                        r.name.c_str(), r.static_total,
                        r.dynamic_total, r.static_footprint,
                        r.dynamic_footprint, r.sites.size(),
                        r.failures.empty() ? "ok" : "FAIL");
            for (const std::string &f : r.failures)
                std::printf("    %s\n", f.c_str());
        }
        std::printf("\n%d of %zu kernels failed\n", failed,
                    results.size());
    }
    return failed != 0 ? 1 : 0;
}
