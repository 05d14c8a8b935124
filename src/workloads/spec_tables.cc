#include "workloads/spec_tables.hh"

#include "common/logging.hh"
#include "harness/parallel_sweep.hh"
#include "mem/hierarchy.hh"
#include "workloads/json_text.hh"

namespace memwall {

using jsontext::appendf;

std::uint64_t
resolveTable1Refs(bool quick, std::uint64_t refs)
{
    return refs ? refs : (quick ? 500'000 : 6'000'000);
}

namespace {

struct Table1Point
{
    const char *workload;
    const char *machine;
    bool half_refs; ///< SPEC'92-like composite runs at refs/2
};

constexpr Table1Point table1_layout[table1_points] = {
    {"synopsys", "SS-5", false},   {"synopsys", "SS-10/61", false},
    {"130.li", "SS-5", true},      {"130.li", "SS-10/61", true},
    {"132.ijpeg", "SS-5", true},   {"132.ijpeg", "SS-10/61", true},
};

HierarchyConfig
table1Machine(const char *name)
{
    return std::string(name) == "SS-5" ? HierarchyConfig::ss5()
                                       : HierarchyConfig::ss10();
}

} // namespace

const char *
table1PointWorkload(std::size_t index)
{
    MW_ASSERT(index < table1_points, "table1 point out of range");
    return table1_layout[index].workload;
}

const char *
table1PointMachine(std::size_t index)
{
    MW_ASSERT(index < table1_points, "table1 point out of range");
    return table1_layout[index].machine;
}

std::uint64_t
table1PointRefs(std::size_t index, std::uint64_t refs)
{
    MW_ASSERT(index < table1_points, "table1 point out of range");
    return table1_layout[index].half_refs ? refs / 2 : refs;
}

MachineRun
runTable1Point(std::size_t index, std::uint64_t refs)
{
    MW_ASSERT(index < table1_points, "table1 point out of range");
    const HierarchyConfig config =
        table1Machine(table1_layout[index].machine);
    const SpecWorkload &w =
        findWorkload(table1_layout[index].workload);
    const std::uint64_t point_refs = table1PointRefs(index, refs);

    MemoryHierarchy machine(config);
    SyntheticWorkload source(w.proxy);

    std::uint64_t instructions = 0;
    double cycles = 0;
    const RefSink sink = [&](const MemRef &ref) {
        const RefKind kind = ref.type == RefType::IFetch
            ? RefKind::IFetch
            : (ref.type == RefType::Store ? RefKind::Store
                                          : RefKind::Load);
        const auto res = machine.access(kind, ref.addr);
        if (kind == RefKind::IFetch) {
            ++instructions;
            // Base issue slot (superscalar cores spend less than a
            // cycle per instruction) plus any fetch stall.
            cycles += 1.0 / config.issue_width +
                      static_cast<double>(res.latency - 1);
        } else {
            // Data latency beyond one cycle stalls the pipeline.
            cycles += static_cast<double>(res.latency - 1);
        }
    };
    // Warm up.
    source.generate(point_refs / 4, sink);
    instructions = 0;
    cycles = 0;
    source.generate(point_refs, sink);

    MachineRun out;
    out.cpi = instructions
        ? cycles / static_cast<double>(instructions)
        : 0.0;
    out.seconds_per_ginstr =
        out.cpi * 1e9 / (config.freq_mhz * 1e6);
    return out;
}

std::string
table1Json(const std::vector<MachineRun> &points)
{
    MW_ASSERT(points.size() == table1_points,
              "table1 renderer needs all six points");
    const MachineRun &syn5 = points[0];
    const MachineRun &syn10 = points[1];
    // "Spec'92-like" score: instructions/second on the composite,
    // normalised to the SS-5 = 64 of the paper's table.
    const double ips5 = 2.0 / (points[2].seconds_per_ginstr +
                               points[4].seconds_per_ginstr);
    const double ips10 = 2.0 / (points[3].seconds_per_ginstr +
                                points[5].seconds_per_ginstr);

    std::string out;
    appendf(out,
            "{\n  \"bench\": \"table1_ss5_vs_ss10\", "
            "\"sampled\": false,\n  \"machines\": [\n");
    appendf(out,
            "    {\"name\": \"SS-5\", \"spec92_like\": %s, "
            "\"synopsys_cpi\": %s, \"synopsys_s_per_ginstr\": %s, "
            "\"normalised_time\": %s},\n",
            jsontext::num(64.0).c_str(),
            jsontext::num(syn5.cpi).c_str(),
            jsontext::num(syn5.seconds_per_ginstr).c_str(),
            jsontext::num(1.0).c_str());
    appendf(out,
            "    {\"name\": \"SS-10/61\", \"spec92_like\": %s, "
            "\"synopsys_cpi\": %s, \"synopsys_s_per_ginstr\": %s, "
            "\"normalised_time\": %s}\n",
            jsontext::num(64.0 * ips10 / ips5).c_str(),
            jsontext::num(syn10.cpi).c_str(),
            jsontext::num(syn10.seconds_per_ginstr).c_str(),
            jsontext::num(syn10.seconds_per_ginstr /
                          syn5.seconds_per_ginstr)
                .c_str());
    out += "  ]\n}\n";
    return out;
}

SpecEvalParams
resolveSpecEvalParams(bool quick, std::uint64_t refs,
                      std::uint64_t seed)
{
    SpecEvalParams params;
    params.seed = seed;
    if (quick) {
        params.missrate.measured_refs = 400'000;
        params.missrate.warmup_refs = 100'000;
        params.gspn_instructions = 30'000;
    }
    if (refs) {
        params.missrate.measured_refs = refs;
        params.missrate.warmup_refs = refs / 4;
    }
    return params;
}

std::vector<const SpecWorkload *>
specTableWorkloads()
{
    std::vector<const SpecWorkload *> rows;
    for (const auto &w : specSuite())
        if (w.in_spec_tables)
            rows.push_back(&w);
    return rows;
}

std::uint64_t
specTablePointSeed(std::uint64_t seed, std::size_t index)
{
    return pointSeed(seed, index);
}

SpecEstimate
runSpecTablePoint(const SpecWorkload &workload, bool victim_cache,
                  const SpecEvalParams &params)
{
    return estimateIntegrated(workload, victim_cache, params);
}

const char *
specTableName(bool victim_cache)
{
    return victim_cache ? "table4_spec_estimates_vc"
                        : "table3_spec_estimates";
}

std::string
specTableJson(bool victim_cache,
              const std::vector<SpecEstimate> &rows)
{
    std::string out;
    appendf(out,
            "{\n  \"bench\": \"%s\", \"sampled\": false,\n"
            "  \"workloads\": [\n",
            specTableName(victim_cache));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SpecEstimate &est = rows[i];
        appendf(out,
                "    {\"name\": \"%s\", \"base_cpi\": %s, "
                "\"mem_cpi\": %s, \"total_cpi\": %s, "
                "\"spec_ratio\": %s, \"bank_utilisation\": %s}%s\n",
                est.name.c_str(),
                jsontext::num(est.cpi.base).c_str(),
                jsontext::num(est.cpi.memory).c_str(),
                jsontext::num(est.cpi.total()).c_str(),
                jsontext::num(est.spec_ratio).c_str(),
                jsontext::num(est.bank_utilisation).c_str(),
                i + 1 < rows.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace memwall
