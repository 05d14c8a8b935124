#include "server/catalog.hh"

#include <cinttypes>
#include <cstdio>
#include <iterator>

#include "checkpoint/codec.hh"
#include "common/logging.hh"
#include "workloads/missrate.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/spec_suite.hh"
#include "workloads/spec_tables.hh"
#include "workloads/splash_figures.hh"

namespace memwall {
namespace server {

namespace {

/** snprintf into a std::string (unit keys are short and bounded). */
template <typename... Args>
std::string
keyf(const char *fmt, Args... args)
{
    char buf[192];
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    MW_ASSERT(n >= 0 && static_cast<std::size_t>(n) < sizeof(buf),
              "unit key overflow");
    return buf;
}

/** Journal point results of type @p T through its encodeResult /
 *  decodeResult pair. */
template <typename T>
void
setCodec(CatalogPlan &plan)
{
    plan.encode = [](ckpt::Encoder &e, const std::shared_ptr<void> &r) {
        encodeResult(e, *std::static_pointer_cast<T>(r));
    };
    plan.decode = [](ckpt::Decoder &d) -> std::shared_ptr<void> {
        auto r = std::make_shared<T>();
        return decodeResult(d, *r) ? r : nullptr;
    };
}

template <MissRateFigure fig>
CatalogPlan
missRatePlan(const RunRequest &run, ckpt::CheckpointStore *store)
{
    const MissRateParams params =
        resolveMissRateParams(run.quick, run.refs);
    const bool sampled = run.has_sample;
    const SamplingPlan plan = run.sample;

    CatalogPlan out;
    for (const SpecWorkload &w : specSuite()) {
        CatalogPoint p;
        // No figure and no request seed in the key: one
        // measureMissRates() pass computes both the fig7 and fig8
        // rows for a workload and never draws from the request seed,
        // so fig7/fig8 requests (at any seed) share these units.
        if (sampled)
            p.unit_key = keyf(
                "missrate-sampled|%s|measured=%" PRIu64
                "|warmup=%" PRIu64 "|plan=%016" PRIx64,
                w.name.c_str(), params.measured_refs,
                params.warmup_refs, samplingPlanHash(plan));
        else
            p.unit_key = keyf("missrate|%s|measured=%" PRIu64
                              "|warmup=%" PRIu64,
                              w.name.c_str(), params.measured_refs,
                              params.warmup_refs);
        p.label = "workload '" + w.name + "'";
        const SpecWorkload *wp = &w;
        if (sampled)
            p.compute = [wp, params, plan, store] {
                return std::make_shared<SampledWorkloadMissRates>(
                    measureMissRatesSampled(*wp, params, plan, store));
            };
        else
            p.compute = [wp, params] {
                return std::make_shared<WorkloadMissRates>(
                    measureMissRates(*wp, params));
            };
        out.points.push_back(std::move(p));
    }
    if (sampled) {
        out.render = [](const std::vector<std::shared_ptr<void>> &r) {
            return missRateFigureSampledJson(
                fig, pointResults<SampledWorkloadMissRates>(r));
        };
        setCodec<SampledWorkloadMissRates>(out);
    } else {
        out.render = [](const std::vector<std::shared_ptr<void>> &r) {
            return missRateFigureJson(
                fig, pointResults<WorkloadMissRates>(r));
        };
        setCodec<WorkloadMissRates>(out);
    }
    return out;
}

CatalogPlan
table1Plan(const RunRequest &run, ckpt::CheckpointStore *)
{
    const std::uint64_t refs =
        resolveTable1Refs(run.quick, run.refs);
    CatalogPlan out;
    for (std::size_t i = 0; i < table1_points; ++i) {
        CatalogPoint p;
        // The point is fully determined by (index, refs): the
        // hierarchy replay draws nothing from the request seed.
        p.unit_key = keyf("table1|%zu|refs=%" PRIu64, i, refs);
        p.label = std::string("table1 point '") +
                  table1PointWorkload(i) + " on " +
                  table1PointMachine(i) + "'";
        p.compute = [i, refs] {
            return std::make_shared<MachineRun>(
                runTable1Point(i, refs));
        };
        out.points.push_back(std::move(p));
    }
    out.render = [](const std::vector<std::shared_ptr<void>> &r) {
        return table1Json(pointResults<MachineRun>(r));
    };
    return out;
}

template <bool vc>
CatalogPlan
specTablePlan(const RunRequest &run, ckpt::CheckpointStore *)
{
    const SpecEvalParams base =
        resolveSpecEvalParams(run.quick, run.refs, run.seed);
    CatalogPlan out;
    const auto workloads = specTableWorkloads();
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const SpecWorkload *w = workloads[i];
        SpecEvalParams p = base;
        // The same splitmix64 per-point stream ParallelSweep hands
        // the bench binary's point i — reproducing its Monte-Carlo
        // draws exactly.
        p.seed = specTablePointSeed(run.seed, i);
        CatalogPoint point;
        point.unit_key = keyf(
            "spec|%s|vc=%d|measured=%" PRIu64 "|warmup=%" PRIu64
            "|gspn=%" PRIu64 "|pointseed=%" PRIu64,
            w->name.c_str(), vc ? 1 : 0,
            base.missrate.measured_refs, base.missrate.warmup_refs,
            base.gspn_instructions, p.seed);
        point.label = "workload '" + w->name + "'";
        point.compute = [w, p] {
            return std::make_shared<SpecEstimate>(
                runSpecTablePoint(*w, vc, p));
        };
        out.points.push_back(std::move(point));
    }
    out.render = [](const std::vector<std::shared_ptr<void>> &r) {
        return specTableJson(vc, pointResults<SpecEstimate>(r));
    };
    return out;
}

CatalogPlan
splashPlan(const RunRequest &run, ckpt::CheckpointStore *)
{
    const SplashFigure fig = *catalogEntry(run.experiment).splash;
    const double scale = resolveSplashScale(fig, run.quick);
    const std::uint64_t nodes = run.nodes;
    const bool sampled = run.has_sample;
    const SamplingPlan plan = run.sample;

    CatalogPlan out;
    for (const std::string &arch : splashArchs()) {
        for (unsigned ncpus : splashCpuCounts(nodes)) {
            CatalogPoint p;
            // The kernels seed from the problem, not the request
            // seed, so the unit is (kernel, arch, cpus, scale) — a
            // fig13 full-axis sweep and a fig13 --nodes=4 run share
            // their common point.
            if (sampled)
                p.unit_key = keyf(
                    "splash-sampled|%s|%s|cpus=%u|scale=%.9g"
                    "|plan=%016" PRIx64,
                    splashFigureKernel(fig), arch.c_str(), ncpus,
                    scale, samplingPlanHash(plan));
            else
                p.unit_key =
                    keyf("splash|%s|%s|cpus=%u|scale=%.9g",
                         splashFigureKernel(fig), arch.c_str(),
                         ncpus, scale);
            p.label = std::string(splashFigureKernel(fig)) +
                      " arch=" + arch +
                      " cpus=" + std::to_string(ncpus);
            p.compute = [fig, arch, ncpus, scale, sampled, plan] {
                return std::make_shared<SplashResult>(
                    runSplashFigurePoint(fig, arch, ncpus, scale,
                                         sampled ? &plan : nullptr));
            };
            out.points.push_back(std::move(p));
        }
    }
    if (sampled)
        out.render = [fig, scale, nodes](
                         const std::vector<std::shared_ptr<void>> &r) {
            return splashFigureSampledJson(fig, scale, nodes,
                                           pointResults<SplashResult>(r));
        };
    else
        out.render = [fig, scale, nodes](
                         const std::vector<std::shared_ptr<void>> &r) {
            return splashFigureJson(fig, scale, nodes,
                                    pointResults<SplashResult>(r));
        };
    return out;
}

constexpr std::initializer_list<const char *> miss_rate_flags = {
    "--jobs", "--format", "--sample", "--ckpt-dir", "--resume"};
constexpr std::initializer_list<const char *> table_flags = {
    "--jobs", "--format"};
constexpr std::initializer_list<const char *> splash_flags = {
    "--jobs", "--format", "--sample", "--nodes"};

/** The catalog, in Experiment order. Columns: experiment, name,
 *  refs, sample, nodes, bench flags, plan builder, SPLASH figure. */
constexpr CatalogEntry catalog_table[] = {
    {Experiment::Fig7, "fig7", true, true, false, miss_rate_flags,
     missRatePlan<MissRateFigure::ICache>, std::nullopt},
    {Experiment::Fig8, "fig8", true, true, false, miss_rate_flags,
     missRatePlan<MissRateFigure::DCache>, std::nullopt},
    {Experiment::Table1, "table1", true, false, false, table_flags,
     table1Plan, std::nullopt},
    {Experiment::Table3, "table3", true, false, false, table_flags,
     specTablePlan<false>, std::nullopt},
    {Experiment::Table4, "table4", true, false, false, table_flags,
     specTablePlan<true>, std::nullopt},
    {Experiment::Fig13Lu, "fig13", false, true, true, splash_flags,
     splashPlan, SplashFigure::Fig13Lu},
    {Experiment::Fig14Mp3d, "fig14", false, true, true, splash_flags,
     splashPlan, SplashFigure::Fig14Mp3d},
    {Experiment::Fig15Ocean, "fig15", false, true, true, splash_flags,
     splashPlan, SplashFigure::Fig15Ocean},
    {Experiment::Fig16Water, "fig16", false, true, true, splash_flags,
     splashPlan, SplashFigure::Fig16Water},
    {Experiment::Fig17Pthor, "fig17", false, true, true, splash_flags,
     splashPlan, SplashFigure::Fig17Pthor},
};

} // namespace

std::span<const CatalogEntry>
catalog()
{
    return catalog_table;
}

const CatalogEntry &
catalogEntry(Experiment exp)
{
    const auto index = static_cast<std::size_t>(exp);
    MW_ASSERT(index < std::size(catalog_table) &&
                  catalog_table[index].experiment == exp,
              "experiment missing from the catalog");
    return catalog_table[index];
}

std::string
catalogNames()
{
    std::string names;
    for (const CatalogEntry &e : catalog_table) {
        if (!names.empty())
            names += ' ';
        names += e.name;
    }
    return names;
}

const char *
experimentName(Experiment exp)
{
    return catalogEntry(exp).name;
}

bool
parseExperimentName(const std::string &name, Experiment &out)
{
    for (const CatalogEntry &e : catalog_table) {
        if (name == e.name) {
            out = e.experiment;
            return true;
        }
    }
    return false;
}

bool
validateRun(const RunRequest &run, ErrorCode &code,
            std::string &detail)
{
    const CatalogEntry &entry = catalogEntry(run.experiment);
    const std::string name = entry.name;
    if (run.has_sample && !entry.takes_sample) {
        code = ErrorCode::BadParam;
        detail = "\"sample\" does not apply to experiment \"" + name +
                 "\" (tables are deterministic full runs)";
        return false;
    }
    if (run.nodes != 0 && !entry.takes_nodes) {
        code = ErrorCode::BadParam;
        detail = "\"nodes\" only applies to the SPLASH figures, not "
                 "\"" + name + "\"";
        return false;
    }
    if (run.nodes > splash_max_nodes) {
        code = ErrorCode::BadParam;
        detail = "\"nodes\" of " + std::to_string(run.nodes) +
                 " exceeds the maximum of " +
                 std::to_string(splash_max_nodes);
        return false;
    }
    if (run.refs != 0 && !entry.takes_refs) {
        code = ErrorCode::BadParam;
        detail = "\"refs\" does not apply to experiment \"" + name +
                 "\" (SPLASH problem size is set by \"quick\")";
        return false;
    }
    return true;
}

CatalogPlan
buildCatalogPlan(const RunRequest &run,
                 const std::string &fault_scope,
                 ckpt::CheckpointStore *store)
{
    CatalogPlan plan = catalogEntry(run.experiment).build(run, store);
    if (!fault_scope.empty())
        // A scoped plan shares no unit with any other plan.
        for (CatalogPoint &p : plan.points)
            p.unit_key += "|scope=" + fault_scope;
    return plan;
}

std::string
canonicalRunKey(const RunRequest &run, const CatalogPlan &plan)
{
    // One line of header, then one line per unit key: unit keys never
    // hold a newline, so distinct plans never spell the same key.
    std::string key = std::string(experimentName(run.experiment)) +
                      "|seed=" + std::to_string(run.seed) +
                      "|build=" + gitDescribe();
    for (const CatalogPoint &p : plan.points) {
        key += '\n';
        key += p.unit_key;
    }
    return key;
}

} // namespace server
} // namespace memwall
