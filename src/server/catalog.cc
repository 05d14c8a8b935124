#include "server/catalog.hh"

#include <cinttypes>
#include <cstdio>

#include "checkpoint/codec.hh"
#include "common/logging.hh"
#include "workloads/missrate.hh"
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

CatalogPlan
missRatePlan(const RunRequest &run, ckpt::CheckpointStore *store)
{
    const MissRateParams params =
        resolveMissRateParams(run.quick, run.refs);
    const MissRateFigure fig = run.experiment == Experiment::Fig7
        ? MissRateFigure::ICache
        : MissRateFigure::DCache;
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
        out.render =
            [fig](const std::vector<std::shared_ptr<void>> &r) {
                return missRateFigureSampledJson(
                    fig, pointResults<SampledWorkloadMissRates>(r));
            };
        setCodec<SampledWorkloadMissRates>(out);
    } else {
        out.render =
            [fig](const std::vector<std::shared_ptr<void>> &r) {
                return missRateFigureJson(
                    fig, pointResults<WorkloadMissRates>(r));
            };
        setCodec<WorkloadMissRates>(out);
    }
    return out;
}

CatalogPlan
table1Plan(const RunRequest &run)
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

CatalogPlan
specTablePlan(const RunRequest &run)
{
    const bool vc = run.experiment == Experiment::Table4;
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
        point.compute = [w, vc, p] {
            return std::make_shared<SpecEstimate>(
                runSpecTablePoint(*w, vc, p));
        };
        out.points.push_back(std::move(point));
    }
    out.render = [vc](const std::vector<std::shared_ptr<void>> &r) {
        return specTableJson(vc, pointResults<SpecEstimate>(r));
    };
    return out;
}

CatalogPlan
splashPlan(const RunRequest &run)
{
    const SplashFigure fig = splashFigureOf(run.experiment);
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

} // namespace

CatalogPlan
buildCatalogPlan(const RunRequest &run,
                 const std::string &fault_scope,
                 ckpt::CheckpointStore *store)
{
    CatalogPlan plan;
    switch (run.experiment) {
    case Experiment::Fig7:
    case Experiment::Fig8:
        plan = missRatePlan(run, store);
        break;
    case Experiment::Table1:
        plan = table1Plan(run);
        break;
    case Experiment::Table3:
    case Experiment::Table4:
        plan = specTablePlan(run);
        break;
    default:
        plan = splashPlan(run);
        break;
    }
    if (!fault_scope.empty())
        // A scoped plan shares no unit with any other plan.
        for (CatalogPoint &p : plan.points)
            p.unit_key += "|scope=" + fault_scope;
    return plan;
}

} // namespace server
} // namespace memwall
