#include "workloads/missrate_figures.hh"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"
#include "workloads/json_text.hh"

namespace memwall {

using jsontext::appendf;

const char *
missRateFigureName(MissRateFigure fig)
{
    switch (fig) {
    case MissRateFigure::ICache:
        return "fig7_icache_miss";
    case MissRateFigure::DCache:
        return "fig8_dcache_miss";
    }
    MW_PANIC("unreachable figure kind");
}

MissRateParams
resolveMissRateParams(bool quick, std::uint64_t refs)
{
    MissRateParams params;
    params.measured_refs =
        refs ? refs : (quick ? 400'000 : 4'000'000);
    params.warmup_refs = params.measured_refs / 4;
    return params;
}

std::vector<WorkloadMissRates>
runMissRateFigure(MissRateFigure fig, const MissRateParams &params)
{
    (void)fig; // both figures measure the same comparison set
    std::vector<WorkloadMissRates> all;
    for (const auto &w : specSuite())
        all.push_back(measureMissRates(w, params));
    return all;
}

std::string
missRateFigureJson(MissRateFigure fig,
                   const std::vector<WorkloadMissRates> &all)
{
    using namespace cachelabels;
    std::string out;
    appendf(out,
            "{\n  \"bench\": \"%s\", \"sampled\": false,\n"
            "  \"workloads\": [\n",
            missRateFigureName(fig));
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto &r = all[i];
        if (fig == MissRateFigure::ICache) {
            appendf(out,
                    "    {\"name\": \"%s\", \"proposed\": %.9g, "
                    "\"conv8\": %.9g, \"conv16\": %.9g, "
                    "\"conv32\": %.9g, \"conv64\": %.9g}%s\n",
                    r.workload.c_str(),
                    r.icache(proposed).missRate(),
                    r.icache(conv8).missRate(),
                    r.icache(conv16).missRate(),
                    r.icache(conv32).missRate(),
                    r.icache(conv64).missRate(),
                    i + 1 < all.size() ? "," : "");
        } else {
            const auto &pv = r.dcache(proposed_vc);
            appendf(out,
                    "    {\"name\": \"%s\", \"proposed\": %.9g, "
                    "\"conv16\": %.9g, \"conv16w2\": %.9g, "
                    "\"conv64\": %.9g, \"conv256w2\": %.9g, "
                    "\"proposed_vc\": %.9g, \"vc_load_miss\": %.9g, "
                    "\"vc_store_miss\": %.9g}%s\n",
                    r.workload.c_str(),
                    r.dcache(proposed).missRate(),
                    r.dcache(conv16).missRate(),
                    r.dcache(conv16w2).missRate(),
                    r.dcache(conv64).missRate(),
                    r.dcache(conv256w2).missRate(),
                    pv.missRate(), pv.stats.loadMissRate(),
                    pv.stats.storeMissRate(),
                    i + 1 < all.size() ? "," : "");
        }
    }
    out += "  ]\n}\n";
    return out;
}

std::vector<SampledWorkloadMissRates>
runMissRateFigureSampled(MissRateFigure fig,
                         const MissRateParams &params,
                         const SamplingPlan &plan)
{
    (void)fig; // both figures measure the same comparison set
    std::vector<SampledWorkloadMissRates> all;
    for (const auto &w : specSuite())
        all.push_back(measureMissRatesSampled(w, params, plan));
    return all;
}

namespace {

/** One sampled config as `"key": {"mean": m, "half": h}`; a
 *  non-finite moment renders as null, never bare nan/inf. */
void
appendSampledField(std::string &out, const char *key,
                   const SampledCacheMissRate &r, bool last = false)
{
    appendf(out, "\"%s\": {\"mean\": %s, \"half\": %s}%s", key,
            jsontext::num(r.mean()).c_str(),
            jsontext::num(r.ci.half_width).c_str(),
            last ? "" : ", ");
}

} // namespace

std::string
missRateFigureSampledJson(
    MissRateFigure fig, const std::vector<SampledWorkloadMissRates> &all)
{
    using namespace cachelabels;
    std::string out;
    appendf(out,
            "{\n  \"bench\": \"%s\", \"sampled\": true,\n"
            "  \"workloads\": [\n",
            missRateFigureName(fig));
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto &r = all[i];
        appendf(out, "    {\"name\": \"%s\", ", r.workload.c_str());
        if (fig == MissRateFigure::ICache) {
            appendSampledField(out, "proposed", r.icache(proposed));
            appendSampledField(out, "conv8", r.icache(conv8));
            appendSampledField(out, "conv16", r.icache(conv16));
            appendSampledField(out, "conv32", r.icache(conv32));
            appendSampledField(out, "conv64", r.icache(conv64));
        } else {
            appendSampledField(out, "proposed", r.dcache(proposed));
            appendSampledField(out, "conv16", r.dcache(conv16));
            appendSampledField(out, "conv16w2", r.dcache(conv16w2));
            appendSampledField(out, "conv64", r.dcache(conv64));
            appendSampledField(out, "conv256w2", r.dcache(conv256w2));
            appendSampledField(out, "proposed_vc",
                               r.dcache(proposed_vc));
        }
        appendf(out, "\"units\": %" PRIu64 "}%s\n", r.units,
                i + 1 < all.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace memwall
