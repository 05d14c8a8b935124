/**
 * @file
 * Shared runner and JSON renderer for the Figure 7/8 miss-rate
 * experiments.
 *
 * Both the one-shot bench binaries (fig7_icache_miss,
 * fig8_dcache_miss) and the resident experiment service (mw-server)
 * produce these figures; factoring the point execution and the JSON
 * text generation here is what makes "a cached server response is
 * byte-identical to the one-shot binary's --format=json output" a
 * structural property instead of a test hope: there is exactly one
 * piece of code that renders the bytes.
 */

#ifndef MEMWALL_WORKLOADS_MISSRATE_FIGURES_HH
#define MEMWALL_WORKLOADS_MISSRATE_FIGURES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/missrate.hh"

namespace memwall {

/** Which miss-rate figure a request regenerates. */
enum class MissRateFigure {
    ICache, ///< Figure 7: instruction caches
    DCache, ///< Figure 8: data caches (with victim-cache split)
};

/** "fig7_icache_miss" / "fig8_dcache_miss" (the JSON "bench" tag). */
const char *missRateFigureName(MissRateFigure fig);

/**
 * Resolve the measurement window exactly like the bench binaries do:
 * an explicit @p refs wins, otherwise quick/full defaults; warm-up is
 * a quarter of the measured window. Canonicalizing requests through
 * this function makes {"quick":true} and {"refs":400000} the same
 * cache entry.
 */
MissRateParams resolveMissRateParams(bool quick, std::uint64_t refs);

/**
 * Run every specSuite() point of @p fig serially and return the
 * results in suite order. The non-sampled miss-rate measurement is a
 * fixed function of (figure, params) — workload streams are seeded
 * from the workload proxies, not the sweep seed — so the output is
 * byte-identical no matter where or how often it runs.
 */
std::vector<WorkloadMissRates>
runMissRateFigure(MissRateFigure fig, const MissRateParams &params);

/**
 * Render @p all as the figure's --format=json document, byte for
 * byte what the one-shot binary prints (including the trailing
 * newline).
 */
std::string
missRateFigureJson(MissRateFigure fig,
                   const std::vector<WorkloadMissRates> &all);

/**
 * Run every specSuite() point of the figure under @p plan serially,
 * in suite order. The sampled measurement is a fixed function of
 * (params, plan) — stratified substreams are seeded from the plan,
 * not the sweep — so the result is position- and schedule-
 * independent, like the exhaustive runner above.
 */
std::vector<SampledWorkloadMissRates>
runMissRateFigureSampled(MissRateFigure fig,
                         const MissRateParams &params,
                         const SamplingPlan &plan);

/**
 * Render sampled results as the figure's --format=json document:
 * per-config {"mean": m, "half": h} objects plus the unit count.
 * A non-finite value (a single-unit sample has no variance, so its
 * half-width is NaN) renders as `null` — bare nan/inf would not be
 * JSON at all, and the service's strict parser rejects it.
 */
std::string missRateFigureSampledJson(
    MissRateFigure fig,
    const std::vector<SampledWorkloadMissRates> &all);

} // namespace memwall

#endif // MEMWALL_WORKLOADS_MISSRATE_FIGURES_HH
