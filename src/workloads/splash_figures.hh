/**
 * @file
 * Shared metadata, runners and JSON renderers for the SPLASH
 * figure experiments (Figures 13-17).
 *
 * The missrate_figures pattern applied to the multiprocessor
 * evaluation: the one-shot bench binaries (fig13_lu .. fig17_pthor)
 * and the resident experiment service both enumerate the same
 * (architecture x processor-count) points, execute them through
 * runSplashFigurePoint() and render the --format=json document
 * through the renderers here — so a served response is
 * byte-identical to the one-shot output by construction.
 */

#ifndef MEMWALL_WORKLOADS_SPLASH_FIGURES_HH
#define MEMWALL_WORKLOADS_SPLASH_FIGURES_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workloads/splash/splash.hh"

namespace memwall {

/** Which SPLASH figure a request regenerates. */
enum class SplashFigure {
    Fig13Lu,
    Fig14Mp3d,
    Fig15Ocean,
    Fig16Water,
    Fig17Pthor,
};

/** All figures, for enumeration. */
inline constexpr SplashFigure splash_figures[] = {
    SplashFigure::Fig13Lu, SplashFigure::Fig14Mp3d,
    SplashFigure::Fig15Ocean, SplashFigure::Fig16Water,
    SplashFigure::Fig17Pthor,
};

/** "fig13_lu" .. "fig17_pthor" (the JSON "bench" tag). */
const char *splashFigureName(SplashFigure fig);
/** "Figure 13" .. "Figure 17" (banner title). */
const char *splashFigureTitle(SplashFigure fig);
/** Kernel dispatch name: "lu", "mp3d", "ocean", "water", "pthor". */
const char *splashFigureKernel(SplashFigure fig);
/** Data-set description for the banner ("200x200-matrix", ...). */
const char *splashFigureDataset(SplashFigure fig);
/** The paper-scale problem factor (1.0 = the paper's data set). */
double splashFigureFullScale(SplashFigure fig);

/** quick = full scale / 6, exactly as the bench binaries resolve. */
double resolveSplashScale(SplashFigure fig, bool quick);

/** The three Section 6 architectures, in sweep order. */
const std::vector<std::string> &splashArchs();

/** NUMA machine for one architecture name at @p nodes nodes. */
NumaConfig splashMachineFor(const std::string &arch, unsigned nodes);

/** Upper bound on a requested node count (the figures' x-axis). */
constexpr unsigned splash_max_nodes = 16;

/**
 * Processor counts swept: the full {1, 2, 4, 8, 16} axis when
 * @p nodes is 0, or just {nodes} for a single-point run.
 */
std::vector<unsigned> splashCpuCounts(std::uint64_t nodes);

/**
 * Execute one (arch, ncpus) point of @p fig at problem @p scale;
 * @p plan attaches a sampled-simulation schedule (null = exhaustive).
 * Deterministic: the kernels seed from the problem, not the caller.
 * A sweep runs the points arch-major in splashArchs() order, then by
 * ascending processor count -- the order every renderer below
 * expects.
 */
SplashResult runSplashFigurePoint(SplashFigure fig,
                                  const std::string &arch,
                                  unsigned ncpus, double scale,
                                  const SamplingPlan *plan);

/**
 * Render exhaustive results as the figure's --format=json document
 * (trailing newline included). relative_time is normalised to the
 * first point (reference architecture, lowest processor count),
 * matching the text chart's normalisation.
 */
std::string splashFigureJson(SplashFigure fig, double scale,
                             std::uint64_t nodes,
                             const std::vector<SplashResult> &points);

/**
 * Render sampled results: mean data-access latency with its
 * confidence half-width per point. Non-finite moments (a one-unit
 * sample has no variance) render as `null`, never bare nan/inf.
 */
std::string
splashFigureSampledJson(SplashFigure fig, double scale,
                        std::uint64_t nodes,
                        const std::vector<SplashResult> &points);

/**
 * Whether every point computed the same answer as the first: the
 * architectures differ only in timing, so any checksum mismatch is a
 * simulator bug.
 */
bool splashChecksumsMatch(const std::vector<SplashResult> &points);

/**
 * Print the bench's text report below its banner: the Table 6
 * latencies, then the execution-time chart normalised to the first
 * point (or, for a sampled run under @p plan, the mean data-access
 * latency table) and the cross-architecture checksum verdict.
 */
void printSplashFigureText(std::ostream &os, SplashFigure fig,
                           double scale, std::uint64_t nodes,
                           const SamplingPlan *plan,
                           const std::vector<SplashResult> &points);

} // namespace memwall

#endif // MEMWALL_WORKLOADS_SPLASH_FIGURES_HH
