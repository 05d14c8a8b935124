/**
 * @file
 * The experiment catalog: the one place that knows how the ten
 * servable experiments differ.
 *
 * Each experiment is one CatalogEntry: its wire name, the optional
 * request fields it takes, its one-shot bench's extra flags, its plan
 * builder and, for SPLASH, its figure. experimentName(),
 * parseExperimentName(), validateRun(), the bench flag lists and the
 * catalog name lists are all lookups into that table.
 *
 * buildCatalogPlan() decomposes a request into independent compute
 * points — the same points, in the same order, with the same
 * per-point seeding as the one-shot bench binary — plus a renderer
 * that turns the completed point results into the binary's
 * --format=json document. The server schedules the points; the
 * catalog guarantees that what gets served is byte-identical to the
 * binary's output.
 *
 * Every point also carries a `unit_key` naming the computation
 * itself (workload, resolved window, per-point seed — but NOT the
 * experiment or request seed when the computation ignores them).
 * Points from different requests with equal unit keys are guaranteed
 * to produce interchangeable results, which is what lets the
 * batching layer run one computation for all of them: fig7 and fig8
 * at the same window both need measureMissRates() per workload — one
 * pass serves both figures.
 *
 * The cache key, canonicalRunKey(), is derived from the plan: the
 * experiment, seed and build, then every unit key. A parameter that
 * reaches a point therefore always reaches the key.
 *
 * The one-shot catalog benches run the same plans through
 * bench/catalog_driver.hh, so this file is the only definition of
 * these ten experiments.
 */

#ifndef MEMWALL_SERVER_CATALOG_HH
#define MEMWALL_SERVER_CATALOG_HH

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "server/protocol.hh"
#include "workloads/splash_figures.hh"

namespace memwall {
namespace ckpt {
class CheckpointStore;
class Decoder;
class Encoder;
} // namespace ckpt

namespace server {

/** One independent computation of an experiment. */
struct CatalogPoint
{
    /** Names the computation for cross-request sharing: equal keys
     *  compute equal results (type included). */
    std::string unit_key;
    /** Human-readable point name for failure details
     *  ("workload '130.li'", "lu arch=reference cpus=4", ...). */
    std::string label;
    /** Execute the point. Runs on a pool worker; may throw. The
     *  pointee type is fixed by the experiment and understood by the
     *  plan's render(). */
    std::function<std::shared_ptr<void>()> compute;
};

/** A request decomposed into points plus its document renderer. */
struct CatalogPlan
{
    std::vector<CatalogPoint> points;
    /** Render the finished points (plan order, all non-null) into
     *  the --format=json document, trailing newline included. */
    std::function<std::string(
        const std::vector<std::shared_ptr<void>> &)>
        render;
    /** Journal codec for one point result (the bench's --resume).
     *  Set for the miss-rate figures only; decode returns null on
     *  malformed bytes. */
    std::function<void(ckpt::Encoder &, const std::shared_ptr<void> &)>
        encode;
    std::function<std::shared_ptr<void>(ckpt::Decoder &)> decode;
};

/** Downcast finished point results (plan order, all non-null) back
 *  to the experiment's concrete point type. */
template <typename T>
std::vector<T>
pointResults(const std::vector<std::shared_ptr<void>> &results)
{
    std::vector<T> out;
    out.reserve(results.size());
    for (const auto &r : results) {
        MW_ASSERT(r != nullptr, "render before all points finished");
        out.push_back(*std::static_pointer_cast<T>(r));
    }
    return out;
}

/** Everything that tells one catalog experiment from another. */
struct CatalogEntry
{
    Experiment experiment;
    /** Wire name: "fig7", "table3", "fig15", ... */
    const char *name;
    /** Optional request fields the experiment reads; validateRun()
     *  rejects the others by name. */
    bool takes_refs;
    bool takes_sample;
    bool takes_nodes;
    /** The one-shot bench's flags beyond bench_util's common set. */
    std::initializer_list<const char *> bench_flags;
    /** Decompose a validated request; see buildCatalogPlan(). */
    CatalogPlan (*build)(const RunRequest &, ckpt::CheckpointStore *);
    /** The figure a SPLASH entry regenerates; empty otherwise. */
    std::optional<SplashFigure> splash;
};

/** Every entry, in catalog order (fig7 ... fig17). */
std::span<const CatalogEntry> catalog();

/** The entry of @p exp. */
const CatalogEntry &catalogEntry(Experiment exp);

/** The wire names in catalog order, space-separated. */
std::string catalogNames();

/** Wire name of @p exp ("fig7", "table3", "fig15", ...). */
const char *experimentName(Experiment exp);

/** Reverse of experimentName(); false if @p name is not catalogued. */
bool parseExperimentName(const std::string &name, Experiment &out);

/**
 * Check that every field of @p run applies to its experiment: a field
 * the catalog entry would silently ignore (refs on a SPLASH figure,
 * sample on a table, nodes outside the SPLASH figures or above their
 * axis) fails with bad_param and a detail naming the field, so a
 * caller never believes it configured something it did not.
 * parseRequest() applies it to every run request; the one-shot
 * catalog benches apply it to their flags.
 */
bool validateRun(const RunRequest &run, ErrorCode &code,
                 std::string &detail);

/**
 * Decompose a validated @p run into its catalog plan. The request
 * must have passed validateRun(); @p fault_scope, when non-empty, is
 * appended to every unit key so the plan's points never coalesce
 * with another plan's (every caller passes ""). @p store, when
 * given, holds warm-state checkpoints for sampled fig7/fig8 points
 * (the bench's --ckpt-dir); the server passes none.
 */
CatalogPlan buildCatalogPlan(const RunRequest &run,
                             const std::string &fault_scope,
                             ckpt::CheckpointStore *store = nullptr);

/**
 * The cache key of @p run, whose plan is @p plan: the experiment name,
 * seed and build id, then every point's unit key in plan order, in
 * full. The unit keys carry every resolved parameter, so
 * {"quick":true} and the explicit refs it implies collapse to one
 * key; the experiment is named because fig7 and fig8 share every
 * unit; the build id means a rebuilt server never serves results
 * computed by different code. Nothing is hashed away: a collision
 * would serve one experiment's bytes for another.
 */
std::string canonicalRunKey(const RunRequest &run,
                            const CatalogPlan &plan);

} // namespace server
} // namespace memwall

#endif // MEMWALL_SERVER_CATALOG_HH
