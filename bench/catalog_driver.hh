/**
 * @file
 * The one driver behind the ten catalog benches: Figures 7, 8 and
 * 13-17 and Tables 1, 3 and 4.
 *
 * server::buildCatalogPlan() is the only definition of these
 * experiments -- their points, per-point seeds and JSON renderer --
 * and mw-server runs the same plans. runCatalog() turns the bench
 * flags into a server::RunRequest, checks it with the protocol's
 * validateRun(), sweeps the plan's points across --jobs workers and,
 * for --format json, prints the plan's document. A bench main adds
 * only its banner and its text table over the results; the five
 * SPLASH mains are one runSplashBench() call each.
 *
 * Flags beyond the common set, as each experiment's catalog entry
 * lists them:
 *   --jobs N             all ten: sweep workers (bench_util.hh)
 *   --format text|json   all ten
 *   --sample PLAN        miss-rate and SPLASH figures (sampling/plan.hh)
 *   --nodes N            SPLASH figures: one processor count, not the
 *                        full {1,2,4,8,16} axis
 *   --resume PATH        miss-rate figures: crash-safe sweep journal,
 *                        keyed by a hash of server::canonicalRunKey()
 *                        -- a rerun with the same flags and build
 *                        replays committed points to byte-identical
 *                        output
 *   --ckpt-dir DIR       sampled miss-rate figures: per-unit
 *                        warm-state checkpoints (stratified plans)
 * A flag the experiment does not take is rejected with exit 2, and
 * so is any value validateRun() refuses (e.g. --refs on a SPLASH
 * figure).
 */

#ifndef MEMWALL_BENCH_CATALOG_DRIVER_HH
#define MEMWALL_BENCH_CATALOG_DRIVER_HH

#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "checkpoint/codec.hh"
#include "harness/parallel_sweep.hh"
#include "harness/sweep_resume.hh"
#include "resume_util.hh"
#include "server/catalog.hh"
#include "workloads/splash_figures.hh"

namespace memwall::benchutil {

/** A finished catalog run: its flags, the validated request and the
 *  point results in plan order. */
struct CatalogRun
{
    Options opt;
    server::RunRequest request;
    std::vector<std::shared_ptr<void>> points;

    /** The point results as the experiment's concrete type. */
    template <typename T>
    std::vector<T>
    results() const
    {
        return server::pointResults<T>(points);
    }

    /** The --sample plan, or null for an exhaustive run. */
    const SamplingPlan *
    plan() const
    {
        return request.has_sample ? &request.sample : nullptr;
    }
};

/**
 * Run catalog experiment @p exp as a one-shot bench: parse and check
 * the flags (usage error, exit 2, on any the request cannot honour),
 * compute every point, and print the JSON document when --format
 * json was asked for. Output is byte-identical for every --jobs and
 * across a killed-and-resumed --resume run.
 */
inline CatalogRun
runCatalog(server::Experiment exp, int argc, char **argv)
{
    const std::initializer_list<const char *> flags =
        server::catalogEntry(exp).bench_flags;
    const char *prog = argv[0];
    CatalogRun r;
    r.opt = parse(argc, argv, flags);
    r.request.experiment = exp;
    r.request.quick = r.opt.quick;
    r.request.refs = r.opt.refs;
    r.request.seed = r.opt.seed;
    if (r.opt.extra.count("--nodes"))
        r.request.nodes = parseU64Flag(
            r.opt.extra.at("--nodes").c_str(), "--nodes", prog, flags);
    if (r.opt.extra.count("--sample")) {
        std::string why;
        if (!tryParseSamplingPlan(r.opt.extra.at("--sample"),
                                  r.request.sample, &why))
            usageError(prog, flags, why);
        r.request.has_sample = true;
    }
    server::ErrorCode code{};
    std::string detail;
    if (!server::validateRun(r.request, code, detail))
        usageError(prog, flags, detail);
    const std::string ckpt_dir = checkpointDirFlag(r.opt, prog, flags);
    const std::string resume_path = resumePathFlag(r.opt, prog, flags);

    const std::unique_ptr<ckpt::CheckpointStore> store =
        r.request.has_sample
            ? makeMissRateStore(ckpt_dir, r.request.sample)
            : nullptr;
    const server::CatalogPlan plan =
        server::buildCatalogPlan(r.request, "", store.get());

    // Per-point seeds come from the plan (specTablePointSeed), so
    // the sweep's own PointContext seed goes unused.
    ParallelSweep<std::shared_ptr<void>> sweep(r.opt.jobs, r.opt.seed);
    ckpt::SweepJournal journal;
    if (!resume_path.empty()) {
        openJournal(
            journal, resume_path,
            ckpt::fnv1a64(server::canonicalRunKey(r.request, plan)));
        attachSweepJournal(
            sweep, journal,
            [&plan](ckpt::Encoder &e, const std::shared_ptr<void> &p) {
                plan.encode(e, p);
            },
            [&plan](ckpt::Decoder &d, std::shared_ptr<void> &p) {
                p = plan.decode(d);
                return p != nullptr;
            });
    }
    for (const server::CatalogPoint &point : plan.points)
        sweep.submit(
            [&point](const PointContext &) { return point.compute(); },
            [&r](const PointContext &, std::shared_ptr<void> result) {
                r.points.push_back(std::move(result));
            });
    sweep.finish();

    if (r.opt.json())
        std::fputs(plan.render(r.points).c_str(), stdout);
    if (store)
        printStoreCounters(*store);
    return r;
}

/**
 * The whole main of a SPLASH figure bench (fig13_lu .. fig17_pthor):
 * run the catalog entry, then, for text output, print the banner
 * "<title> - SPLASH <kernel> (<dataset>)" and the figure's text
 * report. Returns the exit status: 1 if the architectures disagree
 * on the kernel's checksum.
 */
inline int
runSplashBench(server::Experiment exp, int argc, char **argv)
{
    const SplashFigure fig = *server::catalogEntry(exp).splash;
    const CatalogRun run = runCatalog(exp, argc, argv);
    const auto points = run.results<SplashResult>();
    if (!run.opt.json()) {
        banner(std::string(splashFigureTitle(fig)) + " - SPLASH " +
                   splashFigureKernel(fig) + " (" +
                   splashFigureDataset(fig) + ")",
               run.opt);
        printSplashFigureText(std::cout, fig,
                              resolveSplashScale(fig, run.opt.quick),
                              run.request.nodes, run.plan(), points);
    }
    return splashChecksumsMatch(points) ? 0 : 1;
}

} // namespace memwall::benchutil

#endif // MEMWALL_BENCH_CATALOG_DRIVER_HH
