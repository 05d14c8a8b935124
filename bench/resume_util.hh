/**
 * @file
 * Shared --resume / --ckpt-dir plumbing: the journal and warm-state
 * store helpers of the catalog driver (catalog_driver.hh) and the
 * checkpoint torture bench.
 */

#ifndef MEMWALL_BENCH_RESUME_UTIL_HH
#define MEMWALL_BENCH_RESUME_UTIL_HH

#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.hh"
#include "checkpoint/journal.hh"
#include "checkpoint/store.hh"
#include "workloads/missrate.hh"

namespace memwall::benchutil {

/**
 * Open the journal (fatal on I/O errors) and report recovery on
 * stderr — stdout must stay byte-identical between an uninterrupted
 * run and a killed-and-resumed one.
 */
inline void
openJournal(ckpt::SweepJournal &journal, const std::string &path,
            std::uint64_t run_hash)
{
    std::string why;
    if (!journal.open(path, run_hash, &why))
        MW_FATAL("--resume: ", why);
    if (journal.discardedForeign())
        std::fprintf(stderr, "resume journal: foreign run "
                             "discarded, starting fresh\n");
    else if (journal.recovered() > 0)
        std::fprintf(stderr,
                     "resume journal: replaying %zu committed "
                     "point(s)%s\n",
                     journal.recovered(),
                     journal.tornBytes() ? " (torn tail truncated)"
                                         : "");
}

/** One-line degradation/bookkeeping summary of a checkpoint store,
 *  on stderr: it legitimately differs between populating and
 *  loading runs, and stdout must stay byte-identical to a
 *  non-accelerated run. */
inline void
printStoreCounters(const ckpt::CheckpointStore &store)
{
    const ckpt::StoreCounters c = store.counters();
    std::fprintf(stderr,
                 "checkpoint store: loaded=%llu written=%llu "
                 "degraded=%llu (missing=%llu corrupt=%llu "
                 "version=%llu config=%llu) write-errors=%llu\n",
                 static_cast<unsigned long long>(c.loaded),
                 static_cast<unsigned long long>(c.written),
                 static_cast<unsigned long long>(c.degraded()),
                 static_cast<unsigned long long>(c.degraded_missing),
                 static_cast<unsigned long long>(c.degraded_corrupt),
                 static_cast<unsigned long long>(c.degraded_version),
                 static_cast<unsigned long long>(c.degraded_config),
                 static_cast<unsigned long long>(c.write_errors));
}

/**
 * Build the per-unit checkpoint store for a sampled run, or null
 * when --ckpt-dir was not given. Only stratified plans are
 * accelerated; other plans get a warning and no store.
 */
inline std::unique_ptr<ckpt::CheckpointStore>
makeMissRateStore(const std::string &ckpt_dir,
                  const SamplingPlan &plan)
{
    if (ckpt_dir.empty())
        return nullptr;
    if (plan.scheme != SampleScheme::Stratified) {
        MW_WARN("--ckpt-dir only accelerates stratified plans "
                "(mode=strat); ignoring it");
        return nullptr;
    }
    return std::make_unique<ckpt::CheckpointStore>(
        ckpt_dir, ckpt::fnvMix(ckpt::fnv1a64("missrate-sampled"),
                               samplingPlanHash(plan)));
}

} // namespace memwall::benchutil

#endif // MEMWALL_BENCH_RESUME_UTIL_HH
