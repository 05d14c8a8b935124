/**
 * @file
 * Shared runners and JSON renderers for the Table 1/3/4 experiments.
 *
 * The missrate_figures pattern applied to the SPEC tables: the
 * one-shot bench binaries (table1_ss5_vs_ss10, table3_spec_estimates,
 * table4_spec_estimates_vc) and the resident experiment service
 * (mw-server) both resolve parameters, execute points and render
 * the --format=json document through THESE entry points, so a served
 * response is byte-identical to the one-shot output by construction.
 *
 * Each table is decomposed into independent points (six machine runs
 * for Table 1, one SpecEstimate per in_spec_tables workload for
 * Tables 3/4) so the server's batching layer can deduplicate and
 * schedule them individually.
 */

#ifndef MEMWALL_WORKLOADS_SPEC_TABLES_HH
#define MEMWALL_WORKLOADS_SPEC_TABLES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/spec_eval.hh"
#include "workloads/spec_suite.hh"

namespace memwall {

// --------------------------------------------------------------------
// Table 1: SS-5 vs SS-10/61

/** Timing summary of one (workload, machine) hierarchy run. */
struct MachineRun
{
    double cpi = 0.0;
    double seconds_per_ginstr = 0.0;
};

/** The measured reference window: explicit @p refs wins, otherwise
 *  quick/full defaults — the same resolution the binary applies. */
std::uint64_t resolveTable1Refs(bool quick, std::uint64_t refs);

/**
 * The six independent points of Table 1, in canonical order:
 * synopsys, 130.li, 132.ijpeg, each on SS-5 then SS-10/61 (the
 * SPEC'92-like composite runs at refs/2, as in the paper's rating).
 */
constexpr std::size_t table1_points = 6;

/** Workload name of point @p index ("synopsys", "130.li", ...). */
const char *table1PointWorkload(std::size_t index);
/** Machine name of point @p index ("SS-5" / "SS-10/61"). */
const char *table1PointMachine(std::size_t index);
/** Measured references of point @p index (refs or refs/2). */
std::uint64_t table1PointRefs(std::size_t index, std::uint64_t refs);

/** Execute point @p index of the table at resolved @p refs. */
MachineRun runTable1Point(std::size_t index, std::uint64_t refs);

/**
 * Render the six point results (canonical order) as the
 * --format=json document, trailing newline included.
 */
std::string table1Json(const std::vector<MachineRun> &points);

// --------------------------------------------------------------------
// Tables 3/4: SPEC'95 estimates without/with the victim cache

/**
 * Resolve the estimation knobs exactly like the bench binaries:
 * quick shrinks the miss-rate window and the GSPN run; an explicit
 * refs overrides the window (warm-up = refs/4). @p seed is the sweep
 * base seed, NOT the per-point seed — see specTablePointSeed().
 */
SpecEvalParams resolveSpecEvalParams(bool quick, std::uint64_t refs,
                                     std::uint64_t seed);

/** The rows of Tables 3/4: specSuite() filtered to in_spec_tables,
 *  in suite order. */
std::vector<const SpecWorkload *> specTableWorkloads();

/**
 * The seed of point @p index under sweep base seed @p seed — the
 * same splitmix64 derivation ParallelSweep hands each point, so a
 * server-side computation reproduces the one-shot binary's
 * Monte-Carlo draws exactly.
 */
std::uint64_t specTablePointSeed(std::uint64_t seed,
                                 std::size_t index);

/** Execute one row: @p params must already carry the point seed. */
SpecEstimate runSpecTablePoint(const SpecWorkload &workload,
                               bool victim_cache,
                               const SpecEvalParams &params);

/** "table3_spec_estimates" / "table4_spec_estimates_vc". */
const char *specTableName(bool victim_cache);

/**
 * Render the rows (specTableWorkloads() order) as the table's
 * --format=json document, trailing newline included.
 */
std::string specTableJson(bool victim_cache,
                          const std::vector<SpecEstimate> &rows);

} // namespace memwall

#endif // MEMWALL_WORKLOADS_SPEC_TABLES_HH
