/**
 * @file
 * Regenerates Figure 7: instruction-cache miss rates of the proposed
 * 8 KB column-buffer cache (512-byte lines) vs conventional
 * direct-mapped caches (32-byte lines) of 8/16/32/64 KB.
 *
 * The points, --resume, --ckpt-dir, --sample and --format json come
 * from the catalog driver (catalog_driver.hh); this file prints the
 * text table and bars.
 */

#include <iostream>
#include <vector>

#include "catalog_driver.hh"
#include "common/table.hh"
#include "workloads/missrate_figures.hh"

using namespace memwall;
using namespace memwall::cachelabels;

namespace {

/** "mean±half" table cell, in percent. */
std::string
ciCell(const SampledCacheMissRate &r)
{
    return TextTable::num(r.mean() * 100, 3) + "±" +
           TextTable::num(r.ci.half_width * 100, 3);
}

/** Sampled variant: mean ± CI half-width per configuration. */
void
printSampled(const benchutil::CatalogRun &run)
{
    const SamplingPlan &plan = *run.plan();
    std::cout << "sampling plan: " << plan.describe() << "\n\n";
    TextTable table("Figure 7 (sampled): I-cache miss % ± " +
                    TextTable::num(plan.level * 100, 0) + "% CI");
    table.setHeader({"benchmark", "proposed 8K/512B", "conv 8K",
                     "conv 16K", "conv 32K", "conv 64K", "units"});
    for (const auto &r : run.results<SampledWorkloadMissRates>())
        table.addRow({r.workload, ciCell(r.icache(proposed)),
                      ciCell(r.icache(conv8)),
                      ciCell(r.icache(conv16)),
                      ciCell(r.icache(conv32)),
                      ciCell(r.icache(conv64)),
                      std::to_string(r.units)});
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto run =
        benchutil::runCatalog(server::Experiment::Fig7, argc, argv);
    if (run.opt.json())
        return 0;
    benchutil::banner("Figure 7 - instruction cache miss rates",
                      run.opt);
    if (run.plan()) {
        printSampled(run);
        return 0;
    }

    TextTable table("Figure 7: I-cache miss probability (%)");
    table.setHeader({"benchmark", "proposed 8K/512B", "conv 8K",
                     "conv 16K", "conv 32K", "conv 64K",
                     "conv8K/proposed"});

    BarChart chart("Figure 7 (bars): I-cache miss rates", "%");

    for (const auto &rates : run.results<WorkloadMissRates>()) {
        const double prop = rates.icache(proposed).missRate();
        const double c8 = rates.icache(conv8).missRate();
        const double c16 = rates.icache(conv16).missRate();
        const double c32 = rates.icache(conv32).missRate();
        const double c64 = rates.icache(conv64).missRate();
        table.addRow({rates.workload, TextTable::num(prop * 100, 3),
                      TextTable::num(c8 * 100, 3),
                      TextTable::num(c16 * 100, 3),
                      TextTable::num(c32 * 100, 3),
                      TextTable::num(c64 * 100, 3),
                      prop > 0 ? TextTable::num(c8 / prop, 1)
                               : "inf"});
        chart.add(rates.workload, "proposed", prop * 100);
        chart.add(rates.workload, "conv-8K ", c8 * 100);
        chart.add(rates.workload, "conv-64K", c64 * 100);
    }

    table.print(std::cout);
    std::cout << '\n';
    chart.print(std::cout);
    return 0;
}
