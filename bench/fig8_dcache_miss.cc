/**
 * @file
 * Regenerates Figure 8: data-cache miss rates of the proposed 16 KB
 * 2-way column-buffer cache (512-byte lines), with and without the
 * victim cache, vs conventional caches with 32-byte lines.
 * Load and store miss fractions are reported separately, as in the
 * paper's stacked bars.
 *
 * The points, --resume, --ckpt-dir, --sample and --format json come
 * from the catalog driver (catalog_driver.hh); this file prints the
 * text tables and bars.
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
    TextTable table("Figure 8 (sampled): D-cache miss % ± " +
                    TextTable::num(plan.level * 100, 0) + "% CI");
    table.setHeader({"benchmark", "proposed", "conv 16K dm",
                     "conv 16K 2w", "conv 64K dm", "conv 256K 2w",
                     "proposed+VC", "units"});
    for (const auto &r : run.results<SampledWorkloadMissRates>())
        table.addRow({r.workload, ciCell(r.dcache(proposed)),
                      ciCell(r.dcache(conv16)),
                      ciCell(r.dcache(conv16w2)),
                      ciCell(r.dcache(conv64)),
                      ciCell(r.dcache(conv256w2)),
                      ciCell(r.dcache(proposed_vc)),
                      std::to_string(r.units)});
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto run =
        benchutil::runCatalog(server::Experiment::Fig8, argc, argv);
    if (run.opt.json())
        return 0;
    benchutil::banner("Figure 8 - data cache miss rates", run.opt);
    if (run.plan()) {
        printSampled(run);
        return 0;
    }

    TextTable table(
        "Figure 8: D-cache miss probability (%), load+store");
    table.setHeader({"benchmark", "proposed", "conv 16K dm",
                     "conv 16K 2w", "conv 64K dm", "conv 256K 2w",
                     "proposed+VC", "VC gain"});

    BarChart chart("Figure 8 (bars): D-cache miss rates", "%");

    const std::vector<WorkloadMissRates> all =
        run.results<WorkloadMissRates>();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto &w = specSuite()[i];
        const auto &rates = all[i];
        const auto &p = rates.dcache(proposed);
        const auto &pv = rates.dcache(proposed_vc);
        const double c16 = rates.dcache(conv16).missRate();
        const double c16w = rates.dcache(conv16w2).missRate();
        const double c64 = rates.dcache(conv64).missRate();
        const double c256 = rates.dcache(conv256w2).missRate();
        table.addRow(
            {w.name, TextTable::num(p.missRate() * 100, 3),
             TextTable::num(c16 * 100, 3),
             TextTable::num(c16w * 100, 3),
             TextTable::num(c64 * 100, 3),
             TextTable::num(c256 * 100, 3),
             TextTable::num(pv.missRate() * 100, 3),
             pv.missRate() > 0
                 ? TextTable::num(p.missRate() / pv.missRate(), 1) + "x"
                 : "inf"});
        chart.add(w.name, "proposed    ", p.missRate() * 100);
        chart.add(w.name, "proposed+VC ", pv.missRate() * 100);
        chart.add(w.name, "conv-16K-dm ", c16 * 100);
        chart.add(w.name, "conv-16K-2w ", c16w * 100);
    }

    table.print(std::cout);
    std::cout << '\n';
    chart.print(std::cout);

    std::cout << "\nLoad/store split (proposed+VC), per Figure 8's "
                 "stacked bars:\n";
    TextTable split("");
    split.setHeader({"benchmark", "load-miss %", "store-miss %"});
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto &w = specSuite()[i];
        const auto &pv = all[i].dcache(proposed_vc);
        split.addRow({w.name,
                      TextTable::num(pv.stats.loadMissRate() * 100, 3),
                      TextTable::num(pv.stats.storeMissRate() * 100,
                                     3)});
    }
    split.print(std::cout);
    return 0;
}
