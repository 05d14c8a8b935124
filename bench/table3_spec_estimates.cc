/**
 * @file
 * Regenerates Table 3: per-benchmark CPI (cpu + memory) and SPEC
 * ratio of the proposed 200 MHz integrated device with a 30 ns DRAM
 * array and NO victim cache. The paper's own numbers are printed
 * alongside for comparison.
 *
 * The points, their per-point seeds and --format json come from the
 * catalog driver (catalog_driver.hh); this file prints the text
 * table.
 */

#include <iostream>

#include "catalog_driver.hh"
#include "common/table.hh"
#include "workloads/spec_tables.hh"

using namespace memwall;

int
main(int argc, char **argv)
{
    const auto run =
        benchutil::runCatalog(server::Experiment::Table3, argc, argv);
    if (run.opt.json())
        return 0;
    benchutil::banner("Table 3 - SPEC'95 estimates, no victim cache",
                      run.opt);

    const std::vector<SpecEstimate> rows = run.results<SpecEstimate>();
    TextTable table("Table 3: SPEC'95 estimates (no victim cache)");
    table.setHeader({"name", "CPI [cpu+mem]", "Spec-ratio",
                     "paper CPI", "paper ratio"});
    bool fp_rule_done = false;
    const auto workloads = specTableWorkloads();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SpecWorkload &w = *workloads[i];
        const SpecEstimate &est = rows[i];
        if (w.floating_point && !fp_rule_done) {
            table.addRule();
            fp_rule_done = true;
        }
        table.addRow({w.name,
                      TextTable::num(est.cpi.base, 2) + " + " +
                          TextTable::num(est.cpi.memory, 2),
                      TextTable::num(est.spec_ratio, 1),
                      TextTable::num(w.base_cpi, 2) + " + " +
                          TextTable::num(w.paper_mem_cpi_novc, 2),
                      TextTable::num(w.paper_ratio_novc, 1)});
    }
    table.print(std::cout);
    return 0;
}
