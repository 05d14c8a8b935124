/**
 * @file
 * Regenerates Table 4: total CPI and SPEC ratio of the proposed
 * device WITH the victim cache, alongside the paper's numbers and
 * the published Alpha 21164 (DEC 8200 5/300) ratios the paper quotes
 * for comparison.
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
        benchutil::runCatalog(server::Experiment::Table4, argc, argv);
    if (run.opt.json())
        return 0;
    benchutil::banner(
        "Table 4 - SPEC'95 estimates, with victim cache", run.opt);

    const std::vector<SpecEstimate> rows = run.results<SpecEstimate>();
    TextTable table("Table 4: SPEC'95 estimates (with victim cache)");
    table.setHeader({"name", "Total CPI", "Spec-ratio", "paper CPI",
                     "paper ratio", "Alpha 21164"});
    bool fp_rule_done = false;
    const auto workloads = specTableWorkloads();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SpecWorkload &w = *workloads[i];
        const SpecEstimate &est = rows[i];
        if (w.floating_point && !fp_rule_done) {
            table.addRule();
            fp_rule_done = true;
        }
        table.addRow({w.name, TextTable::num(est.cpi.total(), 2),
                      TextTable::num(est.spec_ratio, 1),
                      TextTable::num(w.paper_total_cpi_vc, 2),
                      TextTable::num(w.paper_ratio_vc, 1),
                      TextTable::num(w.alpha_ratio, 1)});
    }
    table.print(std::cout);
    return 0;
}
