/**
 * @file
 * Regenerates Table 1: the SparcStation 5 (slower CPU, close memory)
 * beats the SparcStation 10/61 (faster CPU, 1 MB L2, distant memory)
 * on the large-working-set Synopsys workload, while losing on
 * cache-friendly SPEC'92-like code.
 *
 * The paper's absolute numbers are wall-clock minutes of the real
 * machines; here both machines execute the same instruction stream
 * through their hierarchy timing models, so we report execution time
 * per billion instructions and the SS-10/SS-5 runtime ratio (paper:
 * 44 min / 32 min = 1.38 on Synopsys, and the inverse relation on
 * SPEC'92).
 *
 * The points and --format json come from the catalog driver
 * (catalog_driver.hh); this file prints the text table.
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
        benchutil::runCatalog(server::Experiment::Table1, argc, argv);
    if (run.opt.json())
        return 0;
    benchutil::banner("Table 1 - SS-5 vs SS-10/61 on Synopsys",
                      run.opt);

    // Canonical point order: synopsys, 130.li, 132.ijpeg on SS-5
    // then SS-10/61 each (the composite runs at refs/2).
    const std::vector<MachineRun> points = run.results<MachineRun>();
    const MachineRun &syn5 = points[0];
    const MachineRun &syn10 = points[1];
    // "Spec'92-like" score: instructions/second on the composite,
    // normalised to the SS-5 = 64 of the paper's table.
    const double ips5 = 2.0 / (points[2].seconds_per_ginstr +
                               points[4].seconds_per_ginstr);
    const double ips10 = 2.0 / (points[3].seconds_per_ginstr +
                                points[5].seconds_per_ginstr);
    const double spec5 = 64.0;
    const double spec10 = 64.0 * ips10 / ips5;

    TextTable table("Table 1: SS-5 vs SS-10 Synopsys performance");
    table.setHeader({"Machine", "Spec'92-like score",
                     "Synopsys CPI", "Synopsys s/Ginstr",
                     "normalised run time"});
    table.addRow({"SS-5", TextTable::num(spec5, 0),
                  TextTable::num(syn5.cpi, 2),
                  TextTable::num(syn5.seconds_per_ginstr, 1),
                  TextTable::num(1.0, 2)});
    table.addRow({"SS-10/61", TextTable::num(spec10, 0),
                  TextTable::num(syn10.cpi, 2),
                  TextTable::num(syn10.seconds_per_ginstr, 1),
                  TextTable::num(syn10.seconds_per_ginstr /
                                     syn5.seconds_per_ginstr,
                                 2)});
    table.print(std::cout);

    std::cout << "\nPaper: SS-5 = 32 min, SS-10/61 = 44 min "
                 "(ratio 1.38) despite the SS-10's higher\nSPEC'92 "
                 "rating (89 vs 64) - the SS-5 wins when the working "
                 "set blows through the\nL2 because its main memory "
                 "is closer.\n";
    return 0;
}
