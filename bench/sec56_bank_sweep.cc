/**
 * @file
 * Regenerates the Section 5.6 study: sensitivity of the integrated
 * device to the number of DRAM banks (4/8/16) and of the
 * conventional system to 2..8 memory banks. The paper found all
 * differences below simulation noise, because per-bank utilisation
 * is tiny (gcc: 1.2% busy at 16 banks, 9.6% at 2 banks).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "harness/parallel_sweep.hh"
#include "workloads/spec_eval.hh"
#include "workloads/spec_tables.hh"

using namespace memwall;

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv, {"--jobs"});
    benchutil::banner("Section 5.6 - memory bank sweep", opt);

    const SpecEvalParams params =
        resolveSpecEvalParams(opt.quick, opt.refs, opt.seed);

    TextTable table("Integrated device: CPI and bank utilisation vs "
                    "bank count");
    table.setHeader({"benchmark", "banks", "total CPI",
                     "bank busy %"});
    // (workload x bank count) grid: every cell is an independent
    // sweep point; the rule after each workload group rides the
    // in-order commit of that group's last cell.
    ParallelSweep<SpecEstimate> sweep(opt.jobs, opt.seed);
    for (const char *name : {"126.gcc", "102.swim", "099.go"}) {
        const SpecWorkload &w = findWorkload(name);
        for (unsigned banks : {2u, 4u, 8u, 16u}) {
            sweep.submit(
                [&w, &params, banks](const PointContext &ctx) {
                    SpecEvalParams p = params;
                    p.banks = banks;
                    p.seed = ctx.seed;
                    return estimateIntegrated(w,
                                              /*victim_cache=*/true,
                                              p);
                },
                [&table, &w, banks](const PointContext &,
                                    SpecEstimate est) {
                    table.addRow(
                        {w.name, std::to_string(banks),
                         TextTable::num(est.cpi.total(), 3),
                         TextTable::num(
                             est.bank_utilisation * 100.0, 1)});
                    if (banks == 16u)
                        table.addRule();
                });
        }
    }
    sweep.finish();
    table.print(std::cout);

    std::cout << "\nConventional reference system, 2..8 memory "
                 "banks (126.gcc):\n";
    TextTable conv("");
    conv.setHeader({"banks", "total CPI"});
    const SpecWorkload &gcc = findWorkload("126.gcc");
    ParallelSweep<SpecEstimate> conv_sweep(opt.jobs, opt.seed + 1);
    for (unsigned banks : {2u, 4u, 8u}) {
        conv_sweep.submit(
            [&gcc, &params, banks](const PointContext &ctx) {
                SpecEvalParams p = params;
                p.banks = banks;
                p.seed = ctx.seed;
                // L2 at 6 cycles, memory at 150 ns (typical,
                // Figure 11).
                const ClockParams clock;
                return estimateReference(
                    gcc, 6.0,
                    static_cast<double>(clock.nsToCycles(150)), p);
            },
            [&conv, banks](const PointContext &, SpecEstimate est) {
                conv.addRow({std::to_string(banks),
                             TextTable::num(est.cpi.total(), 3)});
            });
    }
    conv_sweep.finish();
    conv.print(std::cout);
    std::cout << "\nExpected: CPI differences below simulation "
                 "noise; utilisation falls as banks are added.\n";
    return 0;
}
