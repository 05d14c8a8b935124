/**
 * @file
 * Regenerates Figure 12: CPI of the proposed integrated device as a
 * function of the DRAM array access time, for 141.apsi and 126.gcc.
 * At the design point (30 ns = 6 cycles at 200 MHz) the memory CPI
 * impact should fall between ~10% and ~25% of the raw CPI.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "workloads/spec_eval.hh"
#include "workloads/spec_tables.hh"

using namespace memwall;

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv);
    benchutil::banner("Figure 12 - DRAM latency impact (integrated)",
                      opt);

    const SpecEvalParams params =
        resolveSpecEvalParams(opt.quick, opt.refs, opt.seed);

    const double access_ns[] = {10, 20, 30, 40, 50, 60, 70};
    const ClockParams clock;

    SeriesChart chart("Figure 12: integrated device CPI vs DRAM "
                      "access time",
                      "DRAM access (ns)", "CPI");

    for (const char *name : {"141.apsi", "126.gcc"}) {
        const SpecWorkload &w = findWorkload(name);
        for (double ns : access_ns) {
            SpecEvalParams p = params;
            p.bank_access =
                static_cast<double>(clock.nsToCycles(ns));
            const SpecEstimate est =
                estimateIntegrated(w, /*victim_cache=*/true, p);
            chart.addPoint(name, ns, est.cpi.total());
            if (ns == 30) {
                std::cout << name << " @30ns: memory CPI impact = "
                          << TextTable::num(
                                 100.0 * est.cpi.memory /
                                     est.cpi.base,
                                 1)
                          << "% of raw CPI\n";
            }
        }
    }
    std::cout << '\n';
    chart.print(std::cout);
    return 0;
}
