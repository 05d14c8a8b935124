/**
 * @file
 * Ablation: column-buffer line size.
 *
 * Section 5.6 claims that with fewer banks one could enlarge the
 * line size, but "simulation shows that increasing the line size
 * will degrade performance due to higher resultant cache conflicts".
 * This bench sweeps the line (column) size at constant 16 KB data
 * capacity and reports D-cache miss rates per workload class.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "harness/parallel_sweep.hh"
#include "mem/column_cache.hh"
#include "workloads/spec_suite.hh"

using namespace memwall;

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv, {"--jobs"});
    benchutil::banner("Ablation - column line size at 16 KB capacity",
                      opt);

    const std::uint64_t refs =
        opt.refs ? opt.refs : (opt.quick ? 400'000 : 3'000'000);

    TextTable table("D-cache miss % vs line size (2-way, 16 KB + "
                    "victim cache)");
    table.setHeader({"benchmark", "128B", "256B", "512B (paper)",
                     "1024B", "2048B"});

    constexpr std::uint32_t lines[] = {128u, 256u, 512u, 1024u,
                                       2048u};
    // Each (workload, line size) cell is one sweep point; a row is
    // assembled as its five cells commit left to right.
    ParallelSweep<double> sweep(opt.jobs, opt.seed);
    std::vector<std::string> row;
    for (const char *name : {"107.mgrid", "126.gcc", "102.swim",
                             "099.go", "101.tomcatv"}) {
        const SpecWorkload &w = findWorkload(name);
        for (std::uint32_t line : lines) {
            sweep.submit(
                [&w, line, refs](const PointContext &) {
                    ColumnCacheConfig cfg;
                    cfg.column_bytes = line;
                    cfg.banks = static_cast<std::uint32_t>(
                        16 * KiB / (2 * line));  // constant capacity
                    ColumnDataCache cache(cfg);
                    SyntheticWorkload source(w.proxy);
                    const auto sink = [&](const MemRef &ref) {
                        if (ref.type != RefType::IFetch)
                            cache.access(ref.addr,
                                         ref.type == RefType::Store);
                    };
                    source.generateInto(refs / 4, sink);
                    cache.resetStats();
                    source.generateInto(refs, sink);
                    return cache.stats().missRate() * 100;
                },
                [&table, &row, &w, line](const PointContext &,
                                         double miss_pct) {
                    if (row.empty())
                        row.push_back(w.name);
                    row.push_back(TextTable::num(miss_pct, 3));
                    if (line == 2048u) {
                        table.addRow(std::move(row));
                        row.clear();
                    }
                });
        }
    }
    sweep.finish();
    table.print(std::cout);
    std::cout << "\nExpected: longer lines help streaming codes "
                 "(mgrid) but hurt conflict-prone\nones (more so "
                 "past 512B, where only 4-8 sets remain) — the "
                 "paper's argument for\nkeeping 16 banks.\n";
    return 0;
}
