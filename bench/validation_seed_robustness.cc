/**
 * @file
 * Validation: are the Figure 7/8 conclusions robust to the proxies'
 * random streams?
 *
 * Every workload proxy draws its instruction/data interleaving from
 * a per-benchmark seed. This bench re-rolls those seeds and checks
 * that the quantities the claims rest on — the victim-cache gain,
 * the proposed/conventional ratio, the turb3d regression — move only
 * within narrow bands. (The shapes come from the workloads'
 * structure, not from a lucky seed.)
 *
 * Every quantity is a ratio whose claim is "greater than 1": the
 * bench exits 1, naming the band, when any band's minimum is <= 1.0.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "workloads/missrate.hh"

using namespace memwall;
using namespace memwall::cachelabels;

constexpr std::initializer_list<const char *> extra_flags = {
    "--reseeds"};

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv, extra_flags);
    benchutil::banner("Validation - proxy-seed robustness", opt);

    MissRateParams params;
    params.measured_refs = opt.refs ? opt.refs
                                    : (opt.quick ? 300'000
                                                 : 2'000'000);
    params.warmup_refs = params.measured_refs / 4;

    // Seed deltas to sweep; override with --reseeds 0,777,31415,...
    std::vector<std::uint64_t> reseeds;
    for (const std::string &item : benchutil::splitList(
             opt.extraOr("--reseeds", "0,777,31415,2718281")))
        reseeds.push_back(benchutil::parseU64Flag(
            item.c_str(), "--reseeds", argv[0], extra_flags));

    TextTable table("Key Figure 7/8 quantities across four proxy "
                    "seeds (min .. max)");
    table.setHeader({"quantity", "min", "max"});
    std::vector<std::string> failed;

    auto sweep = [&](const char *name, auto &&metric,
                     const char *label) {
        double lo = 1e30, hi = -1e30;
        for (std::uint64_t delta : reseeds) {
            SpecWorkload w = findWorkload(name);
            w.proxy.seed += delta;
            const auto rates = measureMissRates(w, params);
            const double v = metric(rates);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        table.addRow({label, TextTable::num(lo, 2),
                      TextTable::num(hi, 2)});
        if (lo <= 1.0)
            failed.push_back(std::string(label) + ": min " +
                             TextTable::num(lo, 2) + " <= 1.0");
    };

    sweep("102.swim",
          [](const WorkloadMissRates &r) {
              return r.dcache(proposed).missRate() /
                     r.dcache(proposed_vc).missRate();
          },
          "swim: victim-cache miss reduction (x)");
    sweep("101.tomcatv",
          [](const WorkloadMissRates &r) {
              return r.dcache(proposed).missRate() /
                     r.dcache(conv16).missRate();
          },
          "tomcatv: proposed/conv-16K blow-up (x)");
    sweep("107.mgrid",
          [](const WorkloadMissRates &r) {
              return r.dcache(conv16).missRate() /
                     r.dcache(proposed).missRate();
          },
          "mgrid: prefetch win vs conv-16K (x)");
    sweep("125.turb3d",
          [](const WorkloadMissRates &r) {
              return r.icache(proposed).missRate() /
                     std::max(r.icache(conv8).missRate(), 1e-9);
          },
          "turb3d: I-cache regression (x)");
    sweep("099.go",
          [](const WorkloadMissRates &r) {
              return r.dcache(proposed).missRate() /
                     r.dcache(proposed_vc).missRate();
          },
          "go: victim-cache miss reduction (x)");

    table.print(std::cout);
    std::cout << "\nExpected: each band stays on its claim's side "
                 "of 1.0 with modest spread.\n";
    for (const std::string &f : failed)
        std::cout << "FAIL: " << f << "\n";
    return failed.empty() ? 0 : 1;
}
