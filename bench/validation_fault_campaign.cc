/**
 * @file
 * Validation: seeded fault campaigns across the memory, link and
 * protocol layers.
 *
 * Sweeps the soft-error rate, the link bit-error rate and the
 * protocol NACK rate independently and prints one reliability table
 * per layer, plus two self-checks:
 *
 *  - zero-fault equivalence: with every rate at zero the faulty
 *    machine, link and memory slice behave bit-for-bit like their
 *    clean twins (same latencies, all fault counters zero);
 *  - determinism: re-running the highest-rate campaign with the same
 *    seed reproduces the identical report.
 *
 * Flags (beyond the usual --seed/--quick):
 *   --rates R,R,...   soft-error rates in faults/megacycle
 *   --bers  B,B,...   link bit error rates
 *   --nacks P,P,...   protocol NACK probabilities
 *
 * With `--format json` the same campaign is emitted as a single JSON
 * document. Every field is a deterministic function of the seed and
 * the swept rates (no wall-clock times), so the output is
 * byte-identical across runs — CI diffs it against a golden file.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "fault/campaign.hh"

using namespace memwall;

namespace {

CampaignConfig
baseConfig(const benchutil::Options &opt)
{
    CampaignConfig cfg;
    cfg.seed = opt.seed;
    cfg.horizon = opt.quick ? 250'000 : 1'000'000;
    cfg.link_messages = opt.quick ? 2'000 : 10'000;
    cfg.protocol_accesses = opt.quick ? 5'000 : 20'000;
    return cfg;
}

std::string
pct(double fraction)
{
    return TextTable::num(fraction * 100.0, 3) + "%";
}

/** One swept point: the knob value and the resulting report. */
struct SweptPoint {
    double value = 0.0;
    ReliabilityReport report;
};

void
printJson(const CampaignConfig &base, bool clean_ok,
          const std::vector<SweptPoint> &mem,
          const std::vector<SweptPoint> &link,
          const std::vector<SweptPoint> &proto, bool det_ok,
          std::uint64_t seed)
{
    std::printf("{\n");
    std::printf("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(seed));
    std::printf("  \"horizon\": %llu,\n",
                static_cast<unsigned long long>(base.horizon));
    std::printf("  \"link_messages\": %llu,\n",
                static_cast<unsigned long long>(base.link_messages));
    std::printf("  \"protocol_accesses\": %llu,\n",
                static_cast<unsigned long long>(
                    base.protocol_accesses));
    std::printf("  \"zero_fault_equivalence\": %s,\n",
                clean_ok ? "true" : "false");

    std::printf("  \"memory\": [\n");
    for (std::size_t i = 0; i < mem.size(); ++i) {
        const ReliabilityReport &r = mem[i].report;
        std::printf(
            "    {\"faults_per_megacycle\": %g, "
            "\"injected\": %llu, \"scrub_corrected\": %llu, "
            "\"demand_corrected\": %llu, \"uncorrectable\": %llu, "
            "\"rows_spared\": %llu, \"machine_checks\": %llu, "
            "\"silent_corruptions\": %llu, "
            "\"scrub_overhead\": %.6f}%s\n",
            mem[i].value,
            static_cast<unsigned long long>(r.faults_injected),
            static_cast<unsigned long long>(r.scrub_corrected),
            static_cast<unsigned long long>(r.demand_corrected),
            static_cast<unsigned long long>(r.scrub_uncorrectable +
                                            r.demand_uncorrectable),
            static_cast<unsigned long long>(r.rows_spared),
            static_cast<unsigned long long>(r.machine_checks),
            static_cast<unsigned long long>(r.silent_corruptions),
            r.scrub_overhead, i + 1 < mem.size() ? "," : "");
    }
    std::printf("  ],\n");

    std::printf("  \"link\": [\n");
    for (std::size_t i = 0; i < link.size(); ++i) {
        const ReliabilityReport &r = link[i].report;
        std::printf(
            "    {\"bit_error_rate\": %g, "
            "\"retransmissions\": %llu, \"crc_detected\": %llu, "
            "\"timeouts\": %llu, \"failures\": %llu, "
            "\"mean_latency\": %.6f, \"clean_latency\": %.6f}%s\n",
            link[i].value,
            static_cast<unsigned long long>(r.link_retransmissions),
            static_cast<unsigned long long>(r.link_crc_detected),
            static_cast<unsigned long long>(r.link_timeouts),
            static_cast<unsigned long long>(r.link_failures),
            r.link_mean_latency, r.link_clean_latency,
            i + 1 < link.size() ? "," : "");
    }
    std::printf("  ],\n");

    std::printf("  \"protocol\": [\n");
    for (std::size_t i = 0; i < proto.size(); ++i) {
        const ReliabilityReport &r = proto[i].report;
        std::printf(
            "    {\"nack_rate\": %g, "
            "\"remote_transactions\": %llu, \"nacks\": %llu, "
            "\"retries\": %llu, \"failures\": %llu, "
            "\"mean_access_cycles\": %.6f, "
            "\"clean_access_cycles\": %.6f}%s\n",
            proto[i].value,
            static_cast<unsigned long long>(r.remote_transactions),
            static_cast<unsigned long long>(r.protocol_nacks),
            static_cast<unsigned long long>(r.protocol_retries),
            static_cast<unsigned long long>(r.protocol_failures),
            r.mean_access_cycles, r.clean_access_cycles,
            i + 1 < proto.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"determinism\": %s\n", det_ok ? "true" : "false");
    std::printf("}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(
        argc, argv, {"--rates", "--bers", "--nacks", "--format"});
    if (!opt.json())
        benchutil::banner("Validation - seeded fault campaigns",
                          opt);

    const auto rates = benchutil::parseDoubleList(
        opt.extraOr("--rates", "0,10,50,200,1000"));
    const auto bers = benchutil::parseDoubleList(
        opt.extraOr("--bers", "0,1e-7,1e-6,1e-5"));
    const auto nacks = benchutil::parseDoubleList(
        opt.extraOr("--nacks", "0,0.01,0.05,0.2"));

    // ---- Self-check 1: zero-fault runs are bit-for-bit clean ------
    CampaignConfig zero_cfg = baseConfig(opt);
    const ReliabilityReport z = runFaultCampaign(zero_cfg);
    const bool clean_ok =
        z.faults_injected == 0 && z.scrub_corrected == 0 &&
        z.scrub_uncorrectable == 0 && z.machine_checks == 0 &&
        z.silent_corruptions == 0 && z.link_retransmissions == 0 &&
        z.protocol_nacks == 0 &&
        z.link_mean_latency == z.link_clean_latency &&
        z.mean_access_cycles == z.clean_access_cycles;

    // ---- Sweep each layer independently ---------------------------
    std::vector<SweptPoint> mem_pts, link_pts, proto_pts;
    for (double rate : rates) {
        CampaignConfig cfg = baseConfig(opt);
        cfg.faults_per_megacycle = rate;
        mem_pts.push_back({rate, runFaultCampaign(cfg)});
    }
    for (double ber : bers) {
        CampaignConfig cfg = baseConfig(opt);
        cfg.link_bit_error_rate = ber;
        link_pts.push_back({ber, runFaultCampaign(cfg)});
    }
    for (double nack : nacks) {
        CampaignConfig cfg = baseConfig(opt);
        cfg.protocol_nack_rate = nack;
        proto_pts.push_back({nack, runFaultCampaign(cfg)});
    }

    // ---- Self-check 2: same seed => identical report --------------
    CampaignConfig det = baseConfig(opt);
    det.faults_per_megacycle = rates.back();
    det.link_bit_error_rate = bers.back();
    det.protocol_nack_rate = nacks.back();
    const ReliabilityReport a = runFaultCampaign(det);
    const ReliabilityReport b = runFaultCampaign(det);
    const bool det_ok = a == b;

    if (opt.json()) {
        printJson(zero_cfg, clean_ok, mem_pts, link_pts, proto_pts,
                  det_ok, opt.seed);
        return (clean_ok && det_ok) ? 0 : 1;
    }

    std::printf("zero-fault equivalence: %s (link %.3f == %.3f, "
                "protocol %.3f == %.3f cycles)\n\n",
                clean_ok ? "PASS" : "FAIL", z.link_mean_latency,
                z.link_clean_latency, z.mean_access_cycles,
                z.clean_access_cycles);

    // ---- Memory layer: soft errors vs scrubbing -------------------
    TextTable mem("Memory: soft errors vs refresh-ride scrubbing "
                  "(per " +
                  TextTable::intWithCommas(zero_cfg.horizon) +
                  " cycles)");
    mem.setHeader({"faults/Mcyc", "injected", "scrub-corr",
                   "demand-corr", "uncorr", "spared", "mach-chk",
                   "silent", "scrub-ovh"});
    for (const SweptPoint &pt : mem_pts) {
        const ReliabilityReport &r = pt.report;
        mem.addRow({TextTable::num(pt.value, 0),
                    std::to_string(r.faults_injected),
                    std::to_string(r.scrub_corrected),
                    std::to_string(r.demand_corrected),
                    std::to_string(r.scrub_uncorrectable +
                                   r.demand_uncorrectable),
                    std::to_string(r.rows_spared),
                    std::to_string(r.machine_checks),
                    std::to_string(r.silent_corruptions),
                    pct(r.scrub_overhead)});
    }
    mem.print(std::cout);
    std::cout << "\n";

    // ---- Link layer: CRC + ACK/NACK retransmission ----------------
    TextTable link("Serial link: CRC retransmission under bit "
                   "errors (" +
                   TextTable::intWithCommas(
                       zero_cfg.link_messages) +
                   " x 40-byte frames)");
    link.setHeader({"BER", "retrans", "crc-det", "timeouts",
                    "failures", "mean lat", "clean lat",
                    "inflation"});
    for (const SweptPoint &pt : link_pts) {
        const ReliabilityReport &r = pt.report;
        const double inflation =
            r.link_clean_latency > 0.0
                ? r.link_mean_latency / r.link_clean_latency - 1.0
                : 0.0;
        char ber_str[32];
        std::snprintf(ber_str, sizeof ber_str, "%.0e", pt.value);
        link.addRow({ber_str,
                     std::to_string(r.link_retransmissions),
                     std::to_string(r.link_crc_detected),
                     std::to_string(r.link_timeouts),
                     std::to_string(r.link_failures),
                     TextTable::num(r.link_mean_latency, 2),
                     TextTable::num(r.link_clean_latency, 2),
                     pct(inflation)});
    }
    link.print(std::cout);
    std::cout << "\n";

    // ---- Protocol layer: NACK + bounded retry ---------------------
    TextTable proto("Protocol engine: NACK/backoff retry (" +
                    TextTable::intWithCommas(
                        zero_cfg.protocol_accesses) +
                    " accesses, 4 nodes)");
    proto.setHeader({"nack rate", "remote", "nacks", "retries",
                     "failures", "mean lat", "clean lat",
                     "inflation"});
    for (const SweptPoint &pt : proto_pts) {
        const ReliabilityReport &r = pt.report;
        const double inflation =
            r.clean_access_cycles > 0.0
                ? r.mean_access_cycles / r.clean_access_cycles - 1.0
                : 0.0;
        proto.addRow({TextTable::num(pt.value, 2),
                      std::to_string(r.remote_transactions),
                      std::to_string(r.protocol_nacks),
                      std::to_string(r.protocol_retries),
                      std::to_string(r.protocol_failures),
                      TextTable::num(r.mean_access_cycles, 2),
                      TextTable::num(r.clean_access_cycles, 2),
                      pct(inflation)});
    }
    proto.print(std::cout);
    std::cout << "\n";

    std::printf("determinism (two runs, seed %llu, all rates max): "
                "%s\n",
                static_cast<unsigned long long>(opt.seed),
                det_ok ? "PASS" : "FAIL");
    std::printf(
        "\nExpected: zero-fault row all zeros; corrected grows "
        "with the rate while\nuncorrectable stays 0 until doubles "
        "become likely; retransmissions recover\nevery corrupted "
        "frame; both self-checks PASS.\n");
    return (clean_ok && det_ok) ? 0 : 1;
}
