#include "verify/verifier.hh"

#include <iostream>
#include <sstream>

#include "common/logging.hh"

namespace memwall {

CoherenceVerifier::CoherenceVerifier(NumaMachine &machine,
                                     VerifyConfig config)
    : machine_(machine), config_(config),
      recorder_(machine.config().nodes, config.recorder_events),
      shadow_(machine.config().nodes, config.check_data),
      watchdog_(config.watchdog, &recorder_),
      report_stream_(&std::cerr)
{
    MW_ASSERT(machine_.observer() == nullptr,
              "machine already has an observer attached");
    machine_.attachObserver(this);
}

CoherenceVerifier::~CoherenceVerifier()
{
    if (machine_.observer() == this)
        machine_.attachObserver(nullptr);
}

void
CoherenceVerifier::setReportStream(std::ostream &os)
{
    report_stream_ = &os;
    watchdog_.setDumpStream(os);
}

void
CoherenceVerifier::copyInvalidated(unsigned node, Addr block,
                                   Tick tick)
{
    shadow_.onInvalidate(node, block);
    recorder_.record(node, FlightKind::Invalidate, tick, block);
}

void
CoherenceVerifier::accessEnd(unsigned cpu, Addr block, bool store,
                             ServiceLevel service, Cycles latency,
                             Tick tick, std::uint16_t dir_before,
                             const DirEntry &entry)
{
    recorder_.record(cpu, FlightKind::AccessEnd, tick, block,
                     static_cast<std::uint64_t>(service), latency);
    const std::uint16_t dir_after = entry.encode();
    if (dir_before != dir_after)
        recorder_.record(cpu, FlightKind::DirTransition, tick, block,
                         dir_before, dir_after);

    for (const ShadowViolation &v :
         shadow_.onAccessEnd(cpu, block, store, service, entry))
        report(v, tick);

    watchdog_.onComplete(cpu, block, latency);
}

void
CoherenceVerifier::report(const ShadowViolation &violation,
                          Tick tick)
{
    ++violations_;
    recorder_.record(violation.node, FlightKind::Violation, tick,
                     violation.block);
    if (first_violations_.size() < config_.max_dumps)
        first_violations_.push_back(violation);
    if (dumps_emitted_ < config_.max_dumps) {
        ++dumps_emitted_;
        std::ostringstream why;
        why << "coherence violation on block 0x" << std::hex
            << violation.block << std::dec << " (node "
            << violation.node << "): " << violation.what;
        recorder_.dump(*report_stream_, why.str());
    }
    if (config_.policy == ViolationPolicy::Fatal)
        MW_FATAL("coherence violation on block 0x", violation.block,
                 " (node ", violation.node, "): ", violation.what);
}

} // namespace memwall
