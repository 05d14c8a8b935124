/**
 * @file
 * CoherenceVerifier: one-stop runtime verification harness for a
 * NumaMachine.
 *
 * Attaching a verifier plugs the shadow checker, the transaction
 * watchdog and the flight recorder into the machine's
 * ProtocolObserver hooks in one move:
 *
 *  - every completed access is mirrored into the ShadowChecker and
 *    its invariants (SWMR, directory presence, data freshness)
 *    re-verified;
 *  - completed accesses, invalidations and directory transitions
 *    stream into the per-node flight recorder;
 *  - access latencies feed the watchdog's escalation.
 *
 * On a violation the recorder is dumped (decoded, rate-limited) and
 * the configured policy applies: Count keeps going and accumulates
 * (torture testing), Fatal aborts (CI). Detaching — or never
 * attaching — leaves the machine on its observer-free fast path, so
 * verification is zero-cost when disabled.
 */

#ifndef MEMWALL_VERIFY_VERIFIER_HH
#define MEMWALL_VERIFY_VERIFIER_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "coherence/numa.hh"
#include "verify/flight_recorder.hh"
#include "verify/shadow_checker.hh"
#include "verify/watchdog.hh"

namespace memwall {

/** What the verifier does when an invariant breaks. */
enum class ViolationPolicy : std::uint8_t {
    Count,  ///< record, dump, keep simulating (torture tester)
    Fatal,  ///< record, dump, MW_FATAL (CI and debugging)
};

/** Verifier configuration. */
struct VerifyConfig
{
    /** Enable the shadow-copy data-freshness check. */
    bool check_data = true;
    /** Flight-recorder ring capacity per node (K). */
    std::size_t recorder_events = 256;
    /** Flight-recorder dumps emitted at most this many times. */
    unsigned max_dumps = 3;
    ViolationPolicy policy = ViolationPolicy::Count;
    WatchdogConfig watchdog = {};
};

/**
 * Observer wiring a machine to the verification subsystem.
 *
 * The verifier attaches itself on construction and detaches on
 * destruction; the machine must outlive it. One verifier per
 * machine.
 */
class CoherenceVerifier : public ProtocolObserver
{
  public:
    CoherenceVerifier(NumaMachine &machine, VerifyConfig config = {});
    ~CoherenceVerifier() override;

    CoherenceVerifier(const CoherenceVerifier &) = delete;
    CoherenceVerifier &operator=(const CoherenceVerifier &) = delete;

    /** Where violation reports and dumps go (default: std::cerr). */
    void setReportStream(std::ostream &os);

    // ---- ProtocolObserver ------------------------------------------
    void copyInvalidated(unsigned node, Addr block,
                         Tick tick) override;
    void accessEnd(unsigned cpu, Addr block, bool store,
                   ServiceLevel service, Cycles latency, Tick tick,
                   std::uint16_t dir_before,
                   const DirEntry &entry) override;

    // ---- Results ----------------------------------------------------
    /** Total invariant violations seen (shadow + cache audit). */
    std::uint64_t violations() const { return violations_; }

    /** Accesses verified. */
    std::uint64_t checked() const { return shadow_.checked(); }

    /** Up to the first max_dumps violation descriptions. */
    const std::vector<ShadowViolation> &firstViolations() const
    {
        return first_violations_;
    }

    ShadowChecker &checker() { return shadow_; }
    FlightRecorder &recorder() { return recorder_; }
    TransactionWatchdog &watchdog() { return watchdog_; }

  private:
    /** Report one violation: record, maybe dump, apply the policy. */
    void report(const ShadowViolation &violation, Tick tick);

    NumaMachine &machine_;
    VerifyConfig config_;
    FlightRecorder recorder_;
    ShadowChecker shadow_;
    TransactionWatchdog watchdog_;
    std::ostream *report_stream_;
    std::uint64_t violations_ = 0;
    unsigned dumps_emitted_ = 0;
    std::vector<ShadowViolation> first_violations_;
};

} // namespace memwall

#endif // MEMWALL_VERIFY_VERIFIER_HH
