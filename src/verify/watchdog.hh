/**
 * @file
 * Per-transaction watchdogs: turn silent protocol hangs and
 * pathological latencies into staged, diagnosable escalations.
 *
 * Two failure shapes are covered:
 *
 *  - **Slow completion** — a completed access whose total latency
 *    is pathological is reported when thresholds are crossed.
 *
 *  - **Stall** — a transaction opens and never completes (a lost
 *    reply, a wedged engine). Open transactions are registered with
 *    beginTransaction()/endTransaction(); a periodic scan event on
 *    the machine's EventQueue (armOn()) measures their age against
 *    sim-time thresholds.
 *
 * Escalation is staged per transaction: warn (a line on the dump
 * stream + recorder entry) -> dump (flight-recorder post-mortem) ->
 * fatal (handler;
 * default MW_FATAL). Each stage fires at most once per transaction,
 * so a wedged run produces one readable report, not a log flood.
 */

#ifndef MEMWALL_VERIFY_WATCHDOG_HH
#define MEMWALL_VERIFY_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>

#include "common/types.hh"
#include "verify/flight_recorder.hh"

namespace memwall {

class EventQueue;

/** Escalation thresholds. */
struct WatchdogConfig
{
    /** Completed-access latency (cycles) that triggers a warning. */
    Cycles warn_latency = 100'000;
    /** Completed-access latency that triggers the fatal handler. */
    Cycles fatal_latency = 1'000'000;
    /** Period of the open-transaction scan event (armOn). */
    Tick scan_interval = 10'000;
    /** Open-transaction age at which to warn. */
    Tick stall_warn = 50'000;
    /** Age at which to dump the flight recorder. */
    Tick stall_dump = 100'000;
    /** Age at which to run the fatal handler. */
    Tick stall_fatal = 500'000;
};

/** Watchdog over protocol transactions. */
class TransactionWatchdog
{
  public:
    using FatalHandler = std::function<void(const std::string &)>;

    /**
     * @param config    thresholds
     * @param recorder  optional flight recorder dumped at the dump
     *                  stage (and fed warn events)
     */
    explicit TransactionWatchdog(WatchdogConfig config = {},
                                 FlightRecorder *recorder = nullptr);

    /** Where dump-stage post-mortems go (default: std::cerr). */
    void setDumpStream(std::ostream &os) { dump_stream_ = &os; }

    /** Replace the fatal action (default: MW_FATAL). */
    void setFatalHandler(FatalHandler handler)
    {
        fatal_handler_ = std::move(handler);
    }

    // ---- Latency interest (synchronous transactions) --------------

    /** Report a completed access and its total latency. */
    void onComplete(unsigned cpu, Addr block, Cycles latency);

    // ---- Stall interest (open transactions) -----------------------

    /**
     * Register an in-flight transaction; @return its id for
     * endTransaction(). Never-ended transactions are the hang case
     * the scan detects.
     */
    std::uint64_t beginTransaction(unsigned node, Addr block,
                                   Tick now);

    /** Complete a registered transaction. */
    void endTransaction(std::uint64_t id, Tick now);

    /** Open transactions currently tracked. */
    std::size_t openTransactions() const { return open_.size(); }

    /**
     * Scan open transactions at time @p now, escalating any whose
     * age crossed a threshold. Called by the armed event; callable
     * directly from tests.
     */
    void scan(Tick now);

    /**
     * Arm a periodic scan on @p queue (every scan_interval ticks).
     * The scan re-arms itself for as long as the queue runs.
     */
    void armOn(EventQueue &queue);

    // ---- Outcome counters -----------------------------------------
    std::uint64_t warnings() const { return warnings_; }
    std::uint64_t dumps() const { return dumps_; }
    std::uint64_t fatals() const { return fatals_; }

  private:
    /** Highest escalation stage already fired (0 = none). */
    enum Stage : std::uint8_t { None = 0, Warned, Dumped, Fataled };

    struct OpenTxn
    {
        unsigned node = 0;
        Addr block = 0;
        Tick started = 0;
        Stage stage = None;
    };

    /** Escalate to @p target if not already there. */
    void escalate(Stage &stage, Stage target, unsigned node,
                  Addr block, Tick tick, const std::string &why);

    WatchdogConfig config_;
    FlightRecorder *recorder_;
    std::ostream *dump_stream_;
    FatalHandler fatal_handler_;
    std::uint64_t next_txn_ = 1;
    std::unordered_map<std::uint64_t, OpenTxn> open_;
    std::uint64_t warnings_ = 0;
    std::uint64_t dumps_ = 0;
    std::uint64_t fatals_ = 0;
};

} // namespace memwall

#endif // MEMWALL_VERIFY_WATCHDOG_HH
