#include "verify/watchdog.hh"

#include <iostream>
#include <sstream>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace memwall {

TransactionWatchdog::TransactionWatchdog(WatchdogConfig config,
                                         FlightRecorder *recorder)
    : config_(config), recorder_(recorder),
      dump_stream_(&std::cerr)
{
}

void
TransactionWatchdog::escalate(Stage &stage, Stage target,
                              unsigned node, Addr block, Tick tick,
                              const std::string &why)
{
    // Fire every stage between the current one and the target, each
    // at most once per transaction.
    if (target >= Warned && stage < Warned) {
        stage = Warned;
        ++warnings_;
        // Warnings follow the dump stream (stderr by default) so a
        // harness that redirects diagnostics per sweep point keeps
        // its stdout/stderr deterministic under --jobs N.
        (*dump_stream_) << "warn: watchdog: " << why << "\n";
        if (recorder_)
            recorder_->record(node, FlightKind::WatchdogWarn, tick,
                              block, Warned);
    }
    if (target >= Dumped && stage < Dumped) {
        stage = Dumped;
        ++dumps_;
        if (recorder_) {
            recorder_->record(node, FlightKind::WatchdogWarn, tick,
                              block, Dumped);
            recorder_->dump(*dump_stream_, "watchdog: " + why);
        }
    }
    if (target >= Fataled && stage < Fataled) {
        stage = Fataled;
        ++fatals_;
        if (fatal_handler_)
            fatal_handler_(why);
        else
            MW_FATAL("watchdog: ", why);
    }
}

void
TransactionWatchdog::onComplete(unsigned cpu, Addr block,
                                Cycles latency)
{
    Stage target = None;
    if (latency >= config_.fatal_latency)
        target = Fataled;
    else if (latency >= config_.warn_latency)
        target = Warned;
    if (target == None)
        return;
    Stage stage = None;
    std::ostringstream os;
    os << "access by node " << cpu << " on block 0x" << std::hex
       << block << std::dec << " took " << latency << " cycles";
    escalate(stage, target, cpu, block, 0, os.str());
}

std::uint64_t
TransactionWatchdog::beginTransaction(unsigned node, Addr block,
                                      Tick now)
{
    const std::uint64_t id = next_txn_++;
    open_.emplace(id, OpenTxn{node, block, now, None});
    if (recorder_)
        recorder_->record(node, FlightKind::TxnBegin, now, block,
                          id);
    return id;
}

void
TransactionWatchdog::endTransaction(std::uint64_t id, Tick now)
{
    auto it = open_.find(id);
    MW_ASSERT(it != open_.end(), "ending unknown transaction ", id);
    if (recorder_)
        recorder_->record(it->second.node, FlightKind::TxnEnd, now,
                          it->second.block, id);
    open_.erase(it);
}

void
TransactionWatchdog::scan(Tick now)
{
    for (auto &[id, txn] : open_) {
        const Tick age = now > txn.started ? now - txn.started : 0;
        Stage target = None;
        if (age >= config_.stall_fatal)
            target = Fataled;
        else if (age >= config_.stall_dump)
            target = Dumped;
        else if (age >= config_.stall_warn)
            target = Warned;
        if (target == None || txn.stage >= target)
            continue;
        std::ostringstream os;
        os << "transaction " << id << " by node " << txn.node
           << " on block 0x" << std::hex << txn.block << std::dec
           << " open for " << age << " cycles (started at "
           << txn.started << ", now " << now << ") -- stalled?";
        escalate(txn.stage, target, txn.node, txn.block, now,
                 os.str());
    }
}

void
TransactionWatchdog::armOn(EventQueue &queue)
{
    queue.schedulePeriodic(config_.scan_interval, [this, &queue] {
        scan(queue.now());
        return true;
    });
}

} // namespace memwall
