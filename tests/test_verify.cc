/**
 * @file
 * Tests for the runtime verification subsystem: flight recorder,
 * shadow coherence checker, transaction watchdogs and the
 * CoherenceVerifier end-to-end (mutation detection, zero-cost
 * detach, stalled-transaction diagnosis).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/event_queue.hh"
#include "verify/verifier.hh"

using namespace memwall;

// ---- Flight recorder --------------------------------------------------

TEST(FlightRecorder, RecordsAndRetains)
{
    FlightRecorder rec(2, /*per_node=*/4);
    rec.record(0, FlightKind::AccessEnd, 10, 0x100, 1, 2);
    rec.record(1, FlightKind::Invalidate, 20, 0x200);
    EXPECT_EQ(rec.recorded(), 2u);
    EXPECT_EQ(rec.retained(0), 1u);
    EXPECT_EQ(rec.retained(1), 1u);
    const auto events = rec.events(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].tick, 10u);
    EXPECT_EQ(events[0].addr, 0x100u);
    EXPECT_EQ(events[0].kind, FlightKind::AccessEnd);
}

TEST(FlightRecorder, RingOverwritesOldestFirst)
{
    FlightRecorder rec(1, /*per_node=*/3);
    for (Tick t = 0; t < 10; ++t)
        rec.record(0, FlightKind::TxnBegin, t, 0x40 * t);
    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.retained(0), 3u);
    const auto events = rec.events(0);
    ASSERT_EQ(events.size(), 3u);
    // Oldest-first snapshot of the last K events.
    EXPECT_EQ(events[0].tick, 7u);
    EXPECT_EQ(events[1].tick, 8u);
    EXPECT_EQ(events[2].tick, 9u);
}

TEST(FlightRecorder, DumpDecodesKindsAndReason)
{
    FlightRecorder rec(1, 8);
    rec.record(0, FlightKind::Invalidate, 5, 0x1000);
    rec.record(0, FlightKind::WatchdogWarn, 9, 0x1000, 2);
    std::ostringstream os;
    rec.dump(os, "unit test");
    const std::string text = os.str();
    EXPECT_NE(text.find("flight recorder dump"), std::string::npos);
    EXPECT_NE(text.find("unit test"), std::string::npos);
    EXPECT_NE(text.find("invalidate"), std::string::npos);
    EXPECT_NE(text.find("watchdog-warn"), std::string::npos);
    EXPECT_NE(text.find("stage=2"), std::string::npos);
}

TEST(FlightRecorder, ClearDropsEventsKeepsCounter)
{
    FlightRecorder rec(1, 4);
    rec.record(0, FlightKind::TxnBegin, 1, 0x40);
    rec.clear();
    EXPECT_EQ(rec.retained(0), 0u);
    EXPECT_EQ(rec.recorded(), 1u);
}

// ---- Shadow checker ---------------------------------------------------

namespace {

DirEntry
sharedEntry(std::initializer_list<unsigned> nodes)
{
    DirEntry e;
    for (unsigned n : nodes)
        e.addSharer(n);
    return e;
}

DirEntry
modifiedEntry(unsigned owner)
{
    DirEntry e;
    e.setModified(owner);
    return e;
}

} // namespace

TEST(ShadowChecker, CleanHistoryHasNoViolations)
{
    ShadowChecker checker(4);
    // Node 0 loads, node 1 loads, node 1 stores (0 invalidated).
    EXPECT_TRUE(checker
                    .onAccessEnd(0, 0x100, false,
                                 ServiceLevel::LocalMemory,
                                 sharedEntry({0}))
                    .empty());
    EXPECT_TRUE(checker
                    .onAccessEnd(1, 0x100, false,
                                 ServiceLevel::Remote,
                                 sharedEntry({0, 1}))
                    .empty());
    checker.onInvalidate(0, 0x100);
    EXPECT_TRUE(checker
                    .onAccessEnd(1, 0x100, true,
                                 ServiceLevel::Invalidation,
                                 modifiedEntry(1))
                    .empty());
    EXPECT_EQ(checker.violations(), 0u);
    EXPECT_EQ(checker.checked(), 3u);
    EXPECT_TRUE(checker.holds(1, 0x100));
    EXPECT_FALSE(checker.holds(0, 0x100));
}

TEST(ShadowChecker, SwmrCatchesStaleSharerUnderModified)
{
    ShadowChecker checker(4);
    checker.onAccessEnd(0, 0x100, false, ServiceLevel::LocalMemory,
                        sharedEntry({0}));
    // Node 1 stores but node 0 was never invalidated (the
    // skip-invalidate mutation): SWMR must fire.
    const auto v = checker.onAccessEnd(1, 0x100, true,
                                       ServiceLevel::Invalidation,
                                       modifiedEntry(1));
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].node, 0u);
    EXPECT_NE(v[0].what.find("SWMR"), std::string::npos);
}

TEST(ShadowChecker, StoreMustEndModifiedOwnedByWriter)
{
    ShadowChecker checker(4);
    // The wrong-owner mutation: node 1's store ends Modified(2).
    const auto v = checker.onAccessEnd(1, 0x100, true,
                                       ServiceLevel::LocalMemory,
                                       modifiedEntry(2));
    ASSERT_FALSE(v.empty());
    bool saw_swmr_store = false;
    for (const ShadowViolation &violation : v)
        saw_swmr_store |=
            violation.what.find(
                "Modified state owned by the writer") !=
            std::string::npos;
    EXPECT_TRUE(saw_swmr_store);
}

TEST(ShadowChecker, MissPathAccessMustBeTracked)
{
    ShadowChecker checker(4);
    // The drop-sharer mutation: node 0's load miss completed but the
    // directory still tracks nobody.
    const auto v = checker.onAccessEnd(0, 0x100, false,
                                       ServiceLevel::LocalMemory,
                                       DirEntry{});
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].what.find("does not track"), std::string::npos);
    // An untracked plain cache hit is legal (spatially prefetched
    // neighbour block): no violation, no holder added.
    EXPECT_TRUE(checker
                    .onAccessEnd(0, 0x140, false,
                                 ServiceLevel::CacheHit, DirEntry{})
                    .empty());
    EXPECT_FALSE(checker.holds(0, 0x140));
}

TEST(ShadowChecker, StaleReadDetectedThroughShadowCopy)
{
    ShadowChecker checker(4);
    checker.onAccessEnd(0, 0x100, false, ServiceLevel::LocalMemory,
                        sharedEntry({0}));
    // Node 1 stores; node 0 is NOT invalidated (mutation) yet the
    // directory claims broadcast-shared afterwards, hiding the SWMR
    // and presence mismatches. The stale copy is still caught the
    // moment node 0 reads it.
    DirEntry after_store;
    for (unsigned n = 0; n < 5; ++n)
        after_store.addSharer(n);  // 4th sharer forces broadcast
    ASSERT_EQ(after_store.state(), DirState::SharedBcast);
    checker.onAccessEnd(1, 0x100, true, ServiceLevel::Invalidation,
                        after_store);
    const auto v = checker.onAccessEnd(0, 0x100, false,
                                       ServiceLevel::CacheHit,
                                       after_store);
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].what.find("stale data read"), std::string::npos);
}

TEST(ShadowChecker, DataCheckCanBeDisabled)
{
    ShadowChecker checker(4, /*check_data=*/false);
    checker.onAccessEnd(0, 0x100, false, ServiceLevel::LocalMemory,
                        sharedEntry({0}));
    DirEntry bcast;
    for (unsigned n = 0; n < 5; ++n)
        bcast.addSharer(n);
    checker.onAccessEnd(1, 0x100, true, ServiceLevel::Invalidation,
                        bcast);
    EXPECT_TRUE(checker
                    .onAccessEnd(0, 0x100, false,
                                 ServiceLevel::CacheHit, bcast)
                    .empty());
}

// ---- Transaction watchdog ---------------------------------------------

TEST(Watchdog, PathologicalLatencyWarns)
{
    WatchdogConfig cfg;
    cfg.warn_latency = 1'000;
    TransactionWatchdog dog(cfg);
    dog.onComplete(0, 0x100, 2'000);
    EXPECT_EQ(dog.warnings(), 1u);
}

TEST(Watchdog, StalledTransactionTripsScan)
{
    FlightRecorder rec(2, 16);
    WatchdogConfig cfg;
    cfg.stall_warn = 100;
    cfg.stall_dump = 200;
    cfg.stall_fatal = 1'000'000;
    TransactionWatchdog dog(cfg, &rec);
    std::ostringstream dumps;
    dog.setDumpStream(dumps);

    const auto id = dog.beginTransaction(1, 0x2000, 0);
    EXPECT_EQ(dog.openTransactions(), 1u);
    dog.scan(50);
    EXPECT_EQ(dog.warnings(), 0u);
    dog.scan(150);
    EXPECT_EQ(dog.warnings(), 1u);
    dog.scan(250);
    EXPECT_EQ(dog.dumps(), 1u);
    // The post-mortem names the stalled transaction and decodes the
    // recorded txn-begin event.
    EXPECT_NE(dumps.str().find("stalled?"), std::string::npos);
    EXPECT_NE(dumps.str().find("txn-begin"), std::string::npos);
    dog.endTransaction(id, 260);
    EXPECT_EQ(dog.openTransactions(), 0u);
    // Each stage fires at most once per transaction.
    EXPECT_EQ(dog.warnings(), 1u);
    EXPECT_EQ(dog.dumps(), 1u);
}

TEST(Watchdog, ArmedScanFiresFromEventQueue)
{
    FlightRecorder rec(1, 8);
    WatchdogConfig cfg;
    cfg.scan_interval = 10;
    cfg.stall_warn = 25;
    cfg.stall_dump = 1'000'000;
    cfg.stall_fatal = 1'000'000;
    TransactionWatchdog dog(cfg, &rec);
    std::ostringstream dumps;
    dog.setDumpStream(dumps);

    EventQueue queue;
    dog.armOn(queue);
    dog.beginTransaction(0, 0x40, queue.now());
    queue.advanceTo(100);
    EXPECT_EQ(dog.warnings(), 1u);
}

// ---- Event queue periodic series --------------------------------------

TEST(EventQueuePeriodic, RearmsUntilCallbackStops)
{
    EventQueue queue;
    int fired = 0;
    queue.schedulePeriodic(10, [&fired] { return ++fired < 3; });
    queue.advanceTo(1'000);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueuePeriodic, FirstFiringTicketCancelsSeries)
{
    EventQueue queue;
    int fired = 0;
    const auto ticket =
        queue.schedulePeriodic(10, [&fired] { return ++fired < 5; });
    EXPECT_TRUE(queue.deschedule(ticket));
    queue.advanceTo(1'000);
    EXPECT_EQ(fired, 0);
}

// ---- CoherenceVerifier end-to-end -------------------------------------

namespace {

NumaConfig
torture(NodeArch arch, unsigned nodes = 4)
{
    NumaConfig c;
    c.nodes = nodes;
    c.arch = arch;
    c.victim_cache = arch == NodeArch::Integrated;
    return c;
}

/** Shared-heap mix with stores: exercises every protocol path. */
void
drive(NumaMachine &machine, unsigned rounds = 200)
{
    Tick now = 0;
    const unsigned nodes = machine.config().nodes;
    for (unsigned i = 0; i < rounds; ++i) {
        const unsigned cpu = i % nodes;
        // 13 is coprime to the node count, so every node visits
        // every block: plenty of sharing, invalidation and
        // migratory traffic.
        const Addr addr = 0x100000 + i % 13 * 32;
        now += machine.access(cpu, addr, i % 3 == 0, now);
    }
}

} // namespace

TEST(CoherenceVerifier, CleanRunOnEveryArch)
{
    for (NodeArch arch :
         {NodeArch::ReferenceCcNuma, NodeArch::Integrated,
          NodeArch::SimpleComa}) {
        NumaMachine machine(torture(arch));
        CoherenceVerifier verifier(machine);
        drive(machine);
        EXPECT_EQ(verifier.violations(), 0u);
        EXPECT_GT(verifier.checked(), 0u);
        EXPECT_GT(verifier.recorder().recorded(), 0u);
    }
}

TEST(CoherenceVerifier, AttachesAndDetaches)
{
    NumaMachine machine(torture(NodeArch::ReferenceCcNuma));
    EXPECT_EQ(machine.observer(), nullptr);
    {
        CoherenceVerifier verifier(machine);
        EXPECT_EQ(machine.observer(), &verifier);
    }
    EXPECT_EQ(machine.observer(), nullptr);
    // Detached machine runs the zero-cost fast path.
    drive(machine, 50);
}

TEST(CoherenceVerifierDeath, SecondObserverRejected)
{
    NumaMachine machine(torture(NodeArch::ReferenceCcNuma));
    CoherenceVerifier first(machine);
    EXPECT_DEATH(CoherenceVerifier second(machine),
                 "already has an observer");
}

TEST(CoherenceVerifier, EveryMutationDetectedWithDump)
{
    for (ProtocolMutation mutation :
         {ProtocolMutation::SkipInvalidate,
          ProtocolMutation::DropSharer,
          ProtocolMutation::WrongOwner,
          ProtocolMutation::MissedDowngrade}) {
        NumaConfig config = torture(NodeArch::ReferenceCcNuma);
        config.mutation = mutation;
        NumaMachine machine(config);
        VerifyConfig vc;
        vc.policy = ViolationPolicy::Count;
        CoherenceVerifier verifier(machine, vc);
        std::ostringstream report;
        verifier.setReportStream(report);
        drive(machine);
        EXPECT_GT(machine.mutatedTransitions(), 0u)
            << protocolMutationName(mutation);
        EXPECT_GT(verifier.violations(), 0u)
            << protocolMutationName(mutation);
        // Every detection comes with a decoded flight-recorder
        // post-mortem.
        EXPECT_NE(report.str().find("flight recorder dump"),
                  std::string::npos)
            << protocolMutationName(mutation);
        EXPECT_NE(report.str().find("access-end"), std::string::npos)
            << protocolMutationName(mutation);
    }
}

TEST(CoherenceVerifierDeath, FatalPolicyAborts)
{
    NumaConfig config = torture(NodeArch::ReferenceCcNuma);
    config.mutation = ProtocolMutation::SkipInvalidate;
    NumaMachine machine(config);
    VerifyConfig vc;
    vc.policy = ViolationPolicy::Fatal;
    EXPECT_EXIT(
        {
            CoherenceVerifier verifier(machine, vc);
            std::ostringstream sink;
            verifier.setReportStream(sink);
            drive(machine);
        },
        testing::ExitedWithCode(1), "coherence violation");
}
