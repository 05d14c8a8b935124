/**
 * @file
 * Tests for the deterministic execution-driven MP scheduler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "mp/scheduler.hh"

using namespace memwall;

TEST(MpScheduler, SingleCpuRunsToCompletion)
{
    MpScheduler sched(1);
    int ran = 0;
    const Tick makespan = sched.run([&](SimContext &ctx) {
        ctx.advance(10);
        ctx.advance(5);
        ++ran;
    });
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(makespan, 15u);
    EXPECT_EQ(sched.cpuTime(0), 15u);
}

TEST(MpScheduler, AllCpusRunBody)
{
    MpScheduler sched(8);
    std::atomic<int> ran{0};
    sched.run([&](SimContext &ctx) {
        ctx.advance(ctx.cpuId() + 1);
        ++ran;
    });
    EXPECT_EQ(ran.load(), 8);
    for (unsigned cpu = 0; cpu < 8; ++cpu)
        EXPECT_EQ(sched.cpuTime(cpu), cpu + 1);
}

TEST(MpScheduler, ExactModeInterleavesByVirtualTime)
{
    // quantum 0: events append in global virtual-time order.
    MpScheduler sched(2, /*quantum=*/0);
    std::vector<std::pair<unsigned, Tick>> log;
    sched.run([&](SimContext &ctx) {
        for (int i = 0; i < 5; ++i) {
            ctx.advance(ctx.cpuId() == 0 ? 3 : 5);
            log.emplace_back(ctx.cpuId(), ctx.now());
        }
    });
    // Verify the log is sorted by (time, cpu) — the lowest-first
    // discipline.
    for (std::size_t i = 1; i < log.size(); ++i) {
        EXPECT_TRUE(log[i - 1].second < log[i].second ||
                    (log[i - 1].second == log[i].second &&
                     log[i - 1].first <= log[i].first))
            << "entry " << i;
    }
}

TEST(MpScheduler, DeterministicAcrossRuns)
{
    auto run_once = [] {
        MpScheduler sched(4, 16);
        std::vector<unsigned> order;
        sched.run([&](SimContext &ctx) {
            for (int i = 0; i < 50; ++i) {
                ctx.advance(1 + (ctx.cpuId() * 7 + i) % 5);
                order.push_back(ctx.cpuId());
            }
        });
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(MpScheduler, QuantumBoundsSkew)
{
    // With quantum Q, whenever a CPU executes, it is at most Q ahead
    // of the slowest runnable CPU.
    const Tick q = 32;
    MpScheduler sched(3, q);
    std::vector<Tick> mins;
    bool ok = true;
    sched.run([&](SimContext &ctx) {
        for (int i = 0; i < 200; ++i) {
            ctx.advance(3);
            // After advance returns we hold the token: our time may
            // exceed the minimum by at most Q + one step.
            Tick me = ctx.now();
            Tick min_other = me;
            for (unsigned c = 0; c < 3; ++c)
                min_other =
                    std::min(min_other,
                             ctx.scheduler().timeOf(c));
            if (me > min_other + q + 3)
                ok = false;
        }
    });
    EXPECT_TRUE(ok);
}

TEST(MpScheduler, BlockUnblockHandshake)
{
    MpScheduler sched(2, 0);
    Tick woken_at = 0;
    sched.run([&](SimContext &ctx) {
        if (ctx.cpuId() == 0) {
            ctx.scheduler().block(0);
            woken_at = ctx.now();
            ctx.advance(1);
        } else {
            ctx.advance(100);
            ctx.scheduler().unblock(0, 500);
            ctx.advance(1);
        }
    });
    // CPU 0 resumed with its clock pushed to the unblock time.
    EXPECT_EQ(woken_at, 500u);
    EXPECT_EQ(sched.cpuTime(0), 501u);
}

TEST(MpScheduler, MakespanIsMaxTime)
{
    MpScheduler sched(3);
    const Tick makespan = sched.run([&](SimContext &ctx) {
        ctx.advance(10 * (ctx.cpuId() + 1));
    });
    EXPECT_EQ(makespan, 30u);
}

TEST(MpScheduler, ReusableForSecondRun)
{
    MpScheduler sched(2);
    sched.run([](SimContext &ctx) { ctx.advance(5); });
    const Tick second = sched.run([](SimContext &ctx) {
        ctx.advance(7);
    });
    EXPECT_EQ(second, 7u);
}

namespace {

/** Per-CPU final times, the (cpu, time) log and block count of a run. */
struct RunTrace
{
    std::vector<Tick> times;
    std::vector<std::pair<unsigned, Tick>> log;
    unsigned blocks = 0;
};

/**
 * Four CPUs, quantum 16, mixing advance with block/unblock: each
 * odd CPU waits on a semaphore its even partner posts to every 25
 * steps. Odd CPUs step faster, so they do block. @p salt varies the
 * step costs between schedulers.
 */
RunTrace
mixedRun(unsigned salt)
{
    constexpr unsigned ncpus = 4;
    MpScheduler sched(ncpus, 16);
    RunTrace trace;
    std::vector<unsigned> posted(ncpus, 0);
    std::vector<bool> parked(ncpus, false);
    sched.run([&](SimContext &ctx) {
        const unsigned me = ctx.cpuId();
        for (unsigned i = 0; i < 2000; ++i) {
            ctx.advance((me % 2 == 1 ? 1 : 4) + (me * 7 + i * salt) % 5);
            trace.log.emplace_back(me, ctx.now());
            if (i % 25 != 0)
                continue;
            if (me % 2 == 1) {
                if (posted[me] == 0) {
                    parked[me] = true;
                    ++trace.blocks;
                    ctx.scheduler().block(me);
                } else {
                    --posted[me];
                }
            } else if (parked[me + 1]) {
                parked[me + 1] = false;
                ctx.scheduler().unblock(me + 1, ctx.now());
            } else {
                ++posted[me + 1];
            }
        }
    });
    for (unsigned cpu = 0; cpu < ncpus; ++cpu)
        trace.times.push_back(sched.cpuTime(cpu));
    return trace;
}

/** Recurse @p depth frames of 16 KiB, yielding at the bottom. */
unsigned
deepStack(SimContext &ctx, unsigned depth)
{
    volatile unsigned char frame[16 * 1024];
    frame[0] = static_cast<unsigned char>(depth);
    frame[sizeof frame - 1] = static_cast<unsigned char>(depth);
    if (depth == 0) {
        ctx.advance(1);
        return frame[0];
    }
    return deepStack(ctx, depth - 1) + frame[sizeof frame - 1];
}

/**
 * Recurse @p depth frames of 512 bytes. The frames are smaller than
 * a page, so an overflowing stack is caught by its guard page.
 */
unsigned
smallFrames(unsigned depth)
{
    volatile unsigned char frame[512];
    frame[0] = static_cast<unsigned char>(depth);
    if (depth == 0)
        return frame[0];
    return smallFrames(depth - 1) + frame[0];
}

} // namespace

TEST(MpScheduler, ConcurrentSchedulersMatchSerialRuns)
{
    // The server runs several SPLASH points at once, each with its
    // own scheduler on its own host thread.
    // Repeated, so the runs overlap in every phase, fiber start-up
    // included.
    constexpr int rounds = 20;
    const RunTrace serial_a = mixedRun(1);
    const RunTrace serial_b = mixedRun(3);
    std::vector<RunTrace> conc_a(rounds), conc_b(rounds);
    std::atomic<bool> go{false};
    std::thread ta([&] {
        while (!go.load())
            std::this_thread::yield();
        for (RunTrace &t : conc_a)
            t = mixedRun(1);
    });
    std::thread tb([&] {
        while (!go.load())
            std::this_thread::yield();
        for (RunTrace &t : conc_b)
            t = mixedRun(3);
    });
    go.store(true);
    ta.join();
    tb.join();
    EXPECT_GT(serial_a.blocks, 0u);
    EXPECT_GT(serial_b.blocks, 0u);
    EXPECT_NE(serial_a.log, serial_b.log);
    for (int r = 0; r < rounds; ++r) {
        EXPECT_EQ(conc_a[r].times, serial_a.times) << "round " << r;
        EXPECT_EQ(conc_a[r].log, serial_a.log) << "round " << r;
        EXPECT_EQ(conc_a[r].blocks, serial_a.blocks) << "round " << r;
        EXPECT_EQ(conc_b[r].times, serial_b.times) << "round " << r;
        EXPECT_EQ(conc_b[r].log, serial_b.log) << "round " << r;
        EXPECT_EQ(conc_b[r].blocks, serial_b.blocks) << "round " << r;
    }
}

TEST(MpScheduler, BodyMayUseAMebibyteOfStack)
{
    MpScheduler sched(4, 0);
    std::vector<unsigned> sums(4, 0);
    sched.run([&](SimContext &ctx) {
        // 65 frames of 16 KiB, every CPU suspended at the bottom.
        sums[ctx.cpuId()] = deepStack(ctx, 64);
    });
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        EXPECT_EQ(sums[cpu], 64u * 65u / 2u) << "cpu " << cpu;
        EXPECT_EQ(sched.cpuTime(cpu), 1u);
    }
}

TEST(MpSchedulerDeath, FinishWithOnlyBlockedPeersPanics)
{
    // CPU 1 finishes while CPU 0 waits for a wake-up that can never
    // come: run() must report it, not hang.
    EXPECT_DEATH(
        {
            MpScheduler sched(2, 0);
            sched.run([](SimContext &ctx) {
                if (ctx.cpuId() == 0)
                    ctx.scheduler().block(0);
                else
                    ctx.advance(5);
            });
        },
        "cpu 0 did not finish");
}

TEST(MpSchedulerDeath, FiberStackOverflowFaults)
{
    // 512 MiB of frames cannot fit an 8 MiB fiber stack.
    EXPECT_DEATH(
        {
            MpScheduler sched(2, 0);
            sched.run([](SimContext &ctx) {
                if (ctx.cpuId() == 1)
                    smallFrames(1u << 20);
            });
        },
        "");
}

TEST(MpSchedulerDeath, DeadlockDetected)
{
    // Every CPU blocks and nobody can unblock: panic, not hang.
    EXPECT_DEATH(
        {
            MpScheduler sched(1, 0);
            sched.run([](SimContext &ctx) {
                ctx.scheduler().block(0);
            });
        },
        "deadlock");
}
