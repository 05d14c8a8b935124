/**
 * @file
 * Tests for the Section 8 I/O agents: frame-buffer scan-out and
 * DRAM refresh, standalone and integrated into the device.
 */

#include <gtest/gtest.h>

#include "core/pim_device.hh"
#include "io/framebuffer.hh"
#include "io/refresh.hh"
#include "trace/synthetic.hh"

using namespace memwall;

TEST(Framebuffer, BandwidthMath)
{
    FramebufferConfig c;  // 1024x768x8bpp @72Hz
    EXPECT_EQ(c.frameBytes(), 1024ull * 768);
    EXPECT_NEAR(c.bandwidthMBps(), 56.6, 0.1);
    // 1536 columns per frame, 200e6/72 cycles per frame.
    FramebufferAgent agent(c);
    EXPECT_NEAR(agent.columnInterval(), (200e6 / 72.0) / 1536.0,
                1.0);
}

TEST(Framebuffer, ScansSequentiallyAndWraps)
{
    FramebufferConfig c;
    c.width = 64;
    c.height = 16;  // 1 KiB frame = 2 columns
    c.refresh_hz = 1e5;
    FramebufferAgent agent(c);
    Dram dram;
    // One full frame of scan-out.
    const double frame_cycles = 200e6 / 1e5;
    agent.drainUpTo(dram, static_cast<Tick>(frame_cycles));
    EXPECT_GE(agent.columnsFetched(), 2u);
    EXPECT_EQ(dram.totalAccesses(), agent.columnsFetched());
}

TEST(Framebuffer, DrainIsIdempotentAtSameTime)
{
    FramebufferAgent agent;
    Dram dram;
    agent.drainUpTo(dram, 100000);
    const auto first = agent.columnsFetched();
    agent.drainUpTo(dram, 100000);
    EXPECT_EQ(agent.columnsFetched(), first);
}

TEST(Framebuffer, LateStartSkipsMissedFrames)
{
    FramebufferAgent agent;
    Dram dram;
    // Jump 10^9 cycles in: catch-up must stay bounded to ~1 frame.
    agent.drainUpTo(dram, 1'000'000'000);
    const double per_frame =
        agent.config().frameBytes() / 512.0;
    EXPECT_LE(agent.columnsFetched(),
              static_cast<std::uint64_t>(per_frame) + 2);
}

TEST(Refresh, RateMath)
{
    RefreshConfig c;  // 64 ms, 8192 rows/bank
    DramConfig d;     // 16 banks
    RefreshAgent agent(c, d);
    // 131072 rows in 12.8M cycles -> one refresh every ~97.7 cycles.
    EXPECT_NEAR(agent.refreshInterval(), 97.66, 0.5);
    // Overhead: 10 busy cycles per bank per 1562 cycles = 0.64%.
    EXPECT_NEAR(agent.overheadFraction(d), 0.0064, 0.0005);
}

TEST(Refresh, DrainCapBoundsOneCallAndDeficitCarries)
{
    RefreshConfig c;
    c.max_per_call = 100;
    DramConfig d;
    RefreshAgent agent(c, d);
    Dram dram(d);
    // A huge time jump owes ~10240 refreshes; one call issues at
    // most the cap.
    EXPECT_EQ(agent.drainUpTo(dram, 1'000'000), 100u);
    EXPECT_EQ(agent.refreshesIssued(), 100u);
    // The deficit carries: repeated calls at the SAME time keep
    // catching up until the backlog is paid off.
    EXPECT_EQ(agent.drainUpTo(dram, 1'000'000), 100u);
    unsigned total = 200;
    while (unsigned n = agent.drainUpTo(dram, 1'000'000)) {
        EXPECT_LE(n, 100u);
        total += n;
    }
    // ~97.66 cycles per refresh over 1M cycles.
    EXPECT_NEAR(static_cast<double>(total), 1'000'000 / 97.66, 2.0);
    // Fully caught up: nothing more is due.
    EXPECT_EQ(agent.drainUpTo(dram, 1'000'000), 0u);
}

TEST(Refresh, DefaultCapInvisibleAtNormalCadence)
{
    RefreshConfig c;  // default 64 Ki cap
    DramConfig d;
    RefreshAgent agent(c, d);
    Dram dram(d);
    // Normal per-access drain cadence: small forward steps never
    // come close to the cap.
    for (Tick t = 256; t <= 100'000; t += 256)
        EXPECT_LE(agent.drainUpTo(dram, t), 4u);
    EXPECT_NEAR(static_cast<double>(agent.refreshesIssued()),
                100'000 / 97.66, 2.0);
}

TEST(RefreshDeath, ZeroCapRejected)
{
    RefreshConfig c;
    c.max_per_call = 0;
    EXPECT_DEATH(RefreshAgent(c, DramConfig{}), "cap");
}

TEST(Refresh, RotatesAcrossBanks)
{
    RefreshConfig c;
    DramConfig d;
    RefreshAgent agent(c, d);
    Dram dram(d);
    agent.drainUpTo(dram, 10000);  // ~102 refreshes
    EXPECT_GE(agent.refreshesIssued(), 100u);
    // Every bank got roughly its share (busy on all banks).
    for (unsigned b = 0; b < d.banks; ++b)
        EXPECT_GT(dram.bankUtilisation(b, 10000), 0.0) << b;
}

TEST(PimDeviceIo, FramebufferStealsBandwidth)
{
    SyntheticSpec spec;
    spec.name = "stream";
    spec.routines = {CodeRoutine{0x1000, 512, 1.0, 50.0, -1}};
    DataStream stream;
    stream.base = 0x100000;
    stream.size = 8 * MiB;  // streaming: constant DRAM traffic
    stream.stride = 8;
    spec.streams = {stream};
    spec.refs_per_instr = 0.4;

    PimDeviceConfig plain;
    PimDevice quiet(plain);
    SyntheticWorkload w1(spec);
    const double cpi_quiet = quiet.runWorkload(w1, 300'000);

    PimDeviceConfig noisy = plain;
    noisy.framebuffer_enabled = true;
    noisy.framebuffer.width = 1920;
    noisy.framebuffer.height = 1080;
    noisy.framebuffer.bits_per_pixel = 24;
    PimDevice loud(noisy);
    SyntheticWorkload w2(spec);
    const double cpi_noisy = loud.runWorkload(w2, 300'000);

    EXPECT_GT(loud.framebuffer()->columnsFetched(), 100u);
    // Scan-out steals bank slots: CPI can only get worse.
    EXPECT_GE(cpi_noisy, cpi_quiet);
}

TEST(PimDeviceIo, RefreshCostIsSmall)
{
    SyntheticSpec spec;
    spec.name = "hot";
    spec.routines = {CodeRoutine{0x1000, 512, 1.0, 50.0, -1}};
    DataStream hot;
    hot.base = 0x100000;
    hot.size = 4 * KiB;
    spec.streams = {hot};
    spec.refs_per_instr = 0.3;

    PimDevice quiet;
    SyntheticWorkload w1(spec);
    const double cpi_quiet = quiet.runWorkload(w1, 200'000);

    PimDeviceConfig cfg;
    cfg.refresh_enabled = true;
    PimDevice refreshing(cfg);
    SyntheticWorkload w2(spec);
    const double cpi_ref = refreshing.runWorkload(w2, 200'000);

    EXPECT_GT(refreshing.refreshAgent()->refreshesIssued(), 1000u);
    // Distributed refresh costs well under 2% CPI.
    EXPECT_LT(cpi_ref, cpi_quiet * 1.02 + 0.01);
}
