/**
 * @file
 * DRAM refresh agent.
 *
 * A 256 Mbit DRAM must refresh every row periodically (the classic
 * 64 ms retention window). Integration does not remove this tax:
 * refresh operations occupy banks exactly like accesses, and on a
 * device whose banks double as the processor's caches they briefly
 * steal the memory pipeline. The agent issues distributed refresh
 * (one row at a time, rotating across banks) and shares the Dram
 * with the CPU and the frame buffer.
 */

#ifndef MEMWALL_IO_REFRESH_HH
#define MEMWALL_IO_REFRESH_HH

#include <cstdint>

#include "checkpoint/codec.hh"
#include "common/stats.hh"
#include "mem/dram.hh"

namespace memwall {

/** Retention and geometry parameters. */
struct RefreshConfig
{
    /** Retention window in milliseconds. */
    double interval_ms = 64.0;
    /** Rows per bank needing refresh within the window. */
    std::uint32_t rows_per_bank = 8192;
    /** Core clock, MHz. */
    double clock_mhz = 200.0;
    /**
     * Cap on refreshes issued by a single drainUpTo() call. A caller
     * that jumps far ahead in time (a simulator fast-forward, a
     * resumed checkpoint) would otherwise spin the drain loop for
     * millions of iterations; capped, the deficit carries forward and
     * subsequent calls catch up incrementally. 64 Ki refreshes cover
     * a ~6.4 M-cycle jump at the default rate — far beyond anything
     * the normal per-access drain cadence produces.
     */
    std::uint32_t max_per_call = 64 * 1024;
};

/** Distributed-refresh generator. */
class RefreshAgent
{
  public:
    RefreshAgent(RefreshConfig config, const DramConfig &dram);

    /** Cycles between consecutive row refreshes (any bank). */
    double refreshInterval() const { return interval_; }

    /**
     * Issue refreshes due at or before @p now — at most
     * config.max_per_call of them; any remaining deficit is issued
     * by later calls.
     * @return the number of refreshes issued by this call.
     */
    unsigned drainUpTo(Dram &dram, Tick now);

    std::uint64_t refreshesIssued() const
    {
        return issued_.value();
    }

    /** Fraction of total bank time refresh consumes (analytic). */
    double overheadFraction(const DramConfig &dram) const;

    /** Serialize the refresh cursor (due time, rotor, counter). */
    void saveState(ckpt::Encoder &e) const;

    /** All-or-nothing restore; fails the decoder on mismatch. */
    void loadState(ckpt::Decoder &d);

  private:
    RefreshConfig config_;
    std::uint32_t banks_;
    std::uint32_t column_bytes_;
    double interval_;
    double next_due_ = 0.0;
    std::uint64_t rotor_ = 0;
    Counter issued_;
};

} // namespace memwall

#endif // MEMWALL_IO_REFRESH_HH
