#include "io/refresh.hh"

#include "checkpoint/state_io.hh"
#include "common/logging.hh"

namespace memwall {

RefreshAgent::RefreshAgent(RefreshConfig config,
                           const DramConfig &dram)
    : config_(config), banks_(dram.banks),
      column_bytes_(dram.column_bytes)
{
    MW_ASSERT(config_.rows_per_bank > 0, "need at least one row");
    MW_ASSERT(config_.max_per_call > 0,
              "refresh drain cap must be positive");
    const double window_cycles =
        config_.interval_ms * 1e-3 * config_.clock_mhz * 1e6;
    const double total_rows =
        static_cast<double>(config_.rows_per_bank) * banks_;
    interval_ = window_cycles / total_rows;
    MW_ASSERT(interval_ >= 1.0,
              "refresh rate exceeds one per cycle");
}

unsigned
RefreshAgent::drainUpTo(Dram &dram, Tick now)
{
    unsigned issued = 0;
    while (next_due_ <= static_cast<double>(now) &&
           issued < config_.max_per_call) {
        // Rotate across banks; the row within the bank is
        // irrelevant to timing, so address by bank stride.
        const std::uint32_t bank =
            static_cast<std::uint32_t>(rotor_ % banks_);
        const std::uint32_t row = static_cast<std::uint32_t>(
            rotor_ / banks_ % config_.rows_per_bank);
        const Addr addr =
            static_cast<Addr>(bank) * column_bytes_ +
            row * static_cast<Addr>(banks_) * column_bytes_;
        dram.access(static_cast<Tick>(next_due_), addr);
        issued_.inc();
        ++issued;
        ++rotor_;
        next_due_ += interval_;
    }
    return issued;
}

double
RefreshAgent::overheadFraction(const DramConfig &dram) const
{
    const double busy = static_cast<double>(dram.access_cycles +
                                            dram.precharge_cycles);
    return busy / (interval_ * banks_);
}

void
RefreshAgent::saveState(ckpt::Encoder &e) const
{
    e.varint(banks_);
    e.varint(config_.rows_per_bank);
    e.f64(next_due_);
    e.varint(rotor_);
    ckpt::putCounter(e, issued_);
}

void
RefreshAgent::loadState(ckpt::Decoder &d)
{
    const std::uint64_t banks = d.varint();
    const std::uint64_t rows = d.varint();
    if (d.failed())
        return;
    if (banks != banks_ || rows != config_.rows_per_bank) {
        d.fail("refresh agent: checkpoint geometry mismatch");
        return;
    }
    const double next_due = d.f64();
    const std::uint64_t rotor = d.varint();
    Counter issued;
    ckpt::getCounter(d, issued);
    if (d.failed())
        return;
    next_due_ = next_due;
    rotor_ = rotor;
    issued_ = issued;
}

} // namespace memwall
