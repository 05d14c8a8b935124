#include "sampling/splash_sampler.hh"

#include <algorithm>

#include "checkpoint/state_io.hh"

namespace memwall {

namespace {

/**
 * Quantum multiplier during fast-forward. A token hand-off is one
 * cheap fiber switch, so the value buys little host time; it is kept
 * because sampled output bytes and the sampled goldens depend on it.
 * Larger values coarsen the CPU interleaving, which perturbs the
 * coherence traffic the warm window then has to re-establish; a
 * modest 16x keeps the distortion inside the sampling noise
 * (validated by bench/validation_sampling_crosscheck).
 */
constexpr Tick ff_quantum_scale = 16;

/**
 * Fast-forward accesses batched per scheduler advance; fixed for the
 * same reason as the quantum multiplier.
 */
constexpr std::uint32_t ff_flush_accesses = 512;

} // namespace

SplashSampler::SplashSampler(const SamplingPlan &plan, unsigned ncpus,
                             Tick normal_quantum)
    : plan_(plan), cursor_(plan), normal_quantum_(normal_quantum),
      pending_(ncpus)
{
    MW_ASSERT(plan_.scheme == SampleScheme::Systematic,
              "the MP sampler interleaves one access stream and "
              "supports systematic plans only");
}

void
SplashSampler::access(NumaMachine &machine, SimContext &ctx,
                      Addr addr, bool store)
{
    const SampleMode mode =
        stopped_ ? SampleMode::FastForward : cursor_.mode();
    switch (mode) {
    case SampleMode::Detail: {
        flushPending(ctx);
        const Cycles lat =
            machine.access(ctx.cpuId(), addr, store, ctx.now());
        ++detail_;
        detail_cycles_ += lat;
        unit_cycles_ += lat;
        ++unit_count_;
        ctx.advance(lat);
        break;
    }
    case SampleMode::Warm: {
        flushPending(ctx);
        ++warm_;
        ctx.advance(
            machine.access(ctx.cpuId(), addr, store, ctx.now()));
        break;
    }
    case SampleMode::FastForward: {
        // Full machine model (continuous functional warming), coarse
        // time accounting: the latency is banked and charged in one
        // batched advance.
        ++ff_;
        Pending &p = pending_[ctx.cpuId()];
        p.cycles +=
            machine.access(ctx.cpuId(), addr, store, ctx.now());
        if (++p.accesses >= ff_flush_accesses)
            flushPending(ctx);
        break;
    }
    }
    if (!stopped_)
        step(ctx, mode);
}

void
SplashSampler::step(SimContext &ctx, SampleMode before)
{
    cursor_.advance(1);
    if (cursor_.unitJustCompleted()) {
        // Zero-access detail units cannot happen: the cursor only
        // completes a unit after unit_refs accesses passed through
        // the Detail branch above.
        unit_means_.add(static_cast<double>(unit_cycles_) /
                        static_cast<double>(unit_count_));
        unit_cycles_ = 0;
        unit_count_ = 0;
        if (plan_.adaptive() &&
            unit_means_.count() >= plan_.units) {
            const ConfidenceInterval ci = latencyCi();
            if ((ci.valid && ci.relative() <= plan_.target_ci) ||
                unit_means_.count() >= plan_.max_units)
                stopped_ = true;  // fast-forward to the end
        }
    }
    const SampleMode after =
        stopped_ ? SampleMode::FastForward : cursor_.mode();
    if (after != before)
        setFastForwardQuantum(ctx,
                              after == SampleMode::FastForward);
}

void
SplashSampler::setFastForwardQuantum(SimContext &ctx, bool ff)
{
    if (ff == quantum_inflated_)
        return;
    quantum_inflated_ = ff;
    // max() keeps the inflation meaningful for quantum 0 (exact
    // lowest-time-first interleaving).
    ctx.scheduler().setQuantum(
        ff ? std::max<Tick>(normal_quantum_, 1) * ff_quantum_scale
           : normal_quantum_);
}

double
SplashSampler::detailMeanLatency() const
{
    if (detail_ == 0)
        return 0.0;
    return static_cast<double>(detail_cycles_) /
           static_cast<double>(detail_);
}

void
SplashSampler::saveState(ckpt::Encoder &e) const
{
    e.u64(samplingPlanHash(plan_));
    e.varint(pending_.size());
    e.varint(normal_quantum_);
    cursor_.saveState(e);
    e.u8((stopped_ ? 1u : 0u) | (quantum_inflated_ ? 2u : 0u));
    for (const Pending &p : pending_) {
        e.varint(p.cycles);
        e.varint(p.accesses);
    }
    e.varint(unit_cycles_);
    e.varint(unit_count_);
    e.varint(detail_cycles_);
    ckpt::putSampleStat(e, unit_means_);
    e.varint(detail_);
    e.varint(warm_);
    e.varint(ff_);
}

void
SplashSampler::loadState(ckpt::Decoder &d)
{
    const std::uint64_t hash = d.u64();
    const std::uint64_t ncpus = d.varint();
    const std::uint64_t quantum = d.varint();
    if (d.failed())
        return;
    if (hash != samplingPlanHash(plan_) ||
        ncpus != pending_.size() || quantum != normal_quantum_) {
        d.fail("splash sampler: checkpoint plan/topology mismatch");
        return;
    }

    SystematicCursor cursor = cursor_;
    cursor.loadState(d);
    const std::uint8_t flags = d.u8();
    if (d.failed())
        return;
    if (flags > 3) {
        d.fail("splash sampler: invalid flags");
        return;
    }
    std::vector<Pending> pending(pending_.size());
    for (Pending &p : pending) {
        p.cycles = d.varint();
        p.accesses = static_cast<std::uint32_t>(d.varint());
    }
    const std::uint64_t unit_cycles = d.varint();
    const std::uint64_t unit_count = d.varint();
    const std::uint64_t detail_cycles = d.varint();
    SampleStat unit_means;
    ckpt::getSampleStat(d, unit_means);
    const std::uint64_t detail = d.varint();
    const std::uint64_t warm = d.varint();
    const std::uint64_t ff = d.varint();
    if (d.failed())
        return;

    cursor_ = cursor;
    stopped_ = (flags & 1u) != 0;
    quantum_inflated_ = (flags & 2u) != 0;
    pending_ = std::move(pending);
    unit_cycles_ = unit_cycles;
    unit_count_ = unit_count;
    detail_cycles_ = detail_cycles;
    unit_means_ = unit_means;
    detail_ = detail;
    warm_ = warm;
    ff_ = ff;
}

} // namespace memwall
