#include "gspn/simulator.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hh"

namespace memwall {

namespace {

std::size_t
wordsFor(std::size_t bits)
{
    return (bits + 63) / 64;
}

void
setBit(std::uint64_t *words, std::size_t i)
{
    words[i / 64] |= std::uint64_t{1} << (i % 64);
}

void
clearBit(std::uint64_t *words, std::size_t i)
{
    words[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

/** Call @p f on the index of each set bit of @p word, word @p w of a
 * bitset, lowest index first. */
template <typename F>
void
forEachBit(std::uint64_t word, std::size_t w, F &&f)
{
    for (; word; word &= word - 1)
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
}

} // namespace

GspnSimulator::GspnSimulator(const PetriNet &net, std::uint64_t seed)
    : net_(net), rng_(seed), seed_(seed),
      words_(wordsFor(net.numTransitions()))
{
    const std::size_t places = net_.numPlaces();
    const std::size_t transitions = net_.numTransitions();
    marking_.resize(places);
    timer_.resize(transitions);
    firings_.resize(transitions);
    token_time_.resize(places);
    busy_time_.resize(places);
    nonempty_.resize(wordsFor(places));
    immediate_.resize(words_);
    dirty_.resize(words_);
    enabled_.resize(words_);

    readers_.resize(places * words_);
    for (TransitionId t = 0; t < transitions; ++t) {
        const auto &trans = net_.transitions_[t];
        if (trans.kind == TransitionKind::Immediate)
            setBit(immediate_.data(), t);
        for (const auto *arcs :
             {&trans.inputs, &trans.tests, &trans.inhibitors})
            for (const auto &arc : *arcs)
                setBit(&readers_[arc.place * words_], t);
    }
    // The fired transition itself is affected too: a timed transition
    // that reads no place it changes (a source) needs a new timer.
    affected_.resize(transitions * words_);
    for (TransitionId t = 0; t < transitions; ++t) {
        std::uint64_t *mask = &affected_[t * words_];
        setBit(mask, t);
        const auto &trans = net_.transitions_[t];
        for (const auto *arcs : {&trans.inputs, &trans.outputs})
            for (const auto &arc : *arcs)
                for (std::size_t w = 0; w < words_; ++w)
                    mask[w] |= readers_[arc.place * words_ + w];
    }
    reset();
}

void
GspnSimulator::reset()
{
    now_ = 0.0;
    total_firings_ = 0;
    rng_ = Rng(seed_);
    std::fill(nonempty_.begin(), nonempty_.end(), 0);
    for (PlaceId p = 0; p < net_.places_.size(); ++p) {
        marking_[p] = net_.places_[p].initial;
        if (marking_[p] > 0)
            setBit(nonempty_.data(), p);
    }
    std::fill(timer_.begin(), timer_.end(), -1.0);
    std::fill(firings_.begin(), firings_.end(), 0);
    std::fill(token_time_.begin(), token_time_.end(), 0.0);
    std::fill(busy_time_.begin(), busy_time_.end(), 0.0);
    timers_.clear();
    std::fill(enabled_.begin(), enabled_.end(), 0);
    for (TransitionId t = 0; t < net_.transitions_.size(); ++t)
        setBit(dirty_.data(), t);
    fireImmediates();
    refreshTimers();
}

std::uint32_t
GspnSimulator::marking(PlaceId place) const
{
    MW_ASSERT(place < marking_.size(), "bad place id");
    return marking_[place];
}

void
GspnSimulator::setMarking(PlaceId place, std::uint32_t tokens)
{
    MW_ASSERT(place < marking_.size(), "bad place id");
    marking_[place] = tokens;
    if (tokens > 0)
        setBit(nonempty_.data(), place);
    else
        clearBit(nonempty_.data(), place);
    for (std::size_t w = 0; w < words_; ++w)
        dirty_[w] |= readers_[place * words_ + w];
    fireImmediates();
    refreshTimers();
}

bool
GspnSimulator::isEnabled(TransitionId t) const
{
    const auto &trans = net_.transitions_[t];
    for (const auto &arc : trans.inputs)
        if (marking_[arc.place] < arc.weight)
            return false;
    for (const auto &arc : trans.tests)
        if (marking_[arc.place] < arc.weight)
            return false;
    for (const auto &arc : trans.inhibitors)
        if (marking_[arc.place] >= arc.weight)
            return false;
    return true;
}

void
GspnSimulator::fire(TransitionId t)
{
    const auto &trans = net_.transitions_[t];
    for (const auto &arc : trans.inputs) {
        MW_ASSERT(marking_[arc.place] >= arc.weight,
                  "firing disabled transition ", trans.name);
        if ((marking_[arc.place] -= arc.weight) == 0)
            clearBit(nonempty_.data(), arc.place);
    }
    for (const auto &arc : trans.outputs) {
        marking_[arc.place] += arc.weight;
        setBit(nonempty_.data(), arc.place);
    }
    for (std::size_t w = 0; w < words_; ++w)
        dirty_[w] |= affected_[t * words_ + w];
    ++firings_[t];
    ++total_firings_;
}

void
GspnSimulator::fireImmediates()
{
    // Immediate transitions fire in priority order; ties are resolved
    // as a random switch weighted by the transition weights.
    constexpr std::uint64_t guard_limit = 100'000'000;
    std::uint64_t guard = 0;
    while (true) {
        // Re-test the dirty immediates; the others are as enabled as
        // when they were last tested.
        for (std::size_t w = 0; w < words_; ++w) {
            const std::uint64_t bits = dirty_[w] & immediate_[w];
            dirty_[w] &= ~bits;
            forEachBit(bits, w, [&](std::size_t t) {
                if (isEnabled(static_cast<TransitionId>(t)))
                    setBit(enabled_.data(), t);
                else
                    clearBit(enabled_.data(), t);
            });
        }
        // The top-priority enabled immediates in index order, their
        // weights summed in that order.
        int best_prio = std::numeric_limits<int>::min();
        double total_weight = 0.0;
        candidates_.clear();
        for (std::size_t w = 0; w < words_; ++w) {
            forEachBit(enabled_[w], w, [&](std::size_t t) {
                const auto &trans = net_.transitions_[t];
                if (trans.priority > best_prio) {
                    best_prio = trans.priority;
                    candidates_.clear();
                    total_weight = 0.0;
                }
                if (trans.priority == best_prio) {
                    candidates_.push_back(static_cast<TransitionId>(t));
                    total_weight += trans.param;
                }
            });
        }
        if (candidates_.empty())
            return;
        TransitionId chosen = candidates_.back();
        if (candidates_.size() > 1) {
            double pick = rng_.uniformReal() * total_weight;
            for (TransitionId t : candidates_) {
                pick -= net_.transitions_[t].param;
                if (pick <= 0.0) {
                    chosen = t;
                    break;
                }
            }
        }
        fire(chosen);
        if (++guard > guard_limit)
            MW_PANIC("immediate-transition livelock in GSPN");
    }
}

void
GspnSimulator::refreshTimers()
{
    // Dirty timed transitions in index order, so delays are drawn in
    // the order a scan of every transition would draw them.
    for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t bits = dirty_[w] & ~immediate_[w];
        dirty_[w] &= ~bits;
        forEachBit(bits, w, [&](std::size_t i) {
            const auto t = static_cast<TransitionId>(i);
            const auto &trans = net_.transitions_[t];
            if (!isEnabled(t)) {
                // Race with enabling-memory discard: drop the timer.
                if (timer_[t] >= 0.0) {
                    timers_.erase({timer_[t], t});
                    timer_[t] = -1.0;
                }
            } else if (timer_[t] < 0.0) {
                const double delay =
                    trans.kind == TransitionKind::Deterministic
                        ? trans.param
                        : rng_.exponential(1.0 / trans.param);
                timer_[t] = now_ + delay;
                timers_.emplace(timer_[t], t);
            }
        });
    }
}

void
GspnSimulator::advanceTime(double to)
{
    const double dt = to - now_;
    MW_ASSERT(dt >= 0.0, "GSPN time went backwards");
    if (dt > 0.0) {
        // An empty place would add dt * 0 to a non-negative sum, which
        // leaves it unchanged: visit only the places holding tokens.
        for (std::size_t w = 0; w < nonempty_.size(); ++w) {
            forEachBit(nonempty_[w], w, [&](std::size_t p) {
                token_time_[p] += dt * marking_[p];
                busy_time_[p] += dt;
            });
        }
    }
    now_ = to;
}

int
GspnSimulator::nextTimed() const
{
    return timers_.empty() ? -1
                           : static_cast<int>(timers_.begin()->second);
}

void
GspnSimulator::fireTimed(TransitionId t)
{
    advanceTime(timer_[t]);
    timers_.erase({timer_[t], t});
    timer_[t] = -1.0;
    fire(t);
    fireImmediates();
    refreshTimers();
}

bool
GspnSimulator::run(double time_limit)
{
    while (true) {
        const int t = nextTimed();
        if (t < 0)
            return false;  // deadlock (only timed transitions advance)
        if (timer_[t] > time_limit) {
            advanceTime(time_limit);
            return true;
        }
        fireTimed(static_cast<TransitionId>(t));
    }
}

bool
GspnSimulator::runUntilFirings(TransitionId transition,
                               std::uint64_t count, double time_cap)
{
    const std::uint64_t target = firings_[transition] + count;
    while (firings_[transition] < target) {
        const int t = nextTimed();
        if (t < 0)
            return false;
        if (timer_[t] > time_cap)
            return false;
        fireTimed(static_cast<TransitionId>(t));
    }
    return true;
}

std::uint64_t
GspnSimulator::firings(TransitionId t) const
{
    MW_ASSERT(t < firings_.size(), "bad transition id");
    return firings_[t];
}

double
GspnSimulator::throughput(TransitionId t) const
{
    return now_ > 0.0
        ? static_cast<double>(firings(t)) / now_
        : 0.0;
}

double
GspnSimulator::meanTokens(PlaceId place) const
{
    MW_ASSERT(place < token_time_.size(), "bad place id");
    return now_ > 0.0 ? token_time_[place] / now_ : 0.0;
}

double
GspnSimulator::probNonEmpty(PlaceId place) const
{
    MW_ASSERT(place < busy_time_.size(), "bad place id");
    return now_ > 0.0 ? busy_time_[place] / now_ : 0.0;
}

} // namespace memwall
