/**
 * @file
 * Monte-Carlo execution of a GSPN (the paper's evaluation method:
 * "The GSPNs were evaluated using a Monte-Carlo simulator",
 * Section 5.5).
 */

#ifndef MEMWALL_GSPN_SIMULATOR_HH
#define MEMWALL_GSPN_SIMULATOR_HH

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "gspn/petri_net.hh"

namespace memwall {

/**
 * Simulates one PetriNet instance. Holds the marking, transition
 * timers and time-averaged statistics; the net itself is shared and
 * immutable.
 *
 * Enabling is incremental: a marking change marks the transitions
 * that read the changed place dirty, and only dirty transitions are
 * re-tested. Every RNG draw and random-switch pick still happens in
 * transition-index order, so a run is the same as one that re-tests
 * every transition after every firing.
 */
class GspnSimulator
{
  public:
    GspnSimulator(const PetriNet &net, std::uint64_t seed = 12345);

    /** Restore the initial marking and clear statistics. */
    void reset();

    /** @return current simulated time. */
    double now() const { return now_; }

    /** @return tokens currently in @p place. */
    std::uint32_t marking(PlaceId place) const;

    /** Force the marking of @p place (experiment setup). */
    void setMarking(PlaceId place, std::uint32_t tokens);

    /**
     * Run until simulated time reaches @p time_limit or the net
     * deadlocks (no enabled transitions).
     * @return false if the net deadlocked before the limit.
     */
    bool run(double time_limit);

    /**
     * Run until @p transition has fired @p count more times, the
     * optional @p time_cap is hit, or the net deadlocks.
     * @return true iff the firing target was reached.
     */
    bool runUntilFirings(TransitionId transition, std::uint64_t count,
                         double time_cap = 1e18);

    /** Total firings of @p t since reset. */
    std::uint64_t firings(TransitionId t) const;

    /** Firings of @p t per unit time. */
    double throughput(TransitionId t) const;

    /** Time-averaged token count of @p place. */
    double meanTokens(PlaceId place) const;

    /** Fraction of time @p place held at least one token. */
    double probNonEmpty(PlaceId place) const;

    /** Total transitions fired (immediate + timed). */
    std::uint64_t totalFirings() const { return total_firings_; }

  private:
    bool isEnabled(TransitionId t) const;
    void fire(TransitionId t);
    /** Fire enabled immediate transitions until none remain. */
    void fireImmediates();
    /** Sample/discard timers after a marking change. */
    void refreshTimers();
    /** Advance the clock, accumulating time-averaged statistics. */
    void advanceTime(double to);
    /** @return index of the timed transition that fires next, or -1. */
    int nextTimed() const;
    /** Advance to timer @p t, fire it and settle the net. */
    void fireTimed(TransitionId t);

    const PetriNet &net_;
    Rng rng_;
    double now_ = 0.0;
    std::vector<std::uint32_t> marking_;
    /** Absolute firing time per transition; <0 means no timer. */
    std::vector<double> timer_;
    std::vector<std::uint64_t> firings_;
    std::vector<double> token_time_;
    std::vector<double> busy_time_;
    std::uint64_t total_firings_ = 0;
    std::uint64_t seed_;

    /** Words per bitset over transitions (64 transitions a word). */
    std::size_t words_;
    /** Per place, a bitset of the transitions with an input, test or
     * inhibitor arc on it (row p at p * words_). */
    std::vector<std::uint64_t> readers_;
    /** Per transition t, the transitions to re-test after t fires:
     * t itself and the readers of every place t changes. */
    std::vector<std::uint64_t> affected_;
    std::vector<std::uint64_t> immediate_;  ///< immediate transitions
    std::vector<std::uint64_t> dirty_;      ///< to re-test
    std::vector<std::uint64_t> enabled_;    ///< enabled immediates
    /** Bitset over places: those holding at least one token. */
    std::vector<std::uint64_t> nonempty_;
    /** Immediates of the top priority, reused by fireImmediates(). */
    std::vector<TransitionId> candidates_;
    /** Pending timers ordered by (time, index): the lowest index
     * wins a tie. */
    std::set<std::pair<double, TransitionId>> timers_;
};

} // namespace memwall

#endif // MEMWALL_GSPN_SIMULATOR_HH
