/**
 * @file
 * Differential test of the incremental GSPN engine. The oracle below
 * is the full-scan engine: after every firing it re-tests every
 * transition, draws timer delays in index order and finds the next
 * timer by a scan. Seeded random nets run through the oracle and
 * through GspnSimulator one timed firing at a time, and every
 * observable must be bit-identical after each: the firing counts
 * (so the timed firing sequence, and each step's immediate firings),
 * the clock, every marking, the time-averaged statistics and, at the
 * end, the next RNG draw.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gspn/simulator.hh"

using namespace memwall;

namespace {

struct ArcSpec
{
    PlaceId place;
    std::uint32_t weight;
};

struct TransSpec
{
    TransitionKind kind;
    double param;  ///< weight / delay / rate
    int priority = 0;
    std::vector<ArcSpec> inputs, outputs, inhibitors, tests;
};

/** A net described outside PetriNet, so the oracle can read it. */
struct NetSpec
{
    std::vector<std::uint32_t> initial;
    std::vector<TransSpec> trans;
    /** Inhibits the probe; nothing else reads it. */
    PlaceId probe_gate = 0;
    /** Exponential with no input arc: enabled once the gate empties,
     * its delay is the engine's next RNG draw. */
    TransitionId probe = 0;
    /** Places the random arcs and setMarking may touch. */
    std::vector<PlaceId> free_places;
};

/** "p3", "t7": the name of element @p i of a kind. */
std::string
nameOf(char kind, std::size_t i)
{
    std::string name(1, kind);
    name += std::to_string(i);
    return name;
}

PetriNet
buildNet(const NetSpec &spec)
{
    PetriNet net;
    for (std::size_t p = 0; p < spec.initial.size(); ++p)
        net.addPlace(nameOf('p', p), spec.initial[p]);
    for (std::size_t i = 0; i < spec.trans.size(); ++i) {
        const TransSpec &ts = spec.trans[i];
        const std::string name = nameOf('t', i);
        TransitionId t = 0;
        switch (ts.kind) {
          case TransitionKind::Immediate:
            t = net.addImmediate(name, ts.param, ts.priority);
            break;
          case TransitionKind::Deterministic:
            t = net.addDeterministic(name, ts.param);
            break;
          case TransitionKind::Exponential:
            t = net.addExponential(name, ts.param);
            break;
        }
        for (const ArcSpec &a : ts.inputs)
            net.input(t, a.place, a.weight);
        for (const ArcSpec &a : ts.outputs)
            net.output(t, a.place, a.weight);
        for (const ArcSpec &a : ts.inhibitors)
            net.inhibitor(t, a.place, a.weight);
        for (const ArcSpec &a : ts.tests)
            net.test(t, a.place, a.weight);
    }
    return net;
}

/** What the random nets exercised, summed over a test. */
struct Coverage
{
    std::uint64_t weighted_picks = 0;    ///< random switch drawn
    std::uint64_t priority_contests = 0; ///< lower priority lost
    std::uint64_t timer_ties = 0;        ///< equal next times
    std::uint64_t inhibited = 0;         ///< blocked by inhibitor only
    std::uint64_t test_arcs = 0;         ///< enabled through a test arc
    std::uint64_t heavy_arcs = 0;        ///< firings with a weight > 1
    std::uint64_t source_firings = 0;    ///< timed, no input arc
    std::uint64_t set_markings = 0;
};

/**
 * The full-scan engine: the GSPN simulator as it was before enabling
 * became incremental, reading a NetSpec instead of a PetriNet.
 */
class Oracle
{
  public:
    Oracle(const NetSpec &spec, std::uint64_t seed, Coverage &cov)
        : spec_(spec), cov_(cov), rng_(seed), seed_(seed)
    {
        marking_.resize(spec_.initial.size());
        timer_.resize(spec_.trans.size());
        firings_.resize(spec_.trans.size());
        token_time_.resize(spec_.initial.size());
        busy_time_.resize(spec_.initial.size());
        reset();
    }

    void
    reset()
    {
        now_ = 0.0;
        total_firings_ = 0;
        rng_ = Rng(seed_);
        marking_ = spec_.initial;
        std::fill(timer_.begin(), timer_.end(), -1.0);
        std::fill(firings_.begin(), firings_.end(), 0);
        std::fill(token_time_.begin(), token_time_.end(), 0.0);
        std::fill(busy_time_.begin(), busy_time_.end(), 0.0);
        fireImmediates();
        refreshTimers();
    }

    void
    setMarking(PlaceId place, std::uint32_t tokens)
    {
        marking_[place] = tokens;
        fireImmediates();
        refreshTimers();
    }

    bool
    run(double time_limit)
    {
        while (true) {
            const int t = nextTimed();
            if (t < 0)
                return false;
            if (timer_[t] > time_limit) {
                advanceTime(time_limit);
                return true;
            }
            fireTimed(static_cast<TransitionId>(t));
        }
    }

    bool
    runUntilFirings(TransitionId transition, std::uint64_t count,
                    double time_cap)
    {
        const std::uint64_t target = firings_[transition] + count;
        while (firings_[transition] < target) {
            const int t = nextTimed();
            if (t < 0 || timer_[t] > time_cap)
                return false;
            fireTimed(static_cast<TransitionId>(t));
        }
        return true;
    }

    /** @return index of the timed transition that fires next, or -1. */
    int
    nextTimed()
    {
        int best = -1;
        for (TransitionId t = 0; t < spec_.trans.size(); ++t) {
            if (timer_[t] < 0.0)
                continue;
            if (best < 0 || timer_[t] < timer_[best])
                best = static_cast<int>(t);
            else if (timer_[t] == timer_[best])
                ++cov_.timer_ties;
        }
        return best;
    }

    double timer(TransitionId t) const { return timer_[t]; }
    double now() const { return now_; }
    std::uint32_t marking(PlaceId p) const { return marking_[p]; }
    std::uint64_t firings(TransitionId t) const { return firings_[t]; }
    std::uint64_t totalFirings() const { return total_firings_; }
    double
    meanTokens(PlaceId p) const
    {
        return now_ > 0.0 ? token_time_[p] / now_ : 0.0;
    }
    double
    probNonEmpty(PlaceId p) const
    {
        return now_ > 0.0 ? busy_time_[p] / now_ : 0.0;
    }

  private:
    bool
    isEnabled(TransitionId t) const
    {
        const TransSpec &trans = spec_.trans[t];
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
    fire(TransitionId t)
    {
        const TransSpec &trans = spec_.trans[t];
        for (const auto &arc : trans.inputs) {
            EXPECT_GE(marking_[arc.place], arc.weight);
            marking_[arc.place] -= arc.weight;
        }
        for (const auto &arc : trans.outputs)
            marking_[arc.place] += arc.weight;
        ++firings_[t];
        ++total_firings_;
        noteCoverage(trans);
    }

    void
    noteCoverage(const TransSpec &trans)
    {
        if (!trans.tests.empty())
            ++cov_.test_arcs;
        if (trans.kind != TransitionKind::Immediate &&
            trans.inputs.empty())
            ++cov_.source_firings;
        for (const auto *arcs : {&trans.inputs, &trans.outputs,
                                 &trans.inhibitors, &trans.tests})
            for (const auto &arc : *arcs)
                if (arc.weight > 1) {
                    ++cov_.heavy_arcs;
                    return;
                }
    }

    void
    fireImmediates()
    {
        while (true) {
            int best_prio = std::numeric_limits<int>::min();
            double total_weight = 0.0;
            bool contested = false;
            std::vector<TransitionId> candidates;
            for (TransitionId t = 0; t < spec_.trans.size(); ++t) {
                const TransSpec &trans = spec_.trans[t];
                if (trans.kind != TransitionKind::Immediate)
                    continue;
                if (!isEnabled(t))
                    continue;
                if (!candidates.empty() && trans.priority != best_prio)
                    contested = true;
                if (trans.priority > best_prio) {
                    best_prio = trans.priority;
                    candidates.clear();
                    total_weight = 0.0;
                }
                if (trans.priority == best_prio) {
                    candidates.push_back(t);
                    total_weight += trans.param;
                }
            }
            if (candidates.empty())
                return;
            cov_.priority_contests += contested;
            TransitionId chosen = candidates.back();
            if (candidates.size() > 1) {
                ++cov_.weighted_picks;
                double pick = rng_.uniformReal() * total_weight;
                for (TransitionId t : candidates) {
                    pick -= spec_.trans[t].param;
                    if (pick <= 0.0) {
                        chosen = t;
                        break;
                    }
                }
            }
            fire(chosen);
        }
    }

    void
    refreshTimers()
    {
        for (TransitionId t = 0; t < spec_.trans.size(); ++t) {
            const TransSpec &trans = spec_.trans[t];
            if (trans.kind == TransitionKind::Immediate)
                continue;
            if (!isEnabled(t)) {
                timer_[t] = -1.0;
                if (inhibitedOnly(t))
                    ++cov_.inhibited;
            } else if (timer_[t] < 0.0) {
                const double delay =
                    trans.kind == TransitionKind::Deterministic
                        ? trans.param
                        : rng_.exponential(1.0 / trans.param);
                timer_[t] = now_ + delay;
            }
        }
    }

    /** Disabled, but only by an inhibitor arc. */
    bool
    inhibitedOnly(TransitionId t) const
    {
        const TransSpec &trans = spec_.trans[t];
        for (const auto &arc : trans.inputs)
            if (marking_[arc.place] < arc.weight)
                return false;
        for (const auto &arc : trans.tests)
            if (marking_[arc.place] < arc.weight)
                return false;
        return &trans != &spec_.trans[spec_.probe];
    }

    void
    advanceTime(double to)
    {
        const double dt = to - now_;
        ASSERT_GE(dt, 0.0);
        if (dt > 0.0) {
            for (std::size_t p = 0; p < marking_.size(); ++p) {
                token_time_[p] += dt * marking_[p];
                if (marking_[p] > 0)
                    busy_time_[p] += dt;
            }
        }
        now_ = to;
    }

    void
    fireTimed(TransitionId t)
    {
        advanceTime(timer_[t]);
        timer_[t] = -1.0;
        fire(t);
        fireImmediates();
        refreshTimers();
    }

    const NetSpec &spec_;
    Coverage &cov_;
    Rng rng_;
    std::uint64_t seed_;
    double now_ = 0.0;
    std::vector<std::uint32_t> marking_;
    std::vector<double> timer_;
    std::vector<std::uint64_t> firings_;
    std::vector<double> token_time_;
    std::vector<double> busy_time_;
    std::uint64_t total_firings_ = 0;
};

/**
 * A random net. Immediates consume from the "A" places and produce
 * only into the "B" places, which only timed transitions consume
 * from, so every immediate cascade is finite. Timed transitions read
 * and write anywhere, and some have no input arc at all (sources).
 * Small delay and weight sets make equal-time ties and weighted
 * switches common.
 */
NetSpec
randomNet(std::uint64_t seed)
{
    Rng rng(seed);
    auto pick = [&](std::uint64_t n) { return rng.uniformInt(n); };
    auto chance = [&](unsigned pct) { return pick(100) < pct; };

    NetSpec spec;
    const unsigned n_a = 1 + pick(3);
    const unsigned n_b = 2 + pick(5);
    std::vector<PlaceId> a_places, b_places;
    for (unsigned i = 0; i < n_a + n_b; ++i) {
        const auto p = static_cast<PlaceId>(spec.initial.size());
        spec.initial.push_back(static_cast<std::uint32_t>(pick(3)));
        (i < n_a ? a_places : b_places).push_back(p);
        spec.free_places.push_back(p);
    }
    const std::vector<PlaceId> &any_places = spec.free_places;

    // Distinct places per arc list: two input arcs on one place would
    // each pass isEnabled() but together overdraw it.
    auto arcs = [&](std::vector<ArcSpec> &out,
                    const std::vector<PlaceId> &from, unsigned lo,
                    unsigned hi, unsigned max_weight) {
        const unsigned n = lo + pick(hi - lo + 1);
        for (unsigned i = 0; i < n; ++i) {
            const PlaceId p = from[pick(from.size())];
            bool seen = false;
            for (const ArcSpec &a : out)
                seen |= a.place == p;
            if (!seen)
                out.push_back({p, static_cast<std::uint32_t>(
                                      1 + pick(max_weight))});
        }
    };

    static const double weights[] = {1.0, 2.0, 0.5, 3.0};
    static const double delays[] = {0.5, 1.0, 2.0, 3.0};
    static const double rates[] = {0.3, 1.0, 2.5};

    const unsigned n_trans = 3 + pick(14);
    for (unsigned i = 0; i < n_trans; ++i) {
        TransSpec ts;
        const unsigned kind = pick(3);
        if (kind == 0) {
            ts.kind = TransitionKind::Immediate;
            ts.param = weights[pick(4)];
            ts.priority = static_cast<int>(pick(3));
            arcs(ts.inputs, a_places, 1, 2, 2);
            arcs(ts.outputs, b_places, 0, 2, 3);
        } else {
            ts.kind = kind == 1 ? TransitionKind::Deterministic
                                : TransitionKind::Exponential;
            ts.param = kind == 1 ? delays[pick(4)] : rates[pick(3)];
            arcs(ts.inputs, any_places, chance(30) ? 0 : 1, 2, 2);
            arcs(ts.outputs, any_places, 0, 3, 3);
        }
        if (chance(30))
            arcs(ts.tests, any_places, 1, 1, 2);
        if (chance(35))
            arcs(ts.inhibitors, any_places, 1, 1, 4);
        spec.trans.push_back(ts);
    }

    spec.probe_gate = static_cast<PlaceId>(spec.initial.size());
    spec.initial.push_back(1);
    const auto sink = static_cast<PlaceId>(spec.initial.size());
    spec.initial.push_back(0);
    TransSpec probe;
    probe.kind = TransitionKind::Exponential;
    probe.param = 0.7;
    probe.inhibitors.push_back({spec.probe_gate, 1});
    probe.outputs.push_back({sink, 1});
    // At a random index, not always the lowest or the highest.
    const std::size_t at = pick(spec.trans.size() + 1);
    spec.trans.insert(spec.trans.begin() + static_cast<long>(at),
                      probe);
    spec.probe = static_cast<TransitionId>(at);
    return spec;
}

testing::AssertionResult
sameState(const GspnSimulator &sim, const Oracle &oracle,
          const NetSpec &spec)
{
    auto fail = [] { return testing::AssertionFailure(); };
    if (sim.now() != oracle.now())
        return fail() << "now " << sim.now() << " vs oracle "
                      << oracle.now();
    if (sim.totalFirings() != oracle.totalFirings())
        return fail() << "total firings " << sim.totalFirings()
                      << " vs oracle " << oracle.totalFirings();
    for (TransitionId t = 0; t < spec.trans.size(); ++t)
        if (sim.firings(t) != oracle.firings(t))
            return fail() << "t" << t << " fired " << sim.firings(t)
                          << " times vs oracle " << oracle.firings(t);
    for (PlaceId p = 0; p < spec.initial.size(); ++p) {
        if (sim.marking(p) != oracle.marking(p))
            return fail() << "p" << p << " holds " << sim.marking(p)
                          << " vs oracle " << oracle.marking(p);
        if (sim.meanTokens(p) != oracle.meanTokens(p))
            return fail() << "p" << p << " meanTokens "
                          << sim.meanTokens(p) << " vs oracle "
                          << oracle.meanTokens(p);
        if (sim.probNonEmpty(p) != oracle.probNonEmpty(p))
            return fail() << "p" << p << " probNonEmpty "
                          << sim.probNonEmpty(p) << " vs oracle "
                          << oracle.probNonEmpty(p);
    }
    return testing::AssertionSuccess();
}

/**
 * Drive one net through both engines, comparing them after every
 * action: a single timed firing, run() to a time limit, or
 * setMarking in the middle of the run. Stops early on a deadlock.
 */
void
driveBoth(GspnSimulator &sim, Oracle &oracle, const NetSpec &spec,
          Rng &rng, unsigned steps, Coverage &cov)
{
    for (unsigned step = 0; step < steps; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        const std::uint64_t what = rng.uniformInt(100);
        if (what < 4) {
            const PlaceId p =
                spec.free_places[rng.uniformInt(spec.free_places.size())];
            const auto tokens =
                static_cast<std::uint32_t>(rng.uniformInt(5));
            sim.setMarking(p, tokens);
            oracle.setMarking(p, tokens);
            ++cov.set_markings;
        } else if (what < 14) {
            // Half-unit limits land exactly on deterministic timers.
            const double limit =
                oracle.now() + 0.5 * static_cast<double>(
                                         rng.uniformInt(7));
           
            ASSERT_EQ(sim.run(limit), oracle.run(limit));
        } else {
            // One timed firing and its immediate cascade. The oracle
            // names the transition; the engine under test must reach
            // it with no other timed firing on the way.
            const int t = oracle.nextTimed();
            if (t < 0) {
                ASSERT_FALSE(sim.run(oracle.now() + 1.0));
                ASSERT_FALSE(oracle.run(oracle.now() + 1.0));
                ASSERT_TRUE(sameState(sim, oracle, spec));
                return;
            }
            const auto tt = static_cast<TransitionId>(t);
            const double when = oracle.timer(tt);
           
            ASSERT_TRUE(oracle.runUntilFirings(tt, 1, when));
           
            ASSERT_TRUE(sim.runUntilFirings(tt, 1, when));
        }
        ASSERT_TRUE(sameState(sim, oracle, spec));
    }
}

void
checkNet(std::uint64_t net_seed, Coverage &cov)
{
    SCOPED_TRACE(testing::Message() << "net seed " << net_seed);
    const NetSpec spec = randomNet(net_seed);
    const PetriNet net = buildNet(spec);
    const std::uint64_t sim_seed = net_seed * 7919 + 1;
    GspnSimulator sim(net, sim_seed);
    Oracle oracle(spec, sim_seed, cov);
    ASSERT_TRUE(sameState(sim, oracle, spec));

    Rng actions(net_seed ^ 0x5eed);
    driveBoth(sim, oracle, spec, actions, 300, cov);
    if (testing::Test::HasFatalFailure())
        return;

    // The probe's delay is the next RNG draw of each engine.
    sim.setMarking(spec.probe_gate, 0);
    oracle.setMarking(spec.probe_gate, 0);
    const double cap = oracle.now() + 1000.0;
    ASSERT_EQ(sim.runUntilFirings(spec.probe, 1, cap),
              oracle.runUntilFirings(spec.probe, 1, cap));
    ASSERT_TRUE(sameState(sim, oracle, spec));

    // reset() after a run starts the same trajectory again.
    sim.reset();
    oracle.reset();
    ASSERT_TRUE(sameState(sim, oracle, spec));
    Rng again(net_seed ^ 0xa9a1);
    driveBoth(sim, oracle, spec, again, 60, cov);
}

} // namespace

TEST(GspnIncremental, MatchesFullScanOracleOnRandomNets)
{
    Coverage cov;
    for (std::uint64_t net_seed = 1; net_seed <= 1000; ++net_seed) {
        checkNet(net_seed, cov);
        if (HasFatalFailure())
            return;
    }
    // The nets must exercise every rule the incremental engine
    // reorders or skips.
    EXPECT_GT(cov.weighted_picks, 100u);
    EXPECT_GT(cov.priority_contests, 100u);
    EXPECT_GT(cov.timer_ties, 100u);
    EXPECT_GT(cov.inhibited, 100u);
    EXPECT_GT(cov.test_arcs, 100u);
    EXPECT_GT(cov.heavy_arcs, 100u);
    EXPECT_GT(cov.source_firings, 100u);
    EXPECT_GT(cov.set_markings, 100u);
}
