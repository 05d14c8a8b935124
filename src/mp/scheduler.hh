/**
 * @file
 * Deterministic execution-driven multiprocessor scheduler.
 *
 * The CacheMire-replacement (see DESIGN.md): SPLASH kernels run as
 * real C++ code, one user-space fiber per simulated CPU, all on the
 * host thread that calls run(). Exactly ONE simulated CPU executes at
 * any instant — an explicit execution token moves from fiber to
 * fiber with one context switch — so simulated machine state needs
 * no locking. Every simulated memory access charges its latency via
 * advance(); when a CPU runs more than a bounded quantum ahead of
 * the slowest runnable CPU, the token moves on. Scheduling is a
 * pure function of the virtual timeline, so runs are deterministic;
 * the quantum bounds the timing skew between interacting CPUs
 * (quantum 0 = exact lowest-time-first interleaving).
 *
 * A scheduler belongs to the thread that calls run(). Its methods
 * may be called only from inside the body (on that thread) or, for
 * the configuration and result accessors, before run() starts or
 * after it returns. Different schedulers may run concurrently on
 * different host threads.
 */

#ifndef MEMWALL_MP_SCHEDULER_HH
#define MEMWALL_MP_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace memwall {

class MpScheduler;

/** Handle the workload body uses to interact with simulated time. */
class SimContext
{
  public:
    SimContext(MpScheduler &sched, unsigned cpu)
        : sched_(&sched), cpu_(cpu)
    {
    }

    /** Simulated CPU id (0-based). */
    unsigned cpuId() const { return cpu_; }

    /** Charge @p cycles of virtual time (may switch CPUs). */
    void advance(Cycles cycles);

    /** Current virtual time of this CPU. */
    Tick now() const;

    MpScheduler &scheduler() { return *sched_; }

  private:
    MpScheduler *sched_;
    unsigned cpu_;
};

/**
 * Lowest-virtual-time-first scheduler over fibers with a
 * bounded-skew quantum.
 */
class MpScheduler
{
  public:
    /**
     * @param ncpus   simulated processors
     * @param quantum cycles a CPU may run ahead of the slowest
     *                runnable CPU before yielding (0 = exact)
     */
    explicit MpScheduler(unsigned ncpus, Tick quantum = 64);
    ~MpScheduler();

    MpScheduler(const MpScheduler &) = delete;
    MpScheduler &operator=(const MpScheduler &) = delete;

    /**
     * Run @p body once per CPU to completion, each CPU on its own
     * fiber on the calling thread.
     * @return the makespan (max final virtual time).
     */
    Tick run(const std::function<void(SimContext &)> &body);

    unsigned ncpus() const { return ncpus_; }
    Tick quantum() const { return quantum_; }

    /**
     * Change the skew quantum mid-run. The sampled-simulation layer
     * inflates the quantum during fast-forward stretches (timing
     * fidelity is not being measured there) and restores it for
     * warming/detail units. Scheduling remains a pure function of
     * the virtual timeline — the quantum switch itself happens at
     * deterministic points of that timeline — so runs stay
     * reproducible. Must be called from the token-holding CPU's
     * body (or before run()).
     */
    void setQuantum(Tick quantum) { quantum_ = quantum; }

    /** Final virtual time of @p cpu after run(). */
    Tick cpuTime(unsigned cpu) const;

    // --- Interface for SimContext and the sync primitives ----------

    /** Charge time to @p cpu; yields when too far ahead. */
    void advance(unsigned cpu, Cycles cycles);

    /** Current virtual time of @p cpu. */
    Tick timeOf(unsigned cpu) const;

    /**
     * Block the calling CPU until another CPU calls unblock() on
     * it. Must be called from @p cpu's own body while it holds the
     * execution token.
     */
    void block(unsigned cpu);

    /**
     * Mark @p cpu runnable again with its clock advanced to at
     * least @p at. The caller KEEPS the execution token; the woken
     * CPU runs when the token next reaches it.
     */
    void unblock(unsigned cpu, Tick at);

  private:
    enum class State { Runnable, Blocked, Finished };
    struct Fiber;

    /** Index of the minimum-time runnable CPU, or -1. */
    int minRunnable() const;
    /**
     * Hand the token from context @p cpu (ncpus_ = run()'s caller)
     * to the minimum-time runnable CPU, or back to run() when none
     * is runnable. Returns once control comes back to @p cpu.
     */
    void transferToken(unsigned cpu);
    /** Suspend context @p from and resume context @p to. */
    void switchTo(unsigned from, unsigned to);
    /** Bookkeeping on resuming context @p self after a switch. */
    void resumed(unsigned self);
    /** Entry point of every CPU fiber. */
    static void fiberMain();

    unsigned ncpus_;
    Tick quantum_;
    std::vector<Tick> time_;
    std::vector<State> state_;
    /** ncpus_ CPU fibers, then the context of run()'s caller. */
    std::unique_ptr<Fiber[]> fibers_;
    const std::function<void(SimContext &)> *body_ = nullptr;
    /** CPU currently holding the execution token, or -1. */
    int running_cpu_ = -1;
    /** Context the most recent switch left, for sanitizer hooks. */
    unsigned switched_from_ = 0;
    bool running_ = false;
};

} // namespace memwall

#endif // MEMWALL_MP_SCHEDULER_HH
