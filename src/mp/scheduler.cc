#include "mp/scheduler.hh"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>

#include "common/logging.hh"

// Fiber switches are announced to the sanitizers so they track which
// stack is live (ASan) and order the fibers' accesses (TSan).
#if defined(__SANITIZE_ADDRESS__)
#define MW_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MW_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define MW_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MW_TSAN_FIBERS 1
#endif
#endif

#ifdef MW_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef MW_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace memwall {

namespace {

/** Usable stack per CPU fiber: the pthread default. */
constexpr std::size_t fiber_stack_bytes = std::size_t{8} << 20;

/** The scheduler whose run() is active on this thread. */
thread_local MpScheduler *active_scheduler = nullptr;

} // namespace

/**
 * One execution context: a CPU fiber with its own stack, or (the
 * last slot) the thread that called run().
 */
struct MpScheduler::Fiber
{
    Fiber() = default;
    ~Fiber();
    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Map the stack, with a PROT_NONE guard page below it. */
    void mapStack();

    ucontext_t ctx{};
    /** Stack mapping including the guard page (CPU fibers only). */
    void *map = nullptr;
    std::size_t map_bytes = 0;
    /** Usable stack; for run()'s caller, as reported by ASan. */
    const void *stack = nullptr;
    std::size_t stack_size = 0;
    void *asan_fake_stack = nullptr;
    void *tsan_fiber = nullptr;
};

MpScheduler::Fiber::~Fiber()
{
    if (map == nullptr)
        return;
#ifdef MW_TSAN_FIBERS
    if (tsan_fiber != nullptr)
        __tsan_destroy_fiber(tsan_fiber);
#endif
    munmap(map, map_bytes);
}

void
MpScheduler::Fiber::mapStack()
{
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    map_bytes = page + fiber_stack_bytes;
    map = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
               -1, 0);
    if (map == MAP_FAILED) {
        map = nullptr;
        MW_PANIC("cannot map a fiber stack: ", std::strerror(errno));
    }
    if (mprotect(map, page, PROT_NONE) != 0)
        MW_PANIC("cannot protect a fiber stack guard page: ",
                 std::strerror(errno));
    stack = static_cast<char *>(map) + page;
    stack_size = fiber_stack_bytes;
}

void
SimContext::advance(Cycles cycles)
{
    sched_->advance(cpu_, cycles);
}

Tick
SimContext::now() const
{
    return sched_->timeOf(cpu_);
}

MpScheduler::MpScheduler(unsigned ncpus, Tick quantum)
    : ncpus_(ncpus), quantum_(quantum), time_(ncpus, 0),
      state_(ncpus, State::Finished),
      fibers_(std::make_unique<Fiber[]>(ncpus + 1))
{
    MW_ASSERT(ncpus_ >= 1, "need at least one cpu");
    for (unsigned cpu = 0; cpu < ncpus_; ++cpu)
        fibers_[cpu].mapStack();
}

MpScheduler::~MpScheduler() = default;

int
MpScheduler::minRunnable() const
{
    int best = -1;
    for (unsigned i = 0; i < ncpus_; ++i) {
        if (state_[i] != State::Runnable)
            continue;
        if (best < 0 || time_[i] < time_[best])
            best = static_cast<int>(i);
    }
    return best;
}

void
MpScheduler::transferToken(unsigned cpu)
{
    const int next = minRunnable();
    running_cpu_ = next;
    switchTo(cpu, next < 0 ? ncpus_ : static_cast<unsigned>(next));
}

void
MpScheduler::switchTo(unsigned from, unsigned to)
{
    Fiber &self = fibers_[from];
    const Fiber &target = fibers_[to];
    switched_from_ = from;
#ifdef MW_ASAN_FIBERS
    // A finished CPU is never resumed: let ASan drop its fake stack.
    const bool done = from < ncpus_ && state_[from] == State::Finished;
    __sanitizer_start_switch_fiber(done ? nullptr : &self.asan_fake_stack,
                                   target.stack, target.stack_size);
#endif
#ifdef MW_TSAN_FIBERS
    __tsan_switch_to_fiber(target.tsan_fiber, 0);
#endif
    if (swapcontext(&self.ctx, &target.ctx) != 0)
        MW_PANIC("swapcontext failed: ", std::strerror(errno));
    resumed(from);
}

void
MpScheduler::resumed([[maybe_unused]] unsigned self)
{
#ifdef MW_ASAN_FIBERS
    const void *bottom = nullptr;
    std::size_t size = 0;
    __sanitizer_finish_switch_fiber(fibers_[self].asan_fake_stack,
                                    &bottom, &size);
    // The caller's stack is known only once we have left it.
    if (switched_from_ == ncpus_) {
        fibers_[ncpus_].stack = bottom;
        fibers_[ncpus_].stack_size = size;
    }
#endif
}

void
MpScheduler::fiberMain()
{
    MpScheduler *const self = active_scheduler;
    const auto cpu = static_cast<unsigned>(self->running_cpu_);
    self->resumed(cpu);

    SimContext ctx(*self, cpu);
    // Nothing below this frame can catch: an escaping exception is
    // a failed run, reported like any other invariant violation.
    try {
        (*self->body_)(ctx);
    } catch (const std::exception &e) {
        MW_PANIC("cpu ", cpu, " body threw: ", e.what());
    } catch (...) {
        MW_PANIC("cpu ", cpu, " body threw a non-standard exception");
    }
    self->state_[cpu] = State::Finished;
    self->transferToken(cpu);
    MW_PANIC("finished cpu ", cpu, " was resumed");
}

void
MpScheduler::advance(unsigned cpu, Cycles cycles)
{
    MW_ASSERT(cpu < ncpus_, "bad cpu id");
    MW_ASSERT(running_cpu_ == static_cast<int>(cpu),
              "advance without the execution token");
    time_[cpu] += cycles;

    // Keep the token while within the skew quantum of the slowest
    // runnable peer.
    const int min = minRunnable();
    if (min < 0 || min == static_cast<int>(cpu) ||
        time_[cpu] <= time_[min] + quantum_)
        return;
    transferToken(cpu);
}

Tick
MpScheduler::timeOf(unsigned cpu) const
{
    MW_ASSERT(cpu < ncpus_, "bad cpu id");
    return time_[cpu];
}

void
MpScheduler::block(unsigned cpu)
{
    MW_ASSERT(running_cpu_ == static_cast<int>(cpu),
              "block without the execution token");
    state_[cpu] = State::Blocked;
    if (minRunnable() < 0)
        MW_PANIC("MP workload deadlock: cpu ", cpu,
                 " blocked and no peer is runnable");
    // The token comes back only once someone has unblocked us:
    // minRunnable() never picks a blocked CPU.
    transferToken(cpu);
}

void
MpScheduler::unblock(unsigned cpu, Tick at)
{
    MW_ASSERT(state_[cpu] == State::Blocked,
              "unblocking a cpu that is not blocked");
    time_[cpu] = std::max(time_[cpu], at);
    state_[cpu] = State::Runnable;
    // No token transfer: the caller continues; the woken CPU gets
    // the token at the caller's next yield point.
}

Tick
MpScheduler::run(const std::function<void(SimContext &)> &body)
{
    MW_ASSERT(!running_, "scheduler already running");
    running_ = true;
    body_ = &body;
    std::fill(time_.begin(), time_.end(), 0);
    std::fill(state_.begin(), state_.end(), State::Runnable);

    for (unsigned cpu = 0; cpu < ncpus_; ++cpu) {
        Fiber &f = fibers_[cpu];
        if (getcontext(&f.ctx) != 0)
            MW_PANIC("getcontext failed: ", std::strerror(errno));
        f.ctx.uc_stack.ss_sp = const_cast<void *>(f.stack);
        f.ctx.uc_stack.ss_size = f.stack_size;
        f.ctx.uc_link = nullptr;
        makecontext(&f.ctx, &fiberMain, 0);
        f.asan_fake_stack = nullptr;
#ifdef MW_TSAN_FIBERS
        // A fresh TSan fiber per run: the last run left frames on it.
        if (f.tsan_fiber != nullptr)
            __tsan_destroy_fiber(f.tsan_fiber);
        f.tsan_fiber = __tsan_create_fiber(0);
#endif
    }
#ifdef MW_TSAN_FIBERS
    fibers_[ncpus_].tsan_fiber = __tsan_get_current_fiber();
#endif

    // Every CPU is runnable at time 0, so the token goes to CPU 0.
    // Control returns here once no CPU is runnable any more. (A body
    // may itself run a nested scheduler, hence the save/restore.)
    MpScheduler *const outer = active_scheduler;
    active_scheduler = this;
    transferToken(ncpus_);
    active_scheduler = outer;

    running_ = false;
    body_ = nullptr;
    Tick makespan = 0;
    for (unsigned i = 0; i < ncpus_; ++i) {
        MW_ASSERT(state_[i] == State::Finished,
                  "cpu ", i, " did not finish");
        makespan = std::max(makespan, time_[i]);
    }
    return makespan;
}

Tick
MpScheduler::cpuTime(unsigned cpu) const
{
    MW_ASSERT(cpu < ncpus_, "bad cpu id");
    return time_[cpu];
}

} // namespace memwall
