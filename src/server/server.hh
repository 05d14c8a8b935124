/**
 * @file
 * The resident experiment service (mw-server).
 *
 * One process owns the Unix-domain socket, the shared ThreadPool and
 * the crash-safe ResultCache; clients frame JSON requests at it and
 * get figure documents back. The interesting parts are the failure
 * paths:
 *
 *  - Deduplication: concurrent requests for the same canonical run
 *    key share ONE computation. The first requester becomes the
 *    owner and enqueues the run; later requesters join the in-flight
 *    entry as waiters. A completed result is journaled into the
 *    cache BEFORE the in-flight entry is erased, so the key is
 *    always visible in one of the two and a request either joins the
 *    computation or hits the cache — never recomputes. The journal
 *    fsync (and any compaction) runs under a dedicated cache mutex,
 *    never under the state mutex, so request handling and the
 *    watchdog never stall behind disk I/O.
 *
 *  - Batching: enqueued runs are decomposed into catalog points
 *    (see server/catalog.hh) by a batcher thread that drains the
 *    queue in one pass — optionally after a short batch window — and
 *    coalesces points with equal unit keys across DISTINCT in-flight
 *    keys into one pool task each. A fig7 and a fig8 request at the
 *    same window need the same per-workload miss-rate pass; batched
 *    together, that pass runs once and both documents render from
 *    it. Completion distributes the shared result to every
 *    subscribing request; a request is finalized when its last point
 *    lands, exactly once, whether or not any point was shared.
 *
 *  - Deadlines: a waiter whose deadline_ms expires gets a
 *    deadline_exceeded error immediately; the computation itself is
 *    never torn down (the pool has no preemption and the result is
 *    still worth caching) — it finishes in the background and the
 *    next request is a cache hit.
 *
 *  - No retry: every point is a deterministic catalog computation,
 *    so one that throws would throw again. It runs once; a throw
 *    fails every subscribing request with worker_failed (no
 *    retry_after_ms hint) and nothing is cached.
 *
 *  - Admission control: over max_connections the connection is
 *    answered with one overloaded error (with retry_after_ms) and
 *    closed; over max_inflight a run request is shed the same way.
 *
 *  - Watchdog: a computation with a unit executing and no unit of
 *    its own started or finished for wedge_grace_ms is quarantined —
 *    new requests for that key fail fast with "quarantined" instead
 *    of piling onto a wedged computation. A request whose units are
 *    all still queued behind someone else's is waiting, not wedged,
 *    and is never charged. If the computation ever does finish, the
 *    key is unquarantined and the result cached like any other.
 *
 *  - Crash recovery: all completed results live in the ResultCache
 *    journal; a SIGKILL'd server replays it on restart and serves
 *    the same bytes as cache hits.
 *
 * Tests reach the failure paths without touching the wire: the
 * constructor takes the plan builder, so a test can serve fake plans
 * whose points block or throw.
 */

#ifndef MEMWALL_SERVER_SERVER_HH
#define MEMWALL_SERVER_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/thread_pool.hh"
#include "server/catalog.hh"
#include "server/protocol.hh"
#include "server/result_cache.hh"

namespace memwall {
namespace server {

/** Server configuration; defaults suit interactive use. */
struct ServerOptions
{
    std::string socket_path;
    std::string cache_dir;
    unsigned jobs = 0; ///< pool workers; 0 = hardware default
    int backlog = 64;
    std::uint64_t cache_cap_bytes = 0; ///< 0 = unbounded
    std::uint64_t max_connections = 32;
    std::uint64_t max_inflight = 8;
    std::uint64_t wedge_grace_ms = 30'000; ///< no-unit-progress stall
    std::uint64_t watchdog_interval_ms = 100;
    /** Batcher linger before draining the run queue: 0 drains
     *  immediately (requests still coalesce while the pool is
     *  busy); >0 trades latency for larger batches. */
    std::uint64_t batch_window_ms = 0;
};

/** Monotonic counters, snapshotted for the "stats" command. */
struct ServerCounters
{
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t computed = 0;      ///< figure runs actually executed
    std::uint64_t cache_hits = 0;
    std::uint64_t dedup_joined = 0;  ///< requests that shared a run
    std::uint64_t shed = 0;          ///< overload rejections
    std::uint64_t bad_requests = 0;  ///< schema/frame/json rejections
    std::uint64_t deadline_misses = 0;
    std::uint64_t worker_failures = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t unquarantines = 0;
    std::uint64_t batches = 0;       ///< batcher pool passes
    std::uint64_t batched_keys = 0;  ///< runs drained into a batch
    std::uint64_t points_computed = 0; ///< unit computations executed
    std::uint64_t points_shared = 0; ///< unit results reused in-batch
};

class MwServer
{
  public:
    /** Decomposes a validated run into the points to compute. */
    using PlanBuilder = std::function<CatalogPlan(const RunRequest &)>;

    /** @p build_plan defaults to the experiment catalog; tests pass
     *  fake plans whose points block or throw. */
    explicit MwServer(
        ServerOptions opt,
        PlanBuilder build_plan = [](const RunRequest &run) {
            return buildCatalogPlan(run, "");
        })
        : opt_(std::move(opt)), build_plan_(std::move(build_plan))
    {
    }
    ~MwServer();

    MwServer(const MwServer &) = delete;
    MwServer &operator=(const MwServer &) = delete;

    /**
     * Open the cache, bind the socket (reclaiming a stale file from
     * a killed server) and start the pool and watchdog. Returns
     * false with @p why on failure.
     */
    bool start(std::string *why);

    /** Accept-and-serve until requestStop(); then drain and clean up. */
    void run();

    /**
     * Ask the accept loop to exit. Async-signal-safe (one write(2)
     * to a self-pipe); the natural SIGTERM/SIGINT handler body.
     */
    void requestStop();

    /** The socket path actually bound (for tests). */
    const std::string &socketPath() const { return opt_.socket_path; }

    /** Counter snapshot (thread-safe). */
    ServerCounters counters() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** One deduplicated computation in flight. */
    struct Inflight
    {
        // All fields are guarded by MwServer::mu_; the cv waits on
        // that same mutex. One lock for the whole server keeps the
        // dedup/cache/quarantine transitions atomic and TSan-clean.
        std::condition_variable cv;
        enum class State { Running, Done, Failed } state =
            State::Running;
        std::string result;       ///< figure JSON when Done
        std::string error_detail; ///< when Failed
        /** Last time a compute unit of this entry started or
         *  delivered its result (the arrival time before that). The
         *  watchdog quarantines on a stall of this timestamp, not on
         *  total age: a large batched job that is steadily finishing
         *  units is slow, not wedged. */
        Clock::time_point last_progress;
        /** Units of this entry executing on the pool right now. Zero
         *  means every remaining unit is still queued: the entry is
         *  waiting its turn and the watchdog never charges it. */
        unsigned running_units = 0;
        /** Set by the watchdog: requests for this key fail fast with
         *  quarantined until the computation finishes. */
        bool quarantined = false;
    };

    /** Scatter/gather context for one experiment computation. */
    struct ComputeJob;
    /** One deduplicated unit of work inside a batch pass. */
    struct ComputeUnit;

    struct Connection
    {
        int fd = -1;
        std::thread thread;
    };

    void acceptLoop();
    void serveConnection(std::uint64_t conn_id, int fd);
    /** Handle one request payload; returns the response frame.
     *  Sets @p close_after for shutdown. */
    std::string handlePayload(const std::string &payload,
                              bool &close_after);
    std::string handleRun(const Request &req);
    std::string statsJson();
    /** Drain the run queue into batches; coalesce unit keys across
     *  the batch and submit one pool task per unique unit. */
    void batcherLoop();
    /** One compute unit, run once; runs on the pool. Distributes
     *  the result (or the failure) to every subscribing job. */
    void runUnit(const std::shared_ptr<ComputeUnit> &unit);
    /** Last-point completion: journal the result (under cache_mu_),
     *  then publish, unquarantine and notify (under mu_). Caller
     *  holds no locks. */
    void finalize(const std::shared_ptr<ComputeJob> &job);
    void watchdogLoop();
    /** Join exited connection threads (no locks held on entry). */
    void reapFinishedConnections();
    /** Idempotent teardown shared by run() and the destructor. */
    void shutdownInternal();

    ServerOptions opt_;
    PlanBuilder build_plan_;
    int listen_fd_ = -1;
    int stop_pipe_[2] = {-1, -1};
    bool started_ = false;

    std::unique_ptr<ThreadPool> pool_;

    mutable std::mutex mu_;
    std::condition_variable stop_cv_; ///< wakes the watchdog at stop
    bool stopping_ = false;           // guarded by mu_
    // Guards cache_. Held for the journal fsync and compaction, so
    // it is NEVER acquired while holding mu_ (and vice versa): a
    // thread drops one before taking the other.
    mutable std::mutex cache_mu_;
    ResultCache cache_; // guarded by cache_mu_ once threads exist
    std::map<std::string, std::shared_ptr<Inflight>> inflight_;
    ServerCounters counters_;
    /** Runs awaiting a batch pass; guarded by mu_. */
    std::vector<std::shared_ptr<ComputeJob>> pending_;
    std::condition_variable batch_cv_; ///< wakes the batcher

    std::map<std::uint64_t, Connection> connections_;
    std::vector<std::uint64_t> finished_connections_;
    std::uint64_t next_conn_id_ = 0;

    std::thread watchdog_;
    std::thread batcher_;
};

} // namespace server
} // namespace memwall

#endif // MEMWALL_SERVER_SERVER_HH
