#include "server/server.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "server/json.hh"
#include "server/wire.hh"

namespace memwall {
namespace server {

namespace {

std::chrono::milliseconds
ms(std::uint64_t v)
{
    return std::chrono::milliseconds(v);
}

/** retry_after_ms on an overloaded rejection. A fixed hint: the
 *  server cannot predict when a slot frees, and a client only needs
 *  a short pause before it asks again. */
constexpr long overloaded_retry_after_ms = 80;

void
setCloexec(int fd)
{
    const int flags = ::fcntl(fd, F_GETFD);
    if (flags >= 0)
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

} // namespace

/** Scatter/gather context for one deduplicated experiment run.
 *  remaining/results/failed are guarded by MwServer::mu_. */
struct MwServer::ComputeJob
{
    std::string canonical;
    std::shared_ptr<Inflight> entry;
    CatalogPlan plan;
    std::vector<std::shared_ptr<void>> results; ///< one per point
    std::size_t remaining = 0;
    bool failed = false;
    std::string fail_detail;
};

/** One deduplicated computation inside a batch pass: the compute
 *  closure of the first point that named this unit key, plus every
 *  (job, point index) its result must be delivered to. Immutable
 *  after the batcher publishes it to the pool, except through the
 *  subscribing jobs' own synchronization. */
struct MwServer::ComputeUnit
{
    std::string label;
    std::function<std::shared_ptr<void>()> compute;
    std::vector<std::pair<std::shared_ptr<ComputeJob>, std::size_t>>
        subscribers;
};

MwServer::~MwServer()
{
    shutdownInternal();
    // The stop pipe outlives shutdown so requestStop() (a signal
    // handler's write(2)) can never race a close of its fd; it dies
    // only with the object itself.
    for (int &fd : stop_pipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
}

bool
MwServer::start(std::string *why)
{
    MW_ASSERT(!started_, "server started twice");
    if (stop_pipe_[0] < 0) {
        if (::pipe(stop_pipe_) != 0) {
            if (why)
                *why = std::string("cannot create stop pipe: ") +
                       std::strerror(errno);
            return false;
        }
        setCloexec(stop_pipe_[0]);
        setCloexec(stop_pipe_[1]);
    } else {
        // Reused after a shutdown: drain any stale stop byte so the
        // new accept loop does not exit immediately.
        const int flags = ::fcntl(stop_pipe_[0], F_GETFL);
        ::fcntl(stop_pipe_[0], F_SETFL, flags | O_NONBLOCK);
        char sink[16];
        while (::read(stop_pipe_[0], sink, sizeof(sink)) > 0) {
        }
        ::fcntl(stop_pipe_[0], F_SETFL, flags);
    }

    if (!cache_.open(opt_.cache_dir, opt_.cache_cap_bytes, why))
        return false;
    if (cache_.recovered() > 0)
        MW_INFORM("mw-server: replayed ", cache_.recovered(),
                  " cached result(s) from ", opt_.cache_dir);
    if (cache_.tornBytes() > 0)
        MW_WARN("mw-server: dropped ", cache_.tornBytes(),
                " torn byte(s) from the result journal");
    if (cache_.discardedForeign())
        MW_INFORM("mw-server: discarded result journal from a "
                  "different build");

    listen_fd_ = listenUnix(opt_.socket_path, opt_.backlog, why);
    if (listen_fd_ < 0)
        return false;
    setCloexec(listen_fd_);

    pool_ = std::make_unique<ThreadPool>(opt_.jobs);
    // A restart after shutdownInternal() must not inherit the old
    // stop flag or runs that were queued but never batched.
    stopping_ = false;
    pending_.clear();
    inflight_.clear();
    watchdog_ = std::thread([this] { watchdogLoop(); });
    batcher_ = std::thread([this] { batcherLoop(); });
    started_ = true;
    return true;
}

void
MwServer::requestStop()
{
    if (stop_pipe_[1] >= 0) {
        const char c = 's';
        // Async-signal-safe: one write(2), no locks, no allocation.
        [[maybe_unused]] const ssize_t n =
            ::write(stop_pipe_[1], &c, 1);
    }
}

void
MwServer::run()
{
    MW_ASSERT(started_, "run() before start()");
    acceptLoop();
    shutdownInternal();
}

void
MwServer::shutdownInternal()
{
    if (!started_)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        // Wake every request thread parked on an in-flight entry
        // (they answer shutting_down) and half-close every
        // connection so blocked readFrame() calls return.
        for (auto &[canonical, entry] : inflight_)
            entry->cv.notify_all();
        for (auto &[id, conn] : connections_)
            ::shutdown(conn.fd, SHUT_RDWR);
    }
    stop_cv_.notify_all();
    batch_cv_.notify_all();

    for (;;) {
        std::vector<std::thread> dead;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (auto &[id, conn] : connections_)
                if (conn.thread.joinable())
                    dead.push_back(std::move(conn.thread));
            connections_.clear();
            finished_connections_.clear();
        }
        if (dead.empty())
            break;
        for (auto &t : dead)
            t.join();
    }

    if (watchdog_.joinable())
        watchdog_.join();
    // The batcher must stop submitting before the pool dies.
    if (batcher_.joinable())
        batcher_.join();
    // Drain outstanding computations before the cache goes away:
    // finalize still wants to journal their results.
    pool_.reset();
    cache_.close();

    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(opt_.socket_path.c_str());
    }
    // stop_pipe_ stays open (see ~MwServer): requestStop() may be
    // called from a signal handler at any point in the lifetime.
    started_ = false;
}

ServerCounters
MwServer::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

void
MwServer::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                         {stop_pipe_[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            MW_WARN("mw-server: poll: ", std::strerror(errno));
            break;
        }
        if (fds[1].revents != 0)
            break; // requestStop()
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            MW_WARN("mw-server: accept: ", std::strerror(errno));
            break;
        }
        setCloexec(cfd);

        reapFinishedConnections();

        bool shed = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.connections;
            if (stopping_ ||
                connections_.size() >= opt_.max_connections) {
                ++counters_.shed;
                shed = true;
            } else {
                const std::uint64_t id = next_conn_id_++;
                Connection &conn = connections_[id];
                conn.fd = cfd;
                conn.thread = std::thread(
                    [this, id, cfd] { serveConnection(id, cfd); });
            }
        }
        if (shed) {
            // One named rejection, then close: the client learns to
            // back off instead of hanging on an ignored socket.
            writeFrame(cfd,
                       errorResponse("", ErrorCode::Overloaded,
                                     "connection limit reached",
                                     overloaded_retry_after_ms),
                       nullptr);
            ::close(cfd);
        }
    }
}

void
MwServer::reapFinishedConnections()
{
    std::vector<std::thread> dead;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const std::uint64_t id : finished_connections_) {
            auto it = connections_.find(id);
            if (it == connections_.end())
                continue;
            dead.push_back(std::move(it->second.thread));
            connections_.erase(it);
        }
        finished_connections_.clear();
    }
    for (auto &t : dead)
        t.join();
}

void
MwServer::serveConnection(std::uint64_t conn_id, int fd)
{
    std::string payload;
    for (;;) {
        std::string why;
        const FrameStatus st = readFrame(fd, payload, &why);
        if (st == FrameStatus::Eof || st == FrameStatus::IoError)
            break;
        if (st == FrameStatus::BadFrame) {
            // The stream position is unknown; answer and close.
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.bad_requests;
            }
            writeFrame(fd,
                       errorResponse("", ErrorCode::BadFrame, why),
                       nullptr);
            break;
        }
        if (st == FrameStatus::Oversized) {
            // The payload was drained; the stream is still framed.
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.bad_requests;
            }
            if (!writeFrame(
                    fd, errorResponse("", ErrorCode::Oversized, why),
                    nullptr))
                break;
            continue;
        }
        bool close_after = false;
        const std::string response =
            handlePayload(payload, close_after);
        if (!writeFrame(fd, response, &why)) {
            MW_WARN("mw-server: ", why);
            break;
        }
        if (close_after) {
            requestStop();
            break;
        }
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(mu_);
    finished_connections_.push_back(conn_id);
}

std::string
MwServer::handlePayload(const std::string &payload, bool &close_after)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.requests;
    }
    Request req;
    ErrorCode code = ErrorCode::Internal;
    std::string detail;
    if (!parseRequest(payload, req, code, detail)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.bad_requests;
        return errorResponse(req.id, code, detail);
    }
    switch (req.cmd) {
    case Request::Cmd::Ping:
        return okResponse(req.id, false, "{\"pong\":true}");
    case Request::Cmd::Stats:
        return okResponse(req.id, false, statsJson());
    case Request::Cmd::Shutdown:
        close_after = true;
        return okResponse(req.id, false,
                          "{\"shutting_down\":true}");
    case Request::Cmd::Run:
        return handleRun(req);
    }
    return errorResponse(req.id, ErrorCode::Internal,
                         "unhandled command");
}

std::string
MwServer::handleRun(const Request &req)
{
    const auto arrival = Clock::now();
    const auto deadline = arrival + ms(req.run.deadline_ms);

    // The key is derived from the plan, so build it first — outside
    // mu_, since building a plan needs no server state.
    CatalogPlan plan = build_plan_(req.run);
    MW_ASSERT(!plan.points.empty(), "catalog plan with no points");
    const std::string canonical = canonicalRunKey(req.run, plan);

    std::unique_lock<std::mutex> lk(mu_);
    std::shared_ptr<Inflight> entry;
    // Two passes at most: the first may drop mu_ to probe the cache
    // (the probe must not hold mu_ — the memo journal may be mid-
    // fsync or compaction under cache_mu_, and request handling must
    // not stall behind that disk I/O), after which stop/quarantine/
    // in-flight state must be re-checked from scratch.
    for (bool probed = false; entry == nullptr;) {
        if (stopping_)
            return errorResponse(req.id, ErrorCode::ShuttingDown,
                                 "server is draining");
        if (auto it = inflight_.find(canonical);
            it != inflight_.end()) {
            if (it->second->quarantined)
                return errorResponse(
                    req.id, ErrorCode::Quarantined,
                    "a previous computation of this request wedged; "
                    "the key is fenced off until it completes",
                    static_cast<long>(opt_.wedge_grace_ms));
            entry = it->second;
            ++counters_.dedup_joined;
            break;
        }
        if (!probed) {
            probed = true;
            lk.unlock();
            bool found = false;
            std::string hit;
            {
                std::lock_guard<std::mutex> cache_lock(cache_mu_);
                if (const std::string *p = cache_.lookup(canonical)) {
                    hit = *p;
                    found = true;
                }
            }
            lk.lock();
            if (found) {
                ++counters_.cache_hits;
                return okResponse(req.id, true, hit);
            }
            continue;
        }
        if (inflight_.size() >= opt_.max_inflight) {
            ++counters_.shed;
            return errorResponse(
                req.id, ErrorCode::Overloaded,
                "experiment queue is full", overloaded_retry_after_ms);
        }
        entry = std::make_shared<Inflight>();
        entry->last_progress = arrival;
        inflight_[canonical] = entry;

        auto job = std::make_shared<ComputeJob>();
        job->canonical = canonical;
        job->entry = entry;
        job->plan = std::move(plan);
        job->results.resize(job->plan.points.size());
        job->remaining = job->plan.points.size();
        pending_.push_back(std::move(job));
        batch_cv_.notify_one();
    }

    // Owner and joiners alike wait for completion, quarantine, stop
    // or their own deadline — whichever comes first.
    const auto done_or_doomed = [&] {
        return stopping_ ||
               entry->state != Inflight::State::Running ||
               entry->quarantined;
    };
    bool in_time = true;
    if (req.run.deadline_ms > 0)
        in_time = entry->cv.wait_until(lk, deadline, done_or_doomed);
    else
        entry->cv.wait(lk, done_or_doomed);

    // A finished result outranks every doom condition: if it is
    // there, serve it.
    if (entry->state == Inflight::State::Done)
        return okResponse(req.id, false, entry->result);
    if (entry->state == Inflight::State::Failed)
        // No retry_after_ms: the same request would fail the same way.
        return errorResponse(req.id, ErrorCode::WorkerFailed,
                             entry->error_detail);
    if (!in_time) {
        ++counters_.deadline_misses;
        return errorResponse(
            req.id, ErrorCode::DeadlineExceeded,
            "deadline of " + std::to_string(req.run.deadline_ms) +
                " ms elapsed; the computation continues and will be "
                "cached",
            static_cast<long>(req.run.deadline_ms));
    }
    if (entry->quarantined)
        return errorResponse(
            req.id, ErrorCode::Quarantined,
            "the computation wedged past the watchdog grace period",
            static_cast<long>(opt_.wedge_grace_ms));
    return errorResponse(req.id, ErrorCode::ShuttingDown,
                         "server is draining");
}

void
MwServer::batcherLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopping_) {
        batch_cv_.wait(
            lk, [&] { return stopping_ || !pending_.empty(); });
        if (stopping_)
            break;
        if (opt_.batch_window_ms > 0) {
            // Linger with the queue open so near-simultaneous
            // requests coalesce into this pass.
            lk.unlock();
            std::this_thread::sleep_for(ms(opt_.batch_window_ms));
            lk.lock();
            if (stopping_)
                break;
        }
        std::vector<std::shared_ptr<ComputeJob>> batch;
        batch.swap(pending_);

        // Coalesce equal unit keys across every run in the batch:
        // one computation, delivered to all subscribers. Submission
        // order follows first appearance, so a solo batch schedules
        // exactly like the pre-batching server did.
        std::map<std::string, std::shared_ptr<ComputeUnit>> units;
        std::vector<std::shared_ptr<ComputeUnit>> order;
        std::size_t points_total = 0;
        for (const auto &job : batch) {
            for (std::size_t i = 0; i < job->plan.points.size();
                 ++i) {
                CatalogPoint &pt = job->plan.points[i];
                std::shared_ptr<ComputeUnit> &slot =
                    units[pt.unit_key];
                if (!slot) {
                    slot = std::make_shared<ComputeUnit>();
                    slot->label = pt.label;
                    slot->compute = std::move(pt.compute);
                    order.push_back(slot);
                }
                slot->subscribers.emplace_back(job, i);
                ++points_total;
            }
        }
        ++counters_.batches;
        counters_.batched_keys += batch.size();
        counters_.points_computed += order.size();
        counters_.points_shared += points_total - order.size();

        lk.unlock();
        for (const auto &unit : order)
            pool_->submit([this, unit] { runUnit(unit); });
        lk.lock();
    }
}

void
MwServer::runUnit(const std::shared_ptr<ComputeUnit> &unit)
{
    {
        // Starting is progress too: a job that waited in the queue
        // longer than the grace period must not be fenced off the
        // moment its first unit finally runs.
        std::lock_guard<std::mutex> lock(mu_);
        const auto now = Clock::now();
        for (const auto &[job, index] : unit->subscribers) {
            job->entry->last_progress = now;
            ++job->entry->running_units;
        }
    }

    // Each point is a deterministic computation: one that throws
    // would throw again, so it runs exactly once.
    std::shared_ptr<void> result;
    bool success = false;
    std::string error;
    try {
        result = unit->compute();
        success = true;
    } catch (const std::exception &e) {
        error = e.what();
    }

    // Deliver to every subscriber; finalize each job whose last
    // point this was. finalize() journals under cache_mu_, so it
    // must run with mu_ dropped.
    std::vector<std::shared_ptr<ComputeJob>> completed;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto now = Clock::now();
        for (const auto &[job, index] : unit->subscribers) {
            job->entry->last_progress = now;
            --job->entry->running_units;
            if (success) {
                job->results[index] = result;
            } else {
                ++counters_.worker_failures;
                if (!job->failed) {
                    job->failed = true;
                    job->fail_detail =
                        unit->label + " failed: " + error;
                }
            }
            MW_ASSERT(job->remaining > 0,
                      "compute job over-completed");
            if (--job->remaining == 0)
                completed.push_back(job);
        }
    }
    for (const auto &job : completed)
        finalize(job);
}

void
MwServer::finalize(const std::shared_ptr<ComputeJob> &job)
{
    // Every point has finished: each one's mu_-guarded decrement
    // happened-before this thread observed remaining == 0, so the
    // job fields are safe to read without the lock — and no one
    // writes them again.
    const std::shared_ptr<Inflight> &entry = job->entry;
    std::string result_json;
    if (!job->failed)
        result_json = job->plan.render(job->results);

    // Journal BEFORE publishing completion: the key stays visible in
    // inflight_ until the cache holds it, so a duplicate request can
    // never slip between the two and recompute. The fsync (and any
    // compaction) runs under cache_mu_ only — never under mu_ — so
    // request handling, stats and the watchdog do not stall behind
    // disk I/O.
    if (!job->failed) {
        std::string why;
        std::lock_guard<std::mutex> cache_lock(cache_mu_);
        if (!cache_.insert(job->canonical, result_json, &why))
            // The response is still served from memory; only
            // restart durability is lost.
            MW_WARN("mw-server: result not persisted: ", why);
    }

    std::lock_guard<std::mutex> lock(mu_);
    if (job->failed) {
        entry->state = Inflight::State::Failed;
        entry->error_detail = job->fail_detail;
    } else {
        entry->state = Inflight::State::Done;
        entry->result = std::move(result_json);
        ++counters_.computed;
    }
    if (entry->quarantined) {
        // The wedged computation finally finished: lift the fence so
        // the (now cached) key serves normally again.
        entry->quarantined = false;
        ++counters_.unquarantines;
    }
    inflight_.erase(job->canonical);
    entry->cv.notify_all();
}

void
MwServer::watchdogLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopping_) {
        stop_cv_.wait_for(lk, ms(opt_.watchdog_interval_ms),
                          [&] { return stopping_; });
        if (stopping_)
            break;
        const auto now = Clock::now();
        for (auto &[canonical, entry] : inflight_) {
            if (entry->state != Inflight::State::Running ||
                entry->quarantined)
                continue;
            // A wedged computation is one with a unit executing and
            // no unit of its own started or resolved for a whole
            // grace period — total age alone would quarantine a big
            // batched job steadily chewing through its units on a
            // small pool. A job with nothing executing has all its
            // units queued behind someone else's: it is waiting its
            // turn, not wedged, and is never charged for the stall.
            if (entry->running_units == 0 ||
                now - entry->last_progress < ms(opt_.wedge_grace_ms))
                continue;
            entry->quarantined = true;
            ++counters_.quarantines;
            // The key's first line names the experiment and seed.
            MW_WARN("mw-server: quarantined wedged computation: ",
                    canonical.substr(0, canonical.find('\n')));
            entry->cv.notify_all();
        }
    }
}

std::string
MwServer::statsJson()
{
    // Snapshot the two lock domains separately (never nested): the
    // cache may be mid-fsync under cache_mu_, and stats must not
    // drag mu_ into waiting on that.
    ServerCounters counters;
    std::size_t inflight_count = 0;
    std::size_t quarantine_count = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        counters = counters_;
        inflight_count = inflight_.size();
        for (const auto &[canonical, entry] : inflight_)
            quarantine_count += entry->quarantined ? 1 : 0;
    }
    std::size_t cache_entries = 0;
    std::size_t cache_recovered = 0;
    std::size_t cache_torn = 0;
    std::uint64_t cache_compactions = 0;
    {
        std::lock_guard<std::mutex> cache_lock(cache_mu_);
        cache_entries = cache_.size();
        cache_recovered = cache_.recovered();
        cache_torn = cache_.tornBytes();
        cache_compactions = cache_.compactions();
    }
    std::string out = "{\"build\":\"";
    out += jsonEscape(gitDescribe());
    out += "\",\"workers\":" + std::to_string(pool_->workers());
    out += ",\"steals\":" + std::to_string(pool_->steals());
    out += ",\"task_exceptions\":" +
           std::to_string(pool_->taskExceptions());
    out += ",\"counters\":{";
    out += "\"connections\":" +
           std::to_string(counters.connections);
    out += ",\"requests\":" + std::to_string(counters.requests);
    out += ",\"computed\":" + std::to_string(counters.computed);
    out += ",\"cache_hits\":" + std::to_string(counters.cache_hits);
    out += ",\"dedup_joined\":" +
           std::to_string(counters.dedup_joined);
    out += ",\"shed\":" + std::to_string(counters.shed);
    out += ",\"bad_requests\":" +
           std::to_string(counters.bad_requests);
    out += ",\"deadline_misses\":" +
           std::to_string(counters.deadline_misses);
    out += ",\"worker_failures\":" +
           std::to_string(counters.worker_failures);
    out += ",\"quarantines\":" +
           std::to_string(counters.quarantines);
    out += ",\"unquarantines\":" +
           std::to_string(counters.unquarantines);
    out += ",\"batches\":" + std::to_string(counters.batches);
    out += ",\"batched_keys\":" +
           std::to_string(counters.batched_keys);
    out += ",\"points_computed\":" +
           std::to_string(counters.points_computed);
    out += ",\"points_shared\":" +
           std::to_string(counters.points_shared);
    out += "},\"cache\":{";
    out += "\"entries\":" + std::to_string(cache_entries);
    out += ",\"recovered\":" + std::to_string(cache_recovered);
    out += ",\"torn_bytes\":" + std::to_string(cache_torn);
    out += ",\"compactions\":" + std::to_string(cache_compactions);
    out += "},\"inflight\":" + std::to_string(inflight_count);
    out += ",\"quarantined\":" +
           std::to_string(quarantine_count);
    out += "}";
    return out;
}

} // namespace server
} // namespace memwall
