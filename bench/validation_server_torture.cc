/**
 * @file
 * Torture validation of the mw-server experiment service. Spawns the
 * real mw-server binary (fork/exec) and beats on it over its Unix
 * socket. Five legs, each an acceptance gate:
 *
 *   identity     fig7 and fig8 responses carry result bytes that are
 *                byte-identical to the shared in-process renderer —
 *                the same code path the one-shot bench binaries
 *                print, so server == one-shot by construction;
 *
 *   storm        N concurrent clients mixing duplicate runs, distinct
 *                runs, malformed JSON, unknown fields and oversized
 *                frames. Every well-formed request succeeds with the
 *                golden bytes, every malformed one gets its named
 *                error, a connection survives an oversized frame, and
 *                the stats counters prove each distinct experiment
 *                was computed exactly once;
 *
 *   crash        the server is SIGKILLed mid-life and restarted on
 *                the same socket and cache directory. The stale
 *                socket is reclaimed, the journal replays every
 *                result, and a re-request is served from cache —
 *                byte-identical, with zero recomputation;
 *
 *   degradation  one real, uncached fig7 computation sized to run
 *                far past a 30 ms deadline: the deadline surfaces
 *                deadline_exceeded, a second request joins the
 *                still-running computation and holds the single
 *                inflight slot, and a different request is shed with
 *                overloaded plus a retry_after_ms hint (a throwing
 *                point's worker_failed is covered in-process by
 *                tests/test_server.cc);
 *
 *   catalog      every other catalog entry — table1, table3, a
 *                SPLASH figure and a sampled fig7 — is served
 *                byte-identical to the shared in-process renderers,
 *                fresh, under a mixed-catalog storm, and replayed
 *                from cache after the SIGKILL;
 *
 *   batching     two distinct in-flight keys landing in one batch
 *                window (fig7 + fig8, whose per-workload units are
 *                identical) share one pool pass: the stats counters
 *                prove the second figure's points all rode along,
 *                and the batched pass beats sequential wall-clock
 *                by >= 1.3x;
 *
 *   client       the mw-client binary itself: exit 0 on success,
 *                nonzero on a server-side error response
 *                (bad_param), and --timeout-ms bounds a connect
 *                to a bound-but-wedged socket whose accept backlog
 *                is full (the case a read timeout can never catch);
 *
 *   shutdown     a "shutdown" request drains the server to a clean
 *                exit status.
 *
 * Exit status is non-zero when any gate fails, so CI can run this
 * binary directly (the CI job additionally runs it under TSan and
 * diffs mw-client --raw-result against the one-shot binary).
 */

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sampling/plan.hh"
#include "server/json.hh"
#include "server/protocol.hh"
#include "server/wire.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/spec_suite.hh"
#include "workloads/spec_tables.hh"
#include "workloads/splash_figures.hh"

using namespace memwall;
using namespace memwall::server;

#ifndef MWSERVER_BIN
#error "MWSERVER_BIN must point at the mw-server executable"
#endif
#ifndef MWCLIENT_BIN
#error "MWCLIENT_BIN must point at the mw-client executable"
#endif

namespace {

struct Gate
{
    std::string name;
    std::string detail;
    bool pass = false;
};

std::vector<Gate> gates;

void
gate(const std::string &name, bool pass, const std::string &detail)
{
    gates.push_back(Gate{name, detail, pass});
    if (!pass)
        std::cout << "FAIL: " << name << ": " << detail << "\n";
}

std::string
makeScratchDir()
{
    char tmpl[] = "/tmp/mw-server-torture-XXXXXX";
    const char *p = ::mkdtemp(tmpl);
    if (!p)
        MW_FATAL("cannot create scratch directory: ",
                 std::strerror(errno));
    return p;
}

/** fork/exec mw-server with the given extra flags. */
pid_t
spawnServer(const std::string &socket_path,
            const std::string &cache_dir, unsigned jobs,
            const std::vector<std::string> &extra)
{
    std::vector<std::string> args = {
        MWSERVER_BIN, "--socket", socket_path, "--cache-dir",
        cache_dir,    "--jobs",   std::to_string(jobs)};
    args.insert(args.end(), extra.begin(), extra.end());

    const pid_t pid = ::fork();
    if (pid < 0)
        MW_FATAL("fork: ", std::strerror(errno));
    if (pid == 0) {
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        std::fprintf(stderr, "execv %s: %s\n", MWSERVER_BIN,
                     std::strerror(errno));
        _exit(127);
    }
    return pid;
}

/** Wait until the server accepts connections (or give up). */
bool
waitForServer(const std::string &socket_path, pid_t pid)
{
    for (int i = 0; i < 500; ++i) {
        std::string why;
        const int fd = connectUnix(socket_path, &why);
        if (fd >= 0) {
            ::close(fd);
            return true;
        }
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return false; // server died during startup
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

/** One request/response over a fresh connection. */
std::string
rpc(const std::string &socket_path, const std::string &request)
{
    std::string why;
    const int fd = connectUnix(socket_path, &why);
    if (fd < 0)
        return "";
    std::string response;
    if (!writeFrame(fd, request, &why) ||
        readFrame(fd, response, &why) != FrameStatus::Ok)
        response.clear();
    ::close(fd);
    return response;
}

/** Raw bytes of the envelope's "result" member. The protocol puts
 *  "result" last, so its bytes run to the envelope's closing brace —
 *  which captures the figure document's trailing newline. */
std::string
resultBytes(const std::string &response)
{
    JsonValue v;
    std::string err;
    if (!parseJson(response, v, err))
        return "";
    const JsonValue *status = v.find("status");
    const JsonValue *result = v.find("result");
    if (status == nullptr || status->text != "ok" ||
        result == nullptr)
        return "";
    return response.substr(result->begin,
                           (response.size() - 1) - result->begin);
}

std::string
errorCodeOf(const std::string &response)
{
    JsonValue v;
    std::string err;
    if (!parseJson(response, v, err))
        return "unparseable";
    const JsonValue *e = v.find("error");
    if (e == nullptr || e->find("code") == nullptr)
        return "no-error-code";
    return e->find("code")->text;
}

bool
isCached(const std::string &response)
{
    JsonValue v;
    std::string err;
    if (!parseJson(response, v, err))
        return false;
    const JsonValue *c = v.find("cached");
    return c != nullptr && c->boolean;
}

/** stats counter lookup: section "counters"/"cache" etc. */
double
statNumber(const std::string &stats_response,
           const std::string &section, const std::string &name)
{
    JsonValue v;
    std::string err;
    if (!parseJson(stats_response, v, err))
        return -1.0;
    const JsonValue *result = v.find("result");
    if (result == nullptr)
        return -1.0;
    const JsonValue *group =
        section.empty() ? result : result->find(section);
    if (group == nullptr)
        return -1.0;
    const JsonValue *value = group->find(name);
    return value != nullptr ? value->number : -1.0;
}

std::string
runRequest(const std::string &experiment, std::uint64_t refs,
           std::uint64_t seed, const std::string &extra = "")
{
    return "{\"cmd\":\"run\",\"experiment\":\"" + experiment +
           "\",\"refs\":" + std::to_string(refs) +
           ",\"seed\":" + std::to_string(seed) + extra + "}";
}

/** Outcome of one mw-client invocation. */
struct ClientRun
{
    int exit_code = -1;
    std::uint64_t elapsed_ms = 0;
};

/**
 * fork/exec mw-client with @p args (stdout to /dev/null — the gates
 * judge the exit code and wall clock, the byte-identity gates go
 * through rpc() where the bytes are in hand).
 */
ClientRun
runClient(const std::vector<std::string> &args)
{
    std::vector<std::string> full = {MWCLIENT_BIN};
    full.insert(full.end(), args.begin(), args.end());

    // The child inherits our buffered stdout; empty it first or the
    // child's freopen() flushes a duplicate copy of everything
    // printed so far.
    std::fflush(stdout);

    const auto t0 = std::chrono::steady_clock::now();
    const pid_t pid = ::fork();
    if (pid < 0)
        MW_FATAL("fork: ", std::strerror(errno));
    if (pid == 0) {
        std::FILE *sink = std::freopen("/dev/null", "w", stdout);
        (void)sink;
        std::vector<char *> argv;
        argv.reserve(full.size() + 1);
        for (std::string &a : full)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        _exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    ClientRun out;
    out.elapsed_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return out;
}

// ---- in-process golden renders for the catalog leg -----------------
// Each reproduces exactly what the one-shot binary prints with
// --format json, through the same library entry points.

std::string
goldenTable1()
{
    const std::uint64_t refs = resolveTable1Refs(true, 0);
    std::vector<MachineRun> rows;
    for (std::size_t i = 0; i < table1_points; ++i)
        rows.push_back(runTable1Point(i, refs));
    return table1Json(rows);
}

std::string
goldenTable3(std::uint64_t seed)
{
    const SpecEvalParams base = resolveSpecEvalParams(true, 0, seed);
    std::vector<SpecEstimate> rows;
    const auto workloads = specTableWorkloads();
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        SpecEvalParams p = base;
        p.seed = specTablePointSeed(seed, i);
        rows.push_back(runSpecTablePoint(*workloads[i], false, p));
    }
    return specTableJson(false, rows);
}

std::string
goldenFig13Nodes1()
{
    const SplashFigure fig = SplashFigure::Fig13Lu;
    const double scale = resolveSplashScale(fig, true);
    std::vector<SplashResult> rows;
    for (const std::string &arch : splashArchs())
        for (unsigned ncpus : splashCpuCounts(1))
            rows.push_back(runSplashFigurePoint(fig, arch, ncpus,
                                                scale, nullptr));
    return splashFigureJson(fig, scale, 1, rows);
}

std::string
goldenFig7Sampled(const std::string &plan_text)
{
    const SamplingPlan plan = parseSamplingPlan(plan_text);
    const MissRateParams params = resolveMissRateParams(true, 0);
    return missRateFigureSampledJson(
        MissRateFigure::ICache,
        runMissRateFigureSampled(MissRateFigure::ICache, params,
                                 plan));
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv, {"--jobs"});
    benchutil::banner("Validation - experiment-service torture", opt);

    const std::uint64_t refs =
        opt.refs ? opt.refs : (opt.quick ? 4'000 : 20'000);
    const unsigned jobs = opt.jobs ? opt.jobs : 4;

    const std::string scratch = makeScratchDir();
    const std::string socket_path = scratch + "/srv.sock";
    const std::string cache_dir = scratch + "/cache";

    // ---- spawn -----------------------------------------------------
    // A modest batch window so concurrent distinct keys coalesce —
    // the batching leg depends on it; every other leg just rides the
    // few extra milliseconds of collection latency.
    pid_t pid = spawnServer(socket_path, cache_dir, jobs,
                            {"--batch-window-ms", "60"});
    gate("server came up", waitForServer(socket_path, pid),
         "fork/exec + socket accept within 5s");

    // ---- identity leg ---------------------------------------------
    // Golden bytes from the shared renderer — the exact code the
    // one-shot binaries print through.
    const MissRateParams params =
        resolveMissRateParams(false, refs);
    const std::string golden7 = missRateFigureJson(
        MissRateFigure::ICache,
        runMissRateFigure(MissRateFigure::ICache, params));
    const std::string golden8 = missRateFigureJson(
        MissRateFigure::DCache,
        runMissRateFigure(MissRateFigure::DCache, params));

    const std::string resp7 =
        rpc(socket_path, runRequest("fig7", refs, opt.seed));
    const std::string resp8 =
        rpc(socket_path, runRequest("fig8", refs, opt.seed));
    gate("fig7 bytes == one-shot renderer",
         resultBytes(resp7) == golden7,
         std::to_string(golden7.size()) + " bytes");
    gate("fig8 bytes == one-shot renderer",
         resultBytes(resp8) == golden8,
         std::to_string(golden8.size()) + " bytes");

    // ---- storm leg -------------------------------------------------
    const unsigned clients = opt.quick ? 4 : 8;
    std::vector<int> failures(clients, 0);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned t = 0; t < clients; ++t)
        threads.emplace_back([&, t] {
            int bad = 0;
            // Duplicate of the already-cached fig7 run: golden bytes.
            if (resultBytes(rpc(socket_path,
                                runRequest("fig7", refs, opt.seed))) !=
                golden7)
                ++bad;
            // Distinct key (per-thread seed): the non-sampled
            // measurement ignores the sweep seed, so the bytes stay
            // golden while the cache key (and compute) are distinct.
            if (resultBytes(rpc(
                    socket_path,
                    runRequest("fig7", refs, 1'000 + t))) != golden7)
                ++bad;
            // Malformed JSON and unknown fields: named errors.
            if (errorCodeOf(rpc(socket_path, "{nope")) != "bad_json")
                ++bad;
            if (errorCodeOf(rpc(
                    socket_path,
                    R"({"experiment":"fig7","bogus":1})")) !=
                "bad_request")
                ++bad;
            // Oversized frame, then a ping on the SAME connection:
            // the stream must stay framed.
            std::string why;
            const int fd = connectUnix(socket_path, &why);
            if (fd < 0) {
                ++bad;
            } else {
                std::string response;
                if (!writeFrame(fd,
                                std::string(max_frame_bytes + 1, 'x'),
                                &why) ||
                    readFrame(fd, response, &why) != FrameStatus::Ok ||
                    errorCodeOf(response) != "oversized")
                    ++bad;
                if (!writeFrame(fd, R"({"cmd":"ping"})", &why) ||
                    readFrame(fd, response, &why) != FrameStatus::Ok ||
                    response.find("pong") == std::string::npos)
                    ++bad;
                ::close(fd);
            }
            failures[t] = bad;
        });
    for (auto &th : threads)
        th.join();
    int storm_failures = 0;
    for (const int f : failures)
        storm_failures += f;
    gate("storm responses all correct", storm_failures == 0,
         std::to_string(clients) + " clients x 5 ops, " +
             std::to_string(storm_failures) + " failure(s)");

    // Exactly-once: fig7 + fig8 + one per distinct storm seed.
    const std::string stats1 =
        rpc(socket_path, R"({"cmd":"stats"})");
    const double computed =
        statNumber(stats1, "counters", "computed");
    const double expect_computed = 2.0 + clients;
    gate("exactly-once compute",
         computed == expect_computed,
         "computed=" + std::to_string((long long)computed) +
             ", distinct keys=" +
             std::to_string((long long)expect_computed));

    // ---- catalog leg ----------------------------------------------
    // Golden bytes for the rest of the catalog, from the same
    // library entry points the one-shot binaries print through.
    const std::string plan_text = "U=500,W=1000,k=20";
    const std::string golden_t1 = goldenTable1();
    const std::string golden_t3 = goldenTable3(opt.seed);
    const std::string golden_lu = goldenFig13Nodes1();
    const std::string golden_f7s = goldenFig7Sampled(plan_text);

    const std::string seed_field =
        ",\"seed\":" + std::to_string(opt.seed);
    const std::string req_t1 =
        R"({"cmd":"run","experiment":"table1","quick":true)" +
        seed_field + "}";
    const std::string req_t3 =
        R"({"cmd":"run","experiment":"table3","quick":true)" +
        seed_field + "}";
    const std::string req_lu =
        R"({"cmd":"run","experiment":"fig13","quick":true,"nodes":1)" +
        seed_field + "}";
    const std::string req_f7s =
        R"({"cmd":"run","experiment":"fig7","quick":true,"sample":")" +
        plan_text + "\"" + seed_field + "}";

    // Mixed-catalog storm: all four entries land on the server at
    // once (one shared batch window, four unrelated plans).
    const std::vector<std::pair<const std::string *,
                                const std::string *>>
        catalog = {{&req_t1, &golden_t1},
                   {&req_t3, &golden_t3},
                   {&req_lu, &golden_lu},
                   {&req_f7s, &golden_f7s}};
    std::vector<int> cat_bad(catalog.size(), 0);
    std::vector<std::thread> cat_threads;
    for (std::size_t i = 0; i < catalog.size(); ++i)
        cat_threads.emplace_back([&, i] {
            if (resultBytes(rpc(socket_path, *catalog[i].first)) !=
                *catalog[i].second)
                cat_bad[i] = 1;
        });
    for (auto &th : cat_threads)
        th.join();
    gate("catalog storm serves renderer bytes",
         cat_bad[0] + cat_bad[1] + cat_bad[2] + cat_bad[3] == 0,
         "table1/table3/fig13(nodes=1)/fig7-sampled, concurrent");

    // ---- batching leg ---------------------------------------------
    // Sequential baseline: two fresh keys, one at a time — each pass
    // computes every per-workload unit itself.
    const auto timed_rpc = [&](const std::string &req) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::string resp = rpc(socket_path, req);
        const auto ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return std::make_pair(resp, static_cast<std::uint64_t>(ms));
    };
    const auto seq7 = timed_rpc(runRequest("fig7", refs, 9'001));
    const auto seq8 = timed_rpc(runRequest("fig8", refs, 9'002));
    const std::uint64_t t_seq = seq7.second + seq8.second;
    bool seq_golden = resultBytes(seq7.first) == golden7 &&
                      resultBytes(seq8.first) == golden8;

    // Batched pass: the same two figures fired together. fig7 and
    // fig8 at one window decompose into IDENTICAL per-workload units
    // (one measureMissRates() pass yields both figures), so one
    // batch computes the suite once and renders both documents.
    // Retried with fresh seeds in case a scheduling stall makes the
    // two requests miss one 60 ms window.
    const double suite_points =
        static_cast<double>(specSuite().size());
    bool coalesced = false, shared_exact = false,
         batch_golden = false;
    std::uint64_t t_batch = 0;
    for (int attempt = 0; attempt < 3 && !coalesced; ++attempt) {
        const std::string before =
            rpc(socket_path, R"({"cmd":"stats"})");
        const std::uint64_t seed7 = 9'100 + 2 * attempt;
        std::string b7, b8;
        const auto t0 = std::chrono::steady_clock::now();
        std::thread th7([&] {
            b7 = rpc(socket_path, runRequest("fig7", refs, seed7));
        });
        std::thread th8([&] {
            b8 = rpc(socket_path,
                     runRequest("fig8", refs, seed7 + 1));
        });
        th7.join();
        th8.join();
        t_batch = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        const std::string after =
            rpc(socket_path, R"({"cmd":"stats"})");
        const auto delta = [&](const char *name) {
            return statNumber(after, "counters", name) -
                   statNumber(before, "counters", name);
        };
        coalesced = delta("batches") == 1.0 &&
                    delta("batched_keys") == 2.0;
        shared_exact = delta("points_computed") == suite_points &&
                       delta("points_shared") == suite_points;
        batch_golden = resultBytes(b7) == golden7 &&
                       resultBytes(b8) == golden8;
    }
    gate("batch coalesces distinct in-flight keys",
         coalesced && batch_golden && seq_golden,
         "fig7+fig8 in one batch, both documents golden");
    gate("batch shares units exactly-once",
         shared_exact,
         "points_computed=+" +
             std::to_string((long long)suite_points) +
             ", points_shared=+" +
             std::to_string((long long)suite_points));
    const double speedup =
        t_batch > 0 ? static_cast<double>(t_seq) /
                          static_cast<double>(t_batch)
                    : 0.0;
    char speedup_txt[96];
    std::snprintf(speedup_txt, sizeof(speedup_txt),
                  "seq %llums vs batched %llums = %.2fx",
                  (unsigned long long)t_seq,
                  (unsigned long long)t_batch, speedup);
    gate("batched pass beats sequential >= 1.3x", speedup >= 1.3,
         speedup_txt);

    // ---- crash leg -------------------------------------------------
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    gate("server SIGKILLed",
         WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
         "no chance to flush or unlink its socket");

    // Restart on the SAME socket path (stale-socket reclaim) and the
    // same cache directory (journal replay); small inflight table so
    // the degradation leg can fill it.
    pid = spawnServer(socket_path, cache_dir, jobs,
                      {"--max-inflight", "1"});
    gate("restart reclaims stale socket",
         waitForServer(socket_path, pid),
         "bind over the dead server's socket file");

    // By the SIGKILL the journal held the identity + storm keys plus
    // the four catalog entries and the four batching-leg keys.
    const double expect_recovered = expect_computed + 8.0;
    const std::string stats2 =
        rpc(socket_path, R"({"cmd":"stats"})");
    gate("journal replayed after SIGKILL",
         statNumber(stats2, "cache", "recovered") >=
             expect_recovered,
         "recovered=" +
             std::to_string((long long)statNumber(
                 stats2, "cache", "recovered")) +
             " >= " + std::to_string((long long)expect_recovered));

    const std::string replay =
        rpc(socket_path, runRequest("fig7", refs, opt.seed));
    gate("cached replay is byte-identical",
         isCached(replay) && resultBytes(replay) == golden7,
         "served from the journal-recovered cache");

    // Every catalog entry replays from the recovered cache with the
    // exact renderer bytes — the crash lost nothing and changed
    // nothing.
    int cat_replay_bad = 0;
    for (const auto &entry : catalog) {
        const std::string r = rpc(socket_path, *entry.first);
        if (!isCached(r) || resultBytes(r) != *entry.second)
            ++cat_replay_bad;
    }
    gate("catalog crash replay byte-identical", cat_replay_bad == 0,
         "table1/table3/fig13/fig7-sampled from the journal");

    gate("replay recomputed nothing",
         statNumber(rpc(socket_path, R"({"cmd":"stats"})"),
                    "counters", "computed") == 0.0,
         "computed=0 on the restarted server");

    // ---- degradation leg ------------------------------------------
    // One real key K: fig7 at a window sized so its computation runs
    // well past ten times the 30 ms deadline, on a seed nothing has
    // used, so it is neither cached nor in flight yet.
    constexpr std::uint64_t k_refs = 600'000;
    const std::string req_k = runRequest("fig7", k_refs, 7'003);
    const auto t_k = std::chrono::steady_clock::now();
    gate("deadline surfaces deadline_exceeded",
         errorCodeOf(rpc(socket_path,
                         runRequest("fig7", k_refs, 7'003,
                                    R"(,"deadline_ms":30)"))) ==
             "deadline_exceeded",
         "30ms deadline vs an uncached fig7 refs=" +
             std::to_string(k_refs));

    // K keeps computing after the deadline. A request without one
    // joins it, and the two hold the single inflight slot together.
    std::string hog_resp;
    std::uint64_t k_ms = 0;
    std::thread hog([&] {
        hog_resp = rpc(socket_path, req_k);
        k_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t_k)
                .count());
    });
    // Poll, never sleep: the joiner is in once stats count it.
    bool slot_held = false;
    const auto give_up = t_k + std::chrono::seconds(30);
    while (!slot_held && std::chrono::steady_clock::now() < give_up) {
        const std::string st = rpc(socket_path, R"({"cmd":"stats"})");
        slot_held = statNumber(st, "", "inflight") == 1.0 &&
                    statNumber(st, "counters", "dedup_joined") >= 1.0;
    }
    const std::string shed_resp =
        rpc(socket_path, runRequest("fig8", refs, 7'005));
    JsonValue shed_json;
    std::string err;
    const bool shed_parsed =
        parseJson(shed_resp, shed_json, err) &&
        shed_json.find("error") != nullptr;
    const bool has_retry_after =
        shed_parsed && shed_json.find("error")->find(
                           "retry_after_ms") != nullptr;
    gate("overload sheds with retry_after",
         slot_held && errorCodeOf(shed_resp) == "overloaded" &&
             has_retry_after,
         "max-inflight=1, slot held by K and a joined request");
    // Joining the hog leaves nothing in flight for the later legs.
    hog.join();
    gate("joined request is served when K finishes",
         !resultBytes(hog_resp).empty(),
         "K computed in " + std::to_string(k_ms) + "ms");

    // ---- client leg -----------------------------------------------
    // The real mw-client binary. Success is exit 0 (a cached key, so
    // it returns at once)...
    const ClientRun client_ok = runClient(
        {"--socket", socket_path, "--timeout-ms", "120000", "run",
         "--experiment", "fig7", "--refs", std::to_string(refs),
         "--seed", std::to_string(opt.seed)});
    gate("mw-client exits 0 on success", client_ok.exit_code == 0,
         "exit=" + std::to_string(client_ok.exit_code));

    // ...and a server-side error response — bad_param for a machine
    // size past the SPLASH axis — is exit 1, not a swallowed "ok".
    const ClientRun client_fail = runClient(
        {"--socket", socket_path, "--timeout-ms", "120000", "send",
         R"({"cmd":"run","experiment":"fig13","nodes":17})"});
    gate("mw-client exits nonzero on an error response",
         client_fail.exit_code == 1,
         "exit=" + std::to_string(client_fail.exit_code));

    // A bound-but-wedged socket: listening, backlog full, nobody
    // accepting. A plain connect(2) would block indefinitely — no
    // read timeout ever fires because the connect never completes.
    // --timeout-ms must bound the connect itself.
    {
        const std::string decoy = scratch + "/wedged.sock";
        std::string why;
        const int lfd = listenUnix(decoy, 0, &why);
        gate("decoy wedged listener bound", lfd >= 0, why);
        // Fill the (zero-length) backlog so the client's connect
        // cannot complete. If the filler itself cannot get in, the
        // client's connect will — and then its I/O timeout bounds
        // the read instead; either way the gate must see a prompt
        // nonzero exit.
        const int filler = connectUnixTimeout(decoy, 2'000, &why);
        const ClientRun hung = runClient({"--socket", decoy,
                                          "--timeout-ms", "400",
                                          "ping"});
        gate("mw-client timeout bounds a wedged connect",
             hung.exit_code != 0 && hung.elapsed_ms < 5'000,
             "exit=" + std::to_string(hung.exit_code) + " after " +
                 std::to_string(hung.elapsed_ms) + "ms");
        if (filler >= 0)
            ::close(filler);
        if (lfd >= 0)
            ::close(lfd);
        ::unlink(decoy.c_str());
    }

    // ---- shutdown leg ---------------------------------------------
    const std::string bye =
        rpc(socket_path, R"({"cmd":"shutdown"})");
    status = -1;
    for (int i = 0; i < 500; ++i) {
        if (::waitpid(pid, &status, WNOHANG) == pid)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    gate("shutdown request drains to exit 0",
         bye.find("shutting_down") != std::string::npos &&
             WIFEXITED(status) && WEXITSTATUS(status) == 0,
         "clean exit after \"shutdown\"");

    TextTable table("Experiment-service torture gates");
    table.setHeader({"gate", "detail", "status"});
    int failed = 0;
    for (const Gate &g : gates) {
        table.addRow({g.name, g.detail, g.pass ? "ok" : "FAIL"});
        if (!g.pass)
            ++failed;
    }
    table.print(std::cout);

    const std::string cleanup = "rm -rf '" + scratch + "'";
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());

    if (failed) {
        std::cout << "\n" << failed << " gate(s) FAILED\n";
        return 1;
    }
    std::cout << "\nall " << gates.size() << " gates passed\n";
    return 0;
}
