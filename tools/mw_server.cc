/**
 * @file
 * mw-server — resident experiment service.
 *
 *   mw-server --socket PATH --cache-dir DIR [--jobs N]
 *             [--cache-cap-bytes N] [--max-connections N]
 *             [--max-inflight N] [--wedge-grace-ms N]
 *             [--watchdog-interval-ms N] [--batch-window-ms N]
 *
 * Listens on a Unix-domain socket for framed JSON requests (see
 * src/server/protocol.hh for the schema), computes the experiment
 * catalog (figures 7/8, the SPEC tables, the SPLASH figures)
 * on a shared thread pool with request deduplication and batching,
 * and memoizes results in a crash-safe on-disk cache under
 * --cache-dir. SIGINT/SIGTERM (or a "shutdown" request) drain and
 * exit cleanly; a SIGKILL'd server replays its journal on restart.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <csignal>

#include "common/logging.hh"
#include "server/server.hh"

using namespace memwall;

namespace {

server::MwServer *g_server = nullptr;

void
handleSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop(); // one async-signal-safe write(2)
}

[[noreturn]] void
usage(const char *why)
{
    if (why != nullptr)
        std::fprintf(stderr, "mw-server: %s\n", why);
    std::fprintf(
        stderr,
        "usage: mw-server --socket PATH --cache-dir DIR [--jobs N]\n"
        "                 [--cache-cap-bytes N] [--max-connections N]\n"
        "                 [--max-inflight N] [--wedge-grace-ms N]\n"
        "                 [--watchdog-interval-ms N]\n"
        "                 [--batch-window-ms N]\n");
    std::exit(2);
}

std::uint64_t
numberArg(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value, &end, 0);
    if (errno != 0 || end == value || *end != '\0') {
        std::string why = std::string("invalid value '") + value +
                          "' for " + flag;
        usage(why.c_str());
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    server::ServerOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                const std::string why =
                    "missing value for " + arg;
                usage(why.c_str());
            }
            return argv[++i];
        };
        if (arg == "--socket")
            opt.socket_path = value();
        else if (arg == "--cache-dir")
            opt.cache_dir = value();
        else if (arg == "--jobs")
            opt.jobs =
                static_cast<unsigned>(numberArg("--jobs", value()));
        else if (arg == "--cache-cap-bytes")
            opt.cache_cap_bytes =
                numberArg("--cache-cap-bytes", value());
        else if (arg == "--max-connections")
            opt.max_connections =
                numberArg("--max-connections", value());
        else if (arg == "--max-inflight")
            opt.max_inflight = numberArg("--max-inflight", value());
        else if (arg == "--wedge-grace-ms")
            opt.wedge_grace_ms =
                numberArg("--wedge-grace-ms", value());
        else if (arg == "--watchdog-interval-ms")
            opt.watchdog_interval_ms =
                numberArg("--watchdog-interval-ms", value());
        else if (arg == "--batch-window-ms")
            opt.batch_window_ms =
                numberArg("--batch-window-ms", value());
        else
            usage(("unknown flag '" + arg + "'").c_str());
    }
    if (opt.socket_path.empty())
        usage("--socket is required");
    if (opt.cache_dir.empty())
        usage("--cache-dir is required");

    server::MwServer srv(opt);
    std::string why;
    if (!srv.start(&why)) {
        std::fprintf(stderr, "mw-server: %s\n", why.c_str());
        return 1;
    }

    g_server = &srv;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = handleSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // A client that closes its socket before we finish writing must
    // surface as EPIPE in writeFrame, not SIGPIPE-kill the daemon
    // (writeFrame also passes MSG_NOSIGNAL; this covers everything
    // else that might ever write to a dead peer).
    struct sigaction ign;
    std::memset(&ign, 0, sizeof(ign));
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, nullptr);

    MW_INFORM("mw-server: listening on ", opt.socket_path,
              " (cache: ", opt.cache_dir,
              ", build: ", server::gitDescribe(), ")");
    srv.run();
    MW_INFORM("mw-server: stopped");
    g_server = nullptr;
    return 0;
}
