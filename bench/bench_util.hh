/**
 * @file
 * Shared plumbing for the table/figure regeneration binaries.
 *
 * Every bench accepts:
 *   --refs N     measured references per workload (default varies)
 *   --quick      cut the workload sizes ~10x for smoke runs
 *   --seed S     RNG seed
 *
 * A bench may register additional value-taking flags (e.g.
 * `--reseeds 0,777,31415`) by passing them to parse(); their values
 * land in Options::extra keyed by flag name; parseU64Flag(),
 * parseDoubleFlag() and splitList() turn them into numbers.
 *
 * Two registered flags are parsed into typed fields instead:
 *   --format text|json   a bench with machine-readable output;
 *                        read into Options::format
 *   --jobs N             a bench that sweeps points in parallel;
 *                        worker threads (default: one per hardware
 *                        thread; 1 = serial reference run). Output
 *                        is byte-identical for every N (see
 *                        harness/parallel_sweep.hh).
 * A bench that does not register one rejects it as an unknown flag,
 * so `--format json` never silently prints text and `--jobs 4`
 * never silently runs serially.
 */

#ifndef MEMWALL_BENCH_BENCH_UTIL_HH
#define MEMWALL_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace memwall::benchutil {

/** Default for --jobs: one worker per hardware thread, at least 1. */
inline unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

struct Options
{
    std::uint64_t refs = 0;  ///< 0 = use the bench's default
    bool quick = false;
    std::uint64_t seed = 42;
    /** Sweep worker threads (registered --jobs); 1 runs points
     * serially inline. */
    unsigned jobs = defaultJobs();
    /** Output format: "text" or "json". */
    std::string format = "text";

    bool json() const { return format == "json"; }
    /** Values of the bench's registered extra flags, keyed by the
     * flag spelled with its dashes (e.g. "--reseeds"). */
    std::map<std::string, std::string> extra;

    /** Value of extra flag @p flag, or @p fallback if not given. */
    std::string
    extraOr(const std::string &flag,
            const std::string &fallback) const
    {
        auto it = extra.find(flag);
        return it != extra.end() ? it->second : fallback;
    }
};

/** Whether the bench registered @p flag among its extra flags. */
inline bool
registered(std::initializer_list<const char *> extra_flags,
           const char *flag)
{
    for (const char *f : extra_flags)
        if (std::strcmp(f, flag) == 0)
            return true;
    return false;
}

inline void
printUsage(const char *prog,
           std::initializer_list<const char *> extra_flags)
{
    std::fprintf(stderr, "usage: %s [--refs N] [--quick] [--seed S]",
                 prog);
    for (const char *flag : extra_flags)
        std::fprintf(stderr,
                     std::strcmp(flag, "--format") == 0 ? " [%s text|json]"
                     : std::strcmp(flag, "--jobs") == 0 ? " [%s N]"
                                                        : " [%s V[,V...]]",
                     flag);
    std::fprintf(stderr, "\n");
}

[[noreturn]] inline void
usageError(const char *prog,
           std::initializer_list<const char *> extra_flags,
           const std::string &why)
{
    std::fprintf(stderr, "error: %s\n", why.c_str());
    printUsage(prog, extra_flags);
    std::exit(2);
}

/**
 * Parse the whole of @p text as an unsigned integer (base prefixes
 * honoured); reject empty, trailing junk and overflow with an error
 * naming @p flag rather than silently falling back to a default.
 */
inline std::uint64_t
parseU64Flag(const char *text, const char *flag, const char *prog,
             std::initializer_list<const char *> extra_flags)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE)
        usageError(prog, extra_flags,
                   std::string("invalid value '") + text + "' for " +
                       flag);
    return value;
}

/**
 * Parse the whole of @p text as a finite floating-point number;
 * reject empty, trailing junk, out-of-range and non-finite values
 * with an error naming @p flag, so a mistyped gate never becomes a
 * gate of 0.
 */
inline double
parseDoubleFlag(const char *text, const char *flag, const char *prog,
                std::initializer_list<const char *> extra_flags)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value))
        usageError(prog, extra_flags,
                   std::string("invalid value '") + text + "' for " +
                       flag);
    return value;
}

inline Options
parse(int argc, char **argv,
      std::initializer_list<const char *> extra_flags = {})
{
    Options opt;
    const char *prog = argv[0];
    // A value-taking flag in final position has no value: report it
    // by name instead of the generic usage line.
    auto value_of = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usageError(prog, extra_flags,
                       std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            opt.quick = true;
            continue;
        }
        if (std::strcmp(argv[i], "--refs") == 0) {
            opt.refs = parseU64Flag(value_of(i), "--refs", prog,
                                    extra_flags);
            continue;
        }
        if (std::strcmp(argv[i], "--seed") == 0) {
            opt.seed = parseU64Flag(value_of(i), "--seed", prog,
                                    extra_flags);
            continue;
        }
        if (std::strcmp(argv[i], "--format") == 0 &&
            registered(extra_flags, "--format")) {
            opt.format = value_of(i);
            if (opt.format != "text" && opt.format != "json")
                usageError(prog, extra_flags,
                           std::string("invalid value '") +
                               opt.format + "' for --format");
            continue;
        }
        if (std::strcmp(argv[i], "--jobs") == 0 &&
            registered(extra_flags, "--jobs")) {
            const std::uint64_t jobs =
                parseU64Flag(value_of(i), "--jobs", prog,
                             extra_flags);
            // 0 = auto-detect, same as omitting the flag.
            opt.jobs = jobs ? static_cast<unsigned>(jobs)
                            : defaultJobs();
            continue;
        }
        if (registered(extra_flags, argv[i])) {
            const char *flag = argv[i];
            opt.extra[flag] = value_of(i);
            continue;
        }
        usageError(prog, extra_flags,
                   std::string("unknown flag '") + argv[i] + "'");
    }
    return opt;
}

/**
 * Validate the --ckpt-dir flag value: non-empty, a directory
 * (created if missing) and writable. Anything else is a usage error
 * (exit 2) naming the path and the errno — a typo must never
 * silently disable checkpoint acceleration or scatter files into an
 * unintended place. Returns "" when the flag was not given.
 */
inline std::string
checkpointDirFlag(const Options &opt, const char *prog,
                  std::initializer_list<const char *> extra_flags)
{
    const std::string dir = opt.extraOr("--ckpt-dir", "");
    if (opt.extra.find("--ckpt-dir") == opt.extra.end())
        return "";
    if (dir.empty())
        usageError(prog, extra_flags, "--ckpt-dir: empty path");
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0) {
        if (errno != ENOENT)
            usageError(prog, extra_flags,
                       "--ckpt-dir: cannot stat '" + dir +
                           "': " + std::strerror(errno));
        if (::mkdir(dir.c_str(), 0755) != 0)
            usageError(prog, extra_flags,
                       "--ckpt-dir: cannot create '" + dir +
                           "': " + std::strerror(errno));
    } else if (!S_ISDIR(st.st_mode)) {
        usageError(prog, extra_flags,
                   "--ckpt-dir: '" + dir + "' is not a directory");
    }
    if (::access(dir.c_str(), W_OK | X_OK) != 0)
        usageError(prog, extra_flags,
                   "--ckpt-dir: '" + dir +
                       "' is not writable: " + std::strerror(errno));
    return dir;
}

/**
 * Validate the --resume flag value (sweep-journal path): non-empty;
 * an existing path must be a regular file, and the containing
 * directory must be writable so the journal can be created and
 * fsynced. Usage error (exit 2) otherwise. Returns "" when the flag
 * was not given.
 */
inline std::string
resumePathFlag(const Options &opt, const char *prog,
               std::initializer_list<const char *> extra_flags)
{
    const std::string path = opt.extraOr("--resume", "");
    if (opt.extra.find("--resume") == opt.extra.end())
        return "";
    if (path.empty())
        usageError(prog, extra_flags, "--resume: empty path");
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) {
        if (!S_ISREG(st.st_mode))
            usageError(prog, extra_flags,
                       "--resume: '" + path +
                           "' is not a regular file");
    } else if (errno != ENOENT) {
        usageError(prog, extra_flags,
                   "--resume: cannot stat '" + path +
                       "': " + std::strerror(errno));
    }
    const std::size_t slash = path.find_last_of('/');
    const std::string parent = slash == std::string::npos
        ? std::string(".")
        : (slash == 0 ? std::string("/") : path.substr(0, slash));
    if (::access(parent.c_str(), W_OK | X_OK) != 0)
        usageError(prog, extra_flags,
                   "--resume: directory '" + parent +
                       "' is not writable: " + std::strerror(errno));
    return path;
}

/** Split @p list on commas ("1,2,3" -> {"1","2","3"}). */
inline std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(list.substr(start));
            break;
        }
        out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

inline void
banner(const std::string &what, const Options &opt)
{
    std::printf("================================================="
                "=============\n");
    std::printf("memwall reproduction: %s\n", what.c_str());
    std::printf("seed=%llu%s\n",
                static_cast<unsigned long long>(opt.seed),
                opt.quick ? "  (quick mode)" : "");
    std::printf("================================================="
                "=============\n\n");
}

} // namespace memwall::benchutil

#endif // MEMWALL_BENCH_BENCH_UTIL_HH
