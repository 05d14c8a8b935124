/**
 * @file
 * Torture validation of the checkpoint/restore subsystem. Four legs,
 * each an acceptance gate:
 *
 *   determinism  the sampled Figure 7/8 measurement, journal-encoded
 *                per workload and hashed, is byte-identical between a
 *                parallel (--jobs N) and a serial sweep;
 *
 *   speedup      warm checkpoint-accelerated runs beat plain
 *                functional rewarming by at least --min-speedup
 *                (default 10) in aggregate wall-clock, while the
 *                measurements stay byte-identical across the plain,
 *                cold-populating and warm-restoring runs;
 *
 *   corruption   an adversarial campaign over one populated unit
 *                checkpoint: truncations, bit flips in header /
 *                section table / payload, honest version skew,
 *                foreign configuration, plus a deterministic bit-flip
 *                fuzz sweep. Every corruption must be classified into
 *                the right LoadError, every accelerated run must
 *                degrade to rewarming with byte-identical results,
 *                and nothing may ever crash or silently load;
 *
 *   resume       a journaled sweep is SIGKILLed mid-run in a forked
 *                child; the parent resumes from the journal and must
 *                reproduce the uninterrupted run's results exactly,
 *                replaying at least one committed point.
 *
 * Exit status is non-zero when any gate fails, so CI can run this
 * binary directly. Under ctest the speedup gate is relaxed (other
 * tests steal cycles); the CI checkpoint job runs the full gate
 * serially.
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
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "checkpoint/checkpoint.hh"
#include "checkpoint/journal.hh"
#include "checkpoint/store.hh"
#include "common/table.hh"
#include "harness/parallel_sweep.hh"
#include "harness/sweep_resume.hh"
#include "resume_util.hh"
#include "workloads/missrate.hh"
#include "workloads/spec_suite.hh"

using namespace memwall;

namespace {

constexpr std::initializer_list<const char *> extra_flags = {
    "--jobs", "--min-speedup"};

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One gate's verdict for the summary table. */
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

/** Scratch directory for stores and journals. */
std::string
makeScratchDir()
{
    char tmpl[] = "/tmp/mw-ckpt-torture-XXXXXX";
    const char *p = ::mkdtemp(tmpl);
    if (!p)
        MW_FATAL("cannot create scratch directory: ",
                 std::strerror(errno));
    return p;
}

/** Journal-encoding of one sampled measurement (the canonical
 *  byte-comparable form), with the acceleration bookkeeping masked
 *  so plain / cold / warm runs are comparable. */
std::vector<std::uint8_t>
measurementBytes(SampledWorkloadMissRates r)
{
    r.ckpt_restored_units = 0;
    r.ckpt_saved_units = 0;
    r.ckpt_degraded_units = 0;
    ckpt::Encoder e;
    encodeResult(e, r);
    return e.take();
}

std::uint64_t
hashBytes(const std::vector<std::uint8_t> &bytes,
          std::uint64_t h = ckpt::fnv_basis)
{
    return ckpt::fnv1a64(bytes.data(), bytes.size(), h);
}

// ---- determinism leg ---------------------------------------------------

/**
 * Sweep the workload set, returning each point's journal encoding in
 * index order. @p journal_path (optional) makes the sweep resumable;
 * @p kill_after_stores > 0 SIGKILLs the process from inside the
 * journal-store hook (child side of the resume leg).
 */
std::vector<std::vector<std::uint8_t>>
runSweep(const std::vector<const SpecWorkload *> &set,
         const MissRateParams &params, const SamplingPlan &plan,
         unsigned jobs, std::uint64_t seed,
         const std::string &journal_path = "",
         int kill_after_stores = 0)
{
    std::map<std::size_t, SampledWorkloadMissRates> results;
    ParallelSweep<SampledWorkloadMissRates> sweep(jobs, seed);
    ckpt::SweepJournal journal;
    int stores = 0;
    if (!journal_path.empty()) {
        benchutil::openJournal(journal, journal_path,
                               samplingPlanHash(plan));
        attachSweepJournal(
            sweep, journal,
            [&stores, kill_after_stores](
                ckpt::Encoder &e,
                const SampledWorkloadMissRates &r) {
                if (kill_after_stores > 0 &&
                    ++stores > kill_after_stores)
                    ::raise(SIGKILL);
                encodeResult(e, r);
            },
            [](ckpt::Decoder &d, SampledWorkloadMissRates &r) {
                return decodeResult(d, r);
            });
    }
    for (const SpecWorkload *w : set)
        sweep.submit(
            [w, &params, &plan](const PointContext &) {
                return measureMissRatesSampled(*w, params, plan);
            },
            [&results](const PointContext &ctx,
                       SampledWorkloadMissRates r) {
                results[ctx.index] = std::move(r);
            });
    sweep.finish();

    std::vector<std::vector<std::uint8_t>> bytes;
    for (std::size_t i = 0; i < set.size(); ++i)
        bytes.push_back(measurementBytes(results.at(i)));
    return bytes;
}

void
determinismLeg(const std::vector<const SpecWorkload *> &set,
               const MissRateParams &params,
               const SamplingPlan &plan,
               const benchutil::Options &opt)
{
    std::uint64_t parallel_hash = ckpt::fnv_basis;
    for (const auto &b :
         runSweep(set, params, plan, opt.jobs, opt.seed))
        parallel_hash = hashBytes(b, parallel_hash);
    std::uint64_t serial_hash = ckpt::fnv_basis;
    for (const auto &b : runSweep(set, params, plan, 1, opt.seed))
        serial_hash = hashBytes(b, serial_hash);

    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "golden hash %016llx (jobs=%u vs jobs=1)",
                  static_cast<unsigned long long>(parallel_hash),
                  opt.jobs);
    gate("determinism across --jobs", parallel_hash == serial_hash,
         detail);
}

// ---- speedup leg -------------------------------------------------------

void
speedupLeg(const std::vector<const SpecWorkload *> &set,
           const MissRateParams &params, const SamplingPlan &plan,
           const std::string &scratch, double min_speedup)
{
    const std::string dir = scratch + "/speedup";
    if (::mkdir(dir.c_str(), 0755) != 0)
        MW_FATAL("mkdir '", dir, "': ", std::strerror(errno));
    const auto store = benchutil::makeMissRateStore(dir, plan);

    double plain_s = 0.0, cold_s = 0.0, warm_s = 0.0;
    bool identical = true;
    std::uint64_t restored = 0, saved = 0;
    for (const SpecWorkload *w : set) {
        double t0 = nowSeconds();
        const auto plain = measureMissRatesSampled(*w, params, plan);
        plain_s += nowSeconds() - t0;

        t0 = nowSeconds();
        const auto cold =
            measureMissRatesSampled(*w, params, plan, store.get());
        cold_s += nowSeconds() - t0;

        t0 = nowSeconds();
        const auto warm =
            measureMissRatesSampled(*w, params, plan, store.get());
        warm_s += nowSeconds() - t0;

        restored += warm.ckpt_restored_units;
        saved += cold.ckpt_saved_units;
        identical = identical &&
                    measurementBytes(cold) ==
                        measurementBytes(plain) &&
                    measurementBytes(warm) ==
                        measurementBytes(plain);
    }

    gate("restore == rewarm (byte-identical)", identical,
         "plain vs cold-populating vs warm-restoring runs");
    const std::uint64_t expect_units =
        plan.units * static_cast<std::uint64_t>(set.size());
    char counts[96];
    std::snprintf(counts, sizeof(counts),
                  "saved=%llu restored=%llu of %llu units",
                  static_cast<unsigned long long>(saved),
                  static_cast<unsigned long long>(restored),
                  static_cast<unsigned long long>(expect_units));
    gate("all units saved and restored",
         saved == expect_units && restored == expect_units, counts);

    const double speedup = warm_s > 0.0 ? plain_s / warm_s : 0.0;
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "%.1fx (plain %.3fs, warm %.3fs; gate %.1fx)",
                  speedup, plain_s, warm_s, min_speedup);
    gate("warm restore speedup", speedup >= min_speedup, detail);
}

// ---- corruption leg ----------------------------------------------------

using Mutator =
    bool (*)(std::vector<std::uint8_t> &bytes);

/** Patch the header CRC after a deliberate header edit, so the file
 *  stays internally consistent (honest skew, scrambled table). */
void
fixHeaderCrc(std::vector<std::uint8_t> &bytes)
{
    // section count at offset 16; table entries are 24 bytes.
    const std::uint32_t count = bytes[16] |
                                bytes[17] << 8 |
                                bytes[18] << 16 |
                                static_cast<std::uint32_t>(bytes[19])
                                    << 24;
    const std::size_t crc_off = 20 + count * 24;
    const std::uint32_t crc = ckpt::crc32(bytes.data(), crc_off);
    for (int i = 0; i < 4; ++i)
        bytes[crc_off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
}

struct CorruptionCase
{
    const char *name;
    Mutator mutate;
    ckpt::LoadError expect;
};

const CorruptionCase corruption_cases[] = {
    {"empty file",
     [](std::vector<std::uint8_t> &b) {
         b.clear();
         return true;
     },
     ckpt::LoadError::Truncated},
    {"truncated header",
     [](std::vector<std::uint8_t> &b) {
         b.resize(12);
         return true;
     },
     ckpt::LoadError::Truncated},
    {"torn payload tail",
     [](std::vector<std::uint8_t> &b) {
         b.resize(b.size() - b.size() / 4);
         return true;
     },
     ckpt::LoadError::Truncated},
    {"bad magic",
     [](std::vector<std::uint8_t> &b) {
         b[0] ^= 0xff;
         return true;
     },
     ckpt::LoadError::BadMagic},
    {"version bit flip",
     [](std::vector<std::uint8_t> &b) {
         b[4] ^= 0x02;
         return true;
     },
     ckpt::LoadError::BadHeaderCrc},
    {"honest version skew",
     [](std::vector<std::uint8_t> &b) {
         b[4] += 1;
         fixHeaderCrc(b);
         return true;
     },
     ckpt::LoadError::BadVersion},
    {"section table bit flip",
     [](std::vector<std::uint8_t> &b) {
         b[20] ^= 0x10; // first table entry's id
         return true;
     },
     ckpt::LoadError::BadHeaderCrc},
    {"scrambled section table",
     [](std::vector<std::uint8_t> &b) {
         b[20 + 4] ^= 0x01; // first section's offset, CRC fixed
         fixHeaderCrc(b);
         return true;
     },
     ckpt::LoadError::Malformed},
    {"payload bit flip",
     [](std::vector<std::uint8_t> &b) {
         b[b.size() - 1] ^= 0x01;
         return true;
     },
     ckpt::LoadError::BadSectionCrc},
};

void
corruptionLeg(const SpecWorkload &w, const std::string &scratch,
              std::uint64_t seed, bool quick)
{
    // A small dedicated plan keeps each degraded re-run cheap; the
    // byte-equality gate is against this leg's own golden run.
    MissRateParams params;
    SamplingPlan plan;
    plan.scheme = SampleScheme::Stratified;
    plan.units = 4;
    plan.unit_refs = 200;
    plan.warmup_refs = 600;
    plan.seed = seed;
    plan.validate();

    const std::string dir = scratch + "/corrupt";
    if (::mkdir(dir.c_str(), 0755) != 0)
        MW_FATAL("mkdir '", dir, "': ", std::strerror(errno));
    const auto store = benchutil::makeMissRateStore(dir, plan);
    const auto golden =
        measurementBytes(measureMissRatesSampled(w, params, plan));
    measureMissRatesSampled(w, params, plan, store.get());

    const std::string victim = store->pathFor(w.name + "-u1");
    const auto pristine = ckpt::readFileBytes(victim);
    if (!pristine)
        MW_FATAL("cannot read populated checkpoint '", victim, "'");

    // Named cases: exact LoadError classification + graceful run.
    bool classified = true, degraded_ok = true;
    for (const CorruptionCase &c : corruption_cases) {
        std::vector<std::uint8_t> bytes = *pristine;
        c.mutate(bytes);
        std::string why;
        if (!ckpt::atomicWriteFile(victim, bytes.data(),
                                   bytes.size(), &why))
            MW_FATAL("cannot plant corruption: ", why);

        ckpt::CheckpointReader reader;
        const ckpt::LoadError e =
            reader.loadFile(victim, store->configHash());
        if (e != c.expect) {
            classified = false;
            std::cout << "  corruption '" << c.name
                      << "': classified as "
                      << ckpt::loadErrorName(e) << ", expected "
                      << ckpt::loadErrorName(c.expect) << "\n";
        }
        // The accelerated run must degrade that unit and still
        // produce the golden measurement.
        const auto run =
            measureMissRatesSampled(w, params, plan, store.get());
        if (run.ckpt_degraded_units < 1 ||
            measurementBytes(run) != golden) {
            degraded_ok = false;
            std::cout << "  corruption '" << c.name
                      << "': degradation did not preserve the "
                         "measurement\n";
        }
        // The degraded run rewrote the unit; restore the corrupt
        // file for independence of the next case.
    }
    gate("corruption classified correctly", classified,
         std::to_string(std::size(corruption_cases)) +
             " named cases");
    gate("corruption degrades gracefully", degraded_ok,
         "byte-identical after every rewarm");

    // Foreign configuration: same bytes, different expected hash.
    ckpt::atomicWriteFile(victim, pristine->data(),
                          pristine->size());
    ckpt::CheckpointStore foreign(dir, store->configHash() + 1);
    ckpt::CheckpointReader reader;
    gate("foreign config rejected",
         foreign.load(w.name + "-u1", reader) ==
             ckpt::LoadError::BadConfig,
         "config-hash mismatch never silently loads");

    // Deterministic bit-flip fuzz across the whole file. Every flip
    // must be either rejected by the container or caught by a
    // payload guard; the run must stay golden either way.
    const int flips = quick ? 48 : 192;
    bool fuzz_ok = true;
    std::uint64_t x = seed | 1;
    for (int i = 0; i < flips && fuzz_ok; ++i) {
        // xorshift64 positions, deterministic given the seed.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::vector<std::uint8_t> bytes = *pristine;
        const std::size_t bit = x % (bytes.size() * 8);
        bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        ckpt::atomicWriteFile(victim, bytes.data(), bytes.size());
        const auto run =
            measureMissRatesSampled(w, params, plan, store.get());
        if (measurementBytes(run) != golden) {
            fuzz_ok = false;
            std::cout << "  fuzz flip of bit " << bit
                      << " changed the measurement\n";
        }
    }
    gate("bit-flip fuzz harmless", fuzz_ok,
         std::to_string(flips) + " single-bit flips");
}

// ---- kill-and-resume leg -----------------------------------------------

void
resumeLeg(const std::vector<const SpecWorkload *> &set,
          const MissRateParams &params, const SamplingPlan &plan,
          const std::string &scratch,
          const benchutil::Options &opt)
{
    const auto golden =
        runSweep(set, params, plan, opt.jobs, opt.seed);

    const std::string journal_path = scratch + "/resume.mwsj";
    const int kill_after = 2;

    const pid_t pid = ::fork();
    if (pid < 0)
        MW_FATAL("fork: ", std::strerror(errno));
    if (pid == 0) {
        // Child: run the journaled sweep serially and SIGKILL
        // ourselves from inside the journal hook mid-run.
        runSweep(set, params, plan, 1, opt.seed, journal_path,
                 kill_after);
        _exit(0); // not reached: the kill fires first
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        MW_FATAL("waitpid: ", std::strerror(errno));
    gate("child killed mid-sweep",
         WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
         "SIGKILL from inside the journal-store hook");

    // The journal must hold the committed prefix...
    std::size_t committed = 0;
    {
        ckpt::SweepJournal peek;
        if (peek.open(journal_path, samplingPlanHash(plan)))
            committed = peek.recovered();
    }
    char detail[80];
    std::snprintf(detail, sizeof(detail),
                  "%zu committed point(s) survived the kill",
                  committed);
    gate("journal survived SIGKILL",
         committed == static_cast<std::size_t>(kill_after), detail);

    // ...and the resumed run (parallel, unlike the killed serial
    // child) must replay it and finish with the golden results.
    const auto resumed = runSweep(set, params, plan, opt.jobs,
                                  opt.seed, journal_path);
    gate("resumed run matches golden", resumed == golden,
         "byte-identical across kill/resume and --jobs");
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv, extra_flags);
    const double min_speedup = benchutil::parseDoubleFlag(
        opt.extraOr("--min-speedup", "10").c_str(), "--min-speedup",
        argv[0], extra_flags);
    benchutil::banner("Validation - checkpoint/restore torture",
                      opt);

    const std::string scratch = makeScratchDir();

    // Workload set: enough variety to exercise every generator
    // feature (lockstep groups, call targets, pointer chases).
    std::vector<const SpecWorkload *> set;
    for (const SpecWorkload &w : specSuite()) {
        set.push_back(&w);
        if (set.size() == (opt.quick ? 4u : 8u))
            break;
    }

    // Sweep-level plan (determinism + resume legs): small units so
    // the sweep itself is cheap.
    MissRateParams params;
    SamplingPlan sweep_plan;
    sweep_plan.scheme = SampleScheme::Stratified;
    sweep_plan.units = 6;
    sweep_plan.unit_refs = 400;
    sweep_plan.warmup_refs = 1'200;
    sweep_plan.seed = opt.seed;
    sweep_plan.validate();

    // Speedup-leg plan: warming dominates (W >> U), which is the
    // regime checkpoint acceleration targets — fig7/fig8's sampled
    // mode spends nearly all its time in functional warming.
    SamplingPlan speed_plan = sweep_plan;
    speed_plan.units = 8;
    speed_plan.unit_refs = 500;
    speed_plan.warmup_refs = opt.quick ? 150'000 : 400'000;

    determinismLeg(set, params, sweep_plan, opt);
    speedupLeg(set, params, speed_plan, scratch, min_speedup);
    corruptionLeg(*set.front(), scratch, opt.seed, opt.quick);
    resumeLeg(set, params, sweep_plan, scratch, opt);

    TextTable table("Checkpoint torture gates");
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
