/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * cache access, DRAM timing, reference generation, GSPN stepping,
 * the NUMA protocol and the MW32 interpreter/fast-path engines.
 * These guard the engineering health of the library (simulation
 * throughput), not a paper result.
 *
 * Besides the google-benchmark suite, the binary ends with a
 * chrono-timed interpreter-vs-fast-path comparison over fixed
 * execution-driven workloads. `--min-exec-speedup X` turns that
 * section into a gate (exit 1 below X); `--format json` switches
 * the benchmark output to --benchmark_format=json (the comparison
 * then reports on stderr to keep stdout valid JSON).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <vector>

#include "core/memwall.hh"
#include "exec/fast_executor.hh"

using namespace memwall;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.capacity = 16 * KiB;
    cfg.line_size = 32;
    cfg.assoc = static_cast<std::uint32_t>(state.range(0));
    Cache cache(cfg);
    std::uint64_t x = 12345;
    for (auto _ : state) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        benchmark::DoNotOptimize(
            cache.access((x >> 16) % (256 * KiB), false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(8);

void
BM_ColumnDataCacheAccess(benchmark::State &state)
{
    ColumnDataCache cache;
    std::uint64_t x = 999;
    for (auto _ : state) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        benchmark::DoNotOptimize(
            cache.access((x >> 16) % (128 * KiB), (x & 1) != 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColumnDataCacheAccess);

void
BM_DramAccess(benchmark::State &state)
{
    Dram dram;
    Tick now = 0;
    std::uint64_t x = 7;
    for (auto _ : state) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        benchmark::DoNotOptimize(dram.access(now, x % (32 * MiB)));
        now += 20;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramAccess);

void
BM_SyntheticGeneration(benchmark::State &state)
{
    SyntheticWorkload source(findWorkload("126.gcc").proxy);
    std::uint64_t sink_count = 0;
    for (auto _ : state) {
        source.generate(1024, [&](const MemRef &r) {
            sink_count += r.addr;
        });
    }
    benchmark::DoNotOptimize(sink_count);
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SyntheticGeneration);

void
BM_GspnStep(benchmark::State &state)
{
    ProcessorModelParams params;
    params.icache_hit = 0.99;
    params.load_hit = 0.95;
    params.store_hit = 0.95;
    ProcessorModel model = ProcessorModel::build(params);
    GspnSimulator sim(model.net, 42);
    for (auto _ : state) {
        sim.runUntilFirings(model.issue, 64);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_GspnStep);

void
BM_NumaProtocol(benchmark::State &state)
{
    NumaConfig cfg;
    cfg.nodes = 4;
    cfg.arch = NodeArch::Integrated;
    NumaMachine machine(cfg);
    std::uint64_t x = 31;
    for (auto _ : state) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const unsigned cpu = (x >> 8) & 3;
        benchmark::DoNotOptimize(machine.access(
            cpu, 0x100000 + (x >> 16) % (1 * MiB), (x & 1) != 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NumaProtocol);

/** ALU-and-branch loop shared by the execution-engine benchmarks. */
const char *const alu_loop_asm = R"(
    start:
        addi r1, r0, 1000
    loop:
        addi r2, r2, 3
        xor  r3, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        b    start
)";

/** Load/store loop over a data window, re-entered forever. */
const char *const mem_loop_asm = R"(
    start:
        lui  r28, 16
        addi r1, r0, 1024
    loop:
        lw   r3, 0(r28)
        addi r3, r3, 7
        sw   r3, 4(r28)
        lw   r4, 4(r28)
        add  r5, r5, r4
        sh   r4, 8(r28)
        lbu  r6, 9(r28)
        addi r1, r1, -1
        bne  r1, r0, loop
        b    start
)";

void
BM_InterpreterStep(benchmark::State &state)
{
    const auto prog = assembleOrDie(alu_loop_asm);
    BackingStore mem;
    prog.loadInto(mem);
    Interpreter cpu(mem);
    cpu.setPc(prog.entry);
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            cpu.step();
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_InterpreterStep);

void
BM_InterpreterRun(benchmark::State &state)
{
    const auto prog = assembleOrDie(alu_loop_asm);
    BackingStore mem;
    prog.loadInto(mem);
    Interpreter cpu(mem);
    cpu.setPc(prog.entry);
    for (auto _ : state)
        benchmark::DoNotOptimize(cpu.run(4096));
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_InterpreterRun);

void
BM_FastExecRun(benchmark::State &state)
{
    const auto prog = assembleOrDie(alu_loop_asm);
    BackingStore mem;
    prog.loadInto(mem);
    FastExecutor cpu(mem, prog);
    cpu.setFastPath(true);
    cpu.setPc(prog.entry);
    for (auto _ : state)
        benchmark::DoNotOptimize(cpu.run(4096));
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FastExecRun);

void
BM_FastExecMemoryLoop(benchmark::State &state)
{
    const auto prog = assembleOrDie(mem_loop_asm);
    BackingStore mem;
    prog.loadInto(mem);
    FastExecutor cpu(mem, prog);
    cpu.setFastPath(true);
    cpu.setPc(prog.entry);
    for (auto _ : state)
        benchmark::DoNotOptimize(cpu.run(4096));
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FastExecMemoryLoop);

void
BM_FastExecRunInto(benchmark::State &state)
{
    // Fast path with a live reference sink, as the figure harnesses
    // drive it.
    const auto prog = assembleOrDie(mem_loop_asm);
    BackingStore mem;
    prog.loadInto(mem);
    FastExecutor cpu(mem, prog);
    cpu.setFastPath(true);
    cpu.setPc(prog.entry);
    std::uint64_t sum = 0;
    for (auto _ : state)
        cpu.runInto(4096, [&](const MemRef &r) { sum += r.addr; });
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FastExecRunInto);

void
BM_EccEncodeDecode(benchmark::State &state)
{
    SecDedCode code(128);
    std::array<std::uint64_t, 2> data{0x1234, 0x5678};
    for (auto _ : state) {
        const auto check = code.encode(data);
        benchmark::DoNotOptimize(code.decode(data, check));
        data[0] += 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EccEncodeDecode);

void
BM_EventQueueScheduleDispatch(benchmark::State &state)
{
    // The simulator's hottest kernel loop: schedule a burst of
    // events whose captures exceed std::function's internal buffer,
    // then drain them. Guards the allocation-free schedule path.
    EventQueue q;
    std::uint64_t sum = 0;
    std::uint64_t a = 1, b = 2, c = 3;
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i) {
            q.scheduleIn(static_cast<Tick>(i + 1), [&sum, a, b, c] {
                sum += a + b + c;
            });
        }
        q.run();
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

void
BM_EventQueueScheduleCancel(benchmark::State &state)
{
    // Schedule a burst, cancel every other event, drain the rest —
    // the pattern of timeouts that are mostly cancelled.
    EventQueue q;
    std::uint64_t fired = 0;
    std::vector<std::uint64_t> tickets(256);
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            tickets[static_cast<std::size_t>(i)] = q.scheduleIn(
                static_cast<Tick>(i + 1), [&fired] { ++fired; });
        for (int i = 0; i < 256; i += 2)
            q.deschedule(tickets[static_cast<std::size_t>(i)]);
        q.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_EventQueueScheduleCancel);

void
BM_MissRatePoint(benchmark::State &state)
{
    // End-to-end sweep point as executed by the fig7/fig8 harness:
    // one workload's reference stream through the full comparison
    // cache set.
    const SpecWorkload &w = findWorkload("126.gcc");
    MissRateParams params;
    params.measured_refs = 40'000;
    params.warmup_refs = 10'000;
    for (auto _ : state) {
        const auto rates = measureMissRates(w, params);
        benchmark::DoNotOptimize(
            rates.icaches.front().stats.accesses());
    }
    state.SetItemsProcessed(
        state.iterations() *
        (params.measured_refs + params.warmup_refs));
}
BENCHMARK(BM_MissRatePoint);

// HARNESS-BEGIN (benchmarks below need src/harness/, post-seed)
void
BM_ThreadPoolTinyTasks(benchmark::State &state)
{
    // Submission/steal overhead under tiny tasks; workers count as
    // configured by the Arg below.
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    std::atomic<std::uint64_t> sum{0};
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            pool.submit([&sum] {
                sum.fetch_add(1, std::memory_order_relaxed);
            });
        pool.waitIdle();
    }
    benchmark::DoNotOptimize(sum.load());
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ThreadPoolTinyTasks)->Arg(1)->Arg(2)->Arg(4);

void
BM_ParallelSweepPoints(benchmark::State &state)
{
    // Order-preserving sweep of small simulation points, as the
    // figure/table binaries run them.
    const SpecWorkload &w = findWorkload("099.go");
    MissRateParams params;
    params.measured_refs = 4'000;
    params.warmup_refs = 1'000;
    for (auto _ : state) {
        std::uint64_t total = 0;
        ParallelSweep<std::uint64_t> sweep(
            static_cast<unsigned>(state.range(0)), 42);
        for (int p = 0; p < 8; ++p)
            sweep.submit(
                [&w, &params](const PointContext &) {
                    return measureMissRates(w, params)
                        .icaches.front()
                        .stats.accesses();
                },
                [&total](const PointContext &, std::uint64_t n) {
                    total += n;
                });
        sweep.finish();
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() * 8 *
                            (params.measured_refs +
                             params.warmup_refs));
}
BENCHMARK(BM_ParallelSweepPoints)->Arg(1)->Arg(2)->Arg(4);
// HARNESS-END

/**
 * Chrono-timed interpreter-vs-fast-path comparison over fixed
 * execution-driven workloads. Each engine retires @c budget
 * instructions of the same program from the same initial state;
 * the final architectural state is asserted identical before the
 * timing is trusted. @return the worst-case speedup across cases.
 */
double
execComparison(std::FILE *out)
{
    struct Case
    {
        const char *name;
        const char *text;
    };
    static constexpr Case cases[] = {
        {"alu-loop", nullptr},    // filled below
        {"memory-loop", nullptr},
    };
    const char *sources[] = {alu_loop_asm, mem_loop_asm};
    constexpr std::uint64_t budget = 16'000'000;

    auto seconds = [](auto &&fn) {
        // Best of three to shrug off scheduler noise.
        double best = 1e30;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            fn();
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(
                best, std::chrono::duration<double>(t1 - t0).count());
        }
        return best;
    };

    std::fprintf(out, "\nexecution-driven comparison (%" PRIu64
                      "M instructions per engine per case)\n",
                 budget / 1'000'000);
    std::fprintf(out,
                 "  %-12s %12s %12s %9s\n", "case", "interp MIPS",
                 "fastpath MIPS", "speedup");

    double worst = 1e30;
    for (std::size_t c = 0; c < std::size(cases); ++c) {
        const auto prog = assembleOrDie(sources[c]);

        BackingStore imem;
        prog.loadInto(imem);
        Interpreter icpu(imem);
        icpu.setPc(prog.entry);
        const double ti = seconds([&] { icpu.run(budget); });

        BackingStore fmem;
        prog.loadInto(fmem);
        FastExecutor fcpu(fmem, prog);
        fcpu.setFastPath(true);
        fcpu.setPc(prog.entry);
        const double tf = seconds([&] { fcpu.run(budget); });

        // Timing is only meaningful if both engines agree. (The
        // third rep leaves both at 3 * budget instructions.)
        bool same = icpu.state().pc == fcpu.state().pc &&
                    icpu.stats().instructions ==
                        fcpu.stats().instructions;
        for (unsigned r = 0; r < 32 && same; ++r)
            same = icpu.state().reg(r) == fcpu.state().reg(r);
        if (!same) {
            std::fprintf(out,
                         "  %-12s DIVERGED — timing not valid\n",
                         cases[c].name);
            return 0.0;
        }

        const double speedup = ti / tf;
        std::fprintf(out, "  %-12s %12.1f %12.1f %8.2fx\n",
                     cases[c].name, budget / ti / 1e6,
                     budget / tf / 1e6, speedup);
        worst = std::min(worst, speedup);
    }
    std::fprintf(out, "  worst-case speedup: %.2fx\n", worst);
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off our own flags before handing the rest to
    // google-benchmark. "--format json" / "--format=json" map onto
    // --benchmark_format=json for consistency with the other
    // benches' CLI convention.
    double min_speedup = 0.0;
    bool json = false;
    std::vector<char *> args;
    args.push_back(argv[0]);
    static char json_flag[] = "--benchmark_format=json";
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a == "--min-exec-speedup" && i + 1 < argc) {
            min_speedup = std::strtod(argv[++i], nullptr);
        } else if (a == "--format" && i + 1 < argc) {
            json = std::string_view(argv[++i]) == "json";
            if (json)
                args.push_back(json_flag);
        } else if (a == "--format=json") {
            json = true;
            args.push_back(json_flag);
        } else {
            args.push_back(argv[i]);
        }
    }
    int bargc = static_cast<int>(args.size());
    benchmark::Initialize(&bargc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // In json mode the comparison goes to stderr so stdout stays
    // valid benchmark JSON.
    const double worst = execComparison(json ? stderr : stdout);
    if (min_speedup > 0.0 && worst < min_speedup) {
        std::fprintf(stderr,
                     "FAIL: fast-path speedup %.2fx below required "
                     "%.2fx\n",
                     worst, min_speedup);
        return 1;
    }
    return 0;
}
