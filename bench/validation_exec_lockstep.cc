/**
 * @file
 * Differential fuzzing of the execution fast path.
 *
 * Generates N seeded random MW32 programs (ALU soup, loads/stores
 * into a data window, forward/backward branches, calls, unresolvable
 * indirect jumps, deliberately misaligned accesses and undecodable
 * words), then executes every program on the classic Interpreter and
 * on the FastExecutor in lockstep and demands ZERO divergence in
 *
 *   - all 32 registers and the pc,
 *   - the five ExecStats counters,
 *   - the stop reason and (for alignment faults) the fault address,
 *   - the complete memory-reference stream, ref by ref,
 *   - the data-window memory image and the materialised page count.
 *
 * Budgets are randomised — often tiny — so instruction limits land
 * in the middle of hoisted traces; a slice of programs also runs
 * with the alignment trap off to cover the untrapped memory path.
 * Any divergence prints the offending program's disassembly and
 * fails the run (exit 1).
 *
 * Flags: --programs N overrides the program count (default 1000,
 * the acceptance floor); --seed seeds the generator; --format json
 * emits a machine-readable summary (byte-stable for a given seed).
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "exec/fast_executor.hh"
#include "isa/assembler.hh"
#include "isa/interpreter.hh"

using namespace memwall;

namespace {

constexpr std::initializer_list<const char *> extra_flags = {
    "--programs", "--format"};

constexpr Addr code_base = 0x1000;
constexpr Addr data_base = 0x100000;
constexpr std::uint32_t data_window = 4096;

/** Registers the generator never writes: r28 holds the data-window
 * base and r26 a valid code address (jalr fodder). */
constexpr unsigned reg_window = 28;
constexpr unsigned reg_code = 26;

unsigned
randomReg(Rng &rng, bool allow_r0)
{
    for (;;) {
        const auto r =
            static_cast<unsigned>(rng.uniformInt(32));
        if (r == reg_window || r == reg_code)
            continue;
        if (r == 0 && !allow_r0)
            continue;
        return r;
    }
}

/** One random program: raw words, every word an instruction. */
AssembledProgram
generateProgram(Rng &rng)
{
    const auto n =
        static_cast<unsigned>(rng.uniformRange(8, 64));
    std::vector<std::uint32_t> words;
    words.reserve(n + 1);

    auto target_offset = [&](unsigned i) {
        // Word offset from i+1 to a random instruction in [0, n]
        // (n = the final halt), forward or backward.
        const auto target =
            static_cast<std::int32_t>(rng.uniformInt(n + 1));
        return target - static_cast<std::int32_t>(i) - 1;
    };

    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t roll = rng.uniformInt(100);
        Instruction inst;
        if (roll < 28) {
            // Register ALU, divide/remainder included.
            static constexpr Opcode pool[] = {
                Opcode::Add, Opcode::Sub, Opcode::And, Opcode::Or,
                Opcode::Xor, Opcode::Sll, Opcode::Srl, Opcode::Sra,
                Opcode::Slt, Opcode::Sltu, Opcode::Mul, Opcode::Div,
                Opcode::Rem};
            inst = Instruction::r(
                pool[rng.uniformInt(std::size(pool))],
                randomReg(rng, rng.bernoulli(0.05)),
                static_cast<unsigned>(rng.uniformInt(32)),
                static_cast<unsigned>(rng.uniformInt(32)));
        } else if (roll < 50) {
            // Immediate ALU.
            static constexpr Opcode pool[] = {
                Opcode::Addi, Opcode::Andi, Opcode::Ori,
                Opcode::Xori, Opcode::Slti, Opcode::Slli,
                Opcode::Srli, Opcode::Srai, Opcode::Lui};
            const Opcode op = pool[rng.uniformInt(std::size(pool))];
            std::int32_t imm;
            if (op == Opcode::Slli || op == Opcode::Srli ||
                op == Opcode::Srai) {
                imm = static_cast<std::int32_t>(rng.uniformInt(32));
            } else {
                imm = static_cast<std::int32_t>(
                          rng.uniformInt(0x10000)) -
                      0x8000;
            }
            inst = Instruction::i(
                op, randomReg(rng, rng.bernoulli(0.05)),
                static_cast<unsigned>(rng.uniformInt(32)), imm);
        } else if (roll < 65) {
            // Load from the data window; 5% deliberately unaligned.
            static constexpr Opcode pool[] = {
                Opcode::Lb, Opcode::Lbu, Opcode::Lh, Opcode::Lhu,
                Opcode::Lw};
            const Opcode op = pool[rng.uniformInt(std::size(pool))];
            const unsigned size = accessSize(op);
            std::int32_t off = static_cast<std::int32_t>(
                rng.uniformInt(data_window - 4));
            if (!rng.bernoulli(0.05))
                off &= ~static_cast<std::int32_t>(size - 1);
            inst = Instruction::i(op,
                                  randomReg(rng, rng.bernoulli(0.05)),
                                  reg_window, off);
        } else if (roll < 77) {
            // Store into the data window; 5% deliberately unaligned.
            static constexpr Opcode pool[] = {Opcode::Sb, Opcode::Sh,
                                              Opcode::Sw};
            const Opcode op = pool[rng.uniformInt(std::size(pool))];
            const unsigned size = accessSize(op);
            std::int32_t off = static_cast<std::int32_t>(
                rng.uniformInt(data_window - 4));
            if (!rng.bernoulli(0.05))
                off &= ~static_cast<std::int32_t>(size - 1);
            // The StoreI encoding carries the value register in rd.
            inst = Instruction::i(
                op, static_cast<unsigned>(rng.uniformInt(32)),
                reg_window, off);
        } else if (roll < 89) {
            // Conditional branch to a random program point.
            static constexpr Opcode pool[] = {
                Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bge,
                Opcode::Bltu, Opcode::Bgeu};
            inst = Instruction::branch(
                pool[rng.uniformInt(std::size(pool))],
                static_cast<unsigned>(rng.uniformInt(32)),
                static_cast<unsigned>(rng.uniformInt(32)),
                target_offset(i));
        } else if (roll < 93) {
            // Direct call/jump.
            inst = Instruction::jal(rng.bernoulli(0.5) ? 31u : 0u,
                                    target_offset(i));
        } else if (roll < 96) {
            // Indirect jump through r26 (statically unresolvable —
            // forces the fallback path) to a valid code word.
            inst = Instruction::i(
                Opcode::Jalr, rng.bernoulli(0.5) ? 31u : 0u,
                reg_code,
                static_cast<std::int32_t>(4 * rng.uniformInt(n)));
        } else if (roll < 98) {
            // Undecodable word (invalid opcode 0x3d).
            words.push_back(0xf4000000u | static_cast<std::uint32_t>(
                                              rng.uniformInt(0x10000)));
            continue;
        } else {
            if (rng.bernoulli(0.5))
                inst = Instruction::halt();
            else
                inst.op = Opcode::Sync; // operand-less, like halt

        }
        words.push_back(inst.encode());
    }
    words.push_back(Instruction::halt().encode());

    AssembledProgram prog;
    prog.entry = code_base;
    for (std::size_t i = 0; i < words.size(); ++i) {
        const Addr a = code_base + 4 * i;
        prog.words[a] = words[i];
        prog.source_map.instr_lines[a] =
            static_cast<unsigned>(i + 1);
    }
    return prog;
}

struct Totals
{
    std::uint64_t instructions = 0;
    std::uint64_t fast_instructions = 0;
    std::uint64_t fallback_steps = 0;
    std::uint64_t halts = 0;
    std::uint64_t limits = 0;
    std::uint64_t align_faults = 0;
    std::uint64_t div_zeros = 0;
    std::uint64_t bad_instr = 0;
};

const char *
stopName(StopReason r)
{
    switch (r) {
      case StopReason::Halted: return "halted";
      case StopReason::InstrLimit: return "instr-limit";
      case StopReason::BadInstruction: return "bad-instruction";
      case StopReason::AlignmentFault: return "alignment-fault";
      case StopReason::DivideByZero: return "divide-by-zero";
    }
    return "?";
}

void
dumpProgram(const AssembledProgram &prog)
{
    for (const auto &[addr, word] : prog.words) {
        bool ok = true;
        const Instruction inst = Instruction::decode(word, &ok);
        std::fprintf(stderr, "  0x%05" PRIx64 ": %08x  %s\n", addr,
                     word,
                     ok ? inst.disassemble().c_str()
                        : "<undecodable>");
    }
}

/** Run one program on both engines; @return true on agreement. */
bool
runLockstep(const AssembledProgram &prog, Rng &rng,
            std::uint64_t index, Totals &totals)
{
    BackingStore imem, fmem;
    prog.loadInto(imem);
    prog.loadInto(fmem);

    Interpreter icpu(imem);
    FastExecutor fcpu(fmem, prog);
    fcpu.setFastPath(true);
    icpu.setPc(prog.entry);
    fcpu.setPc(prog.entry);

    // 10% of programs run with the alignment trap off.
    const bool trap = !rng.bernoulli(0.1);
    icpu.setAlignmentTrap(trap);
    fcpu.setAlignmentTrap(trap);

    // Identical initial registers: the window base, a valid code
    // address, and a handful of random argument values.
    const auto seed_regs = [&](CpuState &st) {
        st.setReg(reg_window,
                  static_cast<std::uint32_t>(data_base));
        st.setReg(reg_code, static_cast<std::uint32_t>(prog.entry));
    };
    seed_regs(icpu.state());
    seed_regs(fcpu.state());
    for (unsigned r = 1; r <= 8; ++r) {
        const auto v = static_cast<std::uint32_t>(rng());
        icpu.state().setReg(r, v);
        fcpu.state().setReg(r, v);
    }

    // Randomised budgets: often tiny, so limits land mid-trace.
    std::uint64_t budget;
    const std::uint64_t pick = rng.uniformInt(4);
    if (pick == 0)
        budget = rng.uniformRange(1, 7);
    else if (pick == 1)
        budget = rng.uniformRange(1, 160);
    else
        budget = 4096;

    std::vector<MemRef> irefs, frefs;
    const RefSink isink = [&](const MemRef &r) {
        irefs.push_back(r);
    };
    const StopReason si = icpu.run(budget, &isink);
    const StopReason sf = fcpu.runInto(
        budget, [&](const MemRef &r) { frefs.push_back(r); });

    std::string diff;
    if (si != sf)
        diff = std::string("stop reason: ") + stopName(si) +
               " vs " + stopName(sf);
    else if (icpu.state().pc != fcpu.state().pc)
        diff = "pc";
    else if (si == StopReason::AlignmentFault &&
             icpu.faultAddr() != fcpu.faultAddr())
        diff = "fault address";
    else if (icpu.stats().instructions != fcpu.stats().instructions)
        diff = "instruction count";
    else if (icpu.stats().loads != fcpu.stats().loads ||
             icpu.stats().stores != fcpu.stats().stores)
        diff = "load/store counts";
    else if (icpu.stats().branches != fcpu.stats().branches ||
             icpu.stats().taken_branches !=
                 fcpu.stats().taken_branches)
        diff = "branch counts";
    if (diff.empty()) {
        for (unsigned r = 0; r < 32; ++r)
            if (icpu.state().reg(r) != fcpu.state().reg(r)) {
                diff = std::string("r") + std::to_string(r);
                break;
            }
    }
    if (diff.empty()) {
        if (irefs.size() != frefs.size()) {
            diff = "ref stream length";
        } else {
            for (std::size_t i = 0; i < irefs.size(); ++i)
                if (!(irefs[i] == frefs[i])) {
                    diff = "ref " + std::to_string(i);
                    break;
                }
        }
    }
    if (diff.empty()) {
        std::vector<std::uint8_t> iw(data_window), fw(data_window);
        imem.readBlock(data_base, std::span(iw));
        fmem.readBlock(data_base, std::span(fw));
        if (std::memcmp(iw.data(), fw.data(), data_window) != 0)
            diff = "data-window memory";
        else if (imem.allocatedPages() != fmem.allocatedPages())
            diff = "materialised page count";
    }

    if (!diff.empty()) {
        std::fprintf(stderr,
                     "DIVERGENCE in program %" PRIu64
                     " (budget %" PRIu64 ", trap %s): %s\n",
                     index, budget, trap ? "on" : "off",
                     diff.c_str());
        dumpProgram(prog);
        return false;
    }

    totals.instructions += icpu.stats().instructions;
    totals.fast_instructions += fcpu.fastStats().fast_instructions;
    totals.fallback_steps += fcpu.fastStats().fallback_steps;
    switch (si) {
      case StopReason::Halted: ++totals.halts; break;
      case StopReason::InstrLimit: ++totals.limits; break;
      case StopReason::BadInstruction: ++totals.bad_instr; break;
      case StopReason::AlignmentFault: ++totals.align_faults; break;
      case StopReason::DivideByZero: ++totals.div_zeros; break;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = benchutil::parse(argc, argv, extra_flags);
    const std::uint64_t programs = opt.extra.contains("--programs")
        ? benchutil::parseU64Flag(
              opt.extraOr("--programs", "").c_str(), "--programs",
              argv[0], extra_flags)
        : 1000;
    if (programs == 0)
        benchutil::usageError(argv[0], extra_flags,
                              "--programs must be > 0");
    if (!opt.json())
        benchutil::banner(
            "exec lockstep - interpreter vs fast path differential "
            "fuzz",
            opt);

    Rng rng(opt.seed);
    Totals totals;
    std::uint64_t divergences = 0;
    for (std::uint64_t i = 0; i < programs; ++i) {
        const AssembledProgram prog = generateProgram(rng);
        if (!runLockstep(prog, rng, i, totals))
            ++divergences;
    }

    const std::uint64_t attempted =
        totals.fast_instructions + totals.fallback_steps;
    const double coverage =
        attempted ? static_cast<double>(totals.fast_instructions) /
                        static_cast<double>(attempted)
                  : 0.0;

    if (opt.json()) {
        std::printf("{\n");
        std::printf("  \"programs\": %" PRIu64 ",\n", programs);
        std::printf("  \"instructions\": %" PRIu64 ",\n",
                    totals.instructions);
        std::printf("  \"fast_instructions\": %" PRIu64 ",\n",
                    totals.fast_instructions);
        std::printf("  \"fallback_steps\": %" PRIu64 ",\n",
                    totals.fallback_steps);
        std::printf("  \"fast_coverage\": %.4f,\n", coverage);
        std::printf("  \"halts\": %" PRIu64 ",\n", totals.halts);
        std::printf("  \"instr_limits\": %" PRIu64 ",\n",
                    totals.limits);
        std::printf("  \"bad_instructions\": %" PRIu64 ",\n",
                    totals.bad_instr);
        std::printf("  \"alignment_faults\": %" PRIu64 ",\n",
                    totals.align_faults);
        std::printf("  \"divide_by_zeros\": %" PRIu64 ",\n",
                    totals.div_zeros);
        std::printf("  \"divergences\": %" PRIu64 "\n", divergences);
        std::printf("}\n");
    } else {
        std::printf("programs executed : %" PRIu64 "\n", programs);
        std::printf("instructions      : %" PRIu64 "\n",
                    totals.instructions);
        std::printf("fast coverage     : %.1f%% (%" PRIu64
                    " fast, %" PRIu64 " fallback)\n",
                    coverage * 100, totals.fast_instructions,
                    totals.fallback_steps);
        std::printf("stop mix          : %" PRIu64 " halt, %" PRIu64
                    " limit, %" PRIu64 " bad-instr, %" PRIu64
                    " align-fault, %" PRIu64 " div-zero\n",
                    totals.halts, totals.limits, totals.bad_instr,
                    totals.align_faults, totals.div_zeros);
        std::printf("divergences       : %" PRIu64 "\n",
                    divergences);
    }

    if (divergences != 0) {
        std::fprintf(stderr, "FAIL: %" PRIu64 " divergent program%s\n",
                     divergences, divergences == 1 ? "" : "s");
        return 1;
    }
    // Self-check: the fuzz must actually exercise the fast path.
    if (coverage < 0.3) {
        std::fprintf(stderr,
                     "FAIL: fast-path coverage %.1f%% below 30%% — "
                     "the differential fuzz is not testing the fast "
                     "path\n",
                     coverage * 100);
        return 1;
    }
    if (!opt.json())
        std::printf("\nPASS: zero divergence across %" PRIu64
                    " programs\n",
                    programs);
    return 0;
}
