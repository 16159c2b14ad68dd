/**
 * @file
 * Functional emulator for the predicated ISA. Executes a Program and
 * reports each executed instruction - as a compact ExecEvent to a
 * caller's sink (the trace recorder, the cycle-level pipeline's event
 * windows, the compile profiler), or as a full DynInst record (the
 * reference loops and the oracles).
 */

#ifndef PABP_SIM_EMULATOR_HH
#define PABP_SIM_EMULATOR_HH

#include <cstdint>
#include <limits>

#include "isa/program.hh"
#include "sim/arch_state.hh"
#include "util/logging.hh"

namespace pabp {

/**
 * One dynamically executed instruction. Everything a timing model or
 * predictor harness needs: the static instruction, its guard value at
 * execute, control-flow resolution and predicate writes.
 */
struct DynInst
{
    std::uint64_t seq = 0;          ///< dynamic sequence number
    std::uint32_t pc = 0;
    const Inst *inst = nullptr;

    bool guard = true;              ///< qp value at execute

    bool isControl = false;         ///< Br/Call/Ret
    bool taken = false;             ///< control transfer happened
    std::uint32_t nextPc = 0;

    /** Relation result of a Cmp (valid only for Cmp ops). */
    bool cmpRel = false;

    /** Predicate register writes that architecturally happened
     *  (excludes discarded writes to p0). */
    struct PredWrite
    {
        std::uint8_t reg;
        bool value;
    };
    std::uint8_t numPredWrites = 0;
    PredWrite predWrites[2];

    bool isMem = false;
    std::int64_t effAddr = 0;
};

/**
 * One executed instruction as Emulator::run() hands it to its sink:
 * the fields of one trace event, packed as in the 12 on-disk bytes
 * (sim/trace_io.hh), plus the memory access, which no trace carries.
 */
struct ExecEvent
{
    std::uint32_t pc = 0;
    std::uint32_t nextPc = 0;
    /** bit0 guard, bit1 taken, bits 2-3 numPredWrites. */
    std::uint8_t flags = 0;
    /** Registers of the architectural predicate writes, in write
     *  order; 0 past numPredWrites(). */
    std::uint8_t predReg0 = 0;
    std::uint8_t predReg1 = 0;
    /** bit0/bit1 = write values, bit2 cmpRel. */
    std::uint8_t predVal = 0;
    bool isMem = false;
    std::int64_t effAddr = 0;

    bool guard() const { return (flags & 1) != 0; }
    bool taken() const { return (flags & 2) != 0; }
    unsigned numPredWrites() const { return flags >> 2; }
};

/** Emulator configuration. */
struct EmuConfig
{
    std::size_t memWords = 1u << 20;
    /** Safety net against runaway programs; 0 disables. */
    std::uint64_t maxInsts = 0;
};

/**
 * Straightforward interpret-one-instruction-at-a-time emulator. This
 * is the repo's golden model: the pipeline and the predictors are both
 * driven by (and checked against) its trace.
 *
 * There is one interpreter body, run(n, sink); step() and run(n) are
 * that body with a DynInst-filling and a discarding sink, so every
 * way of driving the machine executes the same code.
 */
class Emulator
{
  public:
    Emulator(const Program &program, EmuConfig config = EmuConfig{});

    /**
     * Execute up to @p n instructions, calling @p sink with the
     * ExecEvent of each one after it retires (pc, instsExecuted()
     * and the architectural state already reflect it). Before each
     * instruction the run stops, executing nothing more, when the
     * machine has halted, or when instsExecuted() has reached a
     * nonzero maxInsts - which blows the fuse (fuseBlown()). Returns
     * the number executed. The sink must not drive this emulator.
     */
    template <typename Sink>
    std::uint64_t run(std::uint64_t n, Sink &&sink);

    /**
     * Execute one instruction and fill @p out: run(1, sink) with a
     * sink that builds the DynInst. Returns false, leaving @p out
     * untouched, when nothing executed (halted, or the fuse blew).
     */
    bool step(DynInst &out);

    /** run(@p max_insts, sink) with a sink that discards the events;
     *  returns the number executed. */
    std::uint64_t run(std::uint64_t max_insts);

    bool halted() const { return archState.halted || fuse; }
    bool fuseBlown() const { return fuse; }
    std::uint64_t instsExecuted() const { return executed; }

    ArchState &state() { return archState; }
    const ArchState &state() const { return archState; }
    const Program &program() const { return prog; }

    /**
     * @name Checkpointing
     * Position (instructions executed, fuse) plus the architectural
     * state. The program itself is not serialised: a resume
     * reconstructs it (workload compilation is deterministic) and
     * loadState() cross-checks the instruction count.
     * @{
     */
    void saveState(StateSink &sink) const;
    Status loadState(StateSource &src);
    /** @} */

  private:
    const Program &prog;
    EmuConfig cfg;
    ArchState archState;
    std::uint64_t executed = 0;
    bool fuse = false;

    /** The value a compare writes to both pdst1 and pdst2, or
     *  nothing: every compare type writes both or neither. */
    struct CmpWrites
    {
        bool write;
        bool value1;
        bool value2;
    };
    static CmpWrites cmpWrites(CmpType type, bool guard, bool rel);
};

inline Emulator::CmpWrites
Emulator::cmpWrites(CmpType type, bool guard, bool rel)
{
    switch (type) {
      case CmpType::Normal:
        return {guard, rel, !rel};
      case CmpType::Unc:
        return {true, guard && rel, guard && !rel};
      case CmpType::And:
        return {guard && !rel, false, false};
      case CmpType::Or:
        return {guard && rel, true, true};
      case CmpType::OrAndcm:
        return {guard && rel, true, false};
      case CmpType::AndOrcm:
        return {guard && !rel, false, true};
    }
    pabp_panic("bad compare type in emulator");
}

template <typename Sink>
std::uint64_t
Emulator::run(std::uint64_t n, Sink &&sink)
{
    std::uint64_t done = 0;
    for (; done < n; ++done) {
        if (halted())
            break;
        if (cfg.maxInsts && executed >= cfg.maxInsts) {
            fuse = true;
            break;
        }

        const std::uint32_t pc = archState.pc;
        pabp_assert(pc < prog.insts.size());
        const Inst &inst = prog.insts[pc];
        const bool guard = archState.readPred(inst.qp);

        // The event's fields, as locals the compiler can keep in
        // registers until the sink call.
        std::uint32_t next_pc = pc + 1;
        bool taken = false;
        unsigned writes = 0;
        std::uint8_t reg0 = 0;
        std::uint8_t reg1 = 0;
        std::uint8_t pred_val = 0;
        bool is_mem = false;
        std::int64_t eff_addr = 0;

        auto write_pred = [&](unsigned reg, bool value) {
            archState.writePred(reg, value);
            if (reg == 0)
                return; // architecturally discarded; invisible to sinks
            pabp_assert(writes < 2);
            if (writes == 0)
                reg0 = static_cast<std::uint8_t>(reg);
            else
                reg1 = static_cast<std::uint8_t>(reg);
            pred_val |= static_cast<std::uint8_t>(value << writes);
            ++writes;
        };
        // Guest integer arithmetic wraps (two's complement): @p f
        // computes in unsigned to keep host-side signed overflow out
        // of it.
        auto alu = [&](auto f) {
            if (!guard)
                return;
            const auto a =
                static_cast<std::uint64_t>(archState.readGpr(inst.src1));
            const auto b = static_cast<std::uint64_t>(
                inst.hasImm ? inst.imm : archState.readGpr(inst.src2));
            archState.writeGpr(inst.dst,
                               static_cast<std::int64_t>(f(a, b)));
        };
        auto transfer = [&](std::uint32_t target) {
            taken = guard;
            if (guard)
                next_pc = target;
        };
        auto halt = [&] {
            archState.halted = true;
            taken = false;
            next_pc = pc;
        };

        switch (inst.op) {
          case Opcode::Nop:
            break;
          case Opcode::Halt:
            halt();
            break;

          case Opcode::Add:
            alu([](std::uint64_t a, std::uint64_t b) { return a + b; });
            break;
          case Opcode::Sub:
            alu([](std::uint64_t a, std::uint64_t b) { return a - b; });
            break;
          case Opcode::Mul:
            alu([](std::uint64_t a, std::uint64_t b) { return a * b; });
            break;
          case Opcode::Div:
            // A zero divisor yields 0. INT64_MIN / -1 also traps on
            // real hardware; define it as wrapping to INT64_MIN like
            // the other ops.
            alu([](std::uint64_t ua, std::uint64_t ub) {
                const auto a = static_cast<std::int64_t>(ua);
                const auto b = static_cast<std::int64_t>(ub);
                if (b == 0)
                    return std::uint64_t{0};
                if (a == std::numeric_limits<std::int64_t>::min() &&
                    b == -1)
                    return ua;
                return static_cast<std::uint64_t>(a / b);
            });
            break;
          case Opcode::And:
            alu([](std::uint64_t a, std::uint64_t b) { return a & b; });
            break;
          case Opcode::Or:
            alu([](std::uint64_t a, std::uint64_t b) { return a | b; });
            break;
          case Opcode::Xor:
            alu([](std::uint64_t a, std::uint64_t b) { return a ^ b; });
            break;
          case Opcode::Shl:
            alu([](std::uint64_t a, std::uint64_t b) {
                return a << (b & 63);
            });
            break;
          case Opcode::Shr:
            alu([](std::uint64_t a, std::uint64_t b) {
                return a >> (b & 63);
            });
            break;
          case Opcode::Mov:
            alu([&](std::uint64_t a, std::uint64_t) {
                return inst.hasImm ? static_cast<std::uint64_t>(inst.imm)
                                   : a;
            });
            break;

          case Opcode::Cmp: {
            const std::int64_t a = archState.readGpr(inst.src1);
            const std::int64_t b =
                inst.hasImm ? inst.imm : archState.readGpr(inst.src2);
            const bool rel = evalRel(inst.crel, a, b);
            if (rel)
                pred_val = 4;
            const CmpWrites w = cmpWrites(inst.ctype, guard, rel);
            if (w.write) {
                write_pred(inst.pdst1, w.value1);
                write_pred(inst.pdst2, w.value2);
            }
            break;
          }

          case Opcode::PSet:
            if (guard)
                write_pred(inst.pdst1, (inst.imm & 1) != 0);
            break;

          case Opcode::Load:
            is_mem = true;
            eff_addr = archState.readGpr(inst.src1) + inst.imm;
            if (guard)
                archState.writeGpr(inst.dst, archState.readMem(eff_addr));
            break;

          case Opcode::Store:
            is_mem = true;
            eff_addr = archState.readGpr(inst.src1) + inst.imm;
            if (guard)
                archState.writeMem(eff_addr, archState.readGpr(inst.src2));
            break;

          case Opcode::Br:
            transfer(inst.target);
            break;

          case Opcode::Call:
            if (guard)
                archState.callStack.push_back(pc + 1);
            transfer(inst.target);
            break;

          case Opcode::Ret:
            if (!guard)
                break;
            if (archState.callStack.empty()) {
                halt(); // returning from the outermost frame
                break;
            }
            transfer(archState.callStack.back());
            archState.callStack.pop_back();
            break;

          default:
            pabp_panic("bad opcode in emulator");
        }

        archState.pc = next_pc;
        ++executed;
        const ExecEvent ev{
            pc,
            next_pc,
            static_cast<std::uint8_t>((guard ? 1 : 0) | (taken ? 2 : 0) |
                                      (writes << 2)),
            reg0,
            reg1,
            pred_val,
            is_mem,
            eff_addr,
        };
        sink(ev);
    }
    return done;
}

} // namespace pabp

#endif // PABP_SIM_EMULATOR_HH
