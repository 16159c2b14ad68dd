#include "pipeline/pipeline.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pabp {

Pipeline::Pipeline(PredictionEngine &engine_, PipelineConfig config)
    : engine(engine_), cfg(config), icache(config.icache),
      dcache(config.dcache)
{
    pabp_assert(cfg.issueWidth >= 1);
    // The engine owns the BTB/RAS and reports target outcomes through
    // ProcessResult; an engine without target modelling would leave
    // every taken-branch bubble at the optimistic minimum.
    pabp_assert(engine.config().modelTargets);
    if (cfg.enableL2)
        l2.emplace(cfg.l2);
}

void
Pipeline::bindProgram(const Program &prog)
{
    if (&prog == boundProgram)
        return;
    boundProgram = &prog;
    operands.resize(prog.size());
    for (std::size_t pc = 0; pc < prog.size(); ++pc) {
        const Inst &inst = prog.insts[pc];
        Operands &o = operands[pc];
        o = Operands{0, 0, 0, 0, 0, 0, inst.op};
        if (inst.isGuarded())
            o.qp = inst.qp;
        // A Cmp writes both of its registers or neither, so any row
        // that writes names the registers every writing event does.
        for (unsigned row = 0; row < 4; ++row) {
            const PredicateWrites w =
                predicateWrites(inst, row & 1, row >> 1);
            if (w.count > 0) {
                o.pred0 = w.reg[0];
                o.pred1 = w.reg[1];
            }
        }
        switch (inst.op) {
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::Div:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
          case Opcode::Shl:
          case Opcode::Shr:
          case Opcode::Cmp:
            o.src1 = inst.src1;
            if (!inst.hasImm)
                o.src2 = inst.src2;
            break;
          case Opcode::Mov:
            if (!inst.hasImm)
                o.src1 = inst.src1;
            break;
          case Opcode::Load:
            o.src1 = inst.src1;
            break;
          case Opcode::Store:
            o.src1 = inst.src1;
            o.src2 = inst.src2;
            break;
          default:
            break;
        }
        // Only these ops write a GPR (when their guard holds).
        if (inst.op == Opcode::Load || inst.op == Opcode::Mov ||
            (inst.op >= Opcode::Add && inst.op <= Opcode::Shr))
            o.dst = inst.dst;
    }
}

PABP_ALWAYS_INLINE void
Pipeline::timeEvent(std::uint32_t pc, std::uint8_t flags,
                    std::int64_t eff_addr, std::uint8_t outcome)
{
    const Operands &o = operands[pc];
    const bool guard = flags & 1;

    // Instruction fetch: a line miss delays availability. In the
    // unified L2, instruction lines live in a disjoint address space
    // (high bit set) so they never falsely share data lines.
    const std::uint64_t line = pc >> cfg.icache.lineWordsLog2;
    if (line != lastFetchLine) {
        lastFetchLine = line;
        if (!icache.access(pc)) {
            ++pipeStats.icacheMisses;
            unsigned penalty = cfg.icacheMissPenalty;
            if (l2 && !l2->access(static_cast<std::uint64_t>(pc) |
                                  (std::uint64_t{1} << 40))) {
                ++pipeStats.l2Misses;
                penalty = cfg.memoryLatency;
            }
            fetchReady = std::max(fetchReady, cycle) + penalty;
        }
    }

    const std::uint64_t operands_ready =
        std::max({predReady[o.qp], regReady[o.src1], regReady[o.src2]});
    const std::uint64_t earliest = std::max(fetchReady, operands_ready);
    if (earliest > cycle) {
        cycle = earliest;
        slotsUsed = 0;
    }
    if (slotsUsed >= cfg.issueWidth) {
        ++cycle;
        slotsUsed = 0;
    }
    ++slotsUsed;

    std::uint64_t latency = cfg.aluLatency;
    if (o.op == Opcode::Mul) {
        latency = cfg.mulLatency;
    } else if (o.op == Opcode::Div) {
        latency = cfg.divLatency;
    } else if ((o.op == Opcode::Load || o.op == Opcode::Store) && guard) {
        // A squashed access computes its address only (ALU latency);
        // stores retire via the write buffer.
        const auto addr = static_cast<std::uint64_t>(eff_addr);
        const bool hit = dcache.access(addr);
        bool l2_hit = true;
        if (!hit) {
            ++pipeStats.dcacheMisses;
            if (l2) {
                l2_hit = l2->access(addr);
                if (!l2_hit)
                    ++pipeStats.l2Misses;
            }
        }
        if (o.op == Opcode::Load)
            latency = hit ? cfg.loadHitLatency
                          : (l2_hit ? cfg.loadMissLatency
                                    : cfg.memoryLatency);
    }
    const std::uint64_t done = cycle + latency;

    // Destination readiness (only architecturally performed writes).
    if (guard && o.dst != 0)
        regReady[o.dst] = done;
    const unsigned pred_writes = (flags >> 2) & 3;
    if (pred_writes >= 1)
        predReady[o.pred0] = done;
    if (pred_writes >= 2)
        predReady[o.pred1] = done;

    // Control flow: the engine's outcome drives the front end. Both
    // squash kinds need no separate handling here: an SFPF squash is
    // a certain not-taken prediction and never mispredicts, and a
    // wrong speculative squash already surfaces as mispredicted - the
    // full restart below is exactly its penalty. The engine performs
    // the BTB probes and RAS pops itself (EngineConfig::modelTargets);
    // this model only converts the outcomes into front-end bubbles.
    if (outcome & outcomeMispredicted) {
        const std::uint64_t resolve = cycle + 1;
        const std::uint64_t restart = resolve + cfg.mispredictPenalty;
        pipeStats.mispredictStallCycles += restart - fetchReady;
        fetchReady = std::max(fetchReady, restart);
    } else if (outcome & outcomeRasReturn) {
        // Return targets come from the return address stack; a stale
        // or underflowed RAS costs a full front-end restart.
        if (outcome & outcomeRasCorrect) {
            ++pipeStats.rasHits;
            fetchReady = std::max(fetchReady, cycle + cfg.takenBubble);
        } else {
            ++pipeStats.rasMisses;
            fetchReady = std::max(
                fetchReady, cycle + 1 + cfg.mispredictPenalty);
        }
    } else if ((flags >> 1) & 1) {
        // Correctly predicted (or unconditional) taken transfer - only
        // control instructions are ever taken: redirect bubble, larger
        // when the BTB lacked the target.
        unsigned bubble = cfg.takenBubble;
        if (outcome & outcomeTargetMiss) {
            ++pipeStats.btbMisses;
            bubble += cfg.btbMissPenalty;
        }
        fetchReady = std::max(fetchReady, cycle + bubble);
    }

    ++pipeStats.insts;
    pipeStats.cycles = std::max(pipeStats.cycles, done);
}

const PipelineStats &
Pipeline::run(Emulator &emu, std::uint64_t max_insts)
{
    bindProgram(emu.program());
    // Record and decide each window (no engine decision depends on
    // the timing), then time it.
    live.run(emu, engine, max_insts, [this](std::size_t got) {
        const DecodedTrace &w = live.events();
        const std::int64_t *eff_addrs = live.effAddrs();
        const std::uint8_t *outcomes = live.outcomes();
        for (std::size_t i = 0; i < got; ++i)
            timeEvent(w.pcs[i], w.flags[i], eff_addrs[i], outcomes[i]);
    });
    pipeStats.cycles = std::max(pipeStats.cycles, cycle + 1);
    return pipeStats;
}

const PipelineStats &
Pipeline::runReference(Emulator &emu, std::uint64_t max_insts)
{
    bindProgram(emu.program());
    DynInst dyn;
    std::uint64_t processed = 0;
    while (processed < max_insts && emu.step(dyn)) {
        const std::uint8_t outcome = packOutcome(engine.process(dyn));
        const auto flags = static_cast<std::uint8_t>(
            (dyn.guard ? 1 : 0) | (dyn.taken ? 2 : 0) |
            (dyn.numPredWrites << 2));
        timeEvent(dyn.pc, flags, dyn.effAddr, outcome);
        ++processed;
    }
    pipeStats.cycles = std::max(pipeStats.cycles, cycle + 1);
    return pipeStats;
}

} // namespace pabp
