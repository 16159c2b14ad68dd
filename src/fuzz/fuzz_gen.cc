#include "fuzz/fuzz_gen.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "sim/arch_state.hh"
#include "util/fnv.hh"
#include "util/rng.hh"

namespace pabp::fuzz {

namespace {

/** Data registers generated code computes with. */
constexpr unsigned dataRegBase = 16;
constexpr unsigned dataRegCount = 24;
/** Loop counters: one register per nesting level. Sibling loops at
 *  the same level share a register safely (each re-initialises its
 *  counter before the loop head); an enclosing loop always uses a
 *  different level, so lifetimes never overlap. */
constexpr unsigned counterRegBase = 40;
/** Body outer repeat counter. */
constexpr unsigned repeatReg = 60;
/** Call-wrapper driver counter; never touched by generated bodies. */
constexpr unsigned driverReg = 61;
/** Data-branch stream index: walks the random-initialised window one
 *  word per data-branch execution. Shared by every data-branch item
 *  (the walk just strides faster), never touched by other items. */
constexpr unsigned streamReg = 62;

class FuzzBuilder
{
  public:
    FuzzBuilder(IrFunction &fn, std::uint64_t seed,
                const FuzzProgramConfig &config)
        : builder(fn), baseSeed(seed), cfg(config)
    {}

    void
    build()
    {
        BlockId entry = builder.newBlock();
        BlockId outer_head = builder.newBlock();
        BlockId chain = builder.newBlock();
        BlockId done = builder.newBlock();

        builder.setBlock(entry);
        builder.append(makeMovImm(repeatReg, cfg.repeats));
        Rng init_rng(streamSeed(baseSeed, 0x1217));
        for (unsigned r = 0; r < 6; ++r)
            builder.append(makeMovImm(
                dataReg(init_rng),
                static_cast<std::int64_t>(init_rng.below(1024))));
        builder.jump(outer_head);

        builder.setBlock(outer_head);
        builder.condBrImm(CmpRel::Gt, repeatReg, 0, chain, done);

        builder.setBlock(chain);
        // The branchy/straight decision per top-level item comes
        // from a dedicated stream with exactly one draw per item,
        // and each item's CONTENT comes from its own (seed, index)
        // stream: raising branchDensity flips some items from
        // straight to branchy without perturbing any other item,
        // which makes the static branch count monotone in the knob.
        Rng shape_rng(streamSeed(baseSeed, 0x54a9e));
        std::vector<std::uint64_t> rolls;
        rolls.reserve(cfg.items);
        for (unsigned i = 0; i < cfg.items; ++i)
            rolls.push_back(shape_rng.below(100));
        for (unsigned i = 0; i < cfg.items; ++i) {
            Rng item_rng(streamSeed(baseSeed, 0x17e30 + i));
            emitItem(item_rng, rolls[i]);
        }
        builder.append(makeAluImm(Opcode::Sub, repeatReg, repeatReg, 1));
        builder.jump(outer_head);

        builder.setBlock(done);
        builder.halt();
    }

  private:
    IrBuilder builder;
    std::uint64_t baseSeed;
    FuzzProgramConfig cfg;

    unsigned
    dataReg(Rng &rng)
    {
        return dataRegBase +
            static_cast<unsigned>(rng.below(dataRegCount));
    }

    /** A data register other than @p avoid (correlated pairs keep
     *  their condition register unwritten between the two tests). */
    unsigned
    dataRegExcept(Rng &rng, unsigned avoid)
    {
        unsigned r = dataRegBase + static_cast<unsigned>(
            rng.below(dataRegCount - 1));
        if (r >= avoid)
            ++r;
        return r;
    }

    static CmpRel
    randomRel(Rng &rng)
    {
        static const CmpRel rels[] = {CmpRel::Eq, CmpRel::Ne, CmpRel::Lt,
                                      CmpRel::Le, CmpRel::Gt, CmpRel::Ge,
                                      CmpRel::Ltu, CmpRel::Geu};
        return rels[rng.below(8)];
    }

    /** One random body op: ALU (including Div - a zero divisor is
     *  architecturally defined as 0), or a masked memory access. */
    void
    randomOp(Rng &rng)
    {
        static const Opcode ops[] = {Opcode::Add, Opcode::Sub,
                                     Opcode::Mul, Opcode::Div,
                                     Opcode::And, Opcode::Or,
                                     Opcode::Xor, Opcode::Shl,
                                     Opcode::Shr};
        std::uint64_t kind = rng.below(10);
        if (kind < 7) {
            Opcode op = ops[rng.below(9)];
            unsigned dst = dataReg(rng);
            unsigned src = dataReg(rng);
            if (rng.chance(0.5)) {
                std::int64_t imm =
                    static_cast<std::int64_t>(rng.below(64));
                if (op == Opcode::Shl || op == Opcode::Shr)
                    imm &= 7;
                builder.append(makeAluImm(op, dst, src, imm));
            } else {
                builder.append(makeAlu(op, dst, src, dataReg(rng)));
            }
        } else {
            // Bounded memory access: mask the address register into
            // the data window first, so execution never depends on
            // the emulator's memory geometry.
            unsigned addr = dataReg(rng);
            unsigned val = dataReg(rng);
            builder.append(makeAluImm(Opcode::And, addr, addr,
                                      cfg.dataWindow - 1));
            if (kind < 9)
                builder.append(makeLoad(val, addr, 0));
            else
                builder.append(makeStore(addr, 0, val));
        }
    }

    /** Division/overflow edge cases: INT64_MIN / -1 (defined to wrap
     *  to INT64_MIN), division by zero (defined as 0), and wrapping
     *  multiply/add at the signed boundary. */
    void
    emitDivEdges(Rng &rng)
    {
        constexpr std::int64_t int_min =
            std::numeric_limits<std::int64_t>::min();
        unsigned a = dataReg(rng);
        unsigned b = dataReg(rng);
        unsigned c = dataReg(rng);
        builder.append(makeMovImm(a, int_min));
        builder.append(makeMovImm(b, -1));
        builder.append(makeAlu(Opcode::Div, c, a, b));
        builder.append(makeAluImm(Opcode::Div, dataReg(rng), c, 0));
        builder.append(makeAlu(Opcode::Mul, dataReg(rng), a, a));
        builder.append(makeAlu(Opcode::Add, dataReg(rng), a, a));
        // A runtime-data divisor that may well be zero.
        builder.append(makeAlu(Opcode::Div, dataReg(rng),
                               dataReg(rng), dataReg(rng)));
    }

    void
    emitStraight(Rng &rng)
    {
        if (rng.below(100) < cfg.divEdgePercent)
            emitDivEdges(rng);
        unsigned count = 2 + static_cast<unsigned>(rng.below(4));
        for (unsigned i = 0; i < count; ++i)
            randomOp(rng);
    }

    /** Fill a diamond/triangle arm: a nested diamond while depth
     *  allows (predicate-nesting pressure), else straight code. */
    void
    fillArm(Rng &rng, BlockId arm, BlockId join, unsigned nest)
    {
        builder.setBlock(arm);
        if (nest < cfg.predNestDepth && rng.chance(0.4))
            emitDiamond(rng, nest + 1);
        else
            emitStraight(rng);
        builder.jump(join);
    }

    void
    emitDiamond(Rng &rng, unsigned nest)
    {
        BlockId then_b = builder.newBlock();
        BlockId else_b = builder.newBlock();
        BlockId join = builder.newBlock();
        if (rng.chance(0.3))
            builder.condBr(randomRel(rng), dataReg(rng), dataReg(rng),
                           then_b, else_b);
        else
            builder.condBrImm(randomRel(rng), dataReg(rng),
                              static_cast<std::int64_t>(rng.below(512)),
                              then_b, else_b);
        fillArm(rng, then_b, join, nest);
        fillArm(rng, else_b, join, nest);
        builder.setBlock(join);
    }

    void
    emitTriangle(Rng &rng)
    {
        BlockId body = builder.newBlock();
        BlockId join = builder.newBlock();
        builder.condBrImm(randomRel(rng), dataReg(rng),
                          static_cast<std::int64_t>(rng.below(512)),
                          body, join);
        fillArm(rng, body, join, 0);
        builder.setBlock(join);
    }

    void
    emitLoop(Rng &rng, unsigned loop_nest)
    {
        unsigned ctr = counterRegBase + loop_nest;
        std::int64_t trips =
            1 + static_cast<std::int64_t>(rng.below(4));

        BlockId head = builder.newBlock();
        BlockId body = builder.newBlock();
        BlockId exit = builder.newBlock();

        builder.append(makeMovImm(ctr, trips));
        builder.jump(head);

        builder.setBlock(head);
        builder.condBrImm(CmpRel::Gt, ctr, 0, body, exit);

        builder.setBlock(body);
        if (loop_nest + 1 < cfg.loopDepth && rng.chance(0.3))
            emitLoop(rng, loop_nest + 1);
        else
            emitStraight(rng);
        // Data-dependent break: a side edge out of the loop that
        // if-conversion turns into a region-based branch.
        if (rng.chance(0.4)) {
            BlockId cont = builder.newBlock();
            builder.condBrImm(randomRel(rng), dataReg(rng),
                              static_cast<std::int64_t>(rng.below(512)),
                              exit, cont);
            builder.setBlock(cont);
            randomOp(rng);
        }
        builder.append(makeAluImm(Opcode::Sub, ctr, ctr, 1));
        builder.jump(head);

        builder.setBlock(exit);
    }

    /** Two tests of the same (register, relation, immediate) with
     *  the register unwritten in between: the second branch's
     *  direction is fully determined by the first - the correlation
     *  the PGU recovers through predicate history. */
    void
    emitCorrelatedPair(Rng &rng)
    {
        unsigned reg = dataReg(rng);
        CmpRel rel = randomRel(rng);
        std::int64_t imm = static_cast<std::int64_t>(rng.below(256));
        for (int test = 0; test < 2; ++test) {
            BlockId body = builder.newBlock();
            BlockId join = builder.newBlock();
            builder.condBrImm(rel, reg, imm, body, join);
            builder.setBlock(body);
            unsigned count = 1 + static_cast<unsigned>(rng.below(3));
            for (unsigned i = 0; i < count; ++i)
                builder.append(makeAluImm(
                    Opcode::Add, dataRegExcept(rng, reg),
                    dataRegExcept(rng, reg),
                    static_cast<std::int64_t>(rng.below(32))));
            builder.jump(join);
            builder.setBlock(join);
        }
    }

    /** A data-driven diamond: stride streamReg one word through the
     *  random-initialised window and branch on the loaded value.
     *  Unlike the register-soup diamonds - whose operand dynamics
     *  collapse into short cycles any real predictor memorises - the
     *  stream walk reads fresh window entropy every execution, so
     *  the outcome sequence's period is the whole window, far beyond
     *  any realistic history length. This is the branch shape the
     *  suite's data-driven members (interp, filter) get from their
     *  inputs, made reachable by the mining climb. */
    void
    emitDataBranch(Rng &rng)
    {
        unsigned val = dataReg(rng);
        BlockId then_b = builder.newBlock();
        BlockId else_b = builder.newBlock();
        BlockId join = builder.newBlock();
        builder.append(
            makeAluImm(Opcode::Add, streamReg, streamReg, 1));
        builder.append(makeAluImm(Opcode::And, streamReg, streamReg,
                                  cfg.dataWindow - 1));
        builder.append(makeLoad(val, streamReg, 0));
        // Window words are uniform below 4096; a mid-window
        // threshold keeps the outcome distribution near even.
        builder.condBrImm(
            rng.chance(0.5) ? CmpRel::Lt : CmpRel::Ge, val,
            1024 + static_cast<std::int64_t>(rng.below(2048)),
            then_b, else_b);
        // Arms at full nest depth: fillArm falls through to straight
        // code, so the hard branch is never buried under nesting.
        fillArm(rng, then_b, join, cfg.predNestDepth);
        fillArm(rng, else_b, join, cfg.predNestDepth);
        builder.setBlock(join);
    }

    void
    emitItem(Rng &rng, std::uint64_t roll)
    {
        // Drawn ONLY when the knob is on: with dataBranchPercent ==
        // 0 (every config predating the knob, the whole replay
        // corpus) the rng sequence is untouched and old seeds
        // regenerate byte-identical programs.
        if (cfg.dataBranchPercent > 0 &&
            rng.below(100) < cfg.dataBranchPercent) {
            emitDataBranch(rng);
            return;
        }
        if (roll >= cfg.branchDensity) {
            emitStraight(rng);
            return;
        }
        std::uint64_t kind = rng.below(100);
        if (kind < 40)
            emitDiamond(rng, 0);
        else if (kind < 60)
            emitTriangle(rng);
        else if (kind < 85 && cfg.loopDepth > 0)
            emitLoop(rng, 0);
        else
            emitCorrelatedPair(rng);
    }
};

/**
 * Wrap a compiled body in a call/return driver:
 *
 *   driver:  r61 = 2 calls of a chain of callDepth procedures, the
 *            innermost of which calls the body; every Halt in the
 *            body becomes a Ret back into the chain.
 *   emptyRas: the driver's exit is a Ret on an EMPTY call stack
 *            (architecturally a halt - the emulator edge case), with
 *            the real Halt after it as the never-reached terminator
 *            that keeps validateProgram's fall-through rule happy.
 *
 * Both lowerings of a body are wrapped with identical rng draws, so
 * the wrapper adds the same architectural effects to each and the
 * if-conversion equivalence oracle still holds.
 */
Program
wrapProgram(const Program &body, const FuzzProgramConfig &cfg,
            std::uint64_t seed)
{
    constexpr unsigned outerCalls = 2;
    const unsigned chain = cfg.callDepth;
    Rng rng(streamSeed(seed, 0xca11));

    struct ProcShape
    {
        unsigned before, after;
    };
    std::vector<ProcShape> procs(chain);
    for (ProcShape &p : procs) {
        p.before = 1 + static_cast<unsigned>(rng.below(3));
        p.after = 1 + static_cast<unsigned>(rng.below(2));
    }

    const unsigned driverLen = cfg.emptyRas ? 8 : 7;
    std::vector<std::uint32_t> procStart(chain);
    std::uint32_t pc = driverLen;
    for (unsigned k = 0; k < chain; ++k) {
        procStart[k] = pc;
        pc += procs[k].before + 1 + procs[k].after + 1;
    }
    const std::uint32_t bodyStart = pc;
    const std::uint32_t exitPc = 6;

    Program out;
    out.name = body.name + "+calls";
    out.insts.push_back(makeMovImm(driverReg, outerCalls));
    out.insts.push_back(
        makeCmpImm(CmpRel::Gt, CmpType::Normal, 62, 63, driverReg, 0));
    out.insts.push_back(makeBr(exitPc, 63)); // (p63) br exit
    out.insts.push_back(makeCall(chain ? procStart[0] : bodyStart));
    out.insts.push_back(makeAluImm(Opcode::Sub, driverReg, driverReg, 1));
    out.insts.push_back(makeBr(1));
    if (cfg.emptyRas)
        out.insts.push_back(makeRet()); // empty stack: halts
    out.insts.push_back(makeHalt());

    Rng op_rng(streamSeed(seed, 0x0b5));
    auto procOp = [&op_rng]() {
        static const Opcode ops[] = {Opcode::Add, Opcode::Sub,
                                     Opcode::Xor, Opcode::Or};
        unsigned dst = dataRegBase +
            static_cast<unsigned>(op_rng.below(dataRegCount));
        unsigned src = dataRegBase +
            static_cast<unsigned>(op_rng.below(dataRegCount));
        return makeAluImm(ops[op_rng.below(4)], dst, src,
                          static_cast<std::int64_t>(op_rng.below(64)));
    };
    for (unsigned k = 0; k < chain; ++k) {
        for (unsigned i = 0; i < procs[k].before; ++i)
            out.insts.push_back(procOp());
        out.insts.push_back(
            makeCall(k + 1 < chain ? procStart[k + 1] : bodyStart));
        for (unsigned i = 0; i < procs[k].after; ++i)
            out.insts.push_back(procOp());
        out.insts.push_back(makeRet());
    }

    for (Inst inst : body.insts) {
        if (inst.op == Opcode::Br || inst.op == Opcode::Call)
            inst.target += bodyStart;
        else if (inst.op == Opcode::Halt)
            inst.op = Opcode::Ret; // return into the call chain
        out.insts.push_back(inst);
    }
    return out;
}

} // anonymous namespace

void
clampConfig(FuzzProgramConfig &cfg)
{
    cfg.items = std::clamp(cfg.items, 1u, 32u);
    cfg.branchDensity = std::min(cfg.branchDensity, 100u);
    cfg.predNestDepth = std::min(cfg.predNestDepth, 4u);
    cfg.loopDepth = std::min(cfg.loopDepth, 4u);
    cfg.callDepth = std::min(cfg.callDepth, 6u);
    cfg.hbPressure = std::min(cfg.hbPressure, 100u);
    cfg.divEdgePercent = std::min(cfg.divEdgePercent, 100u);
    cfg.dataBranchPercent = std::min(cfg.dataBranchPercent, 100u);
    cfg.repeats = std::clamp<std::int64_t>(cfg.repeats, 1, 4096);
    cfg.dataWindow = std::clamp<std::int64_t>(cfg.dataWindow, 16, 4096);
    // Round down to a power of two: the generator's address masks
    // assume dataWindow - 1 is an all-ones mask.
    while (cfg.dataWindow & (cfg.dataWindow - 1))
        cfg.dataWindow &= cfg.dataWindow - 1;
}

std::uint64_t
configFingerprint(const FuzzProgramConfig &cfg)
{
    Fnv1a fnv;
    fnv.u32(cfg.items);
    fnv.u32(cfg.branchDensity);
    fnv.u32(cfg.predNestDepth);
    fnv.u32(cfg.loopDepth);
    fnv.u32(cfg.callDepth);
    fnv.u32(cfg.hbPressure);
    fnv.u32(cfg.divEdgePercent);
    fnv.u32(cfg.dataBranchPercent);
    fnv.b(cfg.emptyRas);
    fnv.u64(static_cast<std::uint64_t>(cfg.dataWindow));
    fnv.u64(static_cast<std::uint64_t>(cfg.repeats));
    return fnv.value();
}

Workload
makeFuzzWorkload(std::uint64_t seed, const FuzzProgramConfig &config)
{
    FuzzProgramConfig cfg = config;
    clampConfig(cfg);

    Workload wl;
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(configFingerprint(cfg)));
    wl.name = "fuzz-" + std::to_string(seed) + "-" + fp;
    wl.fn.name = wl.name;

    FuzzBuilder fb(wl.fn, seed, cfg);
    fb.build();

    std::int64_t window = cfg.dataWindow;
    wl.init = [seed, window](ArchState &state) {
        Rng rng(streamSeed(seed, 0xf00d));
        for (std::int64_t i = 0; i < window; ++i)
            state.writeMem(i, static_cast<std::int64_t>(rng.below(4096)));
    };
    wl.defaultSteps = 200'000;
    return wl;
}

CompileOptions
fuzzCompileOptions(const FuzzProgramConfig &config, bool if_convert)
{
    FuzzProgramConfig cfg = config;
    clampConfig(cfg);

    CompileOptions copts;
    copts.ifConvert = if_convert;
    // Corpus replay is tier-1: keep the profiling budget far below
    // the default 200k (region formation only needs coarse weights).
    copts.profileSteps = 30'000;
    const unsigned p = cfg.hbPressure;
    copts.heuristics.maxBlocks = 4 + p / 8;
    copts.heuristics.maxBodyInsts = 64 + 2 * p;
    copts.heuristics.minWeightRatio =
        0.25 * static_cast<double>(100 - p) / 100.0;
    copts.heuristics.minSeedExec = p >= 50 ? 1 : 8;
    return copts;
}

FuzzPrograms
buildFuzzPrograms(std::uint64_t seed, const FuzzProgramConfig &config)
{
    FuzzProgramConfig cfg = config;
    clampConfig(cfg);

    FuzzPrograms out;
    out.body = makeFuzzWorkload(seed, cfg);

    // compileWorkload copies are cheap relative to profiling; build
    // each lowering from its own workload copy so profile counters
    // written into the IR do not leak between modes.
    Workload branchy_wl = out.body;
    out.branchy =
        compileWorkload(branchy_wl, fuzzCompileOptions(cfg, false));
    Workload conv_wl = out.body;
    out.converted =
        compileWorkload(conv_wl, fuzzCompileOptions(cfg, true));

    if (cfg.callDepth > 0 || cfg.emptyRas) {
        out.branchy.prog = wrapProgram(out.branchy.prog, cfg, seed);
        out.converted.prog = wrapProgram(out.converted.prog, cfg, seed);
    }
    return out;
}

unsigned
staticCondBranches(const IrFunction &fn)
{
    unsigned count = 0;
    for (const BasicBlock &bb : fn.blocks)
        if (bb.term.kind == Terminator::Kind::CondBranch)
            ++count;
    return count;
}

} // namespace pabp::fuzz
