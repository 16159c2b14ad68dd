/**
 * @file
 * Fast-replay equivalence: PredictionEngine::processBatch over a
 * DecodedTrace must be bit-identical - stats, per-branch profile,
 * PGU bit count, checkpoint BYTES, exported metrics BYTES - to the
 * reference replayTraceFrom() loop, across predictor kinds (the E2
 * axis) and engine configurations (the E6 axis plus the
 * speculative-squash extension). Also pins recordTrace's lanes, the
 * machine state Emulator::run(n, sink) leaves and the compile
 * profiler against live step() loops, the clamped cursor contracts of
 * processBatch and replayTraceFrom, the chunked-batch invariant, PGU
 * drains of more than 64 bits at once, what a replay schedule holds,
 * a failed schedule capture reaching every waiting engine, the
 * ProcessResult::specSquashed/squashed separation, and the sweep
 * runner's fast-vs-reference byte equality and trace-cache counters.
 * The outcome bytes processBatch writes for the cycle-level pipeline
 * are pinned against packOutcome(process()), and batches over
 * windows whose lane 0 is a later sequence number against one
 * whole-trace batch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/factory.hh"
#include "bpred/gshare.hh"
#include "compiler/compile.hh"
#include "core/engine.hh"
#include "core/pgu.hh"
#include "fuzz/fuzz_gen.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "sim/replay_schedule.hh"
#include "sim/trace_io.hh"
#include "util/serialize.hh"
#include "sweep.hh"
#include "workloads/workload.hh"

namespace pabp {
namespace {

using bench::RunResult;
using bench::RunSpec;
using bench::SweepRunner;

// ---------------------------------------------------------------------
// Shared fixtures: one recorded trace per workload.

DecodedTrace
recordWorkload(const std::string &name, std::uint64_t max_insts)
{
    Workload wl = makeWorkload(name, 42);
    CompileOptions copts;
    CompiledProgram cp = compileWorkload(wl, copts);
    Emulator emu(cp.prog);
    if (wl.init)
        wl.init(emu.state());
    return recordTrace(emu, max_insts);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
tempPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->name() + "_" + name;
}

/** The engine's checkpoint bytes (saveState): every queue, table and
 *  counter a resumed run would continue from. */
std::string
stateBytes(const PredictionEngine &engine)
{
    std::ostringstream os;
    StateSink sink(os);
    engine.saveState(sink);
    return os.str();
}

/** Everything the engine exposes after a replay. */
struct ReplayOutcome
{
    EngineStats stats;
    BranchProfile profile;
    std::uint64_t pguBits = 0;
    std::uint64_t processed = 0;
    std::string state;
};

ReplayOutcome
outcomeOf(const PredictionEngine &engine, std::uint64_t processed)
{
    ReplayOutcome out;
    out.processed = processed;
    out.stats = engine.stats();
    out.profile = engine.branchProfile();
    out.pguBits = engine.pguBitsInserted();
    out.state = stateBytes(engine);
    return out;
}

/** Reference replay of the first @p n events (default: all). */
ReplayOutcome
runReference(const DecodedTrace &trace, const std::string &kind,
             const EngineConfig &ecfg,
             std::uint64_t n = ~std::uint64_t{0})
{
    PredictorPtr pred = makePredictor(kind, 12);
    PredictionEngine engine(*pred, ecfg);
    const std::uint64_t processed = replayTraceFrom(trace, engine, 0, n);
    return outcomeOf(engine, processed);
}

/** One processBatch over the first @p n events (default: all). */
ReplayOutcome
runFast(const DecodedTrace &trace, const std::string &kind,
        const EngineConfig &ecfg, std::uint64_t n = ~std::uint64_t{0})
{
    PredictorPtr pred = makePredictor(kind, 12);
    PredictionEngine engine(*pred, ecfg);
    const std::uint64_t processed = engine.processBatch(trace, 0, n);
    return outcomeOf(engine, processed);
}

void
expectEquivalent(const ReplayOutcome &ref, const ReplayOutcome &fast)
{
    EXPECT_EQ(ref.processed, fast.processed);
    EXPECT_EQ(ref.stats, fast.stats);
    EXPECT_EQ(ref.profile, fast.profile);
    EXPECT_EQ(ref.pguBits, fast.pguBits);
    EXPECT_TRUE(ref.state == fast.state)
        << "checkpoint bytes differ (" << ref.state.size() << " vs "
        << fast.state.size() << " bytes)";
    // Guard against a vacuous pass: the trace must actually have
    // exercised the predictor.
    EXPECT_GT(ref.stats.all.branches, 0u);
}

// ---------------------------------------------------------------------
// Lane packing: recordTrace's lanes vs the emulator they recorded.

TEST(DecodedTraceLanes, MaterialiseMatchesEmulator)
{
    for (const char *name : {"interp", "filter"}) {
        SCOPED_TRACE(name);
        Workload wl = makeWorkload(name, 42);
        CompiledProgram cp = compileWorkload(wl, CompileOptions{});
        Emulator rec_emu(cp.prog);
        Emulator live(cp.prog);
        if (wl.init) {
            wl.init(rec_emu.state());
            wl.init(live.state());
        }
        const DecodedTrace trace = recordTrace(rec_emu, 30000);
        ASSERT_EQ(trace.size(), 30000u);

        DynInst want;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            ASSERT_TRUE(live.step(want)) << i;
            const DynInst got = trace.materialise(i);
            ASSERT_EQ(got.seq, want.seq) << i;
            ASSERT_EQ(got.pc, want.pc) << i;
            ASSERT_EQ(got.guard, want.guard) << i;
            ASSERT_EQ(got.taken, want.taken) << i;
            ASSERT_EQ(got.isControl, want.isControl) << i;
            ASSERT_EQ(got.nextPc, want.nextPc) << i;
            ASSERT_EQ(got.cmpRel, want.cmpRel) << i;
            ASSERT_EQ(got.isMem, want.isMem) << i;
            ASSERT_EQ(got.numPredWrites, want.numPredWrites) << i;
            for (unsigned w = 0; w < want.numPredWrites; ++w) {
                ASSERT_EQ(got.predWrites[w].reg, want.predWrites[w].reg)
                    << i;
                ASSERT_EQ(got.predWrites[w].value,
                          want.predWrites[w].value)
                    << i;
            }
            // effAddr is carried by no trace. The trace owns a
            // program COPY, so the pointers differ by design; every
            // static field must still agree.
            ASSERT_EQ(got.inst, &trace.prog.insts[want.pc]) << i;
            ASSERT_EQ(encode(*got.inst), encode(*want.inst)) << i;
            ASSERT_EQ(got.inst->regionId, want.inst->regionId) << i;
            ASSERT_EQ(got.inst->regionBranch, want.inst->regionBranch)
                << i;
        }
    }
}

TEST(DecodedTraceLanes, ClassLaneMatchesDispatchRules)
{
    DecodedTrace trace = recordWorkload("filter", 30000);

    std::uint64_t seen[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Inst &inst = trace.inst(i);
        auto cls = static_cast<DecodedTrace::Class>(trace.cls[i]);
        ++seen[trace.cls[i]];
        switch (cls) {
          case DecodedTrace::Class::CondBranch:
            EXPECT_EQ(inst.op, Opcode::Br) << i;
            EXPECT_NE(inst.qp, 0) << i;
            break;
          case DecodedTrace::Class::UncondControl:
            EXPECT_TRUE(inst.isControl()) << i;
            EXPECT_FALSE(inst.op == Opcode::Br && inst.qp != 0) << i;
            break;
          case DecodedTrace::Class::PredDefine:
            EXPECT_TRUE(inst.op == Opcode::Cmp ||
                        inst.op == Opcode::PSet)
                << i;
            break;
          case DecodedTrace::Class::Other:
            EXPECT_FALSE(inst.isControl()) << i;
            EXPECT_FALSE(inst.writesPredicate()) << i;
            break;
        }
    }
    // An if-converted workload exercises every class.
    EXPECT_GT(seen[0], 0u);
    EXPECT_GT(seen[1], 0u);
    EXPECT_GT(seen[2], 0u);
    EXPECT_GT(seen[3], 0u);
}

/** The predicate writes of @p dyn, packed as PredicateWrites. */
PredicateWrites
writesOf(const DynInst &dyn)
{
    PredicateWrites w;
    w.count = dyn.numPredWrites;
    for (unsigned k = 0; k < dyn.numPredWrites; ++k) {
        w.reg[k] = dyn.predWrites[k].reg;
        w.values |= static_cast<std::uint8_t>(
            dyn.predWrites[k].value << k);
    }
    return w;
}

/** What a compare of @p type writes under guard @p g and relation
 *  @p r, written out from the IA-64 table in isa/inst.hh: whether it
 *  writes, and the values for pdst1 and pdst2. */
struct CmpRule
{
    bool write, value1, value2;
};

CmpRule
cmpRule(CmpType type, bool g, bool r)
{
    switch (type) {
      case CmpType::Normal: return {g, r, !r};
      case CmpType::Unc: return {true, g && r, g && !r};
      case CmpType::And: return {g && !r, false, false};
      case CmpType::Or: return {g && r, true, true};
      case CmpType::OrAndcm: return {g && r, true, false};
      case CmpType::AndOrcm: return {g && !r, false, true};
    }
    return {false, false, false};
}

TEST(DecodedTraceLanes, DefineTableMatchesTheInterpreter)
{
    // One-instruction programs: every compare type, guard, relation
    // and destination pair, and pset. The generators emit only normal,
    // unc and or compares, so this is the only coverage of and,
    // or.andcm and and.orcm. For each, the define table's row, the
    // payload a recorded trace derives through its flags, the
    // ExecEvent the interpreter hands its sink and the rules above
    // must agree, and so must the predicate file the run leaves.
    constexpr unsigned qp = 7, pa = 3, pb = 4;
    constexpr unsigned src = 1;
    std::vector<Inst> insts;
    const unsigned dests[][2] = {{0, 0}, {0, pa}, {pa, 0}, {pa, pb},
                                 {pa, pa}};
    for (CmpType type : {CmpType::Normal, CmpType::Unc, CmpType::And,
                         CmpType::Or, CmpType::OrAndcm, CmpType::AndOrcm})
        for (const auto &d : dests)
            insts.push_back(
                makeCmpImm(CmpRel::Eq, type, d[0], d[1], src, 0, qp));
    for (bool value : {false, true})
        for (unsigned pdst : {0u, pa})
            insts.push_back(makePSet(pdst, value, qp));

    unsigned checked = 0;
    for (const Inst &inst : insts) {
        const bool is_cmp = inst.op == Opcode::Cmp;
        Program prog;
        prog.insts = {inst, makeHalt()};
        DecodedTrace table;
        table.setProgram(prog);
        for (bool guard : {false, true}) {
            for (bool rel : {false, true}) {
                SCOPED_TRACE(disassemble(inst) + (guard ? " guard" : "") +
                             (rel ? " rel" : ""));
                // The relation is r1 == 0; pa and pb start true and
                // false, so a write of either value shows.
                auto init = [&](Emulator &emu) {
                    emu.state().writePred(qp, guard);
                    emu.state().writePred(pa, true);
                    emu.state().writePred(pb, false);
                    emu.state().writeGpr(src, rel ? 0 : 1);
                };
                Emulator emu(prog);
                init(emu);
                ExecEvent ev;
                ASSERT_EQ(emu.run(1, [&](const ExecEvent &e) { ev = e; }),
                          1u);
                Emulator rec_emu(prog);
                init(rec_emu);
                const DecodedTrace rec = recordTrace(rec_emu, 1);
                ASSERT_EQ(rec.size(), 1u);

                // The rules: writes in pdst1, pdst2 order, none to p0.
                bool write = guard, v1 = (inst.imm & 1) != 0, v2 = false;
                if (is_cmp) {
                    const CmpRule r = cmpRule(inst.ctype, guard, rel);
                    write = r.write, v1 = r.value1, v2 = r.value2;
                }
                PredicateWrites want;
                bool final_a = true, final_b = false;
                auto add = [&](unsigned reg, bool value) {
                    if (!write || reg == 0)
                        return;
                    want.reg[want.count] = static_cast<std::uint8_t>(reg);
                    want.values |=
                        static_cast<std::uint8_t>(value << want.count);
                    ++want.count;
                    (reg == pa ? final_a : final_b) = value;
                };
                add(inst.pdst1, v1);
                if (is_cmp)
                    add(inst.pdst2, v2);

                const bool ev_rel = is_cmp && rel;
                EXPECT_EQ(ev.predWrites, want);
                EXPECT_EQ(ev.numPredWrites(), want.count);
                EXPECT_EQ(ev.cmpRel(), ev_rel);
                EXPECT_EQ(table.defines[DecodedTrace::defineRow(
                              0, guard, ev_rel)],
                          want);
                EXPECT_EQ(rec.flags[0], ev.flags);
                EXPECT_EQ(rec.predWrites(0), want);
                EXPECT_EQ(writesOf(rec.materialise(0)), want);
                EXPECT_EQ(rec.materialise(0).cmpRel, ev_rel);
                EXPECT_EQ(emu.state().readPred(pa), final_a);
                EXPECT_EQ(emu.state().readPred(pb), final_b);
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, (6 * 5 + 4) * 4u);
}

// ---------------------------------------------------------------------
// The interpreter's sinks vs the step() reference: recordTrace's
// lanes, the machine state run(n, sink) leaves, and the compile
// profiler.

/** The three lanes packed per event from a live step() loop, plus
 *  what the trace derives instead of storing: each event's predicate
 *  writes, cmpRel and DynInst::nextPc. */
struct PackedLanes
{
    std::vector<std::uint32_t> pcs;
    std::vector<std::uint8_t> cls;
    std::vector<std::uint8_t> flags;
    std::vector<PredicateWrites> predWrites;
    std::vector<bool> cmpRels;
    std::vector<std::uint32_t> nextPcs;
};

/** How PredictionEngine::process() dispatches @p inst. */
DecodedTrace::Class
dispatchClass(const Inst &inst)
{
    if (inst.isConditionalBranch())
        return DecodedTrace::Class::CondBranch;
    if (inst.isControl())
        return DecodedTrace::Class::UncondControl;
    if (inst.writesPredicate())
        return DecodedTrace::Class::PredDefine;
    return DecodedTrace::Class::Other;
}

PackedLanes
stepLanes(Emulator &emu, std::uint64_t max_insts)
{
    PackedLanes lanes;
    DynInst dyn;
    for (std::uint64_t i = 0; i < max_insts && emu.step(dyn); ++i) {
        lanes.pcs.push_back(dyn.pc);
        lanes.cls.push_back(
            static_cast<std::uint8_t>(dispatchClass(*dyn.inst)));
        lanes.flags.push_back(static_cast<std::uint8_t>(
            (dyn.guard ? 1 : 0) | (dyn.taken ? 2 : 0) |
            (dyn.numPredWrites << 2) | (dyn.cmpRel ? 16 : 0)));
        lanes.predWrites.push_back(writesOf(dyn));
        lanes.cmpRels.push_back(dyn.cmpRel);
        lanes.nextPcs.push_back(dyn.nextPc);
    }
    return lanes;
}

template <typename Lane, typename T>
void
expectSameLane(const char *name, const Lane &got,
               const std::vector<T> &want)
{
    ASSERT_EQ(got.size(), want.size()) << name;
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    EXPECT_TRUE(diff.first == got.end())
        << name << " lane differs first at event "
        << (diff.first - got.begin()) << ": " << +*diff.first << " vs "
        << +*diff.second;
}

void
expectLanes(const DecodedTrace &trace, const PackedLanes &want)
{
    expectSameLane("pcs", trace.pcs, want.pcs);
    expectSameLane("cls", trace.cls, want.cls);
    expectSameLane("flags", trace.flags, want.flags);
    std::vector<std::uint32_t> next_pcs(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        next_pcs[i] = trace.nextPc(i);
    expectSameLane("nextPc", next_pcs, want.nextPcs);
    // The predicate writes no lane holds, as materialise() derives
    // them from the define table.
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const DynInst got = trace.materialise(i);
        ASSERT_EQ(writesOf(got), want.predWrites[i]) << "event " << i;
        ASSERT_EQ(got.cmpRel, want.cmpRels[i]) << "event " << i;
    }
}

void
expectSameMachine(const Emulator &got, const Emulator &want)
{
    EXPECT_EQ(got.instsExecuted(), want.instsExecuted());
    EXPECT_EQ(got.fuseBlown(), want.fuseBlown());
    EXPECT_EQ(got.halted(), want.halted());
    EXPECT_EQ(got.state().pc, want.state().pc);
    EXPECT_EQ(got.state().callStack, want.state().callStack);
    EXPECT_TRUE(got.state().sameArchOutcome(want.state()));
}

/** Counts to 50000 in three instructions per iteration, then halts:
 *  150002 instructions, more than two of the recorder's chunks. */
Program
countingLoop()
{
    Program p;
    p.insts = {
        makeMovImm(1, 0),
        makeAluImm(Opcode::Add, 1, 1, 1),
        makeCmpImm(CmpRel::Lt, CmpType::Unc, 1, 2, 1, 50000),
        makeBr(1, 1),
        makeHalt(),
    };
    return p;
}

TEST(DecodedTraceLanes, RecorderMatchesStepLoopOnEverySuiteWorkload)
{
    constexpr std::uint64_t budget = 100000;
    for (const std::string &name : workloadNames()) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            for (bool if_convert : {false, true}) {
                SCOPED_TRACE(name + "/seed" + std::to_string(seed) +
                             (if_convert ? "/if-converted" : "/normal"));
                Workload wl = makeWorkload(name, seed);
                CompileOptions copts;
                copts.ifConvert = if_convert;
                const CompiledProgram cp = compileWorkload(wl, copts);
                Emulator rec(cp.prog);
                Emulator live(cp.prog);
                if (wl.init) {
                    wl.init(rec.state());
                    wl.init(live.state());
                }
                const DecodedTrace trace = recordTrace(rec, budget);
                ASSERT_EQ(trace.size(), budget);
                expectLanes(trace, stepLanes(live, budget));
                expectSameMachine(rec, live);
            }
        }
    }
}

TEST(DecodedTraceLanes, RecorderShrinksWhenTheProgramHalts)
{
    const Program prog = countingLoop();
    Emulator rec(prog);
    Emulator live(prog);
    const DecodedTrace trace = recordTrace(rec, 1000000);
    EXPECT_EQ(trace.size(), 150002u);
    expectLanes(trace, stepLanes(live, 1000000));
    expectSameMachine(rec, live);
    EXPECT_TRUE(rec.halted());
    EXPECT_FALSE(rec.fuseBlown());
    // The unused reservation went back: each lane keeps only the
    // whole pages its events need.
    EXPECT_EQ(trace.pcs.capacity() * sizeof(std::uint32_t),
              anon_map::roundToPages(trace.size() * sizeof(std::uint32_t)));
    EXPECT_EQ(trace.cls.capacity(), anon_map::roundToPages(trace.size()));
    EXPECT_EQ(trace.flags.capacity(),
              anon_map::roundToPages(trace.size()));
}

TEST(DecodedTraceLanes, RecorderMatchesStepLoopOnAHaltingFuzzProgram)
{
    // Calls and returns through a chain of procedures, and a budget
    // past the halt that is no multiple of the recorder's chunk: the
    // derived next pc of every event, the last one's endPc included,
    // is the emulator's DynInst::nextPc.
    fuzz::FuzzProgramConfig gen;
    gen.callDepth = 4;
    gen.repeats = 400;
    const fuzz::FuzzPrograms p = fuzz::buildFuzzPrograms(5, gen);
    Emulator rec(p.converted.prog);
    Emulator live(p.converted.prog);
    if (p.body.init) {
        p.body.init(rec.state());
        p.body.init(live.state());
    }
    constexpr std::uint64_t budget = 3000001;
    const DecodedTrace trace = recordTrace(rec, budget);
    EXPECT_TRUE(rec.halted());
    EXPECT_FALSE(rec.fuseBlown());
    EXPECT_LT(trace.size(), budget);
    EXPECT_GT(trace.size(), 65536u);
    expectLanes(trace, stepLanes(live, budget));
    expectSameMachine(rec, live);
}

TEST(DecodedTraceLanes, WindowNextPcsMatchTheStepLoop)
{
    // The cycle-level pipeline refills one window of lanes in place:
    // sized to n events, recorded, then sized to what ran. Its last
    // event's next pc must be endPc, never a stale entry left from an
    // earlier window. countingLoop's taken branch is every third event
    // from event 3, so windows end on it; the program halts inside its
    // last window, and a fuse at 4099 stops the second window right
    // after the taken branch at event 4098.
    const Program prog = countingLoop();
    for (std::uint64_t fuse : {0u, 4099u}) {
        for (std::size_t n : {4095u, 4096u, 4097u}) {
            SCOPED_TRACE("fuse " + std::to_string(fuse) + ", window " +
                         std::to_string(n));
            EmuConfig ecfg;
            ecfg.maxInsts = fuse;
            Emulator rec(prog, ecfg);
            Emulator live(prog, ecfg);
            const PackedLanes want = stepLanes(live, 1000000);
            DecodedTrace w;
            w.setProgram(prog);
            std::size_t at = 0;
            for (;;) {
                w.resize(n);
                const std::size_t got = recordEvents(rec, w, 0, n);
                w.resize(got);
                ASSERT_LE(at + got, want.pcs.size());
                for (std::size_t i = 0; i < got; ++i) {
                    ASSERT_EQ(w.pcs[i], want.pcs[at + i]) << at + i;
                    ASSERT_EQ(w.nextPc(i), want.nextPcs[at + i]) << at + i;
                }
                at += got;
                if (got < n)
                    break;
            }
            EXPECT_EQ(at, want.pcs.size());
        }
    }
}

TEST(DecodedTraceLanes, RunLeavesTheStateOfAStepLoop)
{
    // run(n, sink) must stop exactly where the same number of step()
    // calls does: short of a halt, at a halt, and at a maxInsts fuse
    // that blows mid-run.
    struct Case
    {
        const char *what;
        std::uint64_t n;
        std::uint64_t maxInsts;
        bool halted;
        bool fuse;
    };
    const Case cases[] = {
        {"short of the halt", 40000, 0, false, false},
        {"past the halt", 400000, 0, true, false},
        {"fuse blows mid-run", 400000, 70001, true, true},
        {"fuse reached, not blown", 70001, 70001, false, false},
    };
    const Program prog = countingLoop();
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        const EmuConfig cfg{1u << 12, c.maxInsts};
        Emulator ran(prog, cfg);
        Emulator stepped(prog, cfg);
        std::uint64_t events = 0;
        const std::uint64_t done =
            ran.run(c.n, [&events](const ExecEvent &) { ++events; });
        DynInst dyn;
        std::uint64_t steps = 0;
        while (steps < c.n && stepped.step(dyn))
            ++steps;
        EXPECT_EQ(done, steps);
        EXPECT_EQ(events, steps);
        EXPECT_EQ(ran.halted(), c.halted);
        EXPECT_EQ(ran.fuseBlown(), c.fuse);
        expectSameMachine(ran, stepped);
    }

    // A workload with memory traffic and calls, stopped by the fuse.
    for (const char *name : {"listwalk", "interp"}) {
        SCOPED_TRACE(name);
        Workload wl = makeWorkload(name, 3);
        const CompiledProgram cp = compileWorkload(wl, CompileOptions{});
        EmuConfig cfg;
        cfg.maxInsts = 50001;
        Emulator ran(cp.prog, cfg);
        Emulator stepped(cp.prog, cfg);
        if (wl.init) {
            wl.init(ran.state());
            wl.init(stepped.state());
        }
        EXPECT_EQ(ran.run(80000), 50001u);
        DynInst dyn;
        while (stepped.step(dyn)) {
        }
        EXPECT_TRUE(ran.fuseBlown());
        expectSameMachine(ran, stepped);
    }
}

/** The compile profiler as a step() loop: profileFunction() must
 *  leave the same block counts. */
void
referenceProfile(IrFunction &fn, const StateInit &init,
                 std::uint64_t max_steps)
{
    for (BasicBlock &bb : fn.blocks) {
        bb.execCount = 0;
        bb.takenCount = 0;
        bb.profMispredicts = 0;
    }
    CompiledProgram compiled = lowerNormal(fn);
    std::vector<std::int32_t> start_block(compiled.prog.size(), -1);
    for (BlockId b = 0; b < fn.blocks.size(); ++b)
        start_block.at(compiled.info.blockStartPc[b]) =
            static_cast<std::int32_t>(b);

    Emulator emu(compiled.prog);
    if (init)
        init(emu.state());
    GSharePredictor reference(12);
    DynInst dyn;
    std::uint64_t steps = 0;
    while (steps < max_steps && emu.step(dyn)) {
        ++steps;
        std::int32_t b = start_block[dyn.pc];
        if (b >= 0)
            ++fn.blocks[b].execCount;
        auto it = compiled.info.branchPcToBlock.find(dyn.pc);
        if (it != compiled.info.branchPcToBlock.end()) {
            if (dyn.taken)
                ++fn.blocks[it->second].takenCount;
            bool predicted = reference.predict(dyn.pc);
            reference.update(dyn.pc, dyn.taken);
            if (predicted != dyn.taken)
                ++fn.blocks[it->second].profMispredicts;
        }
    }
}

TEST(DecodedTraceLanes, CompileMatchesStepProfileOracle)
{
    for (const std::string &name : workloadNames()) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(name + "/seed" + std::to_string(seed));
            Workload wl = makeWorkload(name, seed);
            Workload ref = wl;
            const CompileOptions copts;
            const CompiledProgram got = compileWorkload(wl, copts);

            // compileFunction's if-converting pipeline, profiled by
            // the reference loop.
            referenceProfile(ref.fn, ref.init, copts.profileSteps);
            const CompiledProgram want = lowerIfConverted(
                ref.fn, selectRegions(ref.fn, copts.heuristics),
                copts.lowering);

            ASSERT_EQ(wl.fn.blocks.size(), ref.fn.blocks.size());
            for (std::size_t b = 0; b < ref.fn.blocks.size(); ++b) {
                EXPECT_EQ(wl.fn.blocks[b].execCount,
                          ref.fn.blocks[b].execCount) << b;
                EXPECT_EQ(wl.fn.blocks[b].takenCount,
                          ref.fn.blocks[b].takenCount) << b;
                EXPECT_EQ(wl.fn.blocks[b].profMispredicts,
                          ref.fn.blocks[b].profMispredicts) << b;
            }
            ASSERT_EQ(got.prog.size(), want.prog.size());
            for (std::size_t pc = 0; pc < want.prog.size(); ++pc) {
                EXPECT_EQ(encode(got.prog.insts[pc]),
                          encode(want.prog.insts[pc])) << pc;
                EXPECT_EQ(got.prog.insts[pc].regionId,
                          want.prog.insts[pc].regionId) << pc;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Equivalence across the predictor axis (the E2 grid): every factory
// kind, base and fully-armed configs. Covers the devirtualised
// predictors (gshare, comb, perceptron, tage) and the generic
// fallback.

TEST(FastReplayEquivalence, EveryPredictorKind)
{
    static const char *const kinds[] = {
        "static-taken", "static-nottaken", "bimodal", "gshare",
        "gag",          "local",           "agree",   "yags",
        "perceptron",   "comb",            "tage"};

    for (const char *wl : {"interp", "bsort"}) {
        DecodedTrace trace = recordWorkload(wl, 40000);
        for (const char *kind : kinds) {
            for (int armed = 0; armed < 2; ++armed) {
                SCOPED_TRACE(std::string(wl) + "/" + kind +
                             (armed ? "/+both" : "/base"));
                EngineConfig ecfg;
                ecfg.useSfpf = armed != 0;
                ecfg.usePgu = armed != 0;
                expectEquivalent(runReference(trace, kind, ecfg),
                                 runFast(trace, kind, ecfg));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Equivalence across the configuration axis (the E6 grid plus the
// extension knobs): "base" takes the unarmed batchLoop specialisation,
// every other cell the armed one, where each technique flag and each
// ablation is a run-time branch - so every one of them gets its own
// cell.

std::vector<std::pair<std::string, EngineConfig>>
configGrid()
{
    std::vector<std::pair<std::string, EngineConfig>> grid;
    EngineConfig base;
    grid.emplace_back("base", base);

    EngineConfig sfpf;
    sfpf.useSfpf = true;
    grid.emplace_back("+sfpf", sfpf);

    EngineConfig pgu;
    pgu.usePgu = true;
    grid.emplace_back("+pgu", pgu);

    EngineConfig both;
    both.useSfpf = true;
    both.usePgu = true;
    grid.emplace_back("+both", both);

    // Armed loop with no replay schedule: speculative squash alone
    // trains the guard predictor but never squashes (it needs the
    // SFPF's fetch-time view).
    EngineConfig spec_only;
    spec_only.useSpeculativeSquash = true;
    grid.emplace_back("+spec", spec_only);

    EngineConfig spec = sfpf;
    spec.useSpeculativeSquash = true;
    grid.emplace_back("+sfpf+spec", spec);

    EngineConfig spec_jrs = spec;
    spec_jrs.specGate = EngineConfig::SpecGate::Jrs;
    grid.emplace_back("+sfpf+spec-jrs", spec_jrs);

    EngineConfig all = both;
    all.useSpeculativeSquash = true;
    grid.emplace_back("+both+spec", all);

    EngineConfig train = both;
    train.trainOnSquashed = true;
    grid.emplace_back("+both+trainOnSquashed", train);

    EngineConfig conservative = both;
    conservative.conservativeDefTracking = true;
    grid.emplace_back("+both+conservative", conservative);

    EngineConfig pgu_region = both;
    pgu_region.pgu.source = PguSource::RegionCmps;
    grid.emplace_back("+both+regionCmps", pgu_region);

    EngineConfig pgu_writes = both;
    pgu_writes.pgu.value = PguValue::BothWrites;
    pgu_writes.pgu.includePSet = true;
    grid.emplace_back("+both+bothWrites+pset", pgu_writes);

    EngineConfig no_profile = both;
    no_profile.branchProfileCapacity = 0;
    grid.emplace_back("+both+noProfile", no_profile);
    return grid;
}

TEST(FastReplayEquivalence, EveryEngineConfig)
{
    for (const char *wl : {"bsort", "interp", "dchain", "filter",
                           "histogram"}) {
        DecodedTrace trace = recordWorkload(wl, 40000);
        for (const auto &[name, ecfg] : configGrid()) {
            SCOPED_TRACE(std::string(wl) + "/" + name);
            expectEquivalent(runReference(trace, "gshare", ecfg),
                             runFast(trace, "gshare", ecfg));
        }
    }
}

// The history-carrying predictors with their own injectHistoryBits
// fast paths (perceptron's SIMD dot/train, yags' tagged tables through
// the generic fallback, comb and tage on their devirtualised arms,
// tage's folded-history re-fold) get the full configuration grid, not
// just the base/+both corners of EveryPredictorKind: every binding
// shares the armed loop's run-time technique branches, and each config
// arms a different slice of them and of the schedule-cache machinery.

TEST(FastReplayEquivalence, PerceptronAndYagsAcrossConfigs)
{
    for (const char *wl : {"interp", "fsm"}) {
        DecodedTrace trace = recordWorkload(wl, 40000);
        for (const char *kind : {"perceptron", "yags", "comb",
                                 "tage"}) {
            for (const auto &[name, ecfg] : configGrid()) {
                SCOPED_TRACE(std::string(wl) + "/" + kind + "/" + name);
                expectEquivalent(runReference(trace, kind, ecfg),
                                 runFast(trace, kind, ecfg));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Target modelling: with EngineConfig::modelTargets armed, the BTB
// and RAS counters must be byte-identical between the reference and
// batched loops. This pins the Btb::lookup side-effect policy
// (bpred/btb.hh): exactly one counting lookup() plus one silent
// update() per taken transfer, in BOTH loops - an extra probe or a
// skipped update in either would desynchronise hits/misses (and LRU
// recency, hence future targets) between replay strategies.

TEST(FastReplayEquivalence, TargetStructureCountersMatchReference)
{
    for (const char *wl : {"interp", "bsort", "fsm"}) {
        SCOPED_TRACE(wl);
        DecodedTrace trace = recordWorkload(wl, 40000);
        EngineConfig ecfg;
        ecfg.useSfpf = true;
        ecfg.usePgu = true;
        ecfg.modelTargets = true;

        PredictorPtr predA = makePredictor("gshare", 12);
        PredictionEngine ref(*predA, ecfg);
        replayTraceFrom(trace, ref, 0, trace.size());

        PredictorPtr predB = makePredictor("gshare", 12);
        PredictionEngine fast(*predB, ecfg);
        fast.processBatch(trace, 0, trace.size());

        EXPECT_EQ(ref.stats(), fast.stats());
        ASSERT_NE(ref.btb(), nullptr);
        ASSERT_NE(fast.btb(), nullptr);
        EXPECT_EQ(ref.btb()->hits(), fast.btb()->hits());
        EXPECT_EQ(ref.btb()->misses(), fast.btb()->misses());
        EXPECT_EQ(ref.ras()->pushes(), fast.ras()->pushes());
        EXPECT_EQ(ref.ras()->pops(), fast.ras()->pops());
        EXPECT_EQ(ref.ras()->overflows(), fast.ras()->overflows());
        EXPECT_EQ(ref.ras()->underflows(), fast.ras()->underflows());
        // Vacuity guard: the policy is only pinned if the BTB was
        // actually probed.
        EXPECT_GT(ref.btb()->hits() + ref.btb()->misses(), 0u);
    }
}

// ---------------------------------------------------------------------
// Replay-schedule cache: the first fast replay of a (range, config,
// entry state) captures a schedule in a define-only pass and
// publishes it on the trace; every later identical replay finds it
// (cached guards, word-at-a-time PGU drain, restored predicate-file
// exit state). Both must be bit-identical to the reference loop - and
// to each other - or the sweep use case (one trace, many predictors)
// silently simulates two different machines. The cache counters pin
// that the lookups really hit, so the equivalence is not vacuous.

TEST(FastReplayEquivalence, ScheduleCacheHitMatchesReference)
{
    for (const char *wl : {"interp", "fsm", "listwalk"}) {
        DecodedTrace trace = recordWorkload(wl, 40000);
        for (const auto &[name, ecfg] : configGrid()) {
            SCOPED_TRACE(std::string(wl) + "/" + name);
            const bool schedules = ecfg.useSfpf || ecfg.usePgu;
            const ReplayOutcome ref =
                runReference(trace, "gshare", ecfg);
            const ReplayOutcome miss = runFast(trace, "gshare", ecfg);
            std::uint64_t hits = trace.schedCache->counters().hits;
            const ReplayOutcome hit = runFast(trace, "gshare", ecfg);
            EXPECT_EQ(trace.schedCache->counters().hits,
                      hits + (schedules ? 1 : 0));
            expectEquivalent(ref, miss);
            expectEquivalent(ref, hit);
            // A different predictor kind must reuse the same schedule
            // (it is predictor-independent) and still match ITS
            // reference.
            hits = trace.schedCache->counters().hits;
            expectEquivalent(runReference(trace, "perceptron", ecfg),
                             runFast(trace, "perceptron", ecfg));
            EXPECT_EQ(trace.schedCache->counters().hits,
                      hits + (schedules ? 1 : 0));
        }
    }
}

TEST(FastReplayEquivalence, ChunkedScheduleCacheHitMatches)
{
    // Chunked replay from event 0 reads the trace's one schedule for
    // its configuration at its own cursors: the one-shot replay's
    // capture serves both chunked passes, one hit each.
    DecodedTrace trace = recordWorkload("interp", 40000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;

    const ReplayOutcome oneshot = runFast(trace, "gshare", ecfg);
    const std::uint64_t chunk = 7777;
    const std::uint64_t chunks = (trace.size() + chunk - 1) / chunk;
    ASSERT_GT(chunks, 1u);
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(pass == 0 ? "capture pass" : "hit pass");
        const ReplayScheduleCache::Counters before =
            trace.schedCache->counters();
        PredictorPtr pred = makePredictor("gshare", 12);
        PredictionEngine engine(*pred, ecfg);
        std::uint64_t cursor = 0;
        while (cursor < trace.size())
            cursor = engine.processBatch(trace, cursor, chunk);
        const ReplayScheduleCache::Counters after =
            trace.schedCache->counters();
        EXPECT_EQ(after.inserts, 1u);
        EXPECT_EQ(after.hits - before.hits, 1u);
        EXPECT_EQ(engine.stats(), oneshot.stats);
        EXPECT_EQ(engine.branchProfile(), oneshot.profile);
        EXPECT_EQ(engine.pguBitsInserted(), oneshot.pguBits);
        EXPECT_TRUE(stateBytes(engine) == oneshot.state);
    }
}

TEST(FastReplayEquivalence, NoScheduleCacheMatchesReference)
{
    // A trace without a schedule cache still replays from a schedule:
    // each batch captures a local one and replays from it, unpublished.
    DecodedTrace trace = recordWorkload("interp", 40000);
    trace.schedCache.reset();
    for (const auto &[name, ecfg] : configGrid()) {
        SCOPED_TRACE(name);
        const ReplayOutcome ref = runReference(trace, "gshare", ecfg);
        expectEquivalent(ref, runFast(trace, "gshare", ecfg));
        expectEquivalent(ref, runFast(trace, "gshare", ecfg));
    }
}

TEST(FastReplayEquivalence, ZeroDelayDefineAtBatchEndStaysInFlight)
{
    // The reference loop's last advanceTo/drainTo(endSeq) runs BEFORE
    // the event at endSeq, so a define there stays in flight - at
    // delay 0 too: its predicate write is still queued and its PGU
    // bit not yet injected when the batch returns. Batches ending on a
    // define, one-shot (capture, then hit) and chunked, must leave the
    // reference's bit count and checkpoint bytes at every delay.
    DecodedTrace trace = recordWorkload("interp", 40000);
    std::vector<std::uint64_t> ends; // k with event k-1 a define
    for (std::uint64_t i = 1000; i < trace.size() && ends.size() < 3; ++i)
        if (trace.inst(i).writesPredicate())
            ends.push_back(i + 1);
    ASSERT_EQ(ends.size(), 3u);

    for (const unsigned delay : {0u, 1u, 8u}) {
        EngineConfig ecfg;
        ecfg.useSfpf = true;
        ecfg.usePgu = true;
        ecfg.availDelay = delay;
        ecfg.pgu.delay = delay;
        for (const std::uint64_t k : ends) {
            SCOPED_TRACE("delay " + std::to_string(delay) + ", k " +
                         std::to_string(k));
            const ReplayOutcome ref =
                runReference(trace, "gshare", ecfg, k);
            expectEquivalent(ref, runFast(trace, "gshare", ecfg, k));
            expectEquivalent(ref, runFast(trace, "gshare", ecfg, k));

            // The same boundary inside a chunked run.
            PredictorPtr pred = makePredictor("gshare", 12);
            PredictionEngine engine(*pred, ecfg);
            std::uint64_t cursor = engine.processBatch(trace, 0, k / 2);
            cursor = engine.processBatch(trace, cursor, k - cursor);
            expectEquivalent(ref, outcomeOf(engine, cursor));
        }
    }
}

/** A loop whose only conditional branch is its back edge, after
 *  @p cmps compares on p0 (each guard-true) and the loop test: that
 *  is @p cmps + 1 defines between two consecutive branches. Each
 *  compare's threshold lies somewhere in the @p trips iterations, so
 *  its outcome flips once along the run. */
Program
defineDenseLoop(unsigned cmps, std::int64_t trips)
{
    Program p;
    p.insts.push_back(makeMovImm(1, 0));
    p.insts.push_back(makeAluImm(Opcode::Add, 1, 1, 1));
    for (unsigned j = 0; j < cmps; ++j) {
        const unsigned pd = 3 + 2 * (j % 8);
        p.insts.push_back(makeCmpImm(CmpRel::Lt, CmpType::Unc, pd, pd + 1,
                                     1, (j * 37) % trips));
    }
    p.insts.push_back(makeCmpImm(CmpRel::Lt, CmpType::Unc, 1, 2, 1, trips));
    p.insts.push_back(makeBr(1, 1));
    p.insts.push_back(makeHalt());
    return p;
}

TEST(FastReplayEquivalence, DrainOfMoreThan64BitsMatchesReference)
{
    // 71 defines between two back edges put 71 (Rel) or 142
    // (BothWrites) bits into the PGU stream, so every back edge drains
    // more than 64 at once: the per-entry injection. A batch ending
    // on the loop test drains as many at its end; one split mid-gap
    // leaves a partial drain on each side.
    constexpr unsigned cmps = 70;
    constexpr std::uint64_t period = cmps + 3; // add, cmps, test, br
    const Program prog = defineDenseLoop(cmps, 300);
    Emulator emu(prog);
    DecodedTrace trace = recordTrace(emu, 1000000);
    ASSERT_TRUE(emu.halted());
    Emulator again(prog);
    DecodedTrace uncached = recordTrace(again, 1000000);
    uncached.schedCache.reset();
    // The iteration whose add is event head: the back edges before and
    // after its gap are events head - 1 and head + period - 1.
    const std::uint64_t head = 1 + 10 * period;
    ASSERT_EQ(trace.inst(head - 1).op, Opcode::Br);
    ASSERT_EQ(trace.inst(head + period - 1).op, Opcode::Br);

    for (const bool sfpf : {false, true}) {
        for (const PguValue value : {PguValue::Rel, PguValue::BothWrites}) {
            for (const unsigned delay : {1u, 8u}) {
                EngineConfig ecfg;
                ecfg.useSfpf = sfpf;
                ecfg.usePgu = true;
                ecfg.pgu.value = value;
                ecfg.pgu.delay = delay;
                std::string label = sfpf ? "+both" : "+pgu";
                label += value == PguValue::Rel ? "/rel" : "/both-writes";
                label += "/delay ";
                label += std::to_string(delay);
                SCOPED_TRACE(label);
                const ReplayOutcome ref = runReference(trace, "gshare", ecfg);

                // Not vacuous: the reference inserts more than 64 bits
                // between the two back edges.
                PredictorPtr stepPred = makePredictor("gshare", 12);
                PredictionEngine step(*stepPred, ecfg);
                replayTraceFrom(trace, step, 0, head);
                const std::uint64_t before = step.pguBitsInserted();
                replayTraceFrom(trace, step, head, period);
                EXPECT_GT(step.pguBitsInserted() - before, 64u);

                for (const DecodedTrace *t : {&trace, &uncached}) {
                    SCOPED_TRACE(t == &trace ? "shared" : "private");
                    expectEquivalent(ref, runFast(*t, "gshare", ecfg));
                    for (const std::uint64_t split :
                         {head + 1 + cmps / 2, head + period - 1}) {
                        SCOPED_TRACE(testing::Message() << "split " << split);
                        PredictorPtr pred = makePredictor("gshare", 12);
                        PredictionEngine engine(*pred, ecfg);
                        std::uint64_t cursor =
                            engine.processBatch(*t, 0, split);
                        cursor = engine.processBatch(*t, cursor,
                                                     t->size() - cursor);
                        expectEquivalent(ref, outcomeOf(engine, cursor));
                    }
                }
            }
        }
    }
}

TEST(FastReplayEquivalence, DrainOfMoreThan255BitsUsesTheEscape)
{
    // 300 defines between two back edges: each back edge drains 301
    // (Rel) or 602 (BothWrites) bits, past the 254 a drain-count byte
    // holds, so every count goes through the schedule's side table.
    // Splits inside the gap leave part of an escaped count to a batch
    // end and the rest to the next branch.
    constexpr unsigned cmps = 300;
    constexpr std::uint64_t period = cmps + 3;
    const Program prog = defineDenseLoop(cmps, 40);
    Emulator emu(prog);
    DecodedTrace trace = recordTrace(emu, 1000000);
    ASSERT_TRUE(emu.halted());
    Emulator again(prog);
    DecodedTrace uncached = recordTrace(again, 1000000);
    uncached.schedCache.reset();
    const std::uint64_t head = 1 + 10 * period;
    ASSERT_EQ(trace.inst(head + period - 1).op, Opcode::Br);

    for (const PguValue value : {PguValue::Rel, PguValue::BothWrites}) {
        for (const unsigned delay : {1u, 64u}) {
            EngineConfig ecfg;
            ecfg.useSfpf = true;
            ecfg.usePgu = true;
            ecfg.pgu.value = value;
            ecfg.pgu.delay = delay;
            SCOPED_TRACE(std::string(value == PguValue::Rel ? "rel"
                                                            : "both-writes") +
                         "/delay " + std::to_string(delay));
            const ReplayOutcome ref = runReference(trace, "gshare", ecfg);

            // Not vacuous: the reference inserts more than 255 bits
            // between the two back edges.
            PredictorPtr stepPred = makePredictor("gshare", 12);
            PredictionEngine step(*stepPred, ecfg);
            replayTraceFrom(trace, step, 0, head);
            const std::uint64_t before = step.pguBitsInserted();
            replayTraceFrom(trace, step, head, period);
            EXPECT_GT(step.pguBitsInserted() - before, 255u);

            for (const DecodedTrace *t : {&trace, &uncached}) {
                SCOPED_TRACE(t == &trace ? "shared" : "private");
                expectEquivalent(ref, runFast(*t, "gshare", ecfg));
                for (const std::uint64_t split :
                     {head + 1 + cmps / 2, head + period - 1 - delay,
                      head + period - 1}) {
                    SCOPED_TRACE(testing::Message() << "split " << split);
                    PredictorPtr pred = makePredictor("gshare", 12);
                    PredictionEngine engine(*pred, ecfg);
                    std::uint64_t cursor = engine.processBatch(*t, 0, split);
                    cursor =
                        engine.processBatch(*t, cursor, t->size() - cursor);
                    expectEquivalent(ref, outcomeOf(engine, cursor));
                }
            }
        }
    }
}

TEST(FastReplayEquivalence, SharedBatchEndsNearABranchMatchReference)
{
    // A batch end drains what is ripe at its last event, which may be
    // part of the next branch's drain count; the next batch drains the
    // rest. On the shared schedule, end a batch at every event within
    // delay of each of a few branches: the engine state at the end
    // must be the reference's at that cursor, and the batch after it
    // must reach the reference's final state.
    DecodedTrace trace = recordWorkload("interp", 6000);
    std::vector<std::uint64_t> branches;
    for (std::uint64_t i = 0; i < trace.size(); ++i)
        if (trace.cls[i] ==
            static_cast<std::uint8_t>(DecodedTrace::Class::CondBranch))
            branches.push_back(i);
    ASSERT_GT(branches.size(), 100u);
    const std::uint64_t picks[] = {branches[3], branches[branches.size() / 2],
                                   branches[branches.size() * 3 / 4]};
    ASSERT_LT(picks[2] + 64 + 1, trace.size());

    for (const PguValue value : {PguValue::Rel, PguValue::BothWrites}) {
        for (const unsigned delay : {1u, 8u, 64u}) {
            EngineConfig ecfg;
            ecfg.useSfpf = true;
            ecfg.usePgu = true;
            ecfg.pgu.value = value;
            ecfg.pgu.delay = delay;
            SCOPED_TRACE(std::string(value == PguValue::Rel ? "rel"
                                                            : "both-writes") +
                         "/delay " + std::to_string(delay));
            const ReplayOutcome whole = runReference(trace, "gshare", ecfg);
            PredictorPtr refPred = makePredictor("gshare", 12);
            PredictionEngine ref(*refPred, ecfg);
            std::uint64_t refAt = 0;
            for (const std::uint64_t branch : picks) {
                // Batch ends (one past the last event) from delay
                // before the branch to delay after it.
                const std::uint64_t lo = branch > delay ? branch - delay : 1;
                for (std::uint64_t split = lo; split <= branch + delay + 1;
                     ++split) {
                    SCOPED_TRACE(testing::Message()
                                 << "branch " << branch << ", split "
                                 << split);
                    ASSERT_GE(split, refAt);
                    refAt = replayTraceFrom(trace, ref, refAt, split - refAt);
                    PredictorPtr pred = makePredictor("gshare", 12);
                    PredictionEngine engine(*pred, ecfg);
                    std::uint64_t cursor = engine.processBatch(trace, 0, split);
                    ASSERT_EQ(cursor, split);
                    if (engine.pguBitsInserted() != ref.pguBitsInserted() ||
                        stateBytes(engine) != stateBytes(ref)) {
                        ADD_FAILURE() << "state differs at the batch end";
                        return;
                    }
                    cursor = engine.processBatch(trace, cursor,
                                                 trace.size() - cursor);
                    const ReplayOutcome got = outcomeOf(engine, cursor);
                    if (got.pguBits != whole.pguBits ||
                        got.state != whole.state ||
                        !(got.stats == whole.stats)) {
                        ADD_FAILURE() << "state differs at the trace end";
                        return;
                    }
                }
            }
        }
    }
}

TEST(FastReplayEquivalence, ScheduleHoldsGuardsAndBitStreamOnly)
{
    // A cold engine replaying a trace whole publishes one schedule: a
    // guard byte per conditional branch under the SFPF, a drain-count
    // byte per conditional branch, and the PGU stream one bit per bit
    // - every bit the trace's defines produce, inserted or still
    // pending at the end - plus its padding word. A per-branch word or
    // a per-bit byte beside them breaks the bound.
    for (const char *wl : {"interp", "filter"}) {
        DecodedTrace trace = recordWorkload(wl, 40000);
        for (const bool sfpf : {true, false}) {
            SCOPED_TRACE(std::string(wl) + (sfpf ? "/+both" : "/+pgu"));
            EngineConfig ecfg;
            ecfg.useSfpf = sfpf;
            ecfg.usePgu = true;
            const std::uint64_t before = trace.schedCache->bytes();
            const ReplayOutcome fast = runFast(trace, "gshare", ecfg);

            PredictorPtr pred = makePredictor("gshare", 12);
            const PredicateGlobalUpdate pgu(*pred, ecfg.pgu);
            std::uint64_t entries = 0;
            for (std::uint64_t i = 0; i < trace.size(); ++i)
                pgu.observeInto(trace.materialise(i),
                                [&](const auto &) { ++entries; });
            EXPECT_GT(fast.pguBits, 0u);
            EXPECT_GE(entries, fast.pguBits);
            const std::uint64_t branches = fast.stats.all.branches;
            const std::uint64_t bound = sizeof(ReplaySchedule) +
                (sfpf ? branches : 0) + branches + 8 * (entries / 64 + 2);
            EXPECT_LE(trace.schedCache->bytes() - before, bound);
        }
    }
}

TEST(FastReplayEquivalence, PackedStreamIsAQuarterOfEightByteEntries)
{
    // A 1.5M-event suite trace's +both schedule against the layout it
    // replaced: a guard byte per branch and eight bytes per history
    // bit. interp queues the fewest bits per branch of the suite, so
    // its ratio is the suite's smallest (5.4; fsm's is 13.2).
    DecodedTrace trace = recordWorkload("interp", 1500000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;
    const ReplayOutcome fast = runFast(trace, "gshare", ecfg);
    PredictorPtr pred = makePredictor("gshare", 12);
    const PredicateGlobalUpdate pgu(*pred, ecfg.pgu);
    std::uint64_t entries = 0;
    for (std::uint64_t i = 0; i < trace.size(); ++i)
        pgu.observeInto(trace.materialise(i), [&](const auto &) { ++entries; });
    const std::uint64_t eightByteLayout = sizeof(ReplaySchedule) +
        fast.stats.all.branches + 8 * entries;
    EXPECT_LE(4 * trace.schedCache->bytes(), eightByteLayout);
}

// ---------------------------------------------------------------------
// Shared-schedule addressing: an engine on the cold contiguous path
// reads the trace's one schedule at its own cursors, with the PGU
// queue committed at every batch end and the predicate file settled
// lazily; every other batch captures privately and publishes nothing.

/** The engine state after each slice vs the reference loop's at the
 *  same cursor; the first mismatch fails. */
void
expectSameAtEverySlice(const DecodedTrace &trace, const EngineConfig &ecfg,
                       std::uint64_t chunk, std::uint64_t limit)
{
    PredictorPtr predRef = makePredictor("gshare", 10);
    PredictionEngine ref(*predRef, ecfg);
    PredictorPtr predFast = makePredictor("gshare", 10);
    PredictionEngine fast(*predFast, ecfg);
    std::uint64_t cursor = 0;
    while (cursor < limit) {
        const std::uint64_t next = fast.processBatch(trace, cursor, chunk);
        ASSERT_EQ(replayTraceFrom(trace, ref, cursor, chunk), next);
        cursor = next;
        if (!(fast.stats() == ref.stats()) ||
            !(fast.branchProfile() == ref.branchProfile()) ||
            fast.pguBitsInserted() != ref.pguBitsInserted() ||
            stateBytes(fast) != stateBytes(ref)) {
            ADD_FAILURE() << "engines differ at cursor " << cursor;
            return;
        }
    }
    EXPECT_GT(ref.stats().all.branches, 0u);
}

TEST(FastReplayEquivalence, ColdPathStateMatchesReferenceAfterEverySlice)
{
    DecodedTrace trace = recordWorkload("interp", 20000);
    std::vector<std::pair<std::string, EngineConfig>> configs(3);
    configs[0].first = "+sfpf";
    configs[0].second.useSfpf = true;
    configs[1].first = "+pgu";
    configs[1].second.usePgu = true;
    configs[2].first = "+both";
    configs[2].second.useSfpf = true;
    configs[2].second.usePgu = true;
    for (const unsigned delay : {0u, 1u, 8u}) {
        for (auto [name, ecfg] : configs) {
            ecfg.availDelay = delay;
            ecfg.pgu.delay = delay;
            for (const std::uint64_t chunk : {1u, 7u, 1024u, 4097u}) {
                SCOPED_TRACE(name + ", delay " + std::to_string(delay) +
                             ", chunk " + std::to_string(chunk));
                // Slices of one event save state 500 times; that
                // prefix already crosses dozens of defines.
                expectSameAtEverySlice(
                    trace, ecfg, chunk,
                    std::min<std::uint64_t>(trace.size(), 500 * chunk));
            }
        }
    }
}

TEST(FastReplayEquivalence, OffPathBatchesMatchReferenceAndPublishNothing)
{
    // A fresh engine whose first batch starts past event 0, and a
    // batch after loadState(), leave the path: each captures from its
    // own entry state, matches the reference and counts nothing. The
    // late start runs the PGU alone: a cold predicate file mid-trace
    // would let the SFPF squash a taken branch, which both loops
    // assert against.
    DecodedTrace trace = recordWorkload("interp", 40000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;
    EngineConfig pguOnly;
    pguOnly.usePgu = true;
    for (const std::uint64_t k : {1u, 7777u, 20001u}) {
        SCOPED_TRACE("cursor " + std::to_string(k));
        const ReplayScheduleCache::Counters before =
            trace.schedCache->counters();

        PredictorPtr predRef = makePredictor("gshare", 12);
        PredictionEngine ref(*predRef, pguOnly);
        replayTraceFrom(trace, ref, k, trace.size());
        PredictorPtr predLate = makePredictor("gshare", 12);
        PredictionEngine late(*predLate, pguOnly);
        std::uint64_t cursor = k;
        while (cursor < trace.size())
            cursor = late.processBatch(trace, cursor, 4097);
        expectEquivalent(outcomeOf(ref, trace.size()),
                         outcomeOf(late, cursor));

        PredictorPtr predHalf = makePredictor("gshare", 12);
        PredictionEngine half(*predHalf, ecfg);
        replayTraceFrom(trace, half, 0, k);
        std::istringstream saved(stateBytes(half));
        StateSource src(saved);
        PredictorPtr predResumed = makePredictor("gshare", 12);
        PredictionEngine resumed(*predResumed, ecfg);
        ASSERT_TRUE(resumed.loadState(src).ok());
        cursor = k;
        while (cursor < trace.size())
            cursor = resumed.processBatch(trace, cursor, 4097);
        expectEquivalent(runReference(trace, "gshare", ecfg),
                         outcomeOf(resumed, cursor));

        const ReplayScheduleCache::Counters after =
            trace.schedCache->counters();
        EXPECT_EQ(after.inserts, before.inserts);
        EXPECT_EQ(after.hits, before.hits);
    }
}

TEST(FastReplayEquivalence, TwoThreadsOnOneTraceCaptureOneSchedule)
{
    // Single flight: two engines racing to the trace's first schedule
    // for one configuration give one insert and one hit, and both
    // replay the reference.
    DecodedTrace trace = recordWorkload("fsm", 40000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;
    const ReplayOutcome ref = runReference(trace, "gshare", ecfg);
    ReplayOutcome got[2];
    std::atomic<int> ready{0};
    auto replay = [&](int t) {
        PredictorPtr pred = makePredictor("gshare", 12);
        PredictionEngine engine(*pred, ecfg);
        ready.fetch_add(1);
        while (ready.load() < 2)
            std::this_thread::yield();
        std::uint64_t cursor = 0;
        while (cursor < trace.size())
            cursor = engine.processBatch(trace, cursor, 1024);
        got[t] = outcomeOf(engine, cursor);
    };
    std::thread a(replay, 0), b(replay, 1);
    a.join();
    b.join();
    EXPECT_EQ(trace.schedCache->counters().inserts, 1u);
    EXPECT_EQ(trace.schedCache->counters().hits, 1u);
    expectEquivalent(ref, got[0]);
    expectEquivalent(ref, got[1]);
}

TEST(ReplayScheduleCache, CaptureFailureReachesEveryWaiter)
{
    // The capture that fails hands its own error to the engine waiting
    // on its slot and to every later one of that configuration.
    ReplayScheduleCache cache;
    std::atomic<int> captures{0};
    auto failing = [&]() -> std::shared_ptr<const ReplaySchedule> {
        ++captures;
        // Fail only once the other thread waits on this slot.
        while (cache.counters().hits < 1)
            std::this_thread::yield();
        throw std::runtime_error("capture failed: lane 3 unreadable");
    };
    auto obtainError = [&] {
        try {
            cache.obtain(1, 2, failing);
        } catch (const std::exception &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    std::string seen[3];
    std::thread a([&] { seen[0] = obtainError(); });
    std::thread b([&] { seen[1] = obtainError(); });
    a.join();
    b.join();
    seen[2] = obtainError();
    for (const std::string &what : seen)
        EXPECT_EQ(what, "capture failed: lane 3 unreadable");
    EXPECT_EQ(captures.load(), 1);
    EXPECT_EQ(cache.counters().inserts, 1u);
    EXPECT_EQ(cache.counters().hits, 2u);
    EXPECT_EQ(cache.bytes(), 0u);
}

// ---------------------------------------------------------------------
// Cursor contracts.

TEST(FastReplayEquivalence, ChunkedBatchesMatchOneShot)
{
    DecodedTrace trace = recordWorkload("interp", 40000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.usePgu = true;

    ReplayOutcome oneshot = runFast(trace, "gshare", ecfg);

    // Deliberately awkward chunk size: chunks end mid-define-window,
    // so the deferred advance/drain sync at each batch boundary is
    // what keeps the state machines aligned.
    PredictorPtr pred = makePredictor("gshare", 12);
    PredictionEngine engine(*pred, ecfg);
    std::uint64_t cursor = 0;
    while (cursor < trace.size())
        cursor = engine.processBatch(trace, cursor, 7777);
    EXPECT_EQ(cursor, trace.size());
    EXPECT_EQ(engine.stats(), oneshot.stats);
    EXPECT_EQ(engine.branchProfile(), oneshot.profile);
    EXPECT_EQ(engine.pguBitsInserted(), oneshot.pguBits);
}

TEST(FastReplayEquivalence, ProcessBatchClampsPastTheEnd)
{
    DecodedTrace trace = recordWorkload("bsort", 5000);
    PredictorPtr pred = makePredictor("gshare", 12);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    PredictionEngine engine(*pred, ecfg);

    engine.processBatch(trace, 0, trace.size());
    const EngineStats done = engine.stats();

    // At the end and past it: nothing processed, cursor returned
    // UNCHANGED (not yanked back to size()), no counter moves.
    EXPECT_EQ(engine.processBatch(trace, trace.size(), 100), trace.size());
    EXPECT_EQ(engine.processBatch(trace, trace.size() + 7, 100),
              trace.size() + 7);
    EXPECT_EQ(engine.stats(), done);
}

TEST(FastReplayEquivalence, ReplayTraceFromClampsPastTheEnd)
{
    // Regression for the resume-cursor clamp bug: replayTraceFrom
    // with first PAST the end used to misbehave instead of returning
    // the cursor unchanged - a resume positioned past a shorter trace
    // would silently re-run events.
    DecodedTrace trace = recordWorkload("bsort", 5000);
    PredictorPtr pred = makePredictor("gshare", 12);
    EngineConfig ecfg;
    PredictionEngine engine(*pred, ecfg);

    replayTraceFrom(trace, engine, 0, trace.size());
    const EngineStats done = engine.stats();

    EXPECT_EQ(replayTraceFrom(trace, engine, trace.size(), 100),
              trace.size());
    EXPECT_EQ(replayTraceFrom(trace, engine, trace.size() + 9, 100),
              trace.size() + 9);
    EXPECT_EQ(engine.stats(), done)
        << "a clamped replay must not process any event";
}

// ---------------------------------------------------------------------
// Outcome bytes and sequence-offset windows: the cycle-level pipeline
// records its stream into a reused window whose lane 0 is event
// firstSeq, lets processBatch decide the window and times each event
// from the outcome byte the batch wrote. Both halves must equal the
// reference: the bytes packOutcome(process()) per event, and the
// engine state a whole-trace batch leaves however the stream is cut.

/** The five technique corners the Timed cells run. */
std::vector<std::pair<std::string, EngineConfig>>
timedConfigs()
{
    std::vector<std::pair<std::string, EngineConfig>> out;
    EngineConfig base;
    base.modelTargets = true;
    out.emplace_back("base", base);
    EngineConfig sfpf = base;
    sfpf.useSfpf = true;
    out.emplace_back("+sfpf", sfpf);
    EngineConfig pgu = base;
    pgu.usePgu = true;
    out.emplace_back("+pgu", pgu);
    EngineConfig both = sfpf;
    both.usePgu = true;
    out.emplace_back("+both", both);
    EngineConfig spec = both;
    spec.useSpeculativeSquash = true;
    spec.specGate = EngineConfig::SpecGate::Jrs;
    out.emplace_back("+both+spec-jrs", spec);
    return out;
}

/** Refill @p w, whose program is @p trace's, with events [@p first,
 *  @p first + @p n) of @p trace: its own lanes and firstSeq = @p first
 *  (a window carries no schedule cache). */
void
fillWindow(DecodedTrace &w, const DecodedTrace &trace,
           std::uint64_t first, std::uint64_t n)
{
    w.firstSeq = first;
    const auto slice = [&](const auto &lane) {
        return std::decay_t<decltype(lane)>(
            lane.begin() + static_cast<std::ptrdiff_t>(first),
            lane.begin() + static_cast<std::ptrdiff_t>(first + n));
    };
    w.pcs = slice(trace.pcs);
    w.cls = slice(trace.cls);
    w.flags = slice(trace.flags);
    w.endPc = trace.nextPc(first + n - 1);
}

TEST(OutcomeLane, BatchBytesEqualPackedProcessResults)
{
    for (const std::string &wl : workloadNames()) {
        const DecodedTrace trace = recordWorkload(wl, 30000);
        for (const auto &[name, ecfg] : timedConfigs()) {
            SCOPED_TRACE(wl + "/" + name);
            PredictorPtr predA = makePredictor("gshare", 12);
            PredictionEngine ref(*predA, ecfg);
            std::vector<std::uint8_t> want(trace.size());
            for (std::size_t i = 0; i < trace.size(); ++i)
                want[i] = packOutcome(ref.process(trace.materialise(i)));

            // One batch, and 4096-event batches writing at their own
            // offset of the same buffer.
            PredictorPtr predB = makePredictor("gshare", 12);
            PredictionEngine one(*predB, ecfg);
            std::vector<std::uint8_t> got(trace.size(), 0xff);
            one.processBatch(trace, 0, trace.size(), got.data());
            PredictorPtr predC = makePredictor("gshare", 12);
            PredictionEngine chunked(*predC, ecfg);
            std::vector<std::uint8_t> got_chunked(trace.size(), 0xff);
            for (std::uint64_t c = 0; c < trace.size();)
                c = chunked.processBatch(trace, c, 4096,
                                         got_chunked.data() + c);

            EXPECT_EQ(one.stats(), ref.stats());
            EXPECT_EQ(chunked.stats(), ref.stats());
            std::size_t first_diff = trace.size();
            for (std::size_t i = 0; i < trace.size(); ++i) {
                if (got[i] != want[i] || got_chunked[i] != want[i]) {
                    first_diff = i;
                    break;
                }
            }
            EXPECT_EQ(first_diff, trace.size())
                << "want " << int(want[first_diff]) << ", one batch "
                << int(got[first_diff]) << ", chunked "
                << int(got_chunked[first_diff]);
            // Vacuity guard: mispredicts and target misses occurred.
            const auto has = [&](std::uint8_t bit) {
                return std::any_of(want.begin(), want.end(),
                                   [bit](std::uint8_t b) { return b & bit; });
            };
            EXPECT_TRUE(has(outcomeMispredicted));
            EXPECT_TRUE(has(outcomeTargetMiss));
        }
    }
}

TEST(OutcomeLane, ReturnBytesCarryTheRasVerdict)
{
    // The suite has no calls; the fuzz generator's call wrapper does.
    // Every taken return reports outcomeRasReturn, with
    // outcomeRasCorrect exactly when the engine counted a RAS hit.
    fuzz::FuzzProgramConfig gen;
    gen.callDepth = 4;
    const fuzz::FuzzPrograms progs = fuzz::buildFuzzPrograms(7, gen);
    Emulator emu(progs.converted.prog);
    if (progs.body.init)
        progs.body.init(emu.state());
    const DecodedTrace trace = recordTrace(emu, 30000);
    EngineConfig ecfg;
    ecfg.modelTargets = true;
    ecfg.rasDepth = 2; // shallow enough to overflow: misses occur
    PredictorPtr pred = makePredictor("gshare", 12);
    PredictionEngine engine(*pred, ecfg);
    std::vector<std::uint8_t> bytes(trace.size());
    engine.processBatch(trace, 0, trace.size(), bytes.data());
    std::uint64_t returns = 0, correct = 0;
    for (std::uint8_t b : bytes) {
        returns += (b & outcomeRasReturn) != 0;
        correct += (b & outcomeRasCorrect) != 0;
    }
    EXPECT_EQ(correct, engine.stats().rasHits);
    EXPECT_EQ(returns, engine.stats().rasHits + engine.stats().rasMisses);
    EXPECT_GT(engine.stats().rasHits, 0u);
    EXPECT_GT(engine.stats().rasMisses, 0u);
}

/**
 * Replay @p trace in windows of @p size events, each a refilled
 * window with its own firstSeq, and expect the engine state one
 * whole-trace batch leaves. Delays longer than every window keep
 * predicate writes and PGU bits in flight across several window
 * boundaries, so the carried queues must hold global sequence numbers.
 */
void
expectWindowsMatchWholeTrace(const DecodedTrace &trace,
                             std::initializer_list<std::uint64_t> sizes)
{
    for (auto [name, ecfg] : timedConfigs()) {
        for (const unsigned delay : {8u, 5000u}) {
            ecfg.availDelay = delay;
            ecfg.pgu.delay = delay;
            PredictorPtr pred = makePredictor("gshare", 12);
            PredictionEngine whole(*pred, ecfg);
            whole.processBatch(trace, 0, trace.size());
            if (ecfg.usePgu) {
                EXPECT_GT(whole.pguBitsInserted(), 0u);
            }
            for (const std::uint64_t size : sizes) {
                SCOPED_TRACE(name + "/delay " + std::to_string(delay) +
                             "/window " + std::to_string(size));
                PredictorPtr wpred = makePredictor("gshare", 12);
                PredictionEngine windowed(*wpred, ecfg);
                DecodedTrace w;
                w.setProgram(trace.prog);
                for (std::uint64_t s = 0; s < trace.size(); s += size) {
                    const std::uint64_t n =
                        std::min<std::uint64_t>(size, trace.size() - s);
                    fillWindow(w, trace, s, n);
                    ASSERT_EQ(windowed.processBatch(w, 0, n), n);
                }
                EXPECT_EQ(windowed.stats(), whole.stats());
                EXPECT_EQ(windowed.branchProfile(), whole.branchProfile());
                EXPECT_EQ(windowed.pguBitsInserted(),
                          whole.pguBitsInserted());
                EXPECT_TRUE(stateBytes(windowed) == stateBytes(whole));
            }
        }
    }
}

TEST(OutcomeLane, OffsetWindowsMatchOneWholeTraceBatch)
{
    for (const char *wl : {"interp", "dchain", "fsm"}) {
        SCOPED_TRACE(wl);
        expectWindowsMatchWholeTrace(recordWorkload(wl, 12000),
                                     {4095, 4096, 4097});
    }
}

TEST(OutcomeLane, TinyOffsetWindowsMatchOneWholeTraceBatch)
{
    expectWindowsMatchWholeTrace(recordWorkload("interp", 12000), {1, 7});
}

TEST(FastReplayEquivalence, LiveWindowPguMatchesRunTraceAtEveryDelay)
{
    // A LiveWindow batch captures a private schedule whose stream
    // starts with the carried queue. At delay 64 a define's bits stay
    // pending across a window boundary; at delay 1 they ripen at the
    // next event. Budgets of 4095 and 12289 end mid-window.
    Workload wl = makeWorkload("interp", 42);
    const Program prog = compileWorkload(wl, CompileOptions{}).prog;
    for (const PguValue value : {PguValue::Rel, PguValue::BothWrites}) {
        for (const bool sfpf : {false, true}) {
            for (const unsigned delay : {1u, 8u, 64u}) {
                for (const std::uint64_t n : {4095u, 12289u}) {
                    EngineConfig ecfg;
                    ecfg.useSfpf = sfpf;
                    ecfg.usePgu = true;
                    ecfg.pgu.value = value;
                    ecfg.pgu.delay = delay;
                    SCOPED_TRACE(testing::Message()
                                 << (sfpf ? "+both" : "+pgu")
                                 << (value == PguValue::Rel ? "/rel"
                                                            : "/both-writes")
                                 << "/delay " << delay << "/n " << n);
                    PredictorPtr refPred = makePredictor("gshare", 12);
                    PredictionEngine ref(*refPred, ecfg);
                    Emulator refEmu(prog);
                    wl.init(refEmu.state());
                    ASSERT_EQ(runTrace(refEmu, ref, n), n);

                    PredictorPtr pred = makePredictor("gshare", 12);
                    PredictionEngine engine(*pred, ecfg);
                    Emulator emu(prog);
                    wl.init(emu.state());
                    LiveWindow live;
                    ASSERT_EQ(live.run(emu, engine, n), n);
                    EXPECT_GT(engine.pguBitsInserted(), 0u);
                    expectEquivalent(outcomeOf(ref, n), outcomeOf(engine, n));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// ProcessResult flag separation: a speculative squash is a GUESS and
// is never folded into the certain SFPF `squashed` flag.

TEST(ProcessResultFlags, SpecSquashedIsDistinctFromSquashed)
{
    DecodedTrace trace = recordWorkload("interp", 60000);
    EngineConfig ecfg;
    ecfg.useSfpf = true;
    ecfg.useSpeculativeSquash = true;
    PredictorPtr pred = makePredictor("gshare", 12);
    PredictionEngine engine(*pred, ecfg);

    std::uint64_t squashed = 0, spec = 0, spec_mispredicts = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ProcessResult r = engine.process(trace.materialise(i));
        if (r.squashed || r.specSquashed) {
            EXPECT_TRUE(r.condBranch);
        }
        // Mutually exclusive by construction: the certain filter wins
        // and the speculative path only considers unresolved guards.
        EXPECT_FALSE(r.squashed && r.specSquashed) << i;
        if (r.squashed) {
            ++squashed;
            // Resolved-false guard: architecturally not-taken, so a
            // squash is never a mispredict.
            EXPECT_FALSE(r.mispredicted) << i;
        }
        if (r.specSquashed) {
            ++spec;
            spec_mispredicts += r.mispredicted;
        }
    }

    ASSERT_GT(squashed, 0u);
    ASSERT_GT(spec, 0u) << "config must actually exercise the "
                           "speculative path";
    EXPECT_EQ(squashed, engine.stats().all.squashed);
    EXPECT_EQ(spec, engine.stats().specSquashed);
    // The per-result flag is the only honest way to see speculative
    // wrongness at the pipeline interface; the aggregate agrees.
    EXPECT_EQ(spec_mispredicts, engine.stats().specSquashedWrong);
}

// ---------------------------------------------------------------------
// Sweep integration: the fast path is an execution strategy, not a
// configuration - identical fingerprints, identical metric BYTES.

std::vector<RunSpec>
sweepGrid(const std::string &dir, bool fast)
{
    std::vector<RunSpec> specs;
    for (const char *name : {"bsort", "interp", "dchain"}) {
        for (int armed = 0; armed < 2; ++armed) {
            RunSpec spec;
            spec.workload = name;
            spec.engine.useSfpf = armed != 0;
            spec.engine.usePgu = armed != 0;
            spec.maxInsts = 15000;
            spec.metricsDir = dir;
            spec.fastReplay = fast;
            specs.push_back(spec);
        }
    }
    return specs;
}

TEST(SweepFastReplay, MetricsFilesAreByteIdenticalToReference)
{
    const std::string fast_dir = tempPath("fast");
    const std::string ref_dir = tempPath("ref");
    std::vector<RunSpec> fast = sweepGrid(fast_dir, true);
    std::vector<RunSpec> ref = sweepGrid(ref_dir, false);

    SweepRunner fast_runner(SweepRunner::Config{1, 0});
    SweepRunner ref_runner(SweepRunner::Config{1, 0});
    std::vector<RunResult> fast_results = fast_runner.run(fast);
    std::vector<RunResult> ref_results = ref_runner.run(ref);

    for (std::size_t i = 0; i < fast.size(); ++i) {
        SCOPED_TRACE(fast[i].workload + "#" + std::to_string(i));
        ASSERT_TRUE(fast_results[i].status.ok())
            << fast_results[i].status.toString();
        ASSERT_TRUE(ref_results[i].status.ok())
            << ref_results[i].status.toString();
        EXPECT_EQ(fast_results[i].engine, ref_results[i].engine);
        EXPECT_EQ(fast_results[i].profile, ref_results[i].profile);
        EXPECT_EQ(fast_results[i].pguBits, ref_results[i].pguBits);

        // fastReplay is NOT a behaviour-defining field: both cells
        // share one fingerprint, hence one metrics filename, and the
        // exported bytes match exactly.
        const std::uint64_t fp = bench::specFingerprint(fast[i]);
        ASSERT_EQ(fp, bench::specFingerprint(ref[i]));
        const std::string fast_file =
            bench::metricsFilePath(fast_dir, fp);
        const std::string ref_file =
            bench::metricsFilePath(ref_dir, fp);
        EXPECT_EQ(readFile(fast_file), readFile(ref_file));
        std::remove(fast_file.c_str());
        std::remove(ref_file.c_str());
    }

    // The fast grid decodes each workload's trace once and shares it
    // across both configs; the reference grid never touches the
    // decoded-trace cache.
    EXPECT_EQ(fast_runner.cacheStats().records, 3u);
    EXPECT_EQ(fast_runner.cacheStats().traceHits, 3u);
    EXPECT_EQ(ref_runner.cacheStats().records, 0u);
    EXPECT_EQ(ref_runner.cacheStats().traceHits, 0u);
}

TEST(SweepFastReplay, CacheStatsCountScheduleTraffic)
{
    // Two predictors over one armed trace: the first cell captures the
    // replay schedule, the second replays from it. run() frees the
    // trace after its last cell, so its traffic is counted at release;
    // runOne() cells leave theirs cached, counted at cacheStats().
    std::vector<RunSpec> specs;
    for (const char *pred : {"gshare", "perceptron"}) {
        RunSpec spec;
        spec.workload = "interp";
        spec.predictor = pred;
        spec.engine.useSfpf = true;
        spec.engine.usePgu = true;
        spec.maxInsts = 15000;
        spec.fastReplay = true;
        specs.push_back(spec);
    }
    SweepRunner released(SweepRunner::Config{1, 0});
    for (const RunResult &r : released.run(specs))
        ASSERT_TRUE(r.status.ok()) << r.status.toString();
    SweepRunner live(SweepRunner::Config{1, 0});
    for (const RunSpec &spec : specs)
        ASSERT_TRUE(live.runOne(spec).status.ok());

    for (const SweepRunner *runner : {&released, &live}) {
        const SweepRunner::CacheStats stats = runner->cacheStats();
        EXPECT_EQ(stats.scheduleInserts, 1u);
        EXPECT_EQ(stats.scheduleHits, 1u);
    }
    EXPECT_EQ(released.cacheStats().traceReleases, 1u);
    EXPECT_EQ(live.cacheStats().traceReleases, 0u);
}

TEST(SweepFastReplay, CacheStatsCountLiveLaneAndScheduleBytes)
{
    // Two 15000-event traces, 9 lane bytes an event. run() on one
    // worker frees each trace after its last cell, so at most one is
    // live; runOne() cells leave both cached. Only an armed cell
    // captures replay schedules.
    constexpr std::uint64_t events = 15000;
    for (bool armed : {false, true}) {
        SCOPED_TRACE(armed ? "+both" : "base");
        std::vector<RunSpec> specs;
        for (const char *wl : {"interp", "filter"}) {
            RunSpec spec;
            spec.workload = wl;
            spec.engine.useSfpf = armed;
            spec.engine.usePgu = armed;
            spec.maxInsts = events;
            spec.fastReplay = true;
            specs.push_back(spec);
        }
        SweepRunner released(SweepRunner::Config{1, 0});
        for (const RunResult &r : released.run(specs))
            ASSERT_TRUE(r.status.ok()) << r.status.toString();
        SweepRunner live(SweepRunner::Config{1, 0});
        for (const RunSpec &spec : specs)
            ASSERT_TRUE(live.runOne(spec).status.ok());

        EXPECT_EQ(released.cacheStats().peakLaneBytes, 6 * events);
        EXPECT_EQ(live.cacheStats().peakLaneBytes, 2 * 6 * events);
        const std::uint64_t one_schedule =
            released.cacheStats().peakScheduleBytes;
        if (armed) {
            EXPECT_GT(one_schedule, 0u);
            EXPECT_GT(live.cacheStats().peakScheduleBytes, one_schedule);
        } else {
            EXPECT_EQ(one_schedule, 0u);
            EXPECT_EQ(live.cacheStats().peakScheduleBytes, 0u);
        }
    }
}

} // namespace
} // namespace pabp
