/**
 * @file
 * Functional-simulator tests: ALU semantics, the IA-64 compare-type
 * truth table, guarded execution, memory, control flow, call/ret,
 * and the runaway fuse.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>

#include "isa/program.hh"
#include "sim/emulator.hh"

namespace pabp {
namespace {

/** Run a short program to completion (or 10k inst fuse). */
Emulator
runProgram(Program &p)
{
    EXPECT_EQ(validateProgram(p), "");
    EmuConfig cfg;
    cfg.memWords = 1 << 12;
    cfg.maxInsts = 10000;
    Emulator emu(p, cfg);
    emu.run(10000);
    return emu;
}

TEST(Emulator, AluBasics)
{
    Program p;
    p.name = "alu";
    p.insts = {
        makeMovImm(1, 20),
        makeMovImm(2, 3),
        makeAlu(Opcode::Add, 3, 1, 2),
        makeAlu(Opcode::Sub, 4, 1, 2),
        makeAlu(Opcode::Mul, 5, 1, 2),
        makeAlu(Opcode::Div, 6, 1, 2),
        makeAlu(Opcode::And, 7, 1, 2),
        makeAlu(Opcode::Or, 8, 1, 2),
        makeAlu(Opcode::Xor, 9, 1, 2),
        makeAluImm(Opcode::Shl, 10, 1, 2),
        makeAluImm(Opcode::Shr, 11, 1, 2),
        makeHalt(),
    };
    Emulator emu = runProgram(p);
    const ArchState &st = emu.state();
    EXPECT_EQ(st.readGpr(3), 23);
    EXPECT_EQ(st.readGpr(4), 17);
    EXPECT_EQ(st.readGpr(5), 60);
    EXPECT_EQ(st.readGpr(6), 6);
    EXPECT_EQ(st.readGpr(7), 20 & 3);
    EXPECT_EQ(st.readGpr(8), 20 | 3);
    EXPECT_EQ(st.readGpr(9), 20 ^ 3);
    EXPECT_EQ(st.readGpr(10), 80);
    EXPECT_EQ(st.readGpr(11), 5);
}

TEST(Emulator, DivByZeroYieldsZero)
{
    Program p;
    p.insts = {makeMovImm(1, 7), makeAluImm(Opcode::Div, 2, 1, 0),
               makeHalt()};
    Emulator emu = runProgram(p);
    EXPECT_EQ(emu.state().readGpr(2), 0);
}

TEST(Emulator, DivOverflowWrapsToMin)
{
    // INT64_MIN / -1 traps on real hardware (the quotient does not
    // fit); the emulator defines it as wrapping to INT64_MIN so the
    // operation can never invoke C++ UB whatever a workload computes.
    const std::int64_t min = std::numeric_limits<std::int64_t>::min();
    Program p;
    p.insts = {makeMovImm(1, min), makeMovImm(2, -1),
               makeAlu(Opcode::Div, 3, 1, 2),
               makeAluImm(Opcode::Div, 4, 1, -1),
               makeAluImm(Opcode::Div, 5, 1, 0), makeHalt()};
    Emulator emu = runProgram(p);
    EXPECT_EQ(emu.state().readGpr(3), min);
    EXPECT_EQ(emu.state().readGpr(4), min);
    EXPECT_EQ(emu.state().readGpr(5), 0); // min/0 is still div-by-zero
}

TEST(Emulator, R0IsHardwiredZero)
{
    Program p;
    p.insts = {makeMovImm(0, 99), makeAluImm(Opcode::Add, 1, 0, 5),
               makeHalt()};
    Emulator emu = runProgram(p);
    EXPECT_EQ(emu.state().readGpr(0), 0);
    EXPECT_EQ(emu.state().readGpr(1), 5);
}

TEST(Emulator, GuardFalseSuppressesWrite)
{
    Program p;
    // p5 is false at reset; the guarded move must not execute.
    p.insts = {makeMovImm(1, 1), makeMovImm(2, 42, 5), makeHalt()};
    Emulator emu = runProgram(p);
    EXPECT_EQ(emu.state().readGpr(2), 0);
}

TEST(Emulator, GuardTrueExecutes)
{
    Program p;
    p.insts = {
        makeCmpImm(CmpRel::Eq, CmpType::Normal, 5, 6, 0, 0), // p5=1
        makeMovImm(2, 42, 5),
        makeHalt(),
    };
    Emulator emu = runProgram(p);
    EXPECT_EQ(emu.state().readGpr(2), 42);
}

// The IA-64 compare-type truth table: for each (type, guard, rel)
// combination, which writes happen and with what values.
struct CmpCase
{
    CmpType type;
    bool guard;
    bool rel;
    // Expected final values of p10/p11, which start preset to true.
    bool p1After;
    bool p2After;
};

class CmpTypeTruthTable : public ::testing::TestWithParam<CmpCase>
{};

TEST_P(CmpTypeTruthTable, MatchesArchitectureManual)
{
    const CmpCase &c = GetParam();
    Program p;
    // Preset p10=p11=1 via an always-true unconditional compare, and
    // p5 = guard. r1=1 so rel is controlled by comparing against imm.
    p.insts = {
        makeCmpImm(CmpRel::Eq, CmpType::Unc, 10, 63, 0, 0),  // p10=1
        makeCmpImm(CmpRel::Eq, CmpType::Unc, 11, 63, 0, 0),  // p11=1
        makeCmpImm(c.guard ? CmpRel::Eq : CmpRel::Ne, CmpType::Normal,
                   5, 63, 0, 0),                              // p5=guard
        makeMovImm(1, 1),
        makeCmpImm(c.rel ? CmpRel::Eq : CmpRel::Ne, c.type, 10, 11, 1,
                   1, 5),
        makeHalt(),
    };
    Emulator emu = runProgram(p);
    EXPECT_EQ(emu.state().readPred(10), c.p1After) << "p1";
    EXPECT_EQ(emu.state().readPred(11), c.p2After) << "p2";
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, CmpTypeTruthTable,
    ::testing::Values(
        // Normal: writes only when guarded.
        CmpCase{CmpType::Normal, true, true, true, false},
        CmpCase{CmpType::Normal, true, false, false, true},
        CmpCase{CmpType::Normal, false, true, true, true},
        CmpCase{CmpType::Normal, false, false, true, true},
        // Unc: clears both when guard false.
        CmpCase{CmpType::Unc, true, true, true, false},
        CmpCase{CmpType::Unc, true, false, false, true},
        CmpCase{CmpType::Unc, false, true, false, false},
        CmpCase{CmpType::Unc, false, false, false, false},
        // And: clears both when guarded and rel false. A false guard
        // writes NOTHING regardless of rel - the parallel types must
        // not be confused with Unc's clear-on-false-guard.
        CmpCase{CmpType::And, true, true, true, true},
        CmpCase{CmpType::And, true, false, false, false},
        CmpCase{CmpType::And, false, false, true, true},
        CmpCase{CmpType::And, false, true, true, true},
        // Or: sets both when guarded and rel true.
        CmpCase{CmpType::Or, true, true, true, true},
        CmpCase{CmpType::Or, true, false, true, true},
        CmpCase{CmpType::Or, false, true, true, true},
        CmpCase{CmpType::Or, false, false, true, true},
        // OrAndcm: p1|=1, p2&=0 when guarded and rel true.
        CmpCase{CmpType::OrAndcm, true, true, true, false},
        CmpCase{CmpType::OrAndcm, true, false, true, true},
        CmpCase{CmpType::OrAndcm, false, true, true, true},
        CmpCase{CmpType::OrAndcm, false, false, true, true},
        // AndOrcm: p1&=0, p2|=1 when guarded and rel false.
        CmpCase{CmpType::AndOrcm, true, false, false, true},
        CmpCase{CmpType::AndOrcm, true, true, true, true},
        CmpCase{CmpType::AndOrcm, false, false, true, true},
        CmpCase{CmpType::AndOrcm, false, true, true, true}));

TEST(Emulator, P0WritesDiscarded)
{
    Program p;
    p.insts = {
        makeCmpImm(CmpRel::Ne, CmpType::Unc, 0, 5, 0, 0), // p0=0? no!
        makeHalt(),
    };
    Emulator emu = runProgram(p);
    EXPECT_TRUE(emu.state().readPred(0));
    EXPECT_TRUE(emu.state().readPred(5)); // !rel = !(0!=0) = 1
}

TEST(Emulator, P0WriteNotReportedInTrace)
{
    Program p;
    p.insts = {
        makeCmpImm(CmpRel::Eq, CmpType::Unc, 0, 7, 0, 0),
        makeHalt(),
    };
    Emulator emu(p);
    DynInst dyn;
    ASSERT_TRUE(emu.step(dyn));
    ASSERT_EQ(dyn.numPredWrites, 1u); // only the p7 write
    EXPECT_EQ(dyn.predWrites[0].reg, 7);
}

TEST(Emulator, MemoryRoundTrip)
{
    Program p;
    p.insts = {
        makeMovImm(1, 100),
        makeMovImm(2, 77),
        makeStore(1, 4, 2),
        makeLoad(3, 1, 4),
        makeHalt(),
    };
    Emulator emu = runProgram(p);
    EXPECT_EQ(emu.state().readGpr(3), 77);
    EXPECT_EQ(emu.state().readMem(104), 77);
}

TEST(Emulator, AddressMaskingWraps)
{
    ArchState st(1 << 4); // 16 words
    st.writeMem(16 + 3, 9);
    EXPECT_EQ(st.readMem(3), 9);
}

TEST(Emulator, ArchStateMemoryCopiesDeepAndMoves)
{
    // Guest memory is a lazily zero-filled mapping: every word reads
    // zero until written, copies are independent, moves keep it.
    ArchState a(1 << 4);
    EXPECT_EQ(a.readMem(11), 0);
    a.writeMem(5, 42);
    ArchState b = a;
    EXPECT_TRUE(b.sameArchOutcome(a));
    b.writeMem(5, 7);
    EXPECT_EQ(a.readMem(5), 42);
    EXPECT_FALSE(b.sameArchOutcome(a));

    ArchState c = std::move(b);
    EXPECT_EQ(c.readMem(5), 7);

    ArchState d(1 << 8);
    d = a;
    EXPECT_EQ(d.memWords(), a.memWords());
    EXPECT_TRUE(d.sameArchOutcome(a));
    d = std::move(c);
    EXPECT_EQ(d.readMem(5), 7);
}

TEST(Emulator, GuardedStoreSuppressed)
{
    Program p;
    p.insts = {
        makeMovImm(1, 50),
        makeMovImm(2, 5),
        makeStore(1, 0, 2, 9), // p9 false
        makeLoad(3, 1, 0),
        makeHalt(),
    };
    Emulator emu = runProgram(p);
    EXPECT_EQ(emu.state().readGpr(3), 0);
}

TEST(Emulator, BranchTakenAndNotTaken)
{
    Program p;
    p.insts = {
        makeCmpImm(CmpRel::Eq, CmpType::Unc, 5, 6, 0, 0), // p5=1,p6=0
        makeBr(3, 6),      // not taken (p6 false)
        makeBr(4, 5),      // taken
        makeHalt(),        // skipped
        makeMovImm(1, 1),
        makeHalt(),
    };
    Emulator emu(p);
    DynInst dyn;
    ASSERT_TRUE(emu.step(dyn)); // cmp
    ASSERT_TRUE(emu.step(dyn)); // br not taken
    EXPECT_TRUE(dyn.isControl);
    EXPECT_FALSE(dyn.taken);
    EXPECT_EQ(dyn.nextPc, 2u);
    ASSERT_TRUE(emu.step(dyn)); // br taken
    EXPECT_TRUE(dyn.taken);
    EXPECT_EQ(dyn.nextPc, 4u);
    emu.run(100);
    EXPECT_EQ(emu.state().readGpr(1), 1);
}

TEST(Emulator, CallAndReturn)
{
    Program p;
    p.insts = {
        makeCall(3),       // 0: call f
        makeMovImm(2, 2),  // 1: after return
        makeHalt(),        // 2
        makeMovImm(1, 1),  // 3: f body
        makeRet(),         // 4
    };
    Emulator emu = runProgram(p);
    EXPECT_EQ(emu.state().readGpr(1), 1);
    EXPECT_EQ(emu.state().readGpr(2), 2);
    EXPECT_TRUE(emu.state().callStack.empty());
}

TEST(Emulator, RetOnEmptyStackHalts)
{
    // A top-level ret is a clean program exit, not a crash: the
    // machine halts AT the ret (no control transfer is recorded, the
    // pc does not move, nothing past it executes).
    Program p;
    p.insts = {makeRet(), makeMovImm(1, 99), makeHalt()};
    Emulator emu = runProgram(p);
    EXPECT_TRUE(emu.halted());
    EXPECT_FALSE(emu.fuseBlown());
    EXPECT_EQ(emu.instsExecuted(), 1u);
    EXPECT_EQ(emu.state().readGpr(1), 0) << "the halt must precede "
                                            "the following instruction";
    EXPECT_TRUE(emu.state().callStack.empty());
}

TEST(Emulator, RetOnEmptyStackIsRecordedNotTaken)
{
    // The DynInst the trace recorder sees for that final ret: a
    // control instruction that did not transfer (taken=false, nextPc
    // frozen) - so a recorded trace replays the halt faithfully.
    Program p;
    p.insts = {makeRet(), makeHalt()};
    EmuConfig cfg;
    Emulator emu(p, cfg);
    DynInst dyn;
    ASSERT_TRUE(emu.step(dyn));
    EXPECT_TRUE(dyn.isControl);
    EXPECT_FALSE(dyn.taken);
    EXPECT_EQ(dyn.nextPc, dyn.pc);
    EXPECT_TRUE(emu.halted());
}

TEST(Emulator, FuseStopsRunawayLoop)
{
    Program p;
    p.insts = {makeBr(0), makeHalt()};
    EmuConfig cfg;
    cfg.maxInsts = 500;
    Emulator emu(p, cfg);
    emu.run(10000);
    EXPECT_TRUE(emu.fuseBlown());
    EXPECT_EQ(emu.instsExecuted(), 500u);
}

TEST(Emulator, SequenceNumbersMonotonic)
{
    Program p;
    p.insts = {makeMovImm(1, 1), makeMovImm(2, 2), makeHalt()};
    Emulator emu(p);
    DynInst dyn;
    std::uint64_t expect = 0;
    while (emu.step(dyn))
        EXPECT_EQ(dyn.seq, expect++);
    EXPECT_EQ(expect, 3u);
}

TEST(Emulator, CmpRelRecordedEvenWhenGuardFalse)
{
    Program p;
    p.insts = {
        makeMovImm(1, 9),
        makeCmpImm(CmpRel::Gt, CmpType::Normal, 5, 6, 1, 3, 9), // p9=0
        makeHalt(),
    };
    Emulator emu(p);
    DynInst dyn;
    emu.step(dyn);
    emu.step(dyn);
    EXPECT_FALSE(dyn.guard);
    EXPECT_TRUE(dyn.cmpRel);          // 9 > 3 computed regardless
    EXPECT_EQ(dyn.numPredWrites, 0u); // but nothing written
}

} // namespace
} // namespace pabp
