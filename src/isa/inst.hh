/**
 * @file
 * The predicated ISA at the heart of the reproduction.
 *
 * This is an EPIC-flavoured instruction set in the style of IA-64 /
 * the IMPACT EPIC research ISA: every instruction carries a qualifying
 * predicate (qp) and is a nop when that predicate is false (with the
 * IA-64 exception of unconditional compares, which still clear their
 * targets). Compare instructions write a pair of predicate registers
 * using the IA-64 compare-type semantics (normal, unc, and, or,
 * or.andcm, and.orcm), which is exactly the machinery hyperblock
 * if-conversion needs.
 *
 * Branches are IA-64 style: `(qp) br target` is taken iff qp is true.
 * The branch condition is always folded into the qualifying predicate
 * by a preceding compare, so "a branch guarded by a false predicate is
 * never taken" is an architectural invariant - the property the squash
 * false path filter exploits.
 */

#ifndef PABP_ISA_INST_HH
#define PABP_ISA_INST_HH

#include <cstdint>
#include <string>

namespace pabp {

/** Number of general-purpose integer registers; r0 is hard-wired 0. */
constexpr unsigned numGprs = 64;

/** Number of predicate registers; p0 is hard-wired true. */
constexpr unsigned numPredRegs = 64;

/** Operation codes. */
enum class Opcode : std::uint8_t
{
    Nop,
    Add,        ///< dst = src1 + src2/imm
    Sub,        ///< dst = src1 - src2/imm
    Mul,        ///< dst = src1 * src2/imm
    Div,        ///< dst = src1 / src2/imm (0 divisor yields 0)
    And,        ///< dst = src1 & src2/imm
    Or,         ///< dst = src1 | src2/imm
    Xor,        ///< dst = src1 ^ src2/imm
    Shl,        ///< dst = src1 << (src2/imm & 63)
    Shr,        ///< dst = (logical) src1 >> (src2/imm & 63)
    Mov,        ///< dst = src1 (or imm when hasImm)
    Cmp,        ///< (pdst1, pdst2) = src1 <crel> src2/imm per ctype
    PSet,       ///< pdst1 = imm & 1 (guarded predicate initialise)
    Load,       ///< dst = mem[src1 + imm]
    Store,      ///< mem[src1 + imm] = src2
    Br,         ///< taken iff qp; pc = target
    Call,       ///< push pc+1, pc = target (taken iff qp)
    Ret,        ///< pc = pop() (taken iff qp)
    Halt,       ///< stop execution
    NumOpcodes,
};

/** Compare relations. */
enum class CmpRel : std::uint8_t
{
    Eq, Ne, Lt, Le, Gt, Ge, Ltu, Geu,
};

/**
 * IA-64 compare types. Given guard qp and relation result rel:
 *  - Normal:  qp ? (p1=rel, p2=!rel)        : no write
 *  - Unc:     qp ? (p1=rel, p2=!rel)        : (p1=0, p2=0)
 *  - And:     (qp && !rel) ? (p1=0, p2=0)   : no write
 *  - Or:      (qp &&  rel) ? (p1=1, p2=1)   : no write
 *  - OrAndcm: (qp &&  rel) ? (p1=1, p2=0)   : no write
 *  - AndOrcm: (qp && !rel) ? (p1=0, p2=1)   : no write
 */
enum class CmpType : std::uint8_t
{
    Normal, Unc, And, Or, OrAndcm, AndOrcm,
};

/** Invert a relation (lt -> ge, etc.); used by the if-converter. */
CmpRel invertRel(CmpRel rel);

/** Evaluate a relation on two signed 64-bit values. */
bool evalRel(CmpRel rel, std::int64_t a, std::int64_t b);

/**
 * A decoded instruction. Static program text; PCs are instruction
 * indices into the containing Program (one word per instruction).
 *
 * regionId/regionBranch are compiler-provided metadata: the id of the
 * predicated region (hyperblock) the instruction was placed in, or -1,
 * and whether a branch is a region-based branch (a branch left inside
 * a predicated region by if-conversion). The hardware techniques never
 * read regionId; it exists for statistics classification and for the
 * PGU insertion-policy ablation, which models a compiler hint bit.
 */
struct Inst
{
    Opcode op = Opcode::Nop;
    std::uint8_t qp = 0;            ///< qualifying predicate register
    std::uint8_t dst = 0;           ///< GPR destination
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
    bool hasImm = false;            ///< src2 replaced by imm when set
    std::int64_t imm = 0;
    std::uint8_t pdst1 = 0;         ///< predicate destination 1
    std::uint8_t pdst2 = 0;         ///< predicate destination 2
    CmpRel crel = CmpRel::Eq;
    CmpType ctype = CmpType::Normal;
    std::uint32_t target = 0;       ///< branch/call target (inst index)

    std::int32_t regionId = -1;
    bool regionBranch = false;

    /** True for Br/Call/Ret. */
    bool
    isControl() const
    {
        return op == Opcode::Br || op == Opcode::Call || op == Opcode::Ret;
    }

    /** True for conditional branches (Br with qp != p0). */
    bool isConditionalBranch() const { return op == Opcode::Br && qp != 0; }

    /** True when the instruction may write a predicate register. */
    bool
    writesPredicate() const
    {
        return op == Opcode::Cmp || op == Opcode::PSet;
    }

    /** True when execution reads the guard (all but Nop/Halt). */
    bool isGuarded() const { return op != Opcode::Nop && op != Opcode::Halt; }
};

/**
 * The predicate registers one executed instruction architecturally
 * writes, in write order (pdst1 before pdst2), with their values.
 * Writes to p0 are discarded and not listed.
 */
struct PredicateWrites
{
    std::uint8_t count = 0;     ///< 0-2
    std::uint8_t reg[2] = {};   ///< 0 past count
    std::uint8_t values = 0;    ///< bit w = the value of write w

    bool operator==(const PredicateWrites &) const = default;
};

/**
 * The writes of @p inst executed with guard @p guard and, for a Cmp,
 * relation result @p rel (ignored otherwise), under the compare-type
 * semantics of CmpType; a PSet writes imm & 1 to pdst1 when guarded,
 * and nothing else writes a predicate. A pure function of its
 * arguments: the emulator performs these writes, and a trace derives
 * each event's writes from it instead of storing them.
 */
inline PredicateWrites
predicateWrites(const Inst &inst, bool guard, bool rel)
{
    bool write = false, value1 = false, value2 = false;
    if (inst.op == Opcode::PSet) {
        write = guard;
        value1 = (inst.imm & 1) != 0;
    } else if (inst.op == Opcode::Cmp) {
        switch (inst.ctype) {
          case CmpType::Normal:
            write = guard, value1 = rel, value2 = !rel;
            break;
          case CmpType::Unc:
            write = true, value1 = guard && rel, value2 = guard && !rel;
            break;
          case CmpType::And:
            write = guard && !rel, value1 = false, value2 = false;
            break;
          case CmpType::Or:
            write = guard && rel, value1 = true, value2 = true;
            break;
          case CmpType::OrAndcm:
            write = guard && rel, value1 = true, value2 = false;
            break;
          case CmpType::AndOrcm:
            write = guard && !rel, value1 = false, value2 = true;
            break;
        }
    }
    // Every slot index is a constant, so the result can live in
    // registers in the emulator's loop.
    const std::uint8_t reg1 = write ? inst.pdst1 : 0;
    const std::uint8_t reg2 =
        write && inst.op == Opcode::Cmp ? inst.pdst2 : 0;
    PredicateWrites out;
    if (reg1 && reg2) {
        out.count = 2;
        out.reg[0] = reg1;
        out.reg[1] = reg2;
        out.values = static_cast<std::uint8_t>(value1 | (value2 << 1));
    } else if (reg1 || reg2) {
        out.count = 1;
        out.reg[0] = reg1 ? reg1 : reg2;
        out.values = reg1 ? value1 : value2;
    }
    return out;
}

/** Render one instruction as assembly text, e.g.
 *  "(p3) cmp.lt.unc p4, p5 = r2, r7". */
std::string disassemble(const Inst &inst);

/** Name of an opcode ("add", "cmp", ...). */
const char *opcodeName(Opcode op);

/** Name of a relation ("eq", "lt", ...). */
const char *cmpRelName(CmpRel rel);

/** Name of a compare type ("", "unc", "and", ...). */
const char *cmpTypeName(CmpType type);

} // namespace pabp

#endif // PABP_ISA_INST_HH
