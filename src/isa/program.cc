#include "isa/program.hh"

#include <atomic>
#include <sstream>

#include "util/logging.hh"

namespace pabp {

std::uint64_t
Program::freshGeneration()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

std::string
Program::disassembleAll() const
{
    std::ostringstream os;
    for (std::size_t pc = 0; pc < insts.size(); ++pc) {
        os << pc << ":\t" << disassemble(insts[pc]);
        if (insts[pc].regionId >= 0)
            os << "\t; region " << insts[pc].regionId;
        os << "\n";
    }
    return os.str();
}

namespace {

std::string
problemAt(std::size_t pc, const std::string &what)
{
    return "pc " + std::to_string(pc) + ": " + what;
}

} // anonymous namespace

std::string
validateProgram(const Program &prog)
{
    if (prog.insts.empty())
        return "empty program";

    bool has_halt = false;
    for (std::size_t pc = 0; pc < prog.insts.size(); ++pc) {
        const Inst &inst = prog.insts[pc];
        if (inst.op >= Opcode::NumOpcodes)
            return problemAt(pc, "invalid opcode");
        if (inst.qp >= numPredRegs || inst.dst >= numGprs ||
            inst.src1 >= numGprs || inst.src2 >= numGprs ||
            inst.pdst1 >= numPredRegs || inst.pdst2 >= numPredRegs) {
            return problemAt(pc, "register index out of range");
        }
        if ((inst.op == Opcode::Br || inst.op == Opcode::Call) &&
            inst.target >= prog.insts.size()) {
            return problemAt(pc, "control target out of range");
        }
        if (inst.op == Opcode::Halt)
            has_halt = true;
    }
    if (!has_halt)
        return "program has no halt instruction";

    const Inst &last = prog.insts.back();
    bool last_diverts = last.op == Opcode::Halt ||
        (last.op == Opcode::Br && last.qp == 0) ||
        (last.op == Opcode::Ret && last.qp == 0);
    if (!last_diverts)
        return "fall-through past end of program";
    return "";
}

namespace {

constexpr unsigned opShift = 0;
constexpr unsigned qpShift = 8;
constexpr unsigned dstShift = 14;
constexpr unsigned src1Shift = 20;
constexpr unsigned src2Shift = 26;
constexpr unsigned pdst1Shift = 32;
constexpr unsigned pdst2Shift = 38;
constexpr unsigned crelShift = 44;
constexpr unsigned ctypeShift = 47;
constexpr unsigned hasImmShift = 50;
constexpr unsigned regionBranchShift = 51;

std::uint64_t
field(std::uint64_t value, unsigned shift, unsigned width)
{
    pabp_assert(value < (1ull << width));
    return value << shift;
}

std::uint64_t
extract(std::uint64_t word, unsigned shift, unsigned width)
{
    return (word >> shift) & ((1ull << width) - 1);
}

} // anonymous namespace

EncodedInst
encode(const Inst &inst)
{
    EncodedInst enc;
    enc.word0 =
        field(static_cast<std::uint64_t>(inst.op), opShift, 8) |
        field(inst.qp, qpShift, 6) |
        field(inst.dst, dstShift, 6) |
        field(inst.src1, src1Shift, 6) |
        field(inst.src2, src2Shift, 6) |
        field(inst.pdst1, pdst1Shift, 6) |
        field(inst.pdst2, pdst2Shift, 6) |
        field(static_cast<std::uint64_t>(inst.crel), crelShift, 3) |
        field(static_cast<std::uint64_t>(inst.ctype), ctypeShift, 3) |
        field(inst.hasImm ? 1 : 0, hasImmShift, 1) |
        field(inst.regionBranch ? 1 : 0, regionBranchShift, 1);
    if (inst.isControl())
        enc.word1 = inst.target;
    else
        enc.word1 = static_cast<std::uint64_t>(inst.imm);
    return enc;
}

Inst
decode(const EncodedInst &enc)
{
    Inst inst;
    auto op_field = extract(enc.word0, opShift, 8);
    if (op_field >= static_cast<std::uint64_t>(Opcode::NumOpcodes))
        pabp_panic("decode: invalid opcode field");
    inst.op = static_cast<Opcode>(op_field);
    inst.qp = static_cast<std::uint8_t>(extract(enc.word0, qpShift, 6));
    inst.dst = static_cast<std::uint8_t>(extract(enc.word0, dstShift, 6));
    inst.src1 = static_cast<std::uint8_t>(extract(enc.word0, src1Shift, 6));
    inst.src2 = static_cast<std::uint8_t>(extract(enc.word0, src2Shift, 6));
    inst.pdst1 =
        static_cast<std::uint8_t>(extract(enc.word0, pdst1Shift, 6));
    inst.pdst2 =
        static_cast<std::uint8_t>(extract(enc.word0, pdst2Shift, 6));
    inst.crel = static_cast<CmpRel>(extract(enc.word0, crelShift, 3));
    inst.ctype = static_cast<CmpType>(extract(enc.word0, ctypeShift, 3));
    inst.hasImm = extract(enc.word0, hasImmShift, 1) != 0;
    inst.regionBranch = extract(enc.word0, regionBranchShift, 1) != 0;
    if (inst.isControl())
        inst.target = static_cast<std::uint32_t>(enc.word1);
    else
        inst.imm = static_cast<std::int64_t>(enc.word1);
    return inst;
}

std::optional<Inst>
tryDecode(const EncodedInst &enc)
{
    auto op_field = extract(enc.word0, opShift, 8);
    if (op_field >= static_cast<std::uint64_t>(Opcode::NumOpcodes))
        return std::nullopt;
    auto ctype_field = extract(enc.word0, ctypeShift, 3);
    if (ctype_field > static_cast<std::uint64_t>(CmpType::AndOrcm))
        return std::nullopt;
    return decode(enc);
}

Inst
makeNop()
{
    return Inst{};
}

Inst
makeHalt()
{
    Inst inst;
    inst.op = Opcode::Halt;
    return inst;
}

Inst
makeAlu(Opcode op, unsigned dst, unsigned src1, unsigned src2, unsigned qp)
{
    Inst inst;
    inst.op = op;
    inst.dst = static_cast<std::uint8_t>(dst);
    inst.src1 = static_cast<std::uint8_t>(src1);
    inst.src2 = static_cast<std::uint8_t>(src2);
    inst.qp = static_cast<std::uint8_t>(qp);
    return inst;
}

Inst
makeAluImm(Opcode op, unsigned dst, unsigned src1, std::int64_t imm,
           unsigned qp)
{
    Inst inst = makeAlu(op, dst, src1, 0, qp);
    inst.hasImm = true;
    inst.imm = imm;
    return inst;
}

Inst
makeMovImm(unsigned dst, std::int64_t imm, unsigned qp)
{
    return makeAluImm(Opcode::Mov, dst, 0, imm, qp);
}

Inst
makeMov(unsigned dst, unsigned src, unsigned qp)
{
    return makeAlu(Opcode::Mov, dst, src, 0, qp);
}

Inst
makeCmp(CmpRel rel, CmpType type, unsigned pdst1, unsigned pdst2,
        unsigned src1, unsigned src2, unsigned qp)
{
    Inst inst;
    inst.op = Opcode::Cmp;
    inst.crel = rel;
    inst.ctype = type;
    inst.pdst1 = static_cast<std::uint8_t>(pdst1);
    inst.pdst2 = static_cast<std::uint8_t>(pdst2);
    inst.src1 = static_cast<std::uint8_t>(src1);
    inst.src2 = static_cast<std::uint8_t>(src2);
    inst.qp = static_cast<std::uint8_t>(qp);
    return inst;
}

Inst
makeCmpImm(CmpRel rel, CmpType type, unsigned pdst1, unsigned pdst2,
           unsigned src1, std::int64_t imm, unsigned qp)
{
    Inst inst = makeCmp(rel, type, pdst1, pdst2, src1, 0, qp);
    inst.hasImm = true;
    inst.imm = imm;
    return inst;
}

Inst
makePSet(unsigned pdst, bool value, unsigned qp)
{
    Inst inst;
    inst.op = Opcode::PSet;
    inst.pdst1 = static_cast<std::uint8_t>(pdst);
    inst.hasImm = true;
    inst.imm = value ? 1 : 0;
    inst.qp = static_cast<std::uint8_t>(qp);
    return inst;
}

Inst
makeLoad(unsigned dst, unsigned base, std::int64_t offset, unsigned qp)
{
    Inst inst;
    inst.op = Opcode::Load;
    inst.dst = static_cast<std::uint8_t>(dst);
    inst.src1 = static_cast<std::uint8_t>(base);
    inst.hasImm = true;
    inst.imm = offset;
    inst.qp = static_cast<std::uint8_t>(qp);
    return inst;
}

Inst
makeStore(unsigned base, std::int64_t offset, unsigned src, unsigned qp)
{
    Inst inst;
    inst.op = Opcode::Store;
    inst.src1 = static_cast<std::uint8_t>(base);
    inst.src2 = static_cast<std::uint8_t>(src);
    inst.hasImm = true;
    inst.imm = offset;
    inst.qp = static_cast<std::uint8_t>(qp);
    return inst;
}

Inst
makeBr(std::uint32_t target, unsigned qp)
{
    Inst inst;
    inst.op = Opcode::Br;
    inst.target = target;
    inst.qp = static_cast<std::uint8_t>(qp);
    return inst;
}

Inst
makeCall(std::uint32_t target, unsigned qp)
{
    Inst inst;
    inst.op = Opcode::Call;
    inst.target = target;
    inst.qp = static_cast<std::uint8_t>(qp);
    return inst;
}

Inst
makeRet(unsigned qp)
{
    Inst inst;
    inst.op = Opcode::Ret;
    inst.qp = static_cast<std::uint8_t>(qp);
    return inst;
}

} // namespace pabp
