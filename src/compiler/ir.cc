#include "compiler/ir.hh"

#include <sstream>

#include "util/logging.hh"

namespace pabp {

std::vector<BlockId>
IrFunction::successors(BlockId id) const
{
    const Terminator &term = blocks.at(id).term;
    switch (term.kind) {
      case Terminator::Kind::Jump:
        return {term.takenTarget};
      case Terminator::Kind::CondBranch:
        return {term.takenTarget, term.fallTarget};
      case Terminator::Kind::Halt:
        return {};
    }
    pabp_panic("bad terminator kind");
}

std::vector<std::vector<BlockId>>
IrFunction::predecessorLists() const
{
    std::vector<std::vector<BlockId>> preds(blocks.size());
    for (BlockId b = 0; b < blocks.size(); ++b)
        for (BlockId s : successors(b))
            preds.at(s).push_back(b);
    return preds;
}

std::string
IrFunction::dump() const
{
    std::ostringstream os;
    os << "function " << name << "\n";
    for (BlockId b = 0; b < blocks.size(); ++b) {
        const BasicBlock &bb = blocks[b];
        os << "bb" << b << ":  ; exec=" << bb.execCount
           << " taken=" << bb.takenCount << "\n";
        for (const Inst &inst : bb.body)
            os << "    " << disassemble(inst) << "\n";
        const Terminator &t = bb.term;
        switch (t.kind) {
          case Terminator::Kind::Jump:
            os << "    jump bb" << t.takenTarget << "\n";
            break;
          case Terminator::Kind::CondBranch:
            os << "    if r" << unsigned(t.src1) << " " << cmpRelName(t.rel)
               << " ";
            if (t.hasImm)
                os << t.imm;
            else
                os << "r" << unsigned(t.src2);
            os << " goto bb" << t.takenTarget << " else bb" << t.fallTarget
               << "\n";
            break;
          case Terminator::Kind::Halt:
            os << "    halt\n";
            break;
        }
    }
    return os.str();
}

std::string
verifyFunction(const IrFunction &fn)
{
    if (fn.blocks.empty())
        return "function has no blocks";

    for (BlockId b = 0; b < fn.blocks.size(); ++b) {
        const BasicBlock &bb = fn.blocks[b];
        std::string where = "bb" + std::to_string(b) + ": ";
        for (const Inst &inst : bb.body) {
            if (inst.isControl() || inst.op == Opcode::Halt)
                return where + "control instruction in block body";
            if (inst.qp != 0)
                return where + "guarded instruction in source IR";
            if (inst.op == Opcode::PSet || inst.op == Opcode::Cmp)
                return where + "predicate write in source IR";
        }
        const Terminator &t = bb.term;
        switch (t.kind) {
          case Terminator::Kind::Jump:
            if (t.takenTarget >= fn.blocks.size())
                return where + "jump target out of range";
            break;
          case Terminator::Kind::CondBranch:
            if (t.takenTarget >= fn.blocks.size() ||
                t.fallTarget >= fn.blocks.size()) {
                return where + "branch target out of range";
            }
            if (t.takenTarget == t.fallTarget)
                return where + "degenerate conditional branch";
            if (t.src1 >= numGprs || (!t.hasImm && t.src2 >= numGprs))
                return where + "branch operand out of range";
            break;
          case Terminator::Kind::Halt:
            break;
        }
    }
    return "";
}

BlockId
IrBuilder::newBlock()
{
    func.blocks.emplace_back();
    return static_cast<BlockId>(func.blocks.size() - 1);
}

void
IrBuilder::setBlock(BlockId id)
{
    pabp_assert(id < func.blocks.size());
    current = id;
}

void
IrBuilder::append(const Inst &inst)
{
    pabp_assert(current != invalidBlock);
    func.block(current).body.push_back(inst);
}

void
IrBuilder::jump(BlockId target)
{
    pabp_assert(current != invalidBlock);
    Terminator t;
    t.kind = Terminator::Kind::Jump;
    t.takenTarget = target;
    func.block(current).term = t;
}

void
IrBuilder::condBr(CmpRel rel, unsigned src1, unsigned src2, BlockId taken,
                  BlockId fall)
{
    pabp_assert(current != invalidBlock);
    Terminator t;
    t.kind = Terminator::Kind::CondBranch;
    t.rel = rel;
    t.src1 = static_cast<std::uint8_t>(src1);
    t.src2 = static_cast<std::uint8_t>(src2);
    t.takenTarget = taken;
    t.fallTarget = fall;
    func.block(current).term = t;
}

void
IrBuilder::condBrImm(CmpRel rel, unsigned src1, std::int64_t imm,
                     BlockId taken, BlockId fall)
{
    pabp_assert(current != invalidBlock);
    Terminator t;
    t.kind = Terminator::Kind::CondBranch;
    t.rel = rel;
    t.src1 = static_cast<std::uint8_t>(src1);
    t.hasImm = true;
    t.imm = imm;
    t.takenTarget = taken;
    t.fallTarget = fall;
    func.block(current).term = t;
}

void
IrBuilder::halt()
{
    pabp_assert(current != invalidBlock);
    Terminator t;
    t.kind = Terminator::Kind::Halt;
    func.block(current).term = t;
}

} // namespace pabp
