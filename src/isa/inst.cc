#include "isa/inst.hh"

#include <cstdio>

#include "util/logging.hh"

namespace pabp {

CmpRel
invertRel(CmpRel rel)
{
    switch (rel) {
      case CmpRel::Eq: return CmpRel::Ne;
      case CmpRel::Ne: return CmpRel::Eq;
      case CmpRel::Lt: return CmpRel::Ge;
      case CmpRel::Le: return CmpRel::Gt;
      case CmpRel::Gt: return CmpRel::Le;
      case CmpRel::Ge: return CmpRel::Lt;
      case CmpRel::Ltu: return CmpRel::Geu;
      case CmpRel::Geu: return CmpRel::Ltu;
    }
    pabp_panic("bad CmpRel");
}

bool
evalRel(CmpRel rel, std::int64_t a, std::int64_t b)
{
    auto ua = static_cast<std::uint64_t>(a);
    auto ub = static_cast<std::uint64_t>(b);
    switch (rel) {
      case CmpRel::Eq: return a == b;
      case CmpRel::Ne: return a != b;
      case CmpRel::Lt: return a < b;
      case CmpRel::Le: return a <= b;
      case CmpRel::Gt: return a > b;
      case CmpRel::Ge: return a >= b;
      case CmpRel::Ltu: return ua < ub;
      case CmpRel::Geu: return ua >= ub;
    }
    pabp_panic("bad CmpRel");
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::Mov: return "mov";
      case Opcode::Cmp: return "cmp";
      case Opcode::PSet: return "pset";
      case Opcode::Load: return "ld";
      case Opcode::Store: return "st";
      case Opcode::Br: return "br";
      case Opcode::Call: return "call";
      case Opcode::Ret: return "ret";
      case Opcode::Halt: return "halt";
      default: break;
    }
    pabp_panic("bad Opcode");
}

const char *
cmpRelName(CmpRel rel)
{
    switch (rel) {
      case CmpRel::Eq: return "eq";
      case CmpRel::Ne: return "ne";
      case CmpRel::Lt: return "lt";
      case CmpRel::Le: return "le";
      case CmpRel::Gt: return "gt";
      case CmpRel::Ge: return "ge";
      case CmpRel::Ltu: return "ltu";
      case CmpRel::Geu: return "geu";
    }
    pabp_panic("bad CmpRel");
}

const char *
cmpTypeName(CmpType type)
{
    switch (type) {
      case CmpType::Normal: return "";
      case CmpType::Unc: return "unc";
      case CmpType::And: return "and";
      case CmpType::Or: return "or";
      case CmpType::OrAndcm: return "or.andcm";
      case CmpType::AndOrcm: return "and.orcm";
    }
    pabp_panic("bad CmpType");
}

std::string
disassemble(const Inst &inst)
{
    char buf[160];
    std::string guard;
    if (inst.qp != 0 && inst.isGuarded())
        guard = "(p" + std::to_string(inst.qp) + ") ";

    auto src2_text = [&]() -> std::string {
        if (inst.hasImm)
            return std::to_string(inst.imm);
        std::string reg = "r";
        reg += std::to_string(inst.src2);
        return reg;
    };

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
        return opcodeName(inst.op);
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
        std::snprintf(buf, sizeof(buf), "%s%s r%u = r%u, %s", guard.c_str(),
                      opcodeName(inst.op), inst.dst, inst.src1,
                      src2_text().c_str());
        return buf;
      case Opcode::Mov:
        if (inst.hasImm) {
            std::snprintf(buf, sizeof(buf), "%smov r%u = %lld",
                          guard.c_str(), inst.dst,
                          static_cast<long long>(inst.imm));
        } else {
            std::snprintf(buf, sizeof(buf), "%smov r%u = r%u",
                          guard.c_str(), inst.dst, inst.src1);
        }
        return buf;
      case Opcode::Cmp: {
        std::string type = cmpTypeName(inst.ctype);
        std::snprintf(buf, sizeof(buf), "%scmp.%s%s%s p%u, p%u = r%u, %s",
                      guard.c_str(), cmpRelName(inst.crel),
                      type.empty() ? "" : ".", type.c_str(), inst.pdst1,
                      inst.pdst2, inst.src1, src2_text().c_str());
        return buf;
      }
      case Opcode::PSet:
        std::snprintf(buf, sizeof(buf), "%spset p%u = %lld", guard.c_str(),
                      inst.pdst1, static_cast<long long>(inst.imm & 1));
        return buf;
      case Opcode::Load:
        std::snprintf(buf, sizeof(buf), "%sld r%u = [r%u + %lld]",
                      guard.c_str(), inst.dst, inst.src1,
                      static_cast<long long>(inst.imm));
        return buf;
      case Opcode::Store:
        std::snprintf(buf, sizeof(buf), "%sst [r%u + %lld] = r%u",
                      guard.c_str(), inst.src1,
                      static_cast<long long>(inst.imm), inst.src2);
        return buf;
      case Opcode::Br:
      case Opcode::Call:
        std::snprintf(buf, sizeof(buf), "%s%s %u%s", guard.c_str(),
                      opcodeName(inst.op), inst.target,
                      inst.regionBranch ? "  ; region-based" : "");
        return buf;
      case Opcode::Ret:
        return guard + "ret";
      default:
        break;
    }
    pabp_panic("bad Opcode in disassemble");
}

} // namespace pabp
