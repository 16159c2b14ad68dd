#include "sim/decoded_trace.hh"

namespace pabp {

namespace {

DecodedTrace::Class
classify(const Inst &inst)
{
    using Class = DecodedTrace::Class;
    if (inst.op == Opcode::Br)
        return inst.qp ? Class::CondBranch : Class::UncondControl;
    if (inst.op == Opcode::Call || inst.op == Opcode::Ret)
        return Class::UncondControl;
    if (inst.writesPredicate())
        return Class::PredDefine;
    return Class::Other;
}

} // anonymous namespace

DecodedTrace
DecodedTrace::build(const RecordedTrace &trace)
{
    DecodedTrace out;
    out.prog = trace.prog;

    const std::size_t n = trace.events.size();
    out.pcs.reserve(n);
    out.cls.reserve(n);
    out.flags.reserve(n);
    out.predReg0.reserve(n);
    out.predReg1.reserve(n);
    out.predVal.reserve(n);
    out.nextPcs.reserve(n);

    for (const RecordedTrace::Event &event : trace.events) {
        // The one bounds-checked instruction lookup the reference
        // loop pays per step, hoisted to build time.
        const Inst &inst = out.prog.insts.at(event.pc);

        out.pcs.push_back(event.pc);
        out.cls.push_back(static_cast<std::uint8_t>(classify(inst)));
        out.flags.push_back(event.flags);
        out.predReg0.push_back(event.predReg[0]);
        out.predReg1.push_back(event.predReg[1]);
        out.predVal.push_back(event.predVal);
        out.nextPcs.push_back(event.nextPc);
    }
    out.schedCache = std::make_shared<ReplayScheduleCache>();
    return out;
}

} // namespace pabp
