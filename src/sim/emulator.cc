#include "sim/emulator.hh"

namespace pabp {

Emulator::Emulator(const Program &program, EmuConfig config)
    : prog(program), cfg(config), archState(config.memWords)
{
    pabp_assert(!prog.insts.empty());
}

bool
Emulator::step(DynInst &out)
{
    const std::uint64_t seq = executed;
    return run(1, [&](const ExecEvent &ev) {
        // Every field is assigned; the unused predWrites slot reads
        // {0, false}, as in a value-initialised DynInst.
        const Inst &inst = prog.insts[ev.pc];
        out.seq = seq;
        out.pc = ev.pc;
        out.inst = &inst;
        out.guard = ev.guard();
        out.isControl = inst.isControl();
        out.taken = ev.taken();
        out.nextPc = ev.nextPc;
        out.cmpRel = ev.cmpRel();
        out.numPredWrites = ev.predWrites.count;
        for (unsigned w = 0; w < 2; ++w)
            out.predWrites[w] = {ev.predWrites.reg[w],
                                 ((ev.predWrites.values >> w) & 1) != 0};
        out.isMem = ev.isMem;
        out.effAddr = ev.effAddr;
    }) == 1;
}

std::uint64_t
Emulator::run(std::uint64_t max_insts)
{
    return run(max_insts, [](const ExecEvent &) {});
}

void
Emulator::saveState(StateSink &sink) const
{
    sink.writeU64(prog.size());
    sink.writeU64(executed);
    sink.writeBool(fuse);
    archState.saveState(sink);
}

Status
Emulator::loadState(StateSource &src)
{
    std::uint64_t prog_size = 0;
    PABP_TRY(src.readPod(prog_size));
    if (prog_size != prog.size())
        return Status(StatusCode::InvalidArgument,
                      "checkpoint program has " +
                          std::to_string(prog_size) +
                          " instructions, this emulator's has " +
                          std::to_string(prog.size()));
    PABP_TRY(src.readPod(executed));
    PABP_TRY(src.readBool(fuse));
    return archState.loadState(src);
}

} // namespace pabp
