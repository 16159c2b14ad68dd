#include "compiler/profile.hh"

#include "bpred/gshare.hh"
#include "compiler/lower.hh"
#include "sim/emulator.hh"

namespace pabp {

std::uint64_t
profileFunction(IrFunction &fn, const StateInit &init,
                std::uint64_t max_steps)
{
    for (BasicBlock &bb : fn.blocks) {
        bb.execCount = 0;
        bb.takenCount = 0;
        bb.profMispredicts = 0;
    }

    CompiledProgram compiled = lowerNormal(fn);

    // Map block start PCs to blocks. Every block emits at least one
    // instruction under normal lowering, so start PCs are unique.
    std::vector<std::int32_t> start_block(compiled.prog.size(), -1);
    for (BlockId b = 0; b < fn.blocks.size(); ++b)
        start_block.at(compiled.info.blockStartPc[b]) =
            static_cast<std::int32_t>(b);
    // The block of each branch pc, as a table the per-step sink
    // indexes rather than a hash lookup per executed instruction.
    std::vector<std::int32_t> branch_block(compiled.prog.size(), -1);
    for (const auto &[pc, b] : compiled.info.branchPcToBlock)
        branch_block.at(pc) = static_cast<std::int32_t>(b);

    Emulator emu(compiled.prog);
    if (init)
        init(emu.state());

    // Reference predictor for per-branch predictability estimates
    // (selective if-conversion wants to know which branches hurt).
    GSharePredictor reference(12);

    const std::uint64_t steps =
        emu.run(max_steps, [&](const ExecEvent &ev) {
            std::int32_t b = start_block[ev.pc];
            if (b >= 0)
                ++fn.blocks[b].execCount;
            const std::int32_t br = branch_block[ev.pc];
            if (br >= 0) {
                if (ev.taken())
                    ++fn.blocks[br].takenCount;
                bool predicted = reference.predict(ev.pc);
                reference.update(ev.pc, ev.taken());
                if (predicted != ev.taken())
                    ++fn.blocks[br].profMispredicts;
            }
        });
    return steps;
}

} // namespace pabp
