#include "sim/arch_state.hh"

namespace pabp {

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // anonymous namespace

ArchState::ArchState(std::size_t mem_words)
    : mem(roundUpPow2(mem_words ? mem_words : 1), 0)
{
    pred[0] = true;
}

bool
ArchState::sameArchOutcome(const ArchState &other) const
{
    return gpr == other.gpr && pred[0] == other.pred[0] &&
        mem == other.mem;
}

void
ArchState::saveState(StateSink &sink) const
{
    sink.writeU32(pc);
    sink.writeBool(halted);
    sink.writeU64(callStack.size());
    sink.writeBytes(callStack.data(),
                    callStack.size() * sizeof(std::uint32_t));
    for (std::int64_t r : gpr)
        sink.writeI64(r);
    for (bool p : pred)
        sink.writeBool(p);
    sink.writeU64(mem.size());
    sink.writeBytes(mem.data(), mem.size() * sizeof(std::int64_t));
}

Status
ArchState::loadState(StateSource &src)
{
    PABP_TRY(src.readPod(pc));
    PABP_TRY(src.readBool(halted));
    std::vector<std::uint32_t> stack;
    PABP_TRY(src.readPodVectorBounded(stack, 1u << 24));
    callStack = std::move(stack);
    for (std::int64_t &r : gpr)
        PABP_TRY(src.readPod(r));
    for (std::size_t i = 0; i < pred.size(); ++i) {
        bool value = false;
        PABP_TRY(src.readBool(value));
        pred[i] = value;
    }
    std::uint64_t mem_words = 0;
    PABP_TRY(src.readPod(mem_words));
    if (mem_words != mem.size())
        return Status(StatusCode::InvalidArgument,
                      "checkpoint memory size " +
                          std::to_string(mem_words) +
                          " != configured " +
                          std::to_string(mem.size()));
    return src.readBytes(mem.data(),
                         mem.size() * sizeof(std::int64_t));
}

} // namespace pabp
