#include "sim/arch_state.hh"

#include <cstring>
#include <utility>

#include "util/logging.hh"
#include "util/mapped_lane.hh"

namespace pabp {

GuestMemory::GuestMemory(std::size_t num_words) : count(num_words)
{
    pabp_assert(count > 0);
    words = static_cast<std::int64_t *>(anon_map::map(bytes()));
}

GuestMemory::GuestMemory(const GuestMemory &other)
    : GuestMemory(other.count)
{
    std::memcpy(words, other.words, bytes());
}

GuestMemory::GuestMemory(GuestMemory &&other) noexcept
    : words(std::exchange(other.words, nullptr)),
      count(std::exchange(other.count, 0))
{
}

GuestMemory &
GuestMemory::operator=(GuestMemory other) noexcept
{
    std::swap(words, other.words);
    std::swap(count, other.count);
    return *this;
}

GuestMemory::~GuestMemory()
{
    if (words)
        anon_map::unmap(words, bytes());
}

bool
GuestMemory::operator==(const GuestMemory &other) const
{
    return count == other.count &&
        std::memcmp(words, other.words, bytes()) == 0;
}

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
    : mem(roundUpPow2(mem_words ? mem_words : 1))
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
    sink.writeBytes(mem.data(), mem.bytes());
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
    return src.readBytes(mem.data(), mem.bytes());
}

} // namespace pabp
