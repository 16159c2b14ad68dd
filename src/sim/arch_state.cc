#include "sim/arch_state.hh"

#include <algorithm>
#include <cstring>
#include <string>
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

void
GuestMemory::clear()
{
    anon_map::discard(words, bytes());
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

/** Words per image page: a memory smaller than one page is one
 *  page. Memory sizes are powers of two, so pages tile it exactly. */
std::size_t
pageWordsOf(std::size_t mem_words)
{
    return std::min(ArchState::imagePageWords, mem_words);
}

bool
pageUsed(const std::int64_t *page, std::size_t words)
{
    std::int64_t any = 0;
    for (std::size_t i = 0; i < words; ++i)
        any |= page[i];
    return any != 0;
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
    const std::size_t page_words = pageWordsOf(mem.size());
    const std::size_t pages = mem.size() / page_words;
    std::vector<std::uint32_t> used;
    for (std::size_t p = 0; p < pages; ++p)
        if (pageUsed(mem.data() + p * page_words, page_words))
            used.push_back(static_cast<std::uint32_t>(p));
    sink.writeU64(used.size());
    for (std::uint32_t p : used) {
        sink.writeU32(p);
        sink.writeBytes(mem.data() + std::size_t{p} * page_words,
                        page_words * sizeof(std::int64_t));
    }
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
    const std::size_t page_words = pageWordsOf(mem.size());
    const std::size_t pages = mem.size() / page_words;
    std::uint64_t count = 0;
    PABP_TRY(src.readPod(count));
    if (count > pages)
        return Status(StatusCode::Corrupt,
                      "checkpoint memory image lists " +
                          std::to_string(count) + " pages of " +
                          std::to_string(pages));
    mem.clear();
    std::uint64_t lowest = 0; // the smallest index the next may have
    for (std::uint64_t k = 0; k < count; ++k) {
        std::uint32_t p = 0;
        PABP_TRY(src.readPod(p));
        if (p >= pages)
            return Status(StatusCode::Corrupt,
                          "checkpoint memory page " + std::to_string(p) +
                              " out of range (" + std::to_string(pages) +
                              " pages)");
        if (p < lowest)
            return Status(StatusCode::Corrupt,
                          "checkpoint memory page " + std::to_string(p) +
                              " not in ascending order");
        PABP_TRY(src.readBytes(mem.data() + std::size_t{p} * page_words,
                               page_words * sizeof(std::int64_t)));
        lowest = std::uint64_t{p} + 1;
    }
    return Status();
}

} // namespace pabp
