#include "bpred/btb.hh"

#include "util/logging.hh"

namespace pabp {

Btb::Btb(unsigned sets_log2, unsigned ways)
    : entries((std::size_t{1} << sets_log2) * ways), setsLog2(sets_log2),
      numWays(ways)
{
    pabp_assert(ways >= 1);
}

Btb::Entry *
Btb::setBase(std::uint32_t pc)
{
    std::size_t set = pc & ((std::size_t{1} << setsLog2) - 1);
    return &entries[set * numWays];
}

std::optional<std::uint32_t>
Btb::lookup(std::uint32_t pc)
{
    Entry *set = setBase(pc);
    for (unsigned w = 0; w < numWays; ++w) {
        if (set[w].valid && set[w].tag == pc) {
            set[w].lastUse = ++useClock;
            ++hitCount;
            return set[w].target;
        }
    }
    ++missCount;
    return std::nullopt;
}

void
Btb::update(std::uint32_t pc, std::uint32_t target)
{
    Entry *set = setBase(pc);
    Entry *victim = &set[0];
    for (unsigned w = 0; w < numWays; ++w) {
        if (set[w].valid && set[w].tag == pc) {
            victim = &set[w];
            break;
        }
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    victim->valid = true;
    victim->tag = pc;
    victim->target = target;
    victim->lastUse = ++useClock;
}

void
Btb::registerStats(StatGroup &group, const std::string &prefix)
{
    group.gauge(prefix + "hits", [this] { return hitCount; });
    group.gauge(prefix + "misses", [this] { return missCount; });
}

void
Btb::saveState(StateSink &sink) const
{
    sink.writeU32(setsLog2);
    sink.writeU32(numWays);
    sink.writeU64(entries.size());
    for (const Entry &e : entries) {
        sink.writeBool(e.valid);
        sink.writeU32(e.tag);
        sink.writeU32(e.target);
        sink.writeU64(e.lastUse);
    }
    sink.writeU64(useClock);
    sink.writeU64(hitCount);
    sink.writeU64(missCount);
}

Status
Btb::loadState(StateSource &src)
{
    std::uint32_t storedSets = 0, storedWays = 0;
    PABP_TRY(src.readPod(storedSets));
    PABP_TRY(src.readPod(storedWays));
    if (storedSets != setsLog2 || storedWays != numWays)
        return Status(StatusCode::InvalidArgument,
                      "btb geometry " + std::to_string(storedSets) + "x" +
                          std::to_string(storedWays) +
                          " != configured " + std::to_string(setsLog2) +
                          "x" + std::to_string(numWays));
    std::uint64_t n = 0;
    PABP_TRY(src.readPod(n));
    if (n != entries.size())
        return Status(StatusCode::InvalidArgument,
                      "btb entry count " + std::to_string(n) +
                          " != configured " +
                          std::to_string(entries.size()));
    for (Entry &e : entries) {
        PABP_TRY(src.readBool(e.valid));
        PABP_TRY(src.readPod(e.tag));
        PABP_TRY(src.readPod(e.target));
        PABP_TRY(src.readPod(e.lastUse));
    }
    PABP_TRY(src.readPod(useClock));
    PABP_TRY(src.readPod(hitCount));
    PABP_TRY(src.readPod(missCount));
    return Status();
}

ReturnAddressStack::ReturnAddressStack(unsigned depth) : stack(depth, 0)
{
    pabp_assert(depth >= 1);
}

void
ReturnAddressStack::push(std::uint32_t return_pc)
{
    if (count == stack.size())
        ++overflowCount;
    top = (top + 1) % stack.size();
    stack[top] = return_pc;
    if (count < stack.size())
        ++count;
    ++pushCount;
}

std::optional<std::uint32_t>
ReturnAddressStack::pop()
{
    if (count == 0) {
        ++underflowCount;
        return std::nullopt;
    }
    std::uint32_t value = stack[top];
    top = (top + stack.size() - 1) % stack.size();
    --count;
    ++popCount;
    return value;
}

void
ReturnAddressStack::registerStats(StatGroup &group,
                                  const std::string &prefix)
{
    group.gauge(prefix + "pushes", [this] { return pushCount; });
    group.gauge(prefix + "pops", [this] { return popCount; });
    group.gauge(prefix + "overflows", [this] { return overflowCount; });
    group.gauge(prefix + "underflows", [this] { return underflowCount; });
}

void
ReturnAddressStack::saveState(StateSink &sink) const
{
    sink.writeU32(static_cast<std::uint32_t>(stack.size()));
    sink.writePodVector(stack);
    sink.writeU32(top);
    sink.writeU32(count);
    sink.writeU64(pushCount);
    sink.writeU64(popCount);
    sink.writeU64(overflowCount);
    sink.writeU64(underflowCount);
}

Status
ReturnAddressStack::loadState(StateSource &src)
{
    std::uint32_t depth = 0;
    PABP_TRY(src.readPod(depth));
    if (depth != stack.size())
        return Status(StatusCode::InvalidArgument,
                      "ras depth " + std::to_string(depth) +
                          " != configured " +
                          std::to_string(stack.size()));
    PABP_TRY(src.readPodVector(stack, stack.size()));
    PABP_TRY(src.readPod(top));
    PABP_TRY(src.readPod(count));
    if (top >= stack.size() || count > stack.size())
        return Status(StatusCode::Corrupt,
                      "ras cursor out of range");
    PABP_TRY(src.readPod(pushCount));
    PABP_TRY(src.readPod(popCount));
    PABP_TRY(src.readPod(overflowCount));
    PABP_TRY(src.readPod(underflowCount));
    return Status();
}

} // namespace pabp
