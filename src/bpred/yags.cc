#include "bpred/yags.hh"

#include "util/logging.hh"

namespace pabp {

YagsPredictor::YagsPredictor(unsigned choice_log2, unsigned cache_log2,
                             unsigned tag_bits)
    : choice(std::size_t{1} << choice_log2, SatCounter(2)),
      takenCache(std::size_t{1} << cache_log2),
      notTakenCache(std::size_t{1} << cache_log2),
      choiceLog2(choice_log2), cacheLog2(cache_log2), tagBits(tag_bits)
{
    pabp_assert(tag_bits >= 1 && tag_bits <= 16);
}

std::size_t
YagsPredictor::cacheIndex(std::uint32_t pc) const
{
    std::uint64_t hist = ghr & ((std::uint64_t{1} << cacheLog2) - 1);
    return (pc ^ hist) & (takenCache.size() - 1);
}

std::uint32_t
YagsPredictor::tagOf(std::uint32_t pc) const
{
    return pc & ((1u << tagBits) - 1);
}

bool
YagsPredictor::predict(std::uint32_t pc)
{
    bool choice_taken = choice[pc & (choice.size() - 1)].predictTaken();
    const auto &cache = choice_taken ? notTakenCache : takenCache;
    const CacheEntry &entry = cache[cacheIndex(pc)];
    if (entry.valid && entry.tag == tagOf(pc))
        return entry.counter.predictTaken();
    return choice_taken;
}

void
YagsPredictor::update(std::uint32_t pc, bool taken)
{
    SatCounter &choice_counter = choice[pc & (choice.size() - 1)];
    bool choice_taken = choice_counter.predictTaken();
    auto &cache = choice_taken ? notTakenCache : takenCache;
    CacheEntry &entry = cache[cacheIndex(pc)];
    bool hit = entry.valid && entry.tag == tagOf(pc);

    if (hit) {
        entry.counter.update(taken);
    } else if (taken != choice_taken) {
        // Allocate an exception entry for the deviating outcome.
        entry.valid = true;
        entry.tag = tagOf(pc);
        entry.counter = SatCounter(2, taken ? 2 : 1);
    }

    // The choice table trains unless the exception cache served a
    // correct deviation (standard YAGS update filtering).
    if (!(hit && entry.counter.predictTaken() == taken &&
          taken != choice_taken)) {
        choice_counter.update(taken);
    }

    ghr = (ghr << 1) | (taken ? 1 : 0);
}

void
YagsPredictor::injectHistoryBit(bool bit)
{
    ghr = (ghr << 1) | (bit ? 1 : 0);
}

std::string
YagsPredictor::name() const
{
    return "yags-" + std::to_string(choice.size()) + "c" +
        std::to_string(takenCache.size()) + "e";
}

std::size_t
YagsPredictor::storageBits() const
{
    return choice.size() * 2 +
        2 * takenCache.size() * (2 + tagBits + 1) + cacheLog2;
}


void
YagsPredictor::saveState(StateSink &sink) const
{
    sink.writeCounters(choice);
    for (const auto *cache : {&takenCache, &notTakenCache}) {
        sink.writeU64(cache->size());
        for (const CacheEntry &entry : *cache) {
            sink.writeBool(entry.valid);
            sink.writeU32(entry.tag);
            sink.writeU8(entry.counter.raw());
        }
    }
    sink.writeU64(ghr);
}

Status
YagsPredictor::loadState(StateSource &src)
{
    PABP_TRY(src.readCounters(choice));
    for (auto *cache : {&takenCache, &notTakenCache}) {
        std::uint64_t count = 0;
        PABP_TRY(src.readPod(count));
        if (count != cache->size())
            return Status(StatusCode::InvalidArgument,
                          "direction cache size mismatch");
        for (CacheEntry &entry : *cache) {
            PABP_TRY(src.readBool(entry.valid));
            PABP_TRY(src.readPod(entry.tag));
            std::uint8_t raw = 0;
            PABP_TRY(src.readPod(raw));
            entry.counter.setRaw(raw);
        }
    }
    return src.readPod(ghr);
}

} // namespace pabp
