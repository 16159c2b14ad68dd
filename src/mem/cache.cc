#include "mem/cache.hh"

#include "util/logging.hh"

namespace pabp {

Cache::Cache(CacheConfig config)
    : cfg(config), lines((std::size_t{1} << config.setsLog2) * config.ways)
{
    pabp_assert(config.ways >= 1);
}

bool
Cache::access(std::uint64_t word_addr)
{
    std::uint64_t line_addr = word_addr >> cfg.lineWordsLog2;
    std::uint64_t set = line_addr & ((std::uint64_t{1} << cfg.setsLog2) - 1);
    std::uint64_t tag = line_addr >> cfg.setsLog2;
    Line *base = &lines[set * cfg.ways];

    Line *victim = base;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = ++useClock;
            ++hitCount;
            return true;
        }
        if (!line.valid)
            victim = &line;
        else if (victim->valid && line.lastUse < victim->lastUse)
            victim = &line;
    }

    ++missCount;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = ++useClock;
    return false;
}

std::size_t
Cache::capacityWords() const
{
    return (std::size_t{1} << cfg.setsLog2) * cfg.ways *
        (std::size_t{1} << cfg.lineWordsLog2);
}

} // namespace pabp
