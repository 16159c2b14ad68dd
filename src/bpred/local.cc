#include "bpred/local.hh"

#include "util/logging.hh"

namespace pabp {

LocalPredictor::LocalPredictor(unsigned bht_log2, unsigned local_bits,
                               unsigned pht_log2, unsigned counter_bits)
    : bht(std::size_t{1} << bht_log2, 0),
      pht(std::size_t{1} << pht_log2, SatCounter(counter_bits)),
      bhtLog2(bht_log2), localBits(local_bits), phtLog2(pht_log2),
      counterBits(counter_bits)
{
    pabp_assert(local_bits >= 1 && local_bits <= 24);
    pabp_assert(local_bits <= pht_log2);
}

std::size_t
LocalPredictor::phtIndex(std::uint32_t pc) const
{
    std::uint32_t hist = bht[pc & (bht.size() - 1)];
    std::size_t idx = hist | (static_cast<std::size_t>(pc) << localBits);
    return idx & (pht.size() - 1);
}

bool
LocalPredictor::predict(std::uint32_t pc)
{
    return pht[phtIndex(pc)].predictTaken();
}

void
LocalPredictor::update(std::uint32_t pc, bool taken)
{
    pht[phtIndex(pc)].update(taken);
    std::uint32_t &hist = bht[pc & (bht.size() - 1)];
    hist = ((hist << 1) | (taken ? 1 : 0)) &
        ((std::uint32_t{1} << localBits) - 1);
}

std::string
LocalPredictor::name() const
{
    return "local-" + std::to_string(bht.size()) + "x" +
        std::to_string(localBits) + "h";
}

std::size_t
LocalPredictor::storageBits() const
{
    return bht.size() * localBits + pht.size() * counterBits;
}


void
LocalPredictor::saveState(StateSink &sink) const
{
    sink.writePodVector(bht);
    sink.writeCounters(pht);
}

Status
LocalPredictor::loadState(StateSource &src)
{
    PABP_TRY(src.readPodVector(bht, bht.size()));
    return src.readCounters(pht);
}

} // namespace pabp
