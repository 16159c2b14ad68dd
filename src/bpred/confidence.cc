#include "bpred/confidence.hh"

#include "util/logging.hh"

namespace pabp {

ConfidenceEstimator::ConfidenceEstimator(unsigned entries_log2,
                                         unsigned counter_max,
                                         unsigned threshold)
    : table(std::size_t{1} << entries_log2, 0), counterMax(counter_max),
      confThreshold(threshold)
{
    pabp_assert(entries_log2 >= 1 && entries_log2 <= 20);
    pabp_assert(threshold <= counter_max);
    pabp_assert(counter_max <= 255);
}

bool
ConfidenceEstimator::highConfidence(std::uint32_t pc) const
{
    return table[index(pc)] >= confThreshold;
}

void
ConfidenceEstimator::update(std::uint32_t pc, bool correct)
{
    ++updateCount;
    std::uint8_t &counter = table[index(pc)];
    if (correct) {
        if (counter < counterMax)
            ++counter;
    } else {
        counter = 0;
        ++resetCount;
    }
}

void
ConfidenceEstimator::registerStats(StatGroup &group,
                                   const std::string &prefix)
{
    group.gauge(prefix + "updates", [this] { return updateCount; });
    group.gauge(prefix + "low_resets", [this] { return resetCount; });
}

std::size_t
ConfidenceEstimator::storageBits() const
{
    unsigned bits = 1;
    while ((1u << bits) - 1 < counterMax)
        ++bits;
    return table.size() * bits;
}


void
ConfidenceEstimator::saveState(StateSink &sink) const
{
    sink.writePodVector(table);
    sink.writeU64(updateCount);
    sink.writeU64(resetCount);
}

Status
ConfidenceEstimator::loadState(StateSource &src)
{
    PABP_TRY(src.readPodVector(table, table.size()));
    PABP_TRY(src.readPod(updateCount));
    return src.readPod(resetCount);
}

} // namespace pabp
