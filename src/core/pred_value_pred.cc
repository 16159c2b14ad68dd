#include "core/pred_value_pred.hh"

#include "util/logging.hh"

namespace pabp {

PredicateValuePredictor::PredicateValuePredictor(unsigned entries_log2)
    : table(std::size_t{1} << entries_log2, SatCounter(2))
{
    pabp_assert(entries_log2 >= 1 && entries_log2 <= 20);
}

bool
PredicateValuePredictor::predictGuard(std::uint32_t pc) const
{
    return table[index(pc)].predictTaken();
}

void
PredicateValuePredictor::train(std::uint32_t pc, bool guard)
{
    ++trainCount;
    table[index(pc)].update(guard);
}

void
PredicateValuePredictor::registerStats(StatGroup &group,
                                       const std::string &prefix)
{
    group.gauge(prefix + "trains", [this] { return trainCount; });
}

bool
PredicateValuePredictor::confident(std::uint32_t pc) const
{
    return table[index(pc)].isSaturated();
}

} // namespace pabp
