#include "bpred/simple.hh"

#include "util/logging.hh"

namespace pabp {

BimodalPredictor::BimodalPredictor(unsigned entries_log2,
                                   unsigned counter_bits)
    : table(std::size_t{1} << entries_log2, SatCounter(counter_bits)),
      entriesLog2(entries_log2), counterBits(counter_bits)
{
    pabp_assert(entries_log2 >= 1 && entries_log2 <= 24);
}

bool
BimodalPredictor::predict(std::uint32_t pc)
{
    return table[index(pc)].predictTaken();
}

void
BimodalPredictor::update(std::uint32_t pc, bool taken)
{
    table[index(pc)].update(taken);
}

std::string
BimodalPredictor::name() const
{
    return "bimodal-" + std::to_string(table.size());
}

std::size_t
BimodalPredictor::storageBits() const
{
    return table.size() * counterBits;
}


void
BimodalPredictor::saveState(StateSink &sink) const
{
    sink.writeCounters(table);
}

Status
BimodalPredictor::loadState(StateSource &src)
{
    return src.readCounters(table);
}

} // namespace pabp
