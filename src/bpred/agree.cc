#include "bpred/agree.hh"

#include "util/logging.hh"

namespace pabp {

AgreePredictor::AgreePredictor(unsigned entries_log2, unsigned bias_log2)
    : agreeTable(std::size_t{1} << entries_log2,
                 SatCounter(2, 2)), // init weakly-agree
      biasTable(std::size_t{1} << bias_log2),
      entriesLog2(entries_log2), biasLog2(bias_log2)
{
    pabp_assert(entries_log2 >= 1 && entries_log2 <= 24);
}

std::size_t
AgreePredictor::index(std::uint32_t pc) const
{
    std::uint64_t hist = ghr & ((std::uint64_t{1} << entriesLog2) - 1);
    return (pc ^ hist) & (agreeTable.size() - 1);
}

AgreePredictor::Bias &
AgreePredictor::biasFor(std::uint32_t pc)
{
    return biasTable[pc & (biasTable.size() - 1)];
}

bool
AgreePredictor::predict(std::uint32_t pc)
{
    const Bias &bias = biasFor(pc);
    bool bias_dir = bias.valid ? bias.bias : true;
    bool agree = agreeTable[index(pc)].predictTaken();
    return agree == bias_dir;
}

void
AgreePredictor::update(std::uint32_t pc, bool taken)
{
    Bias &bias = biasFor(pc);
    if (!bias.valid) {
        // First-outcome bias setting, as in the original proposal.
        bias.valid = true;
        bias.bias = taken;
    }
    agreeTable[index(pc)].update(taken == bias.bias);
    ghr = (ghr << 1) | (taken ? 1 : 0);
}

void
AgreePredictor::injectHistoryBit(bool bit)
{
    ghr = (ghr << 1) | (bit ? 1 : 0);
}

std::string
AgreePredictor::name() const
{
    return "agree-" + std::to_string(agreeTable.size());
}

std::size_t
AgreePredictor::storageBits() const
{
    return agreeTable.size() * 2 + biasTable.size() * 2 + entriesLog2;
}


void
AgreePredictor::saveState(StateSink &sink) const
{
    sink.writeCounters(agreeTable);
    sink.writeU64(biasTable.size());
    for (const Bias &b : biasTable) {
        sink.writeBool(b.valid);
        sink.writeBool(b.bias);
    }
    sink.writeU64(ghr);
}

Status
AgreePredictor::loadState(StateSource &src)
{
    PABP_TRY(src.readCounters(agreeTable));
    std::uint64_t count = 0;
    PABP_TRY(src.readPod(count));
    if (count != biasTable.size())
        return Status(StatusCode::InvalidArgument,
                      "bias table size mismatch");
    for (Bias &b : biasTable) {
        PABP_TRY(src.readBool(b.valid));
        PABP_TRY(src.readBool(b.bias));
    }
    return src.readPod(ghr);
}

} // namespace pabp
