#include "bpred/combining.hh"

#include "util/logging.hh"

namespace pabp {

CombiningPredictor::CombiningPredictor(PredictorPtr first,
                                       PredictorPtr second,
                                       unsigned chooser_log2)
    : firstPred(std::move(first)), secondPred(std::move(second)),
      chooser(std::size_t{1} << chooser_log2, SatCounter(2))
{
    pabp_assert(firstPred && secondPred);
}

bool
CombiningPredictor::predict(std::uint32_t pc)
{
    lastFirst = firstPred->predict(pc);
    lastSecond = secondPred->predict(pc);
    return chooser[index(pc)].predictTaken() ? lastSecond : lastFirst;
}

void
CombiningPredictor::update(std::uint32_t pc, bool taken)
{
    // Train the chooser only when the components disagree.
    if (lastFirst != lastSecond)
        chooser[index(pc)].update(lastSecond == taken);
    firstPred->update(pc, taken);
    secondPred->update(pc, taken);
}

bool
CombiningPredictor::predictAndUpdate(std::uint32_t pc, bool taken)
{
    // Qualified calls: statically bound, bit-identical to the unfused
    // pair. The components stay virtual - they are the tournament's
    // pluggable halves - but the wrapper's own dispatch disappears.
    bool predicted = CombiningPredictor::predict(pc);
    CombiningPredictor::update(pc, taken);
    return predicted;
}


bool
CombiningPredictor::hasGlobalHistory() const
{
    return firstPred->hasGlobalHistory() || secondPred->hasGlobalHistory();
}

std::string
CombiningPredictor::name() const
{
    return "comb(" + firstPred->name() + "," + secondPred->name() + ")";
}

std::size_t
CombiningPredictor::storageBits() const
{
    return firstPred->storageBits() + secondPred->storageBits() +
        chooser.size() * 2;
}


void
CombiningPredictor::saveState(StateSink &sink) const
{
    sink.writeCounters(chooser);
    firstPred->saveState(sink);
    secondPred->saveState(sink);
}

Status
CombiningPredictor::loadState(StateSource &src)
{
    PABP_TRY(src.readCounters(chooser));
    PABP_TRY(firstPred->loadState(src));
    return secondPred->loadState(src);
}

} // namespace pabp
