#include "bpred/perceptron.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/simd.hh"

namespace pabp {

PerceptronPredictor::PerceptronPredictor(unsigned rows_log2,
                                         unsigned history_bits,
                                         unsigned weight_bits)
    : rowsLog2(rows_log2), histBits(history_bits),
      weightMax((1 << (weight_bits - 1)) - 1),
      // Optimal training threshold from the paper: 1.93h + 14.
      threshold(static_cast<int>(1.93 * history_bits + 14)),
      weights((std::size_t{1} << rows_log2) * (history_bits + 1), 0)
{
    pabp_assert(history_bits >= 1 && history_bits <= 63);
    pabp_assert(weight_bits >= 2 && weight_bits <= 16);
}

void
PerceptronPredictor::saturatingAdjust(std::int16_t &w, bool up)
{
    if (up) {
        if (w < weightMax)
            ++w;
    } else {
        if (w > -weightMax - 1)
            --w;
    }
}

bool
PerceptronPredictor::predict(std::uint32_t pc)
{
    lastRow = pc & ((std::size_t{1} << rowsLog2) - 1);
    lastHistory = ghr;
    // The dot product is the predictor's hot loop (histBits signed
    // adds per lookup); simd:: dispatches to an AVX2 kernel that is
    // byte-identical to the scalar sum (util/simd.hh).
    lastOutput = simd::perceptronDot(row(lastRow), lastHistory,
                                     histBits);
    return lastOutput >= 0;
}

void
PerceptronPredictor::update(std::uint32_t pc, bool taken)
{
    (void)pc; // trained at the row/history latched by predict()
    bool predicted = lastOutput >= 0;
    if (predicted != taken || std::abs(lastOutput) <= threshold) {
        simd::perceptronTrain(
            row(lastRow), lastHistory, histBits, taken,
            static_cast<std::int16_t>(weightMax),
            static_cast<std::int16_t>(-weightMax - 1));
    }
    ghr = (ghr << 1) | (taken ? 1 : 0);
}

bool
PerceptronPredictor::predictAndUpdate(std::uint32_t pc, bool taken)
{
    // Qualified calls: statically bound, bit-identical to the unfused
    // predict-then-update pair.
    bool predicted = PerceptronPredictor::predict(pc);
    PerceptronPredictor::update(pc, taken);
    return predicted;
}


std::string
PerceptronPredictor::name() const
{
    return "perceptron-" +
        std::to_string(std::size_t{1} << rowsLog2) + "x" +
        std::to_string(histBits) + "h";
}

std::size_t
PerceptronPredictor::storageBits() const
{
    // 16-bit storage is an implementation detail; architected cost is
    // weight_bits per weight. weightMax encodes the width.
    unsigned weight_bits = 1;
    while ((1 << (weight_bits - 1)) - 1 < weightMax)
        ++weight_bits;
    return weights.size() * weight_bits + histBits;
}


void
PerceptronPredictor::saveState(StateSink &sink) const
{
    sink.writePodVector(weights);
    sink.writeU64(ghr);
}

Status
PerceptronPredictor::loadState(StateSource &src)
{
    PABP_TRY(src.readPodVector(weights, weights.size()));
    return src.readPod(ghr);
}

} // namespace pabp
