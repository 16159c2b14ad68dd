/**
 * @file
 * The squash false path filter (SFPF) - the paper's first technique.
 *
 * At fetch, a conditional branch whose qualifying predicate is already
 * known to be false cannot be taken (architectural invariant of the
 * predicated ISA), so the filter predicts it not-taken with 100%
 * accuracy, bypassing the dynamic predictor entirely. Filtered
 * branches neither read nor train the base predictor, which also
 * removes their pollution from its tables and history.
 */

#ifndef PABP_CORE_SFPF_HH
#define PABP_CORE_SFPF_HH

#include <cstdint>

#include "core/delayed_pred_file.hh"
#include "isa/inst.hh"
#include "util/serialize.hh"
#include "util/stats.hh"
#include "util/status.hh"

namespace pabp {

/** Squash false path filter over a delayed predicate file. */
class SquashFalsePathFilter
{
  public:
    explicit SquashFalsePathFilter(const DelayedPredicateFile &file)
        : predFile(file)
    {}

    /**
     * Should the conditional branch @p inst (fetched at @p seq, after
     * the file has been advanced to @p seq) be squashed - i.e.
     * predicted not-taken with certainty?
     */
    bool
    shouldSquash(const Inst &inst) const
    {
        if (inst.op != Opcode::Br || inst.qp == 0)
            return false;
        auto known = predFile.read(inst.qp);
        return known.has_value() && !*known;
    }

    std::uint64_t squashes() const { return squashCount; }
    void noteSquash() { ++squashCount; }

    void
    registerStats(StatGroup &group, const std::string &prefix)
    {
        group.gauge(prefix + "squashes", [this] { return squashCount; });
    }

    void saveState(StateSink &sink) const { sink.writeU64(squashCount); }
    Status loadState(StateSource &src) { return src.readPod(squashCount); }

  private:
    const DelayedPredicateFile &predFile;
    std::uint64_t squashCount = 0;
};

} // namespace pabp

#endif // PABP_CORE_SFPF_HH
