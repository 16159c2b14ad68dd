/**
 * @file
 * Branch direction predictor interface.
 *
 * Predictors are driven trace-style: predict(pc) followed by
 * update(pc, taken) for every predicted branch, in program order.
 * Because the harnesses never fetch down a wrong path, speculative
 * history update with repair and commit-time history update coincide;
 * predictors therefore keep their history registers internally and
 * update them with the actual outcome (see DESIGN.md).
 *
 * The predicate global update technique needs to push non-branch bits
 * into a predictor's global history; predictors that maintain a global
 * history implement injectHistoryBit().
 */

#ifndef PABP_BPRED_PREDICTOR_HH
#define PABP_BPRED_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/serialize.hh"
#include "util/stats.hh"
#include "util/status.hh"

namespace pabp {

/** Abstract direction predictor. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /**
     * @name Statistics registry
     * Predictors with observable counters (e.g. gshare's aliasing
     * profiler) register them into @p group under @p prefix as
     * callback gauges. There is no reset: cold state, counters
     * included, comes only from constructing a fresh predictor, as
     * every sweep cell does. The default is for predictors with
     * nothing to report.
     * @{
     */
    virtual void
    registerStats(StatGroup &group, const std::string &prefix)
    {
        (void)group;
        (void)prefix;
    }
    /** @} */

    /** Predicted direction for the branch at @p pc. */
    virtual bool predict(std::uint32_t pc) = 0;

    /** Train with the resolved outcome. Must follow the predict()
     *  for the same dynamic branch, with no predictions between. */
    virtual void update(std::uint32_t pc, bool taken) = 0;

    /**
     * Fused predict + update for the hot replay loop: exactly
     * equivalent to predict(pc) followed by update(pc, taken),
     * returning the prediction. The default does just that (two
     * virtual dispatches); the predictors on the replay fast path
     * (gshare, combining, perceptron, TAGE) provide a `final` override
     * whose internal calls are non-virtual, so a caller holding the
     * concrete type pays no virtual dispatch at all. Overrides MUST
     * preserve bit-identical behaviour with the unfused pair - the
     * fast-vs-reference equivalence tests pin this.
     */
    virtual bool
    predictAndUpdate(std::uint32_t pc, bool taken)
    {
        bool predicted = predict(pc);
        update(pc, taken);
        return predicted;
    }

    /**
     * Shift a non-branch bit (a predicate define outcome) into the
     * global history, if this predictor has one. The default is a
     * no-op so the PGU wrapper can be applied to any predictor.
     */
    virtual void injectHistoryBit(bool bit) { (void)bit; }

    /**
     * Shift @p n non-branch bits into the global history at once,
     * oldest in the most significant position - exactly equivalent to
     * n injectHistoryBit() calls walking @p bits MSB-to-LSB. Callers
     * must pass only the low n bits (high bits clear) and n <= 64.
     * The default loops per bit, so any override of
     * injectHistoryBit() is honoured; predictors whose history is a
     * plain shift register override this with a single shift, which
     * is what makes the replay schedule cache's word-at-a-time PGU
     * drain cheap.
     */
    virtual void
    injectHistoryBits(std::uint64_t bits, unsigned n)
    {
        for (unsigned j = n; j-- > 0;)
            injectHistoryBit(((bits >> j) & 1) != 0);
    }

    /** True when injectHistoryBit() actually does something. */
    virtual bool hasGlobalHistory() const { return false; }

    /**
     * @name History swap
     * The multi-context replayer (core/multictx.hh) shares one
     * predictor's TABLES across interleaved trace contexts while
     * optionally giving each context a private global history: around
     * every schedule slice it exports the outgoing context's history
     * words and imports the incoming context's. exportHistory()
     * APPENDS this predictor's history words to @p out;
     * importHistory() reads them back from @p words and returns how
     * many words it consumed (composite predictors delegate in the
     * same order both ways). A fresh context imports the words a
     * freshly-constructed predictor exports. The defaults are for
     * predictors with no global history: nothing exported, nothing
     * consumed.
     * @{
     */
    virtual void
    exportHistory(std::vector<std::uint64_t> &out) const
    {
        (void)out;
    }
    virtual std::size_t
    importHistory(const std::uint64_t *words, std::size_t n)
    {
        (void)words;
        (void)n;
        return 0;
    }
    /** @} */

    /**
     * @name Checkpointing
     * Serialise/restore the predictor's dynamic state (counters,
     * histories, tags) - configuration is not stored; a checkpoint
     * only restores into an identically-configured predictor, which
     * loadState() verifies via table geometry. The default pair is
     * for stateless predictors. Transient predict()-to-update()
     * latches need no saving: checkpoints are only taken between
     * whole process() steps. See docs/ROBUSTNESS.md.
     * @{
     */
    virtual void saveState(StateSink &sink) const { (void)sink; }
    virtual Status
    loadState(StateSource &src)
    {
        (void)src;
        return Status();
    }
    /** @} */

    /** Human-readable name, e.g. "gshare-4K". */
    virtual std::string name() const = 0;

    /** Hardware budget in bits (counters + histories). */
    virtual std::size_t storageBits() const = 0;
};

using PredictorPtr = std::unique_ptr<BranchPredictor>;

} // namespace pabp

#endif // PABP_BPRED_PREDICTOR_HH
