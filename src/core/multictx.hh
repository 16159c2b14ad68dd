/**
 * @file
 * Multi-context replay: N independent trace contexts interleaved
 * through ONE set of branch-predictor tables.
 *
 * This is the shared-predictor interference experiment (bench E21):
 * every context gets its own PredictionEngine - its own SFPF/PGU/PVP
 * state, its own profile, its own stats - but all engines drive the
 * same BranchPredictor, so pattern-table entries trained by one
 * context are evicted or flipped by another. Two knobs shape the
 * interference:
 *
 *  - sharedHistory: when true the global history register (and, with
 *    EngineConfig::modelTargets armed, the BTB and return address
 *    stack) is ALSO shared - the fully-shared SMT picture. When
 *    false each context keeps a private history (swapped in and out
 *    around every schedule slice via BranchPredictor::exportHistory/
 *    importHistory) and private target structures; only the pattern
 *    tables interfere - the partitioned-front-end picture.
 *  - tagBits: low context-id bits mixed into every table index
 *    (PredictionEngine::setContextTag), trading capacity for
 *    isolation the way hashed-in thread ids do in real cores.
 *
 * Determinism: the schedule stream is a pure function of its config,
 * each slice advances exactly one context, and both replay loops
 * (batched decoded-trace, reference emulator) make the same
 * done/exhausted decisions at the same slice - so fast and reference
 * replay are byte-identical, and a 1-context replay is byte-identical
 * to the ordinary single-stream loop (pinned by tests and the
 * multictx fuzz oracle).
 *
 * Checkpointing is deliberately unsupported here: a mid-slice
 * snapshot would need every context's emulator plus the schedule
 * state, and no experiment needs it - the sweep rejects the
 * combination with InvalidArgument. A stop predicate, checked
 * between schedule slices, ends a replay early; the sweep's watchdog
 * uses it, and it leaves the schedule untouched.
 */

#ifndef PABP_CORE_MULTICTX_HH
#define PABP_CORE_MULTICTX_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hh"
#include "sim/context_schedule.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"

namespace pabp {

/** Multi-context replay configuration. */
struct MultiCtxConfig
{
    ContextScheduleConfig schedule;
    /** Share global history (and BTB/RAS when modelled) across
     *  contexts; false = private history per context, swapped around
     *  every slice. The pattern tables are always shared. */
    bool sharedHistory = true;
    /** Context-id bits mixed into table indices; 0 = pure sharing. */
    unsigned tagBits = 0;
    /** Per-context engine configuration (identical for all). */
    EngineConfig engine;
};

/** Replays N contexts through one shared predictor. One per run. */
class MultiContextReplayer
{
  public:
    /** Checked after every schedule slice; true ends the replay
     *  there. Empty = never stop early. */
    using Stop = std::function<bool()>;

    /** @p pred must be freshly constructed (its initial history is
     *  the per-context baseline in partitioned mode) and outlive the
     *  replayer. */
    MultiContextReplayer(BranchPredictor &pred,
                         const MultiCtxConfig &config);

    /**
     * Fast path: one pre-decoded trace per context, replayed through
     * the batched engine loop slice by slice. @p max_insts_per_context
     * must be the budget the traces were recorded with - the
     * exhaustion bookkeeping that keeps this loop slice-for-slice
     * identical to replayEmulated() depends on it. Returns total
     * events processed across all contexts.
     */
    std::uint64_t
    replayDecoded(const std::vector<const DecodedTrace *> &traces,
                  std::uint64_t max_insts_per_context,
                  const Stop &stop = {});

    /** Reference path: one live emulator per context, stepped through
     *  PredictionEngine::process via runTrace slices. */
    std::uint64_t
    replayEmulated(const std::vector<Emulator *> &emus,
                   std::uint64_t max_insts_per_context,
                   const Stop &stop = {});

    unsigned contexts() const
    {
        return static_cast<unsigned>(engines.size());
    }
    PredictionEngine &engine(unsigned ctx) { return *engines[ctx]; }
    const PredictionEngine &
    engine(unsigned ctx) const
    {
        return *engines[ctx];
    }

  private:
    /** advance(ctx, len) -> (events processed, context exhausted). */
    using Advance =
        std::function<std::pair<std::uint64_t, bool>(unsigned,
                                                     std::uint64_t)>;

    std::uint64_t drive(const Advance &advance,
                        std::vector<std::uint64_t> &remaining,
                        const Stop &stop);
    void beginSlice(unsigned ctx);
    void endSlice(unsigned ctx);

    MultiCtxConfig cfg;
    BranchPredictor &pred;
    std::vector<std::unique_ptr<PredictionEngine>> engines;
    /** Partitioned mode: each context's saved history words. */
    std::vector<std::vector<std::uint64_t>> histories;
};

} // namespace pabp

#endif // PABP_CORE_MULTICTX_HH
