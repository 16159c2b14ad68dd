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
 *    around every piece of a schedule slice via
 *    BranchPredictor::exportHistory/importHistory) and private target
 *    structures; only the pattern tables interfere - the
 *    partitioned-front-end picture.
 *  - tagBits: low context-id bits mixed into every table index
 *    (PredictionEngine::setContextTag), trading capacity for
 *    isolation the way hashed-in thread ids do in real cores.
 *
 * Determinism: the schedule stream is a pure function of its config,
 * each slice advances exactly one context, and both replay paths
 * (batched decoded-trace, reference emulator) make the same
 * done/exhausted decisions at the same slice - so fast and reference
 * replay are byte-identical, and a 1-context replay is byte-identical
 * to the ordinary single-stream loop (pinned by tests and the
 * multictx fuzz oracle).
 *
 * The replayer is resumable: advance(n) runs up to n more events and
 * a slice that n cuts short continues on the next call. The history
 * swap is exact and both engine loops are exactly resumable, so how
 * a replay is split into advances is invisible in its results; the
 * sweep drives multi-context cells through its one cell loop, with
 * the same heartbeat and watchdog as every other cell. Checkpointing
 * is not supported yet: the N-context state has no file format, and
 * the sweep rejects the combination with InvalidArgument.
 */

#ifndef PABP_CORE_MULTICTX_HH
#define PABP_CORE_MULTICTX_HH

#include <cstdint>
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
    /**
     * Fast path: one pre-decoded trace per context, replayed through
     * the batched engine loop. @p max_insts_per_context must be the
     * budget the traces were recorded with - the exhaustion
     * bookkeeping that keeps this path slice-for-slice identical to
     * the emulated one depends on it. @p pred must be freshly
     * constructed (its initial history is the per-context baseline in
     * partitioned mode); it and the traces must outlive the replayer.
     */
    MultiContextReplayer(BranchPredictor &pred,
                         const MultiCtxConfig &config,
                         std::vector<const DecodedTrace *> traces,
                         std::uint64_t max_insts_per_context);

    /** Reference path: one live emulator per context, stepped through
     *  PredictionEngine::process via runTrace. */
    MultiContextReplayer(BranchPredictor &pred,
                         const MultiCtxConfig &config,
                         std::vector<Emulator *> emus,
                         std::uint64_t max_insts_per_context);

    /** Run up to @p n more events across the contexts in schedule
     *  order and return how many ran: fewer than @p n only when every
     *  context is exhausted. A slice that @p n cuts short continues
     *  on the next call. */
    std::uint64_t advance(std::uint64_t n);

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
    MultiContextReplayer(BranchPredictor &pred,
                         const MultiCtxConfig &config);

    /** Up to @p len events of context @p ctx -> (events processed,
     *  context exhausted). */
    std::pair<std::uint64_t, bool> runContext(unsigned ctx,
                                              std::uint64_t len);
    void beginSlice(unsigned ctx);
    void endSlice(unsigned ctx);

    MultiCtxConfig cfg;
    BranchPredictor &pred;
    std::vector<std::unique_ptr<PredictionEngine>> engines;
    /** Partitioned mode: each context's saved history words. */
    std::vector<std::vector<std::uint64_t>> histories;

    /** Exactly one of these holds a stream per context. */
    std::vector<const DecodedTrace *> traces;
    std::vector<Emulator *> emus;
    /** Fast path: each context's next trace event. */
    std::vector<std::uint64_t> cursor;
    /** Events each context may still run; 0 = exhausted. */
    std::vector<std::uint64_t> remaining;

    ContextSchedule sched;
    /** The slice in progress: its context and the events it has
     *  left (0 = draw the next slice). */
    unsigned sliceCtx = 0;
    std::uint64_t sliceLeft = 0;
};

} // namespace pabp

#endif // PABP_CORE_MULTICTX_HH
