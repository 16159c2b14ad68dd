/**
 * @file
 * Trace-driven in-order EPIC pipeline timing model.
 *
 * The golden emulator supplies the committed instruction stream; this
 * model charges cycles for it the way a wide in-order (Itanium-like)
 * machine would: W-wide issue, scoreboarded operand readiness with
 * per-class latencies, guarded instructions waiting on their
 * qualifying predicate, I/D cache latencies, BTB-guided redirects for
 * taken branches, and a front-end refill penalty on every direction
 * mispredict reported by the prediction engine. Predicated-false
 * instructions still consume issue slots (the cost predication trades
 * against mispredicts), but do not access memory or write registers.
 */

#ifndef PABP_PIPELINE_PIPELINE_HH
#define PABP_PIPELINE_PIPELINE_HH

#include <cstdint>

#include "core/engine.hh"
#include "mem/cache.hh"
#include "sim/emulator.hh"

namespace pabp {

/** Pipeline configuration. */
struct PipelineConfig
{
    unsigned issueWidth = 6;
    /** Front-end refill cycles after a direction mispredict. */
    unsigned mispredictPenalty = 8;
    /** Redirect bubble for a correctly-predicted taken branch that
     *  hits in the BTB. */
    unsigned takenBubble = 1;
    /** Extra bubble when a taken branch misses the BTB. */
    unsigned btbMissPenalty = 3;

    unsigned aluLatency = 1;
    unsigned mulLatency = 3;
    unsigned divLatency = 12;
    unsigned loadHitLatency = 2;
    unsigned loadMissLatency = 14;
    unsigned icacheMissPenalty = 6;

    CacheConfig icache{7, 2, 3};  ///< 8 KiB equivalent
    CacheConfig dcache{7, 4, 3};  ///< 16 KiB equivalent

    /** Optional unified L2 behind both L1s. When enabled, an L1 miss
     *  that hits L2 costs the *MissLatency/penalty above, and an L2
     *  miss costs memoryLatency instead. Off by default. */
    bool enableL2 = false;
    CacheConfig l2{10, 8, 4};     ///< 1 Mi-bit-equivalent unified L2
    unsigned memoryLatency = 48;

    // The BTB and RAS belong to the prediction engine now
    // (EngineConfig::modelTargets + btbSetsLog2/btbWays/rasDepth):
    // they are predictor state - shared or partitioned across
    // contexts, checkpointed, stat-registered - not timing state.
    // The pipeline only charges cycles for the outcomes the engine
    // reports through ProcessResult.

    bool operator==(const PipelineConfig &) const = default;
};

/** Timing results. */
struct PipelineStats
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t rasHits = 0;
    std::uint64_t rasMisses = 0;
    std::uint64_t mispredictStallCycles = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(insts) /
                static_cast<double>(cycles)
                      : 0.0;
    }
};

/** The timing model. One instance per simulation run. */
class Pipeline
{
  public:
    /**
     * @param engine Prediction engine (owns the branch stats AND the
     *        target structures - it must be constructed with
     *        EngineConfig::modelTargets armed, or the timing model
     *        would silently charge no target penalties at all).
     * @param config Machine parameters.
     */
    Pipeline(PredictionEngine &engine, PipelineConfig config);

    /**
     * Simulate up to @p max_insts instructions from @p emu. Returns
     * the accumulated stats (also available via stats()).
     */
    const PipelineStats &run(Emulator &emu, std::uint64_t max_insts);

    const PipelineStats &stats() const { return pipeStats; }

  private:
    PredictionEngine &engine;
    PipelineConfig cfg;
    Cache icache;
    Cache dcache;
    Cache l2;
    PipelineStats pipeStats;

    std::uint64_t regReady[numGprs] = {};
    std::uint64_t predReady[numPredRegs] = {};

    std::uint64_t cycle = 0;        ///< current issue cycle
    unsigned slotsUsed = 0;
    std::uint64_t fetchReady = 0;   ///< earliest issue due to front end

    std::uint64_t execLatency(const DynInst &dyn);
    std::uint64_t operandsReady(const DynInst &dyn) const;
    void issueOne(const DynInst &dyn);
};

} // namespace pabp

#endif // PABP_PIPELINE_PIPELINE_HH
