/**
 * @file
 * In-order EPIC pipeline timing model over the emulator's committed
 * instruction stream.
 *
 * The model charges cycles the way a wide in-order (Itanium-like)
 * machine would: W-wide issue, scoreboarded operand readiness with
 * per-class latencies, guarded instructions waiting on their
 * qualifying predicate, I/D cache latencies, BTB-guided redirects for
 * taken branches, and a front-end refill penalty on every direction
 * mispredict reported by the prediction engine. Predicated-false
 * instructions still consume issue slots (the cost predication trades
 * against mispredicts), but do not access memory or write registers.
 *
 * run() advances in the windows of a LiveWindow (core/engine.hh), in
 * three passes per window: the interpreter records the window into
 * reused DecodedTrace lanes plus an effective-address lane; the
 * engine's batch loop (PredictionEngine::processBatch) decides every
 * event and writes one outcome byte each; one per-event timing step
 * then charges cycles from the lanes and the outcome bytes. No
 * decision depends on the timing, so the passes reproduce the
 * per-instruction interleaving exactly. runReference() drives the same timing step from
 * Emulator::step() and PredictionEngine::process(), one instruction
 * at a time; it is the oracle the windowed run is checked against
 * (tests/test_pipeline.cc, fuzz oracle 2).
 */

#ifndef PABP_PIPELINE_PIPELINE_HH
#define PABP_PIPELINE_PIPELINE_HH

#include <cstdint>
#include <optional>
#include <vector>

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

    bool operator==(const PipelineStats &) const = default;

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
     * Simulate up to @p max_insts instructions from @p emu, in
     * windows (see the file comment). Returns the accumulated stats
     * (also available via stats()). A Pipeline times one program: its
     * per-pc tables are built on the first run() and rebuilt only when
     * @p emu runs a different Program object.
     */
    const PipelineStats &run(Emulator &emu, std::uint64_t max_insts);

    /** run()'s reference: step() plus process() per instruction into
     *  the same timing step. Same stats, engine state and emulator
     *  state as run(); kept as the oracle. */
    const PipelineStats &runReference(Emulator &emu,
                                      std::uint64_t max_insts);

    const PipelineStats &stats() const { return pipeStats; }

  private:
    PredictionEngine &engine;
    PipelineConfig cfg;
    Cache icache;
    Cache dcache;
    /** Built only when cfg.enableL2. */
    std::optional<Cache> l2;
    PipelineStats pipeStats;

    std::uint64_t regReady[numGprs] = {};
    std::uint64_t predReady[numPredRegs] = {};

    std::uint64_t cycle = 0;        ///< current issue cycle
    unsigned slotsUsed = 0;
    std::uint64_t fetchReady = 0;   ///< earliest issue due to front end
    /** Icache line of the last fetch: a fetch from the same line hits
     *  and changes no replacement order, so it skips the probe. */
    std::uint64_t lastFetchLine = ~std::uint64_t{0};

    /** What the timing step needs of a static instruction. Register 0
     *  of either file is never written here, so an operand the
     *  instruction does not read points at register 0 (always ready),
     *  and dst 0 means no register write. */
    struct Operands
    {
        std::uint8_t qp;
        std::uint8_t src1;
        std::uint8_t src2;
        std::uint8_t dst;
        /** The predicate registers an event's writes name, in write
         *  order (PredicateWrites::reg): an event with k writes makes
         *  the first k ready. */
        std::uint8_t pred0;
        std::uint8_t pred1;
        Opcode op;
    };
    /** @name Per-program tables (bindProgram)
     * @{ */
    const Program *boundProgram = nullptr;
    std::vector<Operands> operands; ///< by pc
    /** @} */

    /** run()'s reused event window, with the timed lanes. */
    LiveWindow live{true};

    void bindProgram(const Program &prog);
    /** Charge one event: the per-event timing step run() and
     *  runReference() share. @p flags is the trace-lane encoding;
     *  @p outcome is the engine's outcome byte. */
    void timeEvent(std::uint32_t pc, std::uint8_t flags,
                   std::int64_t eff_addr, std::uint8_t outcome);
};

} // namespace pabp

#endif // PABP_PIPELINE_PIPELINE_HH
