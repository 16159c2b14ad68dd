/**
 * @file
 * The predicate-aware prediction engine: a base direction predictor
 * optionally wrapped with the paper's two techniques (squash false
 * path filter, predicate global update), driven by the dynamic
 * instruction stream. This is the component every experiment in
 * bench/ instantiates.
 */

#ifndef PABP_CORE_ENGINE_HH
#define PABP_CORE_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/confidence.hh"
#include "bpred/predictor.hh"
#include "core/branch_profile.hh"
#include "core/delayed_pred_file.hh"
#include "core/pgu.hh"
#include "core/pred_value_pred.hh"
#include "core/sfpf.hh"
#include "sim/decoded_trace.hh"
#include "sim/emulator.hh"
#include "sim/trace_io.hh"
#include "util/simd.hh"
#include "util/stats.hh"

namespace pabp {

/** Engine configuration: which techniques are armed. */
struct EngineConfig
{
    bool useSfpf = false;
    bool usePgu = false;
    /** Define-to-fetch visibility delay for the filter, in dynamic
     *  instructions (roughly front-end depth x issue width). */
    unsigned availDelay = 8;
    PguConfig pgu;
    /** Ablation: squashed branches still train the base predictor
     *  (the paper's design skips training to avoid pollution). */
    bool trainOnSquashed = false;
    /** Ablation: a fetched define to a predicate makes it unknown
     *  even when it will not architecturally write (conservative
     *  hardware that cannot pre-evaluate guards at fetch). */
    bool conservativeDefTracking = false;
    /** Extension: when the guard is unresolved at fetch, predict its
     *  value with a confidence-gated counter table and squash
     *  speculatively. Not 100% accurate; see EngineStats. */
    bool useSpeculativeSquash = false;
    unsigned pvpEntriesLog2 = 10;
    /** Confidence gate for speculative squash: the value predictor's
     *  own counter saturation, or a JRS resetting-counter estimator
     *  tracking recent guard-prediction correctness. */
    enum class SpecGate : std::uint8_t { Saturation, Jrs };
    SpecGate specGate = SpecGate::Saturation;
    unsigned jrsEntriesLog2 = 10;
    /** Max static branches attributed individually in the per-PC
     *  profile (core/branch_profile.hh); overflow goes to the
     *  explicit evicted bucket. 0 disables per-PC tracking. Purely
     *  observational: prediction behaviour is identical at any
     *  value. */
    unsigned branchProfileCapacity = 1024;
    /** Model taken-branch targets: the engine owns a BTB and a return
     *  address stack, probes them on every taken control transfer
     *  (see docs on the lookup policy in bpred/btb.hh), counts target
     *  misses, and reports them through ProcessResult so the pipeline
     *  can charge penalties. Off by default: direction-only runs keep
     *  their metric files and checkpoints byte-identical. */
    bool modelTargets = false;
    unsigned btbSetsLog2 = 9;
    unsigned btbWays = 4;
    unsigned rasDepth = 16;
};

/** Per-branch-class counters. */
struct BranchClassStats
{
    std::uint64_t branches = 0;
    std::uint64_t taken = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t squashed = 0;
    std::uint64_t falseGuard = 0; ///< guard false at execute (oracle)

    double
    mispredictRate() const
    {
        return branches
            ? static_cast<double>(mispredicts) /
                static_cast<double>(branches)
            : 0.0;
    }

    bool operator==(const BranchClassStats &) const = default;
};

/** All engine statistics. */
struct EngineStats
{
    std::uint64_t insts = 0;
    std::uint64_t uncondBranches = 0;
    std::uint64_t predicateDefines = 0;

    BranchClassStats all;     ///< every conditional branch
    BranchClassStats region;  ///< region-based branches only
    BranchClassStats normal;  ///< the rest

    /** @name Speculative-squash extension counters
     *  @{ */
    std::uint64_t specSquashed = 0;      ///< guard predicted false
    std::uint64_t specSquashedWrong = 0; ///< ...and the branch was taken
    /** @} */

    /** @name Target-modelling counters (EngineConfig::modelTargets)
     *  @{ */
    /** Taken transfers whose BTB probe had no entry or the wrong
     *  target (wrong target counts: the front end still refetches). */
    std::uint64_t btbTargetMisses = 0;
    std::uint64_t rasHits = 0;   ///< RAS-popped target was right
    std::uint64_t rasMisses = 0; ///< wrong or empty-stack pop
    /** @} */

    double
    mpki() const
    {
        return insts
            ? 1000.0 * static_cast<double>(all.mispredicts) /
                static_cast<double>(insts)
            : 0.0;
    }

    /** Exact equality - the checkpoint/resume equivalence tests
     *  require bit-identical counters, not tolerances. */
    bool operator==(const EngineStats &) const = default;
};

/** What the engine decided for one instruction (pipeline feedback). */
struct ProcessResult
{
    bool condBranch = false;
    bool mispredicted = false;
    /** SFPF squash: the guard was RESOLVED false at fetch, so the
     *  not-taken prediction is certain (never a mispredict). */
    bool squashed = false;
    /** Speculative squash (extension): the guard was only PREDICTED
     *  false - a confidence-gated guess, not a certainty. When the
     *  guess is wrong the branch was taken and `mispredicted` is also
     *  set; consumers that treat `squashed` as "cannot mispredict"
     *  must not lump this flag in with it. */
    bool specSquashed = false;
    /** @name Target modelling (EngineConfig::modelTargets)
     * All false when target modelling is off.
     * @{ */
    /** Taken transfer whose BTB probe returned no/the wrong target. */
    bool targetMiss = false;
    /** The instruction was a taken return, predicted through the
     *  RAS; rasCorrect says whether the popped target matched. */
    bool rasReturn = false;
    bool rasCorrect = false;
    /** @} */
};

/** @name Outcome bytes
 * PredictionEngine::processBatch can report one byte per event: the
 * ProcessResult fields a timing model charges cycles for, packed.
 * An event the engine makes no such decision on reads 0.
 * @{ */
inline constexpr std::uint8_t outcomeMispredicted = 1; ///< cond branch
inline constexpr std::uint8_t outcomeRasReturn = 2;
inline constexpr std::uint8_t outcomeRasCorrect = 4;
inline constexpr std::uint8_t outcomeTargetMiss = 8;

/** The outcome byte of @p r. */
inline std::uint8_t
packOutcome(const ProcessResult &r)
{
    return static_cast<std::uint8_t>(
        (r.condBranch && r.mispredicted ? outcomeMispredicted : 0) |
        (r.rasReturn ? outcomeRasReturn : 0) |
        (r.rasCorrect ? outcomeRasCorrect : 0) |
        (r.targetMiss ? outcomeTargetMiss : 0));
}
/** @} */

/** Drives predictor + SFPF + PGU over a dynamic trace. */
class PredictionEngine
{
  public:
    PredictionEngine(BranchPredictor &base, EngineConfig config);

    /** Feed one executed instruction, in program order. */
    ProcessResult process(const DynInst &dyn);

    /**
     * Fast replay: feed events [@p first, @p first + @p max_insts) of
     * a pre-decoded trace. Bit-identical to calling process() on
     * trace.materialise(i) for each i - the equivalence tests pin
     * stats, profile, exported metrics and checkpoint bytes - but
     * substantially faster. With SFPF or PGU armed, every batch
     * replays from a ReplaySchedule (sim/replay_schedule.hh): the
     * predictor-independent guard states and PGU bit stream, shared
     * by the engines on the trace's cold contiguous path and private
     * to any other batch (see that file). On the path the predicate
     * file is settled lazily, from the trace, by saveState(),
     * process() or a batch that leaves the path: that trace must stay
     * alive and in place until then.
     *
     * The replay loop then visits branches only: a run with no
     * technique armed takes a loop specialisation with every
     * technique branch compiled away, no DynInst is built (the loop
     * reads the trace's flat lanes), and the predict+update pair on
     * the hot predictors (gshare, combining, perceptron, TAGE)
     * devirtualises into one statically-bound predictAndUpdate call.
     * See docs/PERF.md.
     *
     * Returns the index one past the last event processed; @p first
     * at or past the end processes nothing and returns @p first
     * unchanged (same clamped contract as replayTraceFrom). A
     * non-null @p outcomes receives, at index k, the outcome byte
     * packOutcome(process(trace.materialise(first + k))) would give
     * for every processed event - what the cycle-level pipeline
     * charges its front-end bubbles from.
     */
    std::uint64_t processBatch(const DecodedTrace &trace,
                               std::uint64_t first,
                               std::uint64_t max_insts,
                               std::uint8_t *outcomes = nullptr);

    const EngineStats &stats() const { return engineStats; }
    std::uint64_t pguBitsInserted() const { return pgu.bitsInserted(); }
    const EngineConfig &config() const { return cfg; }

    /** @name Target structures (non-null iff modelTargets)
     *  @{ */
    Btb *btb() { return btbPtr; }
    ReturnAddressStack *ras() { return rasPtr; }
    /** @} */

    /**
     * Share another engine's target structures (multi-context shared
     * mode): this engine's probes and updates land in @p b / @p r
     * instead of its own tables. Pass the OWNING engine's btb()/ras();
     * both engines must have modelTargets armed. Pointers are
     * borrowed - the owner must outlive this engine.
     */
    void
    setTargetStructures(Btb *b, ReturnAddressStack *r)
    {
        btbPtr = b;
        rasPtr = r;
    }

    /**
     * Context-tag table indexing (multi-context replay): mix @p ctx's
     * low @p tag_bits into every predictor and BTB index so contexts
     * sharing one table stop aliasing each other's entries. The tag
     * is spread across the index by a golden-ratio multiply; context
     * 0 (and tag_bits 0) mixes nothing, so a single-context run stays
     * byte-identical to the untagged engine. Attribution state (the
     *  per-PC profile, PVP, JRS) keeps the real pc.
     */
    void
    setContextTag(unsigned ctx, unsigned tag_bits)
    {
        const std::uint32_t mask =
            tag_bits >= 32 ? ~std::uint32_t{0}
                           : ((std::uint32_t{1} << tag_bits) - 1);
        ctxMix = (ctx & mask) * 0x9E3779B9u;
    }

    /** Per-static-branch attribution (lookups, mispredicts, SFPF
     *  squashes, PGU influence, guard occupancy). */
    const BranchProfile &branchProfile() const { return profile; }

    /**
     * A prediction counts as PGU-influenced when a predicate bit was
     * injected into the global history within this many history
     * shifts before it - i.e. the bit is still inside any
     * practically-sized history register.
     */
    static constexpr std::uint64_t pguInfluenceWindow = 64;

    /**
     * Register every engine counter - and those of all owned
     * components plus the base predictor - into @p group under
     * stable dotted names ("engine.all.branches", "sfpf.squashes",
     * "pgu.bits_inserted", ...). @p group must not outlive this
     * engine.
     */
    void registerStats(StatGroup &group);

    /**
     * @name Checkpointing
     * Serialise/restore everything the engine needs to continue a
     * run bit-identically: stats, the delayed predicate file, both
     * queues, the speculation tables, and the base predictor's own
     * state (keyed by its name() so a checkpoint cannot be restored
     * into a differently-configured engine). Used by sim/checkpoint.
     * loadState() takes the engine off the cold contiguous path.
     * @{
     */
    void saveState(StateSink &sink) const;
    Status loadState(StateSource &src);
    /** @} */

  private:
    BranchPredictor &pred;
    EngineConfig cfg;
    mutable DelayedPredicateFile predFile; ///< see settle()
    SquashFalsePathFilter sfpf;
    PredicateGlobalUpdate pgu;
    PredicateValuePredictor pvp;
    ConfidenceEstimator jrs;
    EngineStats engineStats;
    BranchProfile profile;
    /** History shifts since the last PGU-injected bit, clamped to
     *  pguInfluenceWindow ("no recent bit"). Checkpointed. */
    std::uint64_t shiftsSincePguBit = pguInfluenceWindow;

    /** @name Target modelling (allocated iff cfg.modelTargets)
     * The pointers normally alias the owned structures;
     * setTargetStructures() redirects them at another engine's
     * (multi-context shared mode).
     * @{ */
    std::unique_ptr<Btb> ownedBtb;
    std::unique_ptr<ReturnAddressStack> ownedRas;
    Btb *btbPtr = nullptr;
    ReturnAddressStack *rasPtr = nullptr;
    /** @} */
    /** Context-tag mix XORed into predictor/BTB indices
     *  (setContextTag); 0 = untagged. */
    std::uint32_t ctxMix = 0;

    ProcessResult processConditionalBranch(const DynInst &dyn);

    /** @name Target-modelling kernels (shared by both replay paths)
     *  @{ */
    /** Probe + refresh the BTB for a taken transfer; returns (and
     *  counts) the target miss. */
    bool btbAccess(std::uint32_t pc, std::uint32_t next_pc);
    /** Pop the RAS for a taken return; returns (and counts) whether
     *  the popped target matched @p next_pc. */
    bool rasReturnAccess(std::uint32_t next_pc);
    /** Batch mirror of the reference path's non-cond-branch target
     *  handling: one UncondControl event of @p trace. Returns its
     *  outcome byte. */
    std::uint8_t batchControlEvent(const DecodedTrace &trace,
                                   std::uint32_t i);
    /** @} */

    /** The reference path's predicate-define handling (process());
     *  captureChunk() is its batch-level mirror. */
    void handlePredicateDefine(const DynInst &dyn);

    /** @name processBatch internals (defined in engine.cc)
     * Armed is "any of useSfpf, usePgu, useSpeculativeSquash": the
     * unarmed loop specialisation folds every technique branch away,
     * the armed one reads the three flags from cfg at run time. Pred
     * is the predictor's CONCRETE type where known (gshare, combining,
     * perceptron, TAGE), devirtualising predictAndUpdate; anything
     * else binds BranchPredictor. See docs/PERF.md for why these two
     * axes, and no others, are template parameters.
     * @{ */
    template <bool Armed>
    void batchDispatch(const DecodedTrace &trace, std::uint64_t first,
                       std::uint64_t count, std::uint8_t *outcomes);
    template <bool Armed, typename Pred>
    void batchLoop(Pred &bp, const DecodedTrace &trace,
                   std::uint64_t first, std::uint64_t count,
                   std::uint8_t *outcomes);
    /** @p guardState is the SFPF guard the replay schedule resolved
     *  at this branch's sequence: bit0 = known at fetch, bit1 = its
     *  value (0 when the SFPF is off). Returns mispredicted, so
     *  the caller's target-modelling step can mirror the reference
     *  path's "no BTB touch after a restart" rule. */
    template <bool Armed, typename Pred>
    bool batchCondBranch(Pred &bp, std::uint32_t pc, const Inst &inst,
                         bool guard, bool taken,
                         BranchProfile::Counters &prof,
                         std::uint8_t guardState);

    /** The define-only pass over events [@p first, @p end), in
     *  bounded chunks: append to @p s the guards (iff @p useSfpf) and
     *  PGU bits (iff @p usePgu) they produce, taking @p file through
     *  them. Reads no predictor state. */
    void capture(const DecodedTrace &trace, std::uint64_t first,
                 std::uint64_t end, bool useSfpf, bool usePgu,
                 DelayedPredicateFile &file, ReplaySchedule &s) const;
    /** capture() over one chunk's @p branches and @p defs (lane
     *  indices); @p endSeq is the sequence number of its last event.
     *  Its two flags stay template parameters: this pass is the whole
     *  cost of a capture, and it visits every define. */
    template <bool UseSfpf, bool UsePgu>
    void captureChunk(const DecodedTrace &trace,
                      const std::uint32_t *branches,
                      const std::uint32_t *defs,
                      const simd::CollectResult &stops,
                      std::uint64_t endSeq, DelayedPredicateFile &file,
                      ReplaySchedule &s) const;

    /** @name The cold contiguous path (processBatch)
     *  @{ */
    /** Whether a batch of @p trace from @p first reads the shared
     *  schedule: binds it at the first batch, and leaves the path
     *  (settled, for good) at a batch that does not continue it. */
    bool continuesPath(const DecodedTrace &trace, std::uint64_t first);
    void leavePath();
    /** Bring predFile from settledAt up to pathEvent by a private
     *  capture; const for saveState(). */
    void settle() const;

    bool onPath = true;
    /** Null until the first armed batch. */
    std::shared_ptr<const ReplaySchedule> pathSched;
    /** The path's trace, identified by its schedule store (a trace
     *  may move, its store goes with it). */
    const ReplayScheduleCache *pathCache = nullptr;
    /** Where the last batch found that trace (settle() reads it). */
    const DecodedTrace *pathTrace = nullptr;
    /** Events and branches consumed; the PGU's is pguBitsInserted(). */
    std::uint64_t pathEvent = 0;
    std::uint64_t pathBranch = 0;
    /** predFile holds the state after events [0, settledAt). */
    mutable std::uint64_t settledAt = 0;
    /** @} */

    /** Look up (and cache) the profile row for @p pc. The per-pc
     *  cache turns the reference path's per-branch std::map walk into
     *  an array load; BranchProfile::at() only invalidates pointers
     *  by evicting, which it reports via evictedBranches(). */
    BranchProfile::Counters &
    profileRowFor(std::uint32_t pc)
    {
        BranchProfile::Counters *row = profCache[pc];
        if (row) [[likely]]
            return *row;
        const std::uint64_t evictedBefore = profile.evictedBranches();
        row = &profile.at(pc);
        if (profile.evictedBranches() != evictedBefore) {
            // An eviction erased some entry; every cached pointer is
            // suspect, so start the cache over.
            std::fill(profCache.begin(), profCache.end(), nullptr);
        }
        profCache[pc] = row;
        return *row;
    }

    /** @name Batch-scoped machinery (reused so capacity persists)
     *  @{ */
    std::vector<BranchProfile::Counters *> profCache;
    /** Branch-index buffer for simd::collectStops (uninitialised on
     *  purpose: the collect pass defines exactly the prefix read). */
    std::unique_ptr<std::uint32_t[]> stopBuf;
    std::size_t stopBufCap = 0;
    /** Uncond-control index buffer (filled only under modelTargets:
     *  otherwise unconds are counted in bulk, never visited). */
    std::unique_ptr<std::uint32_t[]> uncondBuf;
    std::size_t uncondBufCap = 0;
    /** @} */
    /** @} */

    /** The base predictor's history shifted once (a branch-outcome
     *  update); age the PGU-influence window, saturating. */
    void
    noteHistoryShift()
    {
        if (shiftsSincePguBit < pguInfluenceWindow)
            ++shiftsSincePguBit;
    }
};

/**
 * Convenience: run up to @p max_insts instructions of @p emu through
 * @p engine. Returns the number of instructions processed (less than
 * the budget when the program halts first).
 */
std::uint64_t runTrace(Emulator &emu, PredictionEngine &engine,
                       std::uint64_t max_insts);

/**
 * runTrace()'s fast form: a live emulator driven through an engine in
 * windows of at most windowEvents events. Each window is recorded by
 * the interpreter into reused DecodedTrace lanes (recordEvents(), the
 * recorder body recordTrace() runs; firstSeq is the emulator position
 * of lane 0) and then decided by the engine's batch loop
 * (PredictionEngine::processBatch). The window is refilled in place,
 * so it carries no schedule cache: every batch captures a private
 * schedule and publishes nothing. The engine and emulator end in the
 * state runTrace() over the same count leaves them in, so their
 * saveState() bytes are identical (tests/test_sweep.cc, fuzz oracle
 * 6).
 *
 * Both users call the one window loop run(): the cycle-level pipeline
 * (Pipeline::run) times each window from its lanes, and a
 * checkpointing or resuming sweep cell, which needs emulator state
 * at every save, advances by it.
 */
class LiveWindow
{
  public:
    /** Events per window: the three lanes take 24 KiB, 60 KiB with
     *  the effective addresses and outcome bytes. */
    static constexpr std::size_t windowEvents = 4096;

    /** @param timed Also fill each window's effective-address and
     *         outcome lanes, which the cycle-level pipeline times
     *         from. */
    explicit LiveWindow(bool timed = false);

    /**
     * Record up to min(@p n, windowEvents) instructions of @p emu into
     * the window and decide them with @p engine. Returns how many ran:
     * fewer than asked means the emulator halted or its fuse blew. A
     * LiveWindow follows one Program: its class and define tables are
     * rebuilt only when @p emu runs a different Program object.
     */
    std::size_t advance(Emulator &emu, PredictionEngine &engine,
                        std::uint64_t n);

    /**
     * Advance window by window until @p n instructions ran or the
     * emulator stopped, calling @p on_window with each window's count
     * while events() still holds it. Returns the total run.
     */
    template <class OnWindow>
    std::uint64_t
    run(Emulator &emu, PredictionEngine &engine, std::uint64_t n,
        OnWindow &&on_window)
    {
        std::uint64_t ran = 0;
        while (ran < n) {
            const std::uint64_t want =
                std::min<std::uint64_t>(n - ran, windowEvents);
            const std::size_t got = advance(emu, engine, want);
            on_window(got);
            ran += got;
            if (got < want)
                break;
        }
        return ran;
    }

    std::uint64_t
    run(Emulator &emu, PredictionEngine &engine, std::uint64_t n)
    {
        return run(emu, engine, n, [](std::size_t) {});
    }

    /** The last window's events, in lanes [0, its count). */
    const DecodedTrace &events() const { return window; }
    /** @name The last window's timed lanes (null unless timed)
     * @{ */
    const std::int64_t *effAddrs() const { return effAddrLane.data(); }
    const std::uint8_t *outcomes() const { return outcomeLane.data(); }
    /** @} */

  private:
    DecodedTrace window;
    std::vector<std::int64_t> effAddrLane;
    std::vector<std::uint8_t> outcomeLane;
    const Program *boundProgram = nullptr;
};

/**
 * Reference replay: feed events [@p first, @p first + @p max_insts)
 * of @p trace through process(), one materialised DynInst each
 * (record once with recordTrace(), replay against many predictor
 * configurations; @p first is 0 or a position restored from a
 * checkpoint). Returns the index one past the last event processed.
 * Clamped semantics: @p first at or past the end of the trace
 * processes nothing and returns @p first UNCHANGED - a resume cursor
 * positioned past a (shorter) trace must not be yanked backwards, or
 * the caller's progress bookkeeping would silently re-run events.
 */
std::uint64_t replayTraceFrom(const DecodedTrace &trace,
                              PredictionEngine &engine,
                              std::uint64_t first,
                              std::uint64_t max_insts);

} // namespace pabp

#endif // PABP_CORE_ENGINE_HH
