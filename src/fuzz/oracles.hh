/**
 * @file
 * The differential oracles the fuzz campaign runs on each case. The
 * repo has four independent execution paths - emulator, pipeline,
 * reference replay, fast batch replay - plus the compile-time
 * if-conversion transform and the two persistence formats (trace,
 * checkpoint); each oracle pins one cross-path agreement:
 *
 *  ifconvert:  branchy vs if-converted lowering halt with identical
 *              GPRs + memory; both pass static validation and the
 *              converted one passes pred_verify.
 *  pipeline:   the prediction engine sees the same stream (same
 *              EngineStats, bit for bit) whether driven by the bare
 *              emulator (runTrace) or by the cycle-level pipeline,
 *              and the windowed Pipeline::run charges the same
 *              PipelineStats as the per-instruction runReference.
 *  replay:     a reference engine driven by a live emulator
 *              (runTrace) vs PredictionEngine::processBatch over the
 *              recorded trace (one-shot, schedule-cache hit, chunked,
 *              and chunked after loadState() at a case-derived cursor):
 *              stats, per-branch profile, PGU bit count, processed
 *              count, exported metrics AND checkpoint bytes identical.
 *  checkpoint: save mid-replay, restore into fresh objects, finish -
 *              identical stats to a straight-through run; plus the
 *              past-the-end cursor contract of replayTraceFrom.
 *  trace:      bit-flipped / truncated PABPTRC2 bytes produce a typed
 *              Status or a valid salvage prefix - never a crash, never
 *              silently different events.
 *  sweep:      SweepRunner::runOne on the generated workload agrees
 *              between --fast-replay and the reference cell loop, and
 *              so does a checkpointing cell (LiveWindow windows vs
 *              runTrace), down to its final checkpoint bytes.
 *  journal:    bit-flipped / truncated PABPJRN1 results-journal bytes
 *              produce a typed Status or a valid salvage prefix, and
 *              JournalWriter::open truncates the damage idempotently -
 *              never a crash, never silently different records.
 *  multictx:   interleaved multi-context replay (core/multictx.hh):
 *              a 1-context replay is byte-identical to the ordinary
 *              single-stream loop, and with contexts > 1 the fast and
 *              reference interleaved replays agree per context, and
 *              a fast replay advanced in uneven pieces that cut
 *              schedule slices reproduces the one-call replay.
 *
 * A divergence is reported as a FuzzReport with a descriptive Status;
 * setup problems (unknown predictor kind, unwritable scratch dir) are
 * the Expected<> error path of runCase() instead, so the CLI can map
 * them to exit code 2 rather than "bug found".
 */

#ifndef PABP_FUZZ_ORACLES_HH
#define PABP_FUZZ_ORACLES_HH

#include <string>
#include <vector>

#include "fuzz/fuzz_case.hh"

namespace pabp::fuzz {

/** One oracle's verdict on one case. */
struct FuzzReport
{
    Oracle oracle = Oracle::IfConvert;
    Status status; ///< non-Ok: the divergence, in words
};

/** Everything runCase() learned. */
struct CaseOutcome
{
    std::vector<FuzzReport> failures;
    unsigned oraclesRun = 0; ///< mask of oracles that executed

    bool passed() const { return failures.empty(); }
};

/** Environment knobs for a run. */
struct RunEnv
{
    /** Directory for checkpoint scratch files; "." by default. */
    std::string scratchDir = ".";
    /**
     * Regression self-check: re-introduce the PR-4 replayTraceFrom
     * cursor-clamp bug (a past-the-end resume cursor yanked back to
     * trace.size(), silently re-running events) in the checkpoint
     * oracle's replay wrapper. The harness must catch and minimise
     * it - the acceptance check behind `pabp-fuzz --check-harness`.
     */
    bool injectClampBug = false;
    /**
     * Exit-code self-check for the mining mode: make the
     * predictability scorer (fuzz/mining.hh) report a typed failure
     * on every case. The CLI must surface that as exit 3 - a scoring
     * infrastructure problem, NOT a correctness bug - and must never
     * quarantine or emit the affected seed as a reproducer.
     */
    bool injectScorerFailure = false;
};

/** Run every oracle selected by the case's mask. Error path = setup
 *  problems only (bad predictor kind, unwritable scratch). */
Expected<CaseOutcome> runCase(const FuzzCase &fuzz_case,
                              const RunEnv &env);

} // namespace pabp::fuzz

#endif // PABP_FUZZ_ORACLES_HH
