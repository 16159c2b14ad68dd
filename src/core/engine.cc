#include "core/engine.hh"

#include <algorithm>
#include <type_traits>

#include "bpred/combining.hh"
#include "bpred/gshare.hh"
#include "bpred/perceptron.hh"
#include "bpred/tage.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace pabp {

// The SIMD class-scan kernels bake the class byte values into their
// compare constants; pin the real enum to them.
static_assert(static_cast<std::uint8_t>(DecodedTrace::Class::Other) ==
              simd::classOther);
static_assert(static_cast<std::uint8_t>(
                  DecodedTrace::Class::CondBranch) ==
              simd::classCondBranch);
static_assert(static_cast<std::uint8_t>(
                  DecodedTrace::Class::UncondControl) ==
              simd::classUncondControl);
static_assert(static_cast<std::uint8_t>(
                  DecodedTrace::Class::PredDefine) ==
              simd::classPredDefine);

PredictionEngine::PredictionEngine(BranchPredictor &base,
                                   EngineConfig config)
    : pred(base), cfg(config), predFile(config.availDelay), sfpf(predFile),
      pgu(base, config.pgu), pvp(config.pvpEntriesLog2),
      jrs(config.jrsEntriesLog2), profile(config.branchProfileCapacity)
{
    if (cfg.modelTargets) {
        ownedBtb = std::make_unique<Btb>(cfg.btbSetsLog2, cfg.btbWays);
        ownedRas = std::make_unique<ReturnAddressStack>(cfg.rasDepth);
        btbPtr = ownedBtb.get();
        rasPtr = ownedRas.get();
    }
}

bool
PredictionEngine::btbAccess(std::uint32_t pc, std::uint32_t next_pc)
{
    // One lookup() + one update() per taken transfer - the policy
    // bpred/btb.hh documents. A tag hit with a stale target is still
    // a target miss: the front end fetched down the wrong path.
    std::optional<std::uint32_t> t = btbPtr->lookup(pc ^ ctxMix);
    const bool miss = !t || *t != next_pc;
    if (miss)
        ++engineStats.btbTargetMisses;
    btbPtr->update(pc ^ ctxMix, next_pc);
    return miss;
}

bool
PredictionEngine::rasReturnAccess(std::uint32_t next_pc)
{
    std::optional<std::uint32_t> t = rasPtr->pop();
    const bool correct = t.has_value() && *t == next_pc;
    if (correct)
        ++engineStats.rasHits;
    else
        ++engineStats.rasMisses;
    return correct;
}

std::uint8_t
PredictionEngine::batchControlEvent(const DecodedTrace &trace,
                                    std::uint32_t i)
{
    // MIRROR of the reference path's non-cond-branch target handling
    // in process(), over the trace's flat lanes. A not-taken event
    // (guarded-false call/branch, or a return that emptied the call
    // stack and halted) touches nothing.
    const bool taken = (trace.flags[i] >> 1) & 1;
    if (!taken)
        return 0;
    const std::uint32_t pc = trace.pcs[i];
    const Opcode op = trace.prog.insts[pc].op;
    if (op == Opcode::Ret)
        return rasReturnAccess(trace.nextPc(i))
            ? outcomeRasReturn | outcomeRasCorrect
            : outcomeRasReturn;
    if (op == Opcode::Call)
        rasPtr->push(pc + 1);
    return btbAccess(pc, trace.nextPc(i)) ? outcomeTargetMiss : 0;
}

ProcessResult
PredictionEngine::processConditionalBranch(const DynInst &dyn)
{
    const Inst &inst = *dyn.inst;
    BranchClassStats &cls =
        inst.regionBranch ? engineStats.region : engineStats.normal;
    BranchProfile::Counters &prof = profile.at(dyn.pc);

    ++prof.lookups;
    // Predicate occupancy at fetch: only the SFPF's delayed file
    // models fetch-visible predicate values; without it armed, every
    // guard is unknown to the front end.
    const bool guard_known =
        cfg.useSfpf && predFile.read(inst.qp).has_value();
    if (guard_known)
        ++prof.guardKnown;
    else
        ++prof.guardUnknown;
    // A PGU bit injected within the history window shaped this
    // prediction's index/weights - attribute it.
    if (cfg.usePgu && shiftsSincePguBit < pguInfluenceWindow)
        ++prof.pguInfluenced;

    bool squash = cfg.useSfpf && sfpf.shouldSquash(inst);

    // Extension: when the guard is unresolved, optionally predict it
    // and squash speculatively (confidence-gated, counted apart).
    bool spec_squash = false;
    if (cfg.useSpeculativeSquash) {
        bool predicted_guard = pvp.predictGuard(dyn.pc);
        bool confident =
            cfg.specGate == EngineConfig::SpecGate::Saturation
                ? pvp.confident(dyn.pc)
                : jrs.highConfidence(dyn.pc);
        if (!squash && cfg.useSfpf && !guard_known && confident &&
            !predicted_guard) {
            spec_squash = true;
        }
        // The value predictor models guards that are UNRESOLVED at
        // fetch - the only branches the speculative path can ever
        // act on. A guard the delayed file already resolved carries
        // no information about the unresolved population, so it must
        // not train the counter (nor score the JRS gate): doing so
        // flooded both tables with the easy, resolved cases and
        // inflated the gate's apparent confidence. (The original
        // code trained unconditionally here; tests/test_stats.cc
        // pins the intended counts.)
        if (!guard_known) {
            pvp.train(dyn.pc, dyn.guard);
            if (cfg.specGate == EngineConfig::SpecGate::Jrs)
                jrs.update(dyn.pc, predicted_guard == dyn.guard);
        }
    }

    bool predicted;
    if (spec_squash) {
        predicted = false;
        ++engineStats.specSquashed;
        ++prof.specSquashes;
        if (dyn.taken)
            ++engineStats.specSquashedWrong;
    } else if (squash) {
        predicted = false;
        sfpf.noteSquash();
        ++engineStats.all.squashed;
        ++cls.squashed;
        ++prof.sfpfSquashes;
        // The filter only fires on resolved-false guards, and a
        // guarded branch with a false guard is architecturally
        // not-taken: squashed predictions are always correct.
        pabp_assert(!dyn.taken);
        if (cfg.trainOnSquashed) {
            (void)pred.predict(dyn.pc ^ ctxMix);
            pred.update(dyn.pc ^ ctxMix, dyn.taken);
            noteHistoryShift();
        }
    } else {
        predicted = pred.predict(dyn.pc ^ ctxMix);
        pred.update(dyn.pc ^ ctxMix, dyn.taken);
        noteHistoryShift();
    }

    ++engineStats.all.branches;
    ++cls.branches;
    if (dyn.taken) {
        ++engineStats.all.taken;
        ++cls.taken;
        ++prof.taken;
    }
    if (!dyn.guard) {
        ++engineStats.all.falseGuard;
        ++cls.falseGuard;
    }
    if (predicted != dyn.taken) {
        ++engineStats.all.mispredicts;
        ++cls.mispredicts;
        ++prof.mispredicts;
    }

    ProcessResult result;
    result.condBranch = true;
    result.mispredicted = predicted != dyn.taken;
    result.squashed = squash;
    result.specSquashed = spec_squash;
    return result;
}

ProcessResult
PredictionEngine::process(const DynInst &dyn)
{
    if (onPath) [[unlikely]]
        leavePath();
    ++engineStats.insts;
    if (cfg.useSfpf)
        predFile.advanceTo(dyn.seq);
    if (cfg.usePgu && pgu.drainTo(dyn.seq) > 0)
        shiftsSincePguBit = 0;

    ProcessResult result;
    const Inst &inst = *dyn.inst;
    if (inst.op == Opcode::Br) {
        if (inst.qp == 0)
            ++engineStats.uncondBranches;
        else
            result = processConditionalBranch(dyn);
    } else if (inst.op == Opcode::Call || inst.op == Opcode::Ret) {
        ++engineStats.uncondBranches;
    }

    if (cfg.modelTargets) {
        // Target structures speak AFTER the direction decision, and
        // only when the front end actually follows a target: a
        // mispredicted conditional restarts from the resolved outcome
        // (no BTB/RAS involvement), a taken return consults the RAS,
        // and every other taken transfer probes the BTB (a taken call
        // additionally pushes its return address first).
        if (result.condBranch && result.mispredicted) {
            // restart path: target comes from the resolve, not a table
        } else if (inst.op == Opcode::Ret && dyn.taken) {
            result.rasReturn = true;
            result.rasCorrect = rasReturnAccess(dyn.nextPc);
        } else if (dyn.isControl && dyn.taken) {
            if (inst.op == Opcode::Call)
                rasPtr->push(dyn.pc + 1);
            result.targetMiss = btbAccess(dyn.pc, dyn.nextPc);
        }
    }

    if (inst.writesPredicate())
        handlePredicateDefine(dyn);
    return result;
}

void
PredictionEngine::handlePredicateDefine(const DynInst &dyn)
{
    const Inst &inst = *dyn.inst;
    ++engineStats.predicateDefines;
    if (cfg.useSfpf) {
        for (unsigned i = 0; i < dyn.numPredWrites; ++i) {
            predFile.write(dyn.seq, dyn.predWrites[i].reg,
                           dyn.predWrites[i].value);
        }
        if (cfg.conservativeDefTracking) {
            auto written = [&](unsigned reg) {
                for (unsigned i = 0; i < dyn.numPredWrites; ++i)
                    if (dyn.predWrites[i].reg == reg)
                        return true;
                return false;
            };
            if (!written(inst.pdst1))
                predFile.writeNoop(dyn.seq, inst.pdst1);
            if (inst.op == Opcode::Cmp && !written(inst.pdst2))
                predFile.writeNoop(dyn.seq, inst.pdst2);
        }
    }
    if (cfg.usePgu)
        pgu.observe(dyn);
}

template <bool Armed, typename Pred>
bool
PredictionEngine::batchCondBranch(Pred &bp, std::uint32_t pc,
                                  const Inst &inst, bool guard,
                                  bool taken,
                                  BranchProfile::Counters &prof,
                                  std::uint8_t guardState)
{
    // MIRROR of processConditionalBranch(): the unarmed specialisation
    // compiles every technique branch away, the predictor is held by
    // its concrete type where known, the profile row arrives
    // pre-resolved from the caller's cache and the predicate read
    // comes from the replay schedule - but every counter and every
    // side effect must stay in lockstep with the reference path; any
    // semantic change there lands here too. The fast-vs-reference
    // equivalence tests (tests/test_replay_fast.cc) pin the two
    // bit-identical.
    const bool useSfpf = Armed && cfg.useSfpf;
    const bool usePgu = Armed && cfg.usePgu;
    BranchClassStats &cls =
        inst.regionBranch ? engineStats.region : engineStats.normal;

    ++prof.lookups;
    // A decoded CondBranch is a guarded Br by construction (qp != 0),
    // so SquashFalsePathFilter::shouldSquash() reduces to "qp reads a
    // resolved false" - the schedule capture performed that read at
    // this branch's sequence and handed the result over in
    // guardState; one resolved value serves both the guard-known
    // attribution and the squash decision.
    const bool guard_known = useSfpf && (guardState & 1);
    if (guard_known)
        ++prof.guardKnown;
    else
        ++prof.guardUnknown;
    if (usePgu && shiftsSincePguBit < pguInfluenceWindow)
        ++prof.pguInfluenced;

    bool squash = guard_known && !(guardState & 2);

    bool spec_squash = false;
    if (Armed && cfg.useSpeculativeSquash) {
        bool predicted_guard = pvp.predictGuard(pc);
        bool confident =
            cfg.specGate == EngineConfig::SpecGate::Saturation
                ? pvp.confident(pc)
                : jrs.highConfidence(pc);
        if (!squash && useSfpf && !guard_known && confident &&
            !predicted_guard) {
            spec_squash = true;
        }
        // Train only on fetch-unresolved guards; see the reference
        // path for the rationale.
        if (!guard_known) {
            pvp.train(pc, guard);
            if (cfg.specGate == EngineConfig::SpecGate::Jrs)
                jrs.update(pc, predicted_guard == guard);
        }
    }

    bool predicted;
    if (spec_squash) {
        predicted = false;
        ++engineStats.specSquashed;
        ++prof.specSquashes;
        if (taken)
            ++engineStats.specSquashedWrong;
    } else if (squash) {
        predicted = false;
        sfpf.noteSquash();
        ++engineStats.all.squashed;
        ++cls.squashed;
        ++prof.sfpfSquashes;
        pabp_assert(!taken);
        if (cfg.trainOnSquashed) {
            (void)bp.predict(pc ^ ctxMix);
            bp.update(pc ^ ctxMix, taken);
            noteHistoryShift();
        }
    } else {
        predicted = bp.predictAndUpdate(pc ^ ctxMix, taken);
        noteHistoryShift();
    }

    ++engineStats.all.branches;
    ++cls.branches;
    if (taken) {
        ++engineStats.all.taken;
        ++cls.taken;
        ++prof.taken;
    }
    if (!guard) {
        ++engineStats.all.falseGuard;
        ++cls.falseGuard;
    }
    if (predicted != taken) {
        ++engineStats.all.mispredicts;
        ++cls.mispredicts;
        ++prof.mispredicts;
    }
    return predicted != taken;
}

template <bool UseSfpf, bool UsePgu>
void
PredictionEngine::captureChunk(const DecodedTrace &trace,
                               const std::uint32_t *branches,
                               const std::uint32_t *defs,
                               const simd::CollectResult &stops,
                               std::uint64_t endSeq,
                               DelayedPredicateFile &file,
                               ReplaySchedule &s) const
{
    // MIRROR of handlePredicateDefine() plus the reference loop's
    // per-branch predicate-file read, over the chunk's define and
    // branch streams only. Nothing here reads the base predictor,
    // which is what lets the schedule serve every predictor
    // replaying this trace. Any semantic change in the reference
    // handler lands here too; tests/test_replay_fast.cc pins the two
    // event for event.
    //
    // The SFPF kernel is the flat BatchPredicateView overlay over
    // @p file, so each define is a pair of array stores rather than a
    // queue push and retirement with data-dependent host branches.
    const std::uint64_t b0 = s.guard.size();
    // The stop buffers hold lane indices; the predicate file and the
    // PGU queue speak global sequence numbers.
    const std::uint64_t seq0 = trace.firstSeq;
    BatchPredicateView view;

    if constexpr (UseSfpf) {
        view.begin(file, endSeq);
        s.guard.resize(b0 + stops.branches);
    }
    auto define = [&](std::uint32_t i) {
        if constexpr (UseSfpf) {
            // Both register slots are written unconditionally: dead
            // slots (and p0 writes, which the file discards) route to
            // the overlay's scratch entry, so the data-dependent write
            // count never becomes a host branch. Slot order is
            // preserved for the pathological pdst1 == pdst2 case.
            const PredicateWrites &w = trace.predWrites(i);
            constexpr unsigned trash = BatchPredicateView::trashReg;
            const unsigned r0 = w.count >= 1 ? w.reg[0] : trash;
            const unsigned r1 = w.count >= 2 ? w.reg[1] : trash;
            view.writeMasked(seq0 + i, r0, w.values & 1);
            view.writeMasked(seq0 + i, r1, (w.values >> 1) & 1);
            if (cfg.conservativeDefTracking) {
                const Inst &inst = trace.inst(i);
                auto written = [&](unsigned reg) {
                    for (unsigned k = 0; k < w.count; ++k)
                        if (w.reg[k] == reg)
                            return true;
                    return false;
                };
                if (!written(inst.pdst1))
                    view.writeNoop(seq0 + i, inst.pdst1);
                if (inst.op == Opcode::Cmp && !written(inst.pdst2))
                    view.writeNoop(seq0 + i, inst.pdst2);
            }
        }
        if constexpr (UsePgu) {
            pgu.observeInto(trace.materialise(i),
                            [&](const PredicateGlobalUpdate::Pending &p) {
                                s.pguBits.push_back(
                                    (p.seq << 1) |
                                    static_cast<std::uint64_t>(p.bit));
                            });
        }
    };

    // Branch-major merge of the two ascending index streams: before
    // each branch's guard read, apply every define that precedes it.
    // Without the SFPF no guard is read, so the defines run straight.
    std::uint64_t d = 0;
    if constexpr (UseSfpf) {
        for (std::uint64_t b = 0; b < stops.branches; ++b) {
            const std::uint32_t i = branches[b];
            while (d < stops.defines && defs[d] < i)
                define(defs[d++]);
            const std::optional<bool> g =
                view.read(trace.inst(i).qp, seq0 + i);
            s.guard[b0 + b] = g.has_value()
                ? static_cast<std::uint8_t>(
                      1u | (static_cast<unsigned>(*g) << 1))
                : 0u;
        }
    }
    while (d < stops.defines)
        define(defs[d++]);

    if constexpr (UseSfpf)
        view.commit(); // advanceTo(endSeq) + chunk writes
}

void
PredictionEngine::capture(const DecodedTrace &trace, std::uint64_t first,
                          std::uint64_t end, bool useSfpf, bool usePgu,
                          DelayedPredicateFile &file,
                          ReplaySchedule &s) const
{
    // Bounded chunks keep the index buffers at a batch's scale: a
    // whole-trace capture never holds trace-sized stop lists.
    constexpr std::uint64_t chunk = 4096;
    const std::uint64_t room = std::min(chunk, end - first);
    const auto br = std::make_unique_for_overwrite<std::uint32_t[]>(room);
    const auto defs = std::make_unique_for_overwrite<std::uint32_t[]>(room);
    const auto kernel = !useSfpf ? &PredictionEngine::captureChunk<false, true>
        : usePgu ? &PredictionEngine::captureChunk<true, true>
                 : &PredictionEngine::captureChunk<true, false>;
    // A counting pass first, so the arrays are allocated once: each
    // define adds at most two PGU bits.
    std::uint64_t nb = 0, nd = 0;
    for (std::uint64_t c = first; c < end; c += chunk) {
        const simd::CollectResult n = simd::collectStops(
            trace.cls.data(), c, std::min(end, c + chunk), false, br.get(),
            nullptr);
        nb += n.branches;
        nd += n.defines;
    }
    s.guard.reserve(s.guard.size() + (useSfpf ? nb : 0));
    s.pguBits.reserve(s.pguBits.size() + (usePgu ? 2 * nd : 0));
    for (std::uint64_t c = first; c < end; c += chunk) {
        const std::uint64_t e = std::min(end, c + chunk);
        const simd::CollectResult stops = simd::collectStops(
            trace.cls.data(), c, e, true, br.get(), defs.get());
        (this->*kernel)(trace, br.get(), defs.get(), stops,
                        trace.firstSeq + e - 1, file, s);
    }
}

bool
PredictionEngine::continuesPath(const DecodedTrace &trace,
                                std::uint64_t first)
{
    const bool continues = pathSched
        ? first == pathEvent && trace.schedCache.get() == pathCache
        : first == 0;
    if (!onPath || !trace.schedCache || !continues) {
        leavePath();
        return false;
    }
    if (!pathSched) {
        // Keyed on the configuration fields the capture reads.
        const std::uint64_t sfpfKey = !cfg.useSfpf ? 0
            : 1u | (cfg.conservativeDefTracking ? 2u : 0u) |
                (std::uint64_t{cfg.availDelay} << 2);
        const std::uint64_t pguKey = !cfg.usePgu ? 0
            : 1u | (static_cast<std::uint64_t>(cfg.pgu.source) << 1) |
                (static_cast<std::uint64_t>(cfg.pgu.value) << 3) |
                (cfg.pgu.includePSet ? 32u : 0u) |
                (std::uint64_t{cfg.pgu.delay} << 6);
        pathSched = trace.schedCache->obtain(sfpfKey, pguKey, [&] {
            // From the cold state over the whole trace; shrunk, since
            // the store keeps it for every later engine.
            auto made = std::make_shared<ReplaySchedule>();
            DelayedPredicateFile cold(cfg.availDelay);
            capture(trace, 0, trace.size(), cfg.useSfpf, cfg.usePgu, cold,
                    *made);
            made->pguBits.shrink_to_fit();
            return made;
        });
        pathCache = trace.schedCache.get();
    }
    pathTrace = &trace; // the trace may have moved since the last batch
    return true;
}

void
PredictionEngine::leavePath()
{
    settle();
    onPath = false;
    pathSched.reset();
}

void
PredictionEngine::settle() const
{
    // Without the SFPF the reference loop leaves the file cold too.
    if (cfg.useSfpf && settledAt != pathEvent) {
        pabp_assert(pathTrace && pathTrace->size() >= pathEvent);
        ReplaySchedule unread;
        capture(*pathTrace, settledAt, pathEvent, true, false, predFile,
                unread);
    }
    settledAt = pathEvent;
}

template <bool Armed, typename Pred>
void
PredictionEngine::batchLoop(Pred &bp, const DecodedTrace &trace,
                            std::uint64_t first, std::uint64_t count,
                            std::uint8_t *outcomes)
{
    // MIRROR of process() over the trace's flat lanes: no DynInst is
    // built anywhere, and seq is trace.firstSeq plus the lane index by
    // the decoded trace's construction.
    //
    // Three deliberate restructurings, each invisible to every
    // observer (stats, profile, exported metrics, checkpoint bytes -
    // all pinned by tests/test_replay_fast.cc):
    //
    //  1. Deferral: the reference path advances the predicate file
    //     and drains the PGU on EVERY instruction, but both operations
    //     are monotonic and idempotent in seq, and their state is only
    //     read at a conditional branch or after the run. Performing
    //     them at the branch (and syncing at the batch end) reproduces
    //     every read and every counter. Likewise shiftsSincePguBit
    //     (only moves at drains and branch shifts) and the instruction
    //     counter (one add).
    //
    //  2. Replay schedules: with a predicate technique armed, the
    //     guard read and the PGU bits drained before each branch come
    //     from a ReplaySchedule (sim/replay_schedule.hh) - the trace's
    //     shared one, read at the path's cursors, or a private one
    //     captured from the entry state by capture()'s define-only
    //     pass - and the PGU queue is committed from the schedule's
    //     stream at the batch end. The defines are never visited by
    //     this loop.
    //
    //  3. Class scanning: events the loop only counts (Other,
    //     UncondControl without target modelling, PredDefine) are
    //     skipped in bulk by a SIMD compare+popcount scan of the cls
    //     lane - the count IS the processing, and the per-event
    //     counter increments farm into totals nothing can observe
    //     mid-batch.
    if (count == 0)
        return;
    engineStats.insts += count;
    const std::uint64_t end = first + count;
    const std::uint64_t endSeq = trace.firstSeq + end - 1;
    // Only the events with a decision below get a nonzero byte.
    if (outcomes)
        std::fill_n(outcomes, count, std::uint8_t{0});

    // Rebuilt per batch: a profile restore between batches (a
    // checkpoint load) would otherwise leave stale row pointers.
    // Refilling costs one map walk per distinct pc.
    profCache.assign(trace.prog.insts.size(), nullptr);

    const bool useSfpf = Armed && cfg.useSfpf;
    const bool usePgu = Armed && cfg.usePgu;

    // Target modelling stays a runtime flag, like the techniques in
    // the armed loop: it adds work only at control events, which the
    // class scan already isolates.
    const bool targets = cfg.modelTargets;
    if (stopBufCap < count) {
        stopBuf = std::make_unique_for_overwrite<std::uint32_t[]>(
            count);
        stopBufCap = count;
    }
    if (targets && uncondBufCap < count) {
        uncondBuf = std::make_unique_for_overwrite<std::uint32_t[]>(
            count);
        uncondBufCap = count;
    }
    const simd::CollectResult stops = simd::collectStops(
        trace.cls.data(), first, end, false, stopBuf.get(), nullptr,
        targets ? uncondBuf.get() : nullptr);
    engineStats.uncondBranches += stops.uncond;
    engineStats.predicateDefines += stops.defines;

    // The schedule this batch reads from branch branchBase and PGU
    // stream entry pguBase on: the shared one at the path's cursors,
    // or one captured now from the entry state (its stream starts with
    // the carried queue; the capture takes predFile through the batch).
    ReplaySchedule own;
    const bool shared = (useSfpf || usePgu) && continuesPath(trace, first);
    const ReplaySchedule *sched = shared ? pathSched.get() : &own;
    const std::uint64_t branchBase = shared ? pathBranch : 0;
    // On the path every injected bit came off the shared stream.
    const std::uint64_t pguBase = shared ? pgu.bitsInserted() : 0;
    if (!shared && (useSfpf || usePgu)) {
        if (usePgu)
            pgu.exportQueuePacked(own.pguBits);
        capture(trace, first, end, useSfpf, usePgu, predFile, own);
    }
    pabp_assert(!shared || !useSfpf ||
                branchBase + stops.branches <= sched->guard.size());

    // PGU drain, at each branch and at the batch end: drainTo()'s
    // ripeness rule over the schedule's stream from pqCursor. The k
    // entries defined at least delay events before seq land in one
    // injectHistoryBits() shift, or one injectHistoryBit() each when
    // k > 64 (only very define-dense gaps between branches meet
    // that). A bit is never ripe at its own define's sequence (the
    // reference loop drains before it observes), which only a batch
    // end can meet: hence a delay of >= 1. The concrete-predictor
    // instantiations bind the injection statically; the
    // BranchPredictor fallback keeps the virtual call.
    const std::uint64_t delay = std::max<std::uint64_t>(cfg.pgu.delay, 1);
    const std::uint64_t *pq = usePgu ? sched->pguBits.data() : nullptr;
    const std::uint64_t pqEnd = usePgu ? sched->pguBits.size() : 0;
    std::uint64_t pqCursor = pguBase;
    auto drainTo = [&](std::uint64_t seq) {
        std::uint64_t c = pqCursor;
        std::uint64_t word = 0;
        while (c < pqEnd && (pq[c] >> 1) + delay <= seq)
            word = (word << 1) | (pq[c++] & 1);
        if (c == pqCursor)
            return;
        if (c - pqCursor <= 64) [[likely]] {
            const unsigned n = static_cast<unsigned>(c - pqCursor);
            if constexpr (std::is_same_v<Pred, BranchPredictor>)
                bp.injectHistoryBits(word, n);
            else
                bp.Pred::injectHistoryBits(word, n);
        } else {
            for (std::uint64_t e = pqCursor; e < c; ++e) {
                if constexpr (std::is_same_v<Pred, BranchPredictor>)
                    bp.injectHistoryBit((pq[e] & 1) != 0);
                else
                    bp.Pred::injectHistoryBit((pq[e] & 1) != 0);
            }
        }
        pqCursor = c;
        shiftsSincePguBit = 0;
    };

    const std::uint32_t *stop = stopBuf.get();
    const std::uint8_t *cachedGuard = nullptr;
    if (useSfpf)
        cachedGuard = sched->guard.data() + branchBase;
    // Uncond-control merge (target modelling): the BTB and RAS are
    // shared by conditional and unconditional transfers, so the two
    // ascending index streams must be applied in original trace
    // order.
    const std::uint32_t *uncs = uncondBuf.get();
    std::uint64_t uNext = 0;
    auto controlEvent = [&](std::uint32_t i) {
        const std::uint8_t out = batchControlEvent(trace, i);
        if (outcomes)
            outcomes[i - first] = out;
    };
    for (std::uint64_t b = 0; b < stops.branches; ++b) {
        const std::uint32_t i = stop[b];
        if (targets) {
            while (uNext < stops.uncond && uncs[uNext] < i)
                controlEvent(uncs[uNext++]);
        }
        const std::uint32_t pc = trace.pcs[i];
        const Inst &inst = trace.prog.insts[pc];
        std::uint8_t guardState = 0;
        if (useSfpf)
            guardState = cachedGuard[b];
        if (usePgu)
            drainTo(trace.firstSeq + i);
        const std::uint8_t f = trace.flags[i];
        const bool misp = batchCondBranch<Armed>(
            bp, pc, inst, f & 1, (f >> 1) & 1, profileRowFor(pc),
            guardState);
        // Taken and correctly predicted: the front end followed a
        // BTB-supplied target (a mispredict restarts from the resolve
        // instead - no table touch; reference path in process()).
        const bool target_miss = targets && !misp && ((f >> 1) & 1) &&
            btbAccess(pc, trace.nextPc(i));
        if (outcomes)
            outcomes[i - first] =
                misp ? outcomeMispredicted
                     : (target_miss ? outcomeTargetMiss : 0);
    }
    if (targets) {
        // Uncond transfers after the last conditional branch.
        while (uNext < stops.uncond)
            controlEvent(uncs[uNext++]);
    }

    // Sync the PGU to where the reference loop's last drain leaves it,
    // for end-of-run observers (metric gauges, checkpoints): the bits
    // ripe at endSeq, then what this batch's events defined but did
    // not drain becomes the queue.
    if (usePgu) {
        drainTo(endSeq);
        std::uint64_t queued = pqCursor;
        while (queued < pqEnd && (pq[queued] >> 1) <= endSeq)
            ++queued;
        pgu.commitCachedBatch(pq + pqCursor, queued - pqCursor,
                              pqCursor - pguBase);
    }
    if (shared) {
        pathEvent = end;
        pathBranch += stops.branches;
    }
}

template <bool Armed>
void
PredictionEngine::batchDispatch(const DecodedTrace &trace,
                                std::uint64_t first,
                                std::uint64_t count,
                                std::uint8_t *outcomes)
{
    // Identify the hot predictors once per batch; inside the loop
    // their final predictAndUpdate then binds statically. Anything
    // else runs the same loop through the base interface (still one
    // virtual call per branch instead of two).
    if (auto *g = dynamic_cast<GSharePredictor *>(&pred))
        batchLoop<Armed>(*g, trace, first, count, outcomes);
    else if (auto *c = dynamic_cast<CombiningPredictor *>(&pred))
        batchLoop<Armed>(*c, trace, first, count, outcomes);
    else if (auto *p = dynamic_cast<PerceptronPredictor *>(&pred))
        batchLoop<Armed>(*p, trace, first, count, outcomes);
    else if (auto *t = dynamic_cast<TagePredictor *>(&pred))
        batchLoop<Armed>(*t, trace, first, count, outcomes);
    else
        batchLoop<Armed>(pred, trace, first, count, outcomes);
}

std::uint64_t
PredictionEngine::processBatch(const DecodedTrace &trace,
                               std::uint64_t first,
                               std::uint64_t max_insts,
                               std::uint8_t *outcomes)
{
    if (first >= trace.size())
        return first; // clamped, like replayTraceFrom
    std::uint64_t count =
        std::min<std::uint64_t>(max_insts, trace.size() - first);

    // A base run takes the loop with every technique branch folded
    // away; any armed technique takes the loop that reads them.
    if (cfg.useSfpf || cfg.usePgu || cfg.useSpeculativeSquash)
        batchDispatch<true>(trace, first, count, outcomes);
    else
        batchDispatch<false>(trace, first, count, outcomes);
    return first + count;
}

void
PredictionEngine::registerStats(StatGroup &group)
{
    auto engineGauge = [&](const char *name, const std::uint64_t &field) {
        group.gauge(std::string("engine.") + name,
                    [p = &field] { return *p; });
    };
    engineGauge("insts", engineStats.insts);
    engineGauge("uncond_branches", engineStats.uncondBranches);
    engineGauge("predicate_defines", engineStats.predicateDefines);
    struct ClassEntry
    {
        const char *name;
        const BranchClassStats *cls;
    };
    for (auto [name, cls] :
         {ClassEntry{"all", &engineStats.all},
          ClassEntry{"region", &engineStats.region},
          ClassEntry{"normal", &engineStats.normal}}) {
        std::string base = std::string("engine.") + name + ".";
        group.gauge(base + "branches",
                    [cls] { return cls->branches; });
        group.gauge(base + "taken", [cls] { return cls->taken; });
        group.gauge(base + "mispredicts",
                    [cls] { return cls->mispredicts; });
        group.gauge(base + "squashed",
                    [cls] { return cls->squashed; });
        group.gauge(base + "false_guard",
                    [cls] { return cls->falseGuard; });
    }
    engineGauge("spec_squashed", engineStats.specSquashed);
    engineGauge("spec_squashed_wrong", engineStats.specSquashedWrong);
    // Registered only when armed so direction-only runs keep their
    // exported metric files byte-identical to before target modelling
    // existed.
    if (cfg.modelTargets) {
        engineGauge("btb_target_misses", engineStats.btbTargetMisses);
        engineGauge("ras_hits", engineStats.rasHits);
        engineGauge("ras_misses", engineStats.rasMisses);
        btbPtr->registerStats(group, "btb.");
        rasPtr->registerStats(group, "ras.");
    }

    sfpf.registerStats(group, "sfpf.");
    pgu.registerStats(group, "pgu.");
    pvp.registerStats(group, "pvp.");
    jrs.registerStats(group, "jrs.");
    pred.registerStats(group, "pred.");
}

namespace {

/** The fields of EngineStats, serialised in one fixed order. */
template <typename StatsT, typename Fn>
void
forEachStatsField(StatsT &stats, Fn &&fn)
{
    fn(stats.insts);
    fn(stats.uncondBranches);
    fn(stats.predicateDefines);
    for (auto *cls : {&stats.all, &stats.region, &stats.normal}) {
        fn(cls->branches);
        fn(cls->taken);
        fn(cls->mispredicts);
        fn(cls->squashed);
        fn(cls->falseGuard);
    }
    fn(stats.specSquashed);
    fn(stats.specSquashedWrong);
    // Appended at the end (checkpoint layout is append-only within a
    // version; the container version gates the whole file anyway).
    fn(stats.btbTargetMisses);
    fn(stats.rasHits);
    fn(stats.rasMisses);
}

} // anonymous namespace

void
PredictionEngine::saveState(StateSink &sink) const
{
    settle();
    // Configuration fingerprint: a checkpoint must only restore into
    // an engine armed the same way, or the resumed run would diverge
    // silently from the original.
    sink.writeBool(cfg.useSfpf);
    sink.writeBool(cfg.usePgu);
    sink.writeU32(cfg.availDelay);
    sink.writeBool(cfg.trainOnSquashed);
    sink.writeBool(cfg.conservativeDefTracking);
    sink.writeBool(cfg.useSpeculativeSquash);
    sink.writeU32(cfg.pvpEntriesLog2);
    sink.writeU8(static_cast<std::uint8_t>(cfg.specGate));
    sink.writeU32(cfg.jrsEntriesLog2);
    sink.writeU8(static_cast<std::uint8_t>(cfg.pgu.source));
    sink.writeU8(static_cast<std::uint8_t>(cfg.pgu.value));
    sink.writeBool(cfg.pgu.includePSet);
    sink.writeU32(cfg.pgu.delay);
    sink.writeU32(cfg.branchProfileCapacity);
    sink.writeBool(cfg.modelTargets);
    sink.writeU32(cfg.btbSetsLog2);
    sink.writeU32(cfg.btbWays);
    sink.writeU32(cfg.rasDepth);

    forEachStatsField(engineStats,
                      [&](const std::uint64_t &v) { sink.writeU64(v); });
    sink.writeU64(shiftsSincePguBit);

    predFile.saveState(sink);
    sfpf.saveState(sink);
    pgu.saveState(sink);
    pvp.saveState(sink);
    jrs.saveState(sink);
    profile.saveState(sink);

    sink.writeString(pred.name());
    pred.saveState(sink);

    if (cfg.modelTargets) {
        btbPtr->saveState(sink);
        rasPtr->saveState(sink);
    }
}

Status
PredictionEngine::loadState(StateSource &src)
{
    settledAt = pathEvent; // the load overwrites it: leave unsettled
    leavePath();
    bool use_sfpf, use_pgu, train_on_squashed, conservative, spec;
    bool pgu_pset = false;
    bool model_targets = false;
    std::uint32_t avail_delay, pvp_log2, jrs_log2, pgu_delay;
    std::uint32_t profile_cap;
    std::uint32_t btb_sets = 0, btb_ways = 0, ras_depth = 0;
    std::uint8_t spec_gate, pgu_source, pgu_value;
    PABP_TRY(src.readBool(use_sfpf));
    PABP_TRY(src.readBool(use_pgu));
    PABP_TRY(src.readPod(avail_delay));
    PABP_TRY(src.readBool(train_on_squashed));
    PABP_TRY(src.readBool(conservative));
    PABP_TRY(src.readBool(spec));
    PABP_TRY(src.readPod(pvp_log2));
    PABP_TRY(src.readPod(spec_gate));
    PABP_TRY(src.readPod(jrs_log2));
    PABP_TRY(src.readPod(pgu_source));
    PABP_TRY(src.readPod(pgu_value));
    PABP_TRY(src.readBool(pgu_pset));
    PABP_TRY(src.readPod(pgu_delay));
    PABP_TRY(src.readPod(profile_cap));
    PABP_TRY(src.readBool(model_targets));
    PABP_TRY(src.readPod(btb_sets));
    PABP_TRY(src.readPod(btb_ways));
    PABP_TRY(src.readPod(ras_depth));
    bool config_matches = use_sfpf == cfg.useSfpf &&
        use_pgu == cfg.usePgu && avail_delay == cfg.availDelay &&
        train_on_squashed == cfg.trainOnSquashed &&
        conservative == cfg.conservativeDefTracking &&
        spec == cfg.useSpeculativeSquash &&
        pvp_log2 == cfg.pvpEntriesLog2 &&
        spec_gate == static_cast<std::uint8_t>(cfg.specGate) &&
        jrs_log2 == cfg.jrsEntriesLog2 &&
        pgu_source == static_cast<std::uint8_t>(cfg.pgu.source) &&
        pgu_value == static_cast<std::uint8_t>(cfg.pgu.value) &&
        pgu_pset == cfg.pgu.includePSet && pgu_delay == cfg.pgu.delay &&
        profile_cap == cfg.branchProfileCapacity &&
        model_targets == cfg.modelTargets &&
        btb_sets == cfg.btbSetsLog2 && btb_ways == cfg.btbWays &&
        ras_depth == cfg.rasDepth;
    if (!config_matches)
        return Status(StatusCode::InvalidArgument,
                      "checkpoint was taken with a different engine "
                      "configuration");

    Status stats_status = Status();
    forEachStatsField(engineStats, [&](std::uint64_t &v) {
        if (stats_status.ok())
            stats_status = src.readPod(v);
    });
    PABP_TRY(std::move(stats_status));
    PABP_TRY(src.readPod(shiftsSincePguBit));

    PABP_TRY(predFile.loadState(src));
    PABP_TRY(sfpf.loadState(src));
    PABP_TRY(pgu.loadState(src));
    PABP_TRY(pvp.loadState(src));
    PABP_TRY(jrs.loadState(src));
    PABP_TRY(profile.loadState(src));

    std::string pred_name;
    PABP_TRY(src.readString(pred_name));
    if (pred_name != pred.name())
        return Status(StatusCode::InvalidArgument,
                      "checkpoint predictor '" + pred_name +
                          "' != configured predictor '" + pred.name() +
                          "'");
    PABP_TRY(pred.loadState(src));

    if (cfg.modelTargets) {
        PABP_TRY(btbPtr->loadState(src));
        PABP_TRY(rasPtr->loadState(src));
    }
    return Status();
}

std::uint64_t
runTrace(Emulator &emu, PredictionEngine &engine, std::uint64_t max_insts)
{
    DynInst dyn;
    std::uint64_t processed = 0;
    while (processed < max_insts && emu.step(dyn)) {
        engine.process(dyn);
        ++processed;
    }
    return processed;
}

LiveWindow::LiveWindow(bool timed)
{
    window.resize(windowEvents);
    if (timed) {
        effAddrLane.resize(windowEvents);
        outcomeLane.resize(windowEvents);
    }
}

std::size_t
LiveWindow::advance(Emulator &emu, PredictionEngine &engine,
                    std::uint64_t n)
{
    if (&emu.program() != boundProgram) {
        boundProgram = &emu.program();
        // The lanes index the window's own copy of the program and
        // its tables.
        window.setProgram(emu.program());
    }
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, windowEvents));
    // Lane 0 is the emulator's next instruction. The window holds
    // exactly the events recorded into it, so its last event's next
    // pc is endPc and never a stale lane entry.
    window.firstSeq = emu.instsExecuted();
    window.resize(want);
    const std::size_t got =
        recordEvents(emu, window, 0, want,
                     effAddrLane.empty() ? nullptr : effAddrLane.data());
    window.resize(got);
    engine.processBatch(window, 0, got,
                        outcomeLane.empty() ? nullptr
                                            : outcomeLane.data());
    return got;
}

std::uint64_t
replayTraceFrom(const DecodedTrace &trace, PredictionEngine &engine,
                std::uint64_t first, std::uint64_t max_insts)
{
    // Clamp, returning FIRST unchanged: a resume cursor positioned at
    // or past the end of a (shorter) trace must not be yanked back to
    // trace.size() - callers treat the return value as their new
    // cursor, and moving it backwards would silently re-run events.
    if (first >= trace.size())
        return first;
    std::uint64_t count =
        std::min<std::uint64_t>(max_insts, trace.size() - first);
    for (std::uint64_t i = first; i < first + count; ++i)
        engine.process(trace.materialise(i));
    return first + count;
}

} // namespace pabp
