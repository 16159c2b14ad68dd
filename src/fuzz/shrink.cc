#include "fuzz/shrink.hh"

#include <string>

#include "util/logging.hh"

namespace pabp::fuzz {

namespace {

/** Shrink driver state: the current smallest failing case plus the
 *  evaluation budget shared by every field. */
struct Shrinker
{
    FuzzCase best;
    const FailPredicate &stillFails;
    unsigned budget;
    unsigned accepted = 0;
    unsigned attempts = 0;

    Shrinker(FuzzCase start, const FailPredicate &pred, unsigned b)
        : best(std::move(start)), stillFails(pred), budget(b)
    {}

    bool
    tryCandidate(const FuzzCase &candidate)
    {
        if (attempts >= budget)
            return false;
        ++attempts;
        if (!stillFails(candidate))
            return false;
        best = candidate;
        ++accepted;
        return true;
    }

    /**
     * Minimise one numeric knob: jump straight to its floor first
     * (one evaluation wins everything when the knob is irrelevant to
     * the failure), then binary-descend toward it. The knob moves
     * through its field's own reader and writer, so every value tried
     * is one a `.pabp` file carries as written.
     */
    void
    shrinkNumeric(const CaseField *field)
    {
        pabp_assert(field && field->shrinkFloor);
        const std::uint64_t floor = *field->shrinkFloor;
        const auto value = [field](const FuzzCase &c) {
            return std::stoull(field->write(c));
        };
        const auto tryValue = [&](std::uint64_t v) {
            FuzzCase candidate = best;
            const Status set = field->read(candidate, std::to_string(v));
            pabp_assert(set.ok());
            return tryCandidate(candidate);
        };
        while (attempts < budget && value(best) > floor) {
            if (tryValue(floor))
                return;
            const std::uint64_t cur = value(best);
            const std::uint64_t mid = floor + (cur - floor) / 2;
            if (mid == cur || !tryValue(mid))
                return; // no midpoint left, or it does not reproduce
        }
    }
};

/** The numeric knobs in shrink order; each row's shrinkFloor (the
 *  case field table, fuzz_case.cc) is where its descent stops. */
const char *const shrinkOrder[] = {
    "repeats", "items", "max_insts", "call_depth", "loop_depth",
    "pred_nest", "branch_density", "div_edges", "data_branches",
    "hb_pressure", "data_window", "corrupt_truncate", "corrupt_flips",
    "contexts", "ctx_tag_bits",
};

} // anonymous namespace

ShrinkResult
shrinkCaseWith(const FuzzCase &start, const FailPredicate &still_fails,
               unsigned budget)
{
    Shrinker sh(start, still_fails, budget);

    // Iterate to a fixpoint: shrinking one knob (say items) often
    // unlocks another (say maxInsts), so one pass is not enough.
    unsigned lastAccepted;
    do {
        lastAccepted = sh.accepted;

        for (const char *key : shrinkOrder)
            sh.shrinkNumeric(findCaseField(key));

        if (!sh.best.ctxShared && sh.best.contexts > 1) {
            // Shared history is the simpler configuration: no
            // export/import swap at slice boundaries.
            FuzzCase candidate = sh.best;
            candidate.ctxShared = true;
            sh.tryCandidate(candidate);
        }

        if (sh.best.gen.emptyRas) {
            FuzzCase candidate = sh.best;
            candidate.gen.emptyRas = false;
            sh.tryCandidate(candidate);
        }
    } while (sh.accepted != lastAccepted && sh.attempts < sh.budget);

    // The clamp keeps the reproducer replayable exactly as written.
    clampConfig(sh.best.gen);
    return ShrinkResult{sh.best, sh.accepted, sh.attempts};
}

ShrinkResult
shrinkCase(const FuzzCase &start, const RunEnv &env, unsigned budget)
{
    Expected<CaseOutcome> base = runCase(start, env);
    if (!base.ok() || base.value().passed())
        return ShrinkResult{start, 0, 0};

    unsigned failMask = 0;
    for (const FuzzReport &report : base.value().failures)
        failMask |= static_cast<unsigned>(report.oracle);

    FuzzCase seed = start;
    seed.oracles = failMask;

    FailPredicate pred = [&env](const FuzzCase &candidate) {
        Expected<CaseOutcome> result = runCase(candidate, env);
        return result.ok() && !result.value().passed();
    };
    return shrinkCaseWith(seed, pred, budget);
}

} // namespace pabp::fuzz
