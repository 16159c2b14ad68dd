#include "core/multictx.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pabp {

MultiContextReplayer::MultiContextReplayer(BranchPredictor &pred_,
                                           const MultiCtxConfig &config)
    : cfg(config), pred(pred_), sched(cfg.schedule)
{
    const unsigned n = cfg.schedule.contexts;
    pabp_assert(n >= 1);
    engines.reserve(n);
    for (unsigned c = 0; c < n; ++c) {
        engines.push_back(
            std::make_unique<PredictionEngine>(pred, cfg.engine));
        engines.back()->setContextTag(c, cfg.tagBits);
    }
    if (cfg.sharedHistory) {
        // Fully-shared mode: everyone probes context 0's BTB/RAS (the
        // predictor's history register is shared by construction -
        // nothing swaps it). Context 0 outlives the borrowers: all
        // engines die with this replayer.
        if (cfg.engine.modelTargets)
            for (unsigned c = 1; c < n; ++c)
                engines[c]->setTargetStructures(engines[0]->btb(),
                                                engines[0]->ras());
    } else {
        // Partitioned mode: every context starts from the fresh
        // predictor's history baseline.
        std::vector<std::uint64_t> fresh;
        pred.exportHistory(fresh);
        histories.assign(n, fresh);
    }
}

MultiContextReplayer::MultiContextReplayer(
    BranchPredictor &pred_, const MultiCtxConfig &config,
    std::vector<const DecodedTrace *> traces_,
    std::uint64_t max_insts_per_context)
    : MultiContextReplayer(pred_, config)
{
    pabp_assert(traces_.size() == engines.size());
    traces = std::move(traces_);
    cursor.assign(traces.size(), 0);
    for (const DecodedTrace *trace : traces)
        remaining.push_back(
            std::min<std::uint64_t>(max_insts_per_context,
                                    trace->size()));
}

MultiContextReplayer::MultiContextReplayer(
    BranchPredictor &pred_, const MultiCtxConfig &config,
    std::vector<Emulator *> emus_, std::uint64_t max_insts_per_context)
    : MultiContextReplayer(pred_, config)
{
    pabp_assert(emus_.size() == engines.size());
    emus = std::move(emus_);
    remaining.assign(emus.size(), max_insts_per_context);
}

void
MultiContextReplayer::beginSlice(unsigned ctx)
{
    if (!cfg.sharedHistory)
        pred.importHistory(histories[ctx].data(),
                           histories[ctx].size());
}

void
MultiContextReplayer::endSlice(unsigned ctx)
{
    if (!cfg.sharedHistory) {
        histories[ctx].clear();
        pred.exportHistory(histories[ctx]);
    }
}

std::pair<std::uint64_t, bool>
MultiContextReplayer::runContext(unsigned c, std::uint64_t len)
{
    if (emus.empty()) {
        const std::uint64_t next =
            engines[c]->processBatch(*traces[c], cursor[c], len);
        const std::uint64_t ran = next - cursor[c];
        cursor[c] = next;
        return {ran, next >= traces[c]->size()};
    }
    const std::uint64_t ran = runTrace(*emus[c], *engines[c], len);
    return {ran, emus[c]->state().halted};
}

std::uint64_t
MultiContextReplayer::advance(std::uint64_t n)
{
    const unsigned count = contexts();
    const auto live = [this] {
        return std::any_of(remaining.begin(), remaining.end(),
                           [](std::uint64_t r) { return r > 0; });
    };
    std::uint64_t total = 0;
    while (total < n && live()) {
        if (sliceLeft == 0) {
            const ContextSchedule::Slice s = sched.next();
            sliceCtx = s.context % count;
            // A slice granted to an exhausted context rotates to the
            // next live one - deterministically, so both replay paths
            // redirect identically.
            while (remaining[sliceCtx] == 0)
                sliceCtx = (sliceCtx + 1) % count;
            sliceLeft = std::min(s.length, remaining[sliceCtx]);
        }
        const unsigned c = sliceCtx;
        const std::uint64_t len = std::min(sliceLeft, n - total);
        beginSlice(c);
        const auto [ran, exhausted] = runContext(c, len);
        endSlice(c);
        pabp_assert(ran == len || exhausted);
        total += ran;
        remaining[c] -= ran;
        sliceLeft -= ran;
        if (exhausted) {
            remaining[c] = 0;
            sliceLeft = 0;
        }
    }
    return total;
}

} // namespace pabp
