#include "core/multictx.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pabp {

MultiContextReplayer::MultiContextReplayer(BranchPredictor &pred_,
                                           const MultiCtxConfig &config)
    : cfg(config), pred(pred_)
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

std::uint64_t
MultiContextReplayer::drive(const Advance &advance,
                            std::vector<std::uint64_t> &remaining,
                            const Stop &stop)
{
    const unsigned n = contexts();
    std::vector<bool> done(n, false);
    unsigned live = 0;
    for (unsigned c = 0; c < n; ++c) {
        if (remaining[c] == 0)
            done[c] = true;
        else
            ++live;
    }

    ContextSchedule sched(cfg.schedule);
    std::uint64_t total = 0;
    while (live > 0) {
        const ContextSchedule::Slice s = sched.next();
        unsigned c = s.context % n;
        // A slice granted to an exhausted context rotates to the next
        // live one - deterministically, so both replay paths redirect
        // identically.
        while (done[c])
            c = (c + 1) % n;
        const std::uint64_t len = std::min(s.length, remaining[c]);
        beginSlice(c);
        const auto [ran, exhausted] = advance(c, len);
        endSlice(c);
        pabp_assert(ran <= len);
        total += ran;
        remaining[c] -= ran;
        if (exhausted || remaining[c] == 0) {
            done[c] = true;
            --live;
        }
        if (stop && stop())
            break;
    }
    return total;
}

std::uint64_t
MultiContextReplayer::replayDecoded(
    const std::vector<const DecodedTrace *> &traces,
    std::uint64_t max_insts_per_context, const Stop &stop)
{
    pabp_assert(traces.size() == engines.size());
    std::vector<std::uint64_t> cursor(engines.size(), 0);
    std::vector<std::uint64_t> remaining(engines.size());
    for (std::size_t c = 0; c < traces.size(); ++c)
        remaining[c] =
            std::min<std::uint64_t>(max_insts_per_context,
                                    traces[c]->size());
    return drive(
        [&](unsigned c,
            std::uint64_t len) -> std::pair<std::uint64_t, bool> {
            const std::uint64_t next =
                engines[c]->processBatch(*traces[c], cursor[c], len);
            const std::uint64_t ran = next - cursor[c];
            cursor[c] = next;
            return {ran, cursor[c] >= traces[c]->size()};
        },
        remaining, stop);
}

std::uint64_t
MultiContextReplayer::replayEmulated(
    const std::vector<Emulator *> &emus,
    std::uint64_t max_insts_per_context, const Stop &stop)
{
    pabp_assert(emus.size() == engines.size());
    std::vector<std::uint64_t> remaining(engines.size(),
                                         max_insts_per_context);
    return drive(
        [&](unsigned c,
            std::uint64_t len) -> std::pair<std::uint64_t, bool> {
            const std::uint64_t ran =
                runTrace(*emus[c], *engines[c], len);
            return {ran, emus[c]->state().halted};
        },
        remaining, stop);
}

} // namespace pabp
