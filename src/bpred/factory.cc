#include "bpred/factory.hh"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <set>
#include <string>

#include "bpred/agree.hh"
#include "bpred/combining.hh"
#include "bpred/gshare.hh"
#include "bpred/local.hh"
#include "bpred/perceptron.hh"
#include "bpred/simple.hh"
#include "bpred/tage.hh"
#include "bpred/yags.hh"
#include "util/logging.hh"

namespace pabp {

namespace {

/**
 * Report a derived size whose clamp actually engaged. The size
 * derivations themselves (half tables, budget-matched rows) are
 * documented contract (factory.hh); what must not stay silent is the
 * *floor or cap* kicking in, where the predictor built is smaller
 * than the derivation promises - a sweep label saying "2^12" while
 * the predictor holds 2^1 rows is exactly the sort of thing that
 * corrupts a paper's size axis unnoticed.
 */
void
logClampedSize(const std::string &kind, const char *what,
               unsigned effective, int nominal)
{
    if (static_cast<int>(effective) == nominal)
        return;
    std::string msg = kind + ": nominal " + what + " " +
        std::to_string(nominal) + " clamped to " +
        std::to_string(effective);
    // Once per distinct message per process: a sweep builds the same
    // clamped predictor for every cell, and hundreds of identical
    // lines would bury the warnings that differ.
    static std::mutex mtx;
    static std::set<std::string> warned;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (!warned.insert(msg).second)
            return;
    }
    pabp_warn(msg);
}

/**
 * One registry row. `sized` kinds get the shared entries_log2 range
 * check before their builder runs; the static predictors ignore the
 * size entirely and skip it.
 */
struct KindEntry
{
    const char *name;
    bool sized;
    PredictorPtr (*build)(unsigned entries_log2);
};

PredictorPtr
buildLocal(unsigned entries_log2)
{
    // Local history registers are capped at 10 bits (the classic
    // PAg sizing); wider tables still get wider BHT/PHTs.
    unsigned local_bits = std::min(10u, entries_log2);
    logClampedSize("local", "local history bits", local_bits,
                   static_cast<int>(entries_log2));
    return std::make_unique<LocalPredictor>(entries_log2, local_bits,
                                            entries_log2);
}

PredictorPtr
buildYags(unsigned entries_log2)
{
    // Split budget: choice PHT at full size, each direction cache at
    // half.
    unsigned cache = std::max(1u, entries_log2 - 1);
    logClampedSize("yags", "direction cache log2", cache,
                   static_cast<int>(entries_log2) - 1);
    return std::make_unique<YagsPredictor>(entries_log2, cache);
}

PredictorPtr
buildPerceptron(unsigned entries_log2)
{
    // Budget-match: rows sized so total bits track 2-bit tables.
    unsigned rows = entries_log2 > 7 ? entries_log2 - 7 : 1;
    logClampedSize("perceptron", "row table log2", rows,
                   static_cast<int>(entries_log2) - 7);
    return std::make_unique<PerceptronPredictor>(rows, 24);
}

PredictorPtr
buildComb(unsigned entries_log2)
{
    unsigned half = std::max(1u, entries_log2 - 1);
    logClampedSize("comb", "component table log2", half,
                   static_cast<int>(entries_log2) - 1);
    return std::make_unique<CombiningPredictor>(
        std::make_unique<BimodalPredictor>(half),
        std::make_unique<GSharePredictor>(half), half);
}

PredictorPtr
buildTage(unsigned entries_log2)
{
    // Budget split: bimodal base at the requested size, each tagged
    // table and the statistical corrector at a quarter.
    TageConfig tcfg;
    tcfg.baseLog2 = entries_log2;
    tcfg.tableLog2 = entries_log2 > 2 ? entries_log2 - 2 : 1;
    tcfg.scLog2 = tcfg.tableLog2;
    logClampedSize("tage", "tagged table log2", tcfg.tableLog2,
                   static_cast<int>(entries_log2) - 2);
    return std::make_unique<TagePredictor>(tcfg);
}

/**
 * The registry. Registration order is the allPredictorKinds() order,
 * which the fuzz seed derivation depends on - append new kinds, never
 * insert. kNumPredictorKinds (factory.hh) pins the count so a new
 * kind that forgets to bump it fails to compile here rather than
 * silently skipping the coverage matrix.
 */
constexpr KindEntry kKinds[] = {
    {"static-taken", false,
     [](unsigned) -> PredictorPtr {
         return std::make_unique<StaticPredictor>(true);
     }},
    {"static-nottaken", false,
     [](unsigned) -> PredictorPtr {
         return std::make_unique<StaticPredictor>(false);
     }},
    {"bimodal", true,
     [](unsigned n) -> PredictorPtr {
         return std::make_unique<BimodalPredictor>(n);
     }},
    {"gshare", true,
     [](unsigned n) -> PredictorPtr {
         return std::make_unique<GSharePredictor>(n);
     }},
    {"gag", true,
     [](unsigned n) -> PredictorPtr {
         return std::make_unique<GAgPredictor>(n);
     }},
    {"local", true, buildLocal},
    {"agree", true,
     [](unsigned n) -> PredictorPtr {
         return std::make_unique<AgreePredictor>(n, n);
     }},
    {"yags", true, buildYags},
    {"perceptron", true, buildPerceptron},
    {"comb", true, buildComb},
    {"tage", true, buildTage},
};

static_assert(std::size(kKinds) == kNumPredictorKinds,
              "update kNumPredictorKinds (factory.hh) and the "
              "engine-grid coverage matrix when registering a "
              "predictor kind");

} // anonymous namespace

const std::vector<std::string> &
allPredictorKinds()
{
    static const std::vector<std::string> kinds = [] {
        std::vector<std::string> v;
        v.reserve(std::size(kKinds));
        for (const KindEntry &e : kKinds)
            v.emplace_back(e.name);
        return v;
    }();
    return kinds;
}

Expected<PredictorPtr>
tryMakePredictor(const std::string &kind, unsigned entries_log2)
{
    for (const KindEntry &e : kKinds) {
        if (kind != e.name)
            continue;
        // Every sized kind builds a table of 1 << entries_log2 (or a
        // value derived from it). Validate ONCE, here, with a typed
        // error: 0 breaks the "at least one index bit" invariant
        // every predictor assumes, and >= 31 turns
        // `1 << entries_log2` into overflow/UB before any
        // constructor assert could fire. The ceiling matches the
        // predictor ctor asserts (<= 24).
        if (e.sized && (entries_log2 < 1 || entries_log2 > 24))
            return Status(
                StatusCode::InvalidArgument,
                "entries_log2 " + std::to_string(entries_log2) +
                    " out of range [1, 24] for predictor kind '" +
                    kind + "'");
        return e.build(entries_log2);
    }
    return Status(StatusCode::NotFound,
                  "unknown predictor kind: " + kind);
}

PredictorPtr
makePredictor(const std::string &kind, unsigned entries_log2)
{
    Expected<PredictorPtr> made = tryMakePredictor(kind, entries_log2);
    if (!made.ok())
        pabp_fatal(made.status().message());
    return std::move(made.value());
}

} // namespace pabp
