/**
 * @file
 * Test-only reference predictability analyzer: the original
 * std::map implementation of PredictabilityAnalyzer, kept verbatim
 * as the oracle the flat-table analyzer (core/predictability.hh) is
 * compared against byte for byte. Every eviction here scans its
 * whole table, so it is slow at capacity; it exists only to pin
 * what the fast analyzer must report.
 */

#ifndef PABP_TESTS_PREDICTABILITY_REFERENCE_HH
#define PABP_TESTS_PREDICTABILITY_REFERENCE_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "core/predictability.hh"
#include "util/logging.hh"

namespace pabp::test {

/** Streaming std::map predictability estimator (the oracle). */
class ReferencePredictabilityAnalyzer
{
  public:
    explicit ReferencePredictabilityAnalyzer(PredictabilityConfig c = {})
        : cfg(std::move(c))
    {
        pabp_assert(PredictabilityAnalyzer::validateConfig(cfg).ok());
    }

    void
    observe(std::uint32_t pc, bool taken)
    {
        PcState &st = stateFor(pc);

        for (std::size_t i = 0; i < cfg.historyLengths.size(); ++i) {
            const unsigned k = cfg.historyLengths[i];
            // Warm-up skip: a k-conditioned table only counts
            // outcomes that have a full k-deep history for this PC.
            if (st.occurrences < k)
                continue;
            const std::uint32_t mask = k ? ((1u << k) - 1u) : 0u;
            recordPattern(st.tables[i], st.history & mask, taken);
        }

        if (st.occurrences > 0 && taken != st.lastOutcome)
            st.transitions += 1;
        st.occurrences += 1;
        st.taken += taken ? 1 : 0;
        st.lastOutcome = taken;
        st.history = (st.history << 1) | (taken ? 1u : 0u);
        total += 1;
    }

    PredictabilityReport
    report() const
    {
        PredictabilityReport rep;
        rep.historyLengths = cfg.historyLengths;
        rep.entropy.assign(cfg.historyLengths.size(), 0.0);
        rep.conditioned.assign(cfg.historyLengths.size(), 0);
        rep.evictedBranches = evictedBranches;
        rep.evictedOccurrences = evictedOccurrences;
        rep.evictedTaken = evictedTaken;
        rep.evictedTransitions = evictedTransitions;

        std::uint64_t patternFolds = evictedPatterns;
        for (const auto &[pc, st] : table) {
            PredictabilityReport::PerPc out;
            out.occurrences = st.occurrences;
            out.taken = st.taken;
            out.transitions = st.transitions;
            out.entropy.reserve(st.tables.size());
            out.conditioned.reserve(st.tables.size());
            for (const PatternTable &t : st.tables) {
                std::uint64_t n = t.remainder[0] + t.remainder[1];
                for (const auto &[pattern, c] : t.counts)
                    n += c[0] + c[1];
                out.conditioned.push_back(n);
                out.entropy.push_back(
                    tableEntropy(t.counts, t.remainder, n));
                patternFolds += t.evictedPatterns;
            }
            rep.occurrences += st.occurrences;
            rep.taken += st.taken;
            rep.transitions += st.transitions;
            rep.perPc.emplace(pc, std::move(out));
        }
        rep.evictedPatterns = patternFolds;

        rep.occurrences += evictedOccurrences;
        rep.taken += evictedTaken;
        rep.transitions += evictedTransitions;

        for (std::size_t i = 0; i < cfg.historyLengths.size(); ++i) {
            std::uint64_t weight = 0;
            double sum = 0.0;
            for (const auto &[pc, per] : rep.perPc) {
                weight += per.conditioned[i];
                sum += static_cast<double>(per.conditioned[i]) *
                    per.entropy[i];
            }
            rep.conditioned[i] = weight;
            rep.entropy[i] =
                weight ? sum / static_cast<double>(weight) : 0.0;
        }
        return rep;
    }

  private:
    using Counts = std::map<std::uint32_t, std::array<std::uint64_t, 2>>;

    struct PatternTable
    {
        /** pattern -> [not-taken, taken] observation counts. */
        Counts counts;
        /** Folded-pattern remainder bucket. */
        std::array<std::uint64_t, 2> remainder = {0, 0};
        std::uint64_t evictedPatterns = 0;
    };

    struct PcState
    {
        std::uint64_t occurrences = 0;
        std::uint64_t taken = 0;
        std::uint64_t transitions = 0;
        bool lastOutcome = false;
        /** Last outcomes, newest in bit 0. */
        std::uint32_t history = 0;
        std::vector<PatternTable> tables; ///< one per history length
    };

    PcState &
    stateFor(std::uint32_t pc)
    {
        auto it = table.find(pc);
        if (it != table.end())
            return it->second;

        if (table.size() >= cfg.pcCapacity) {
            // Fold the least-observed entry (ties: highest PC).
            auto victim = table.begin();
            for (auto cand = table.begin(); cand != table.end();
                 ++cand) {
                if (cand->second.occurrences <
                        victim->second.occurrences ||
                    (cand->second.occurrences ==
                         victim->second.occurrences &&
                     cand->first > victim->first))
                    victim = cand;
            }
            evictedBranches += 1;
            evictedOccurrences += victim->second.occurrences;
            evictedTaken += victim->second.taken;
            evictedTransitions += victim->second.transitions;
            for (const PatternTable &t : victim->second.tables)
                evictedPatterns += t.evictedPatterns;
            table.erase(victim);
        }

        PcState &st = table[pc];
        st.tables.resize(cfg.historyLengths.size());
        return st;
    }

    void
    recordPattern(PatternTable &t, std::uint32_t pattern, bool taken)
    {
        auto it = t.counts.find(pattern);
        if (it == t.counts.end()) {
            if (t.counts.size() >= cfg.patternCapacity) {
                // Fold the least-observed pattern (ties: highest
                // pattern) into the remainder bucket.
                auto victim = t.counts.begin();
                for (auto cand = t.counts.begin();
                     cand != t.counts.end(); ++cand) {
                    const std::uint64_t cn =
                        cand->second[0] + cand->second[1];
                    const std::uint64_t vn =
                        victim->second[0] + victim->second[1];
                    if (cn < vn ||
                        (cn == vn && cand->first > victim->first))
                        victim = cand;
                }
                t.remainder[0] += victim->second[0];
                t.remainder[1] += victim->second[1];
                t.evictedPatterns += 1;
                t.counts.erase(victim);
            }
            it = t.counts
                     .emplace(pattern,
                              std::array<std::uint64_t, 2>{0, 0})
                     .first;
        }
        it->second[taken ? 1 : 0] += 1;
    }

    /** Pattern-frequency-weighted binary entropy of one table. */
    static double
    tableEntropy(const Counts &counts,
                 const std::array<std::uint64_t, 2> &remainder,
                 std::uint64_t total)
    {
        if (total == 0)
            return 0.0;
        double h = 0.0;
        for (const auto &[pattern, c] : counts) {
            const std::uint64_t n = c[0] + c[1];
            if (n == 0)
                continue;
            h += static_cast<double>(n) / static_cast<double>(total) *
                binaryEntropy(static_cast<double>(c[1]) /
                              static_cast<double>(n));
        }
        const std::uint64_t rn = remainder[0] + remainder[1];
        if (rn)
            h += static_cast<double>(rn) /
                static_cast<double>(total) *
                binaryEntropy(static_cast<double>(remainder[1]) /
                              static_cast<double>(rn));
        return h;
    }

    PredictabilityConfig cfg;
    std::map<std::uint32_t, PcState> table;
    std::uint64_t total = 0;
    std::uint64_t evictedBranches = 0;
    std::uint64_t evictedOccurrences = 0;
    std::uint64_t evictedTaken = 0;
    std::uint64_t evictedTransitions = 0;
    std::uint64_t evictedPatterns = 0;
};

/** characterizeTrace() driven through the reference analyzer: the
 *  same conditional-branch classification, the same event budget. */
inline PredictabilityReport
referenceCharacterizeTrace(const DecodedTrace &trace,
                           const PredictabilityConfig &cfg = {},
                           std::uint64_t max_events = 0)
{
    ReferencePredictabilityAnalyzer an(cfg);
    std::size_t n = trace.size();
    if (max_events && max_events < n)
        n = static_cast<std::size_t>(max_events);
    constexpr auto cond_branch =
        static_cast<std::uint8_t>(DecodedTrace::Class::CondBranch);
    for (std::size_t i = 0; i < n; ++i)
        if (trace.cls[i] == cond_branch)
            an.observe(trace.pcs[i], trace.taken(i));
    return an.report();
}

} // namespace pabp::test

#endif // PABP_TESTS_PREDICTABILITY_REFERENCE_HH
