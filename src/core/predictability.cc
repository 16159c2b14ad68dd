#include "core/predictability.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "util/logging.hh"

namespace pabp {

double
binaryEntropy(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

Status
PredictabilityAnalyzer::validateConfig(const PredictabilityConfig &cfg)
{
    if (cfg.historyLengths.empty())
        return Status(StatusCode::InvalidArgument,
                      "predictability: no history lengths");
    for (std::size_t i = 0; i < cfg.historyLengths.size(); ++i) {
        if (cfg.historyLengths[i] > 31)
            return Status(StatusCode::InvalidArgument,
                          "predictability: history length " +
                              std::to_string(cfg.historyLengths[i]) +
                              " exceeds 31");
        if (i > 0 &&
            cfg.historyLengths[i] <= cfg.historyLengths[i - 1])
            return Status(StatusCode::InvalidArgument,
                          "predictability: history lengths must be "
                          "strictly increasing");
    }
    if (cfg.pcCapacity == 0 || cfg.patternCapacity == 0)
        return Status(StatusCode::InvalidArgument,
                      "predictability: capacities must be non-zero");
    return Status();
}

namespace {

/** Largest direct-indexed table, in slots: a big patternCapacity
 *  must not make every PC allocate 2^k counters up front. */
constexpr std::uint64_t maxDirectSlots = 1u << 12;

} // namespace

PredictabilityAnalyzer::PredictabilityAnalyzer(PredictabilityConfig c)
    : cfg(std::move(c))
{
    pabp_assert(validateConfig(cfg).ok());
    for (unsigned k : cfg.historyLengths) {
        TableLayout t;
        t.k = k;
        t.mask = k ? ((1u << k) - 1u) : 0u;
        const std::uint64_t patterns = std::uint64_t{1} << k;
        // No more than 2^k patterns can ever arrive, so a table this
        // small can never fold one.
        t.direct =
            patterns <= cfg.patternCapacity && patterns <= maxDirectSlots;
        if (t.direct) {
            t.offset = static_cast<std::uint32_t>(directSlots);
            directSlots += patterns;
        } else {
            t.offset = static_cast<std::uint32_t>(hashedTables++);
        }
        layout.push_back(t);
    }
}

// ---------------------------------------------------------------------
// FlatIndex

PredictabilityAnalyzer::FlatIndex::FlatIndex() : slots(16), shift(28) {}

std::size_t
PredictabilityAnalyzer::FlatIndex::home(std::uint32_t key) const
{
    return (key * 0x9e3779b1u) >> shift;
}

std::uint32_t
PredictabilityAnalyzer::FlatIndex::find(std::uint32_t key) const
{
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        const Slot &s = slots[i];
        if (s.value == none || s.key == key)
            return s.value;
    }
}

std::size_t
PredictabilityAnalyzer::FlatIndex::slotOf(std::uint32_t key) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = home(key);
    while (slots[i].key != key || slots[i].value == none) {
        pabp_assert(slots[i].value != none);
        i = (i + 1) & mask;
    }
    return i;
}

void
PredictabilityAnalyzer::FlatIndex::insert(std::uint32_t key,
                                          std::uint32_t value)
{
    if ((used + 1) * 2 > slots.size())
        grow();
    const std::size_t mask = slots.size() - 1;
    std::size_t i = home(key);
    while (slots[i].value != none)
        i = (i + 1) & mask;
    slots[i] = {key, value};
    used += 1;
}

void
PredictabilityAnalyzer::FlatIndex::assign(std::uint32_t key,
                                          std::uint32_t value)
{
    slots[slotOf(key)].value = value;
}

void
PredictabilityAnalyzer::FlatIndex::erase(std::uint32_t key)
{
    // Backward shift: pull each later member of the probe run into
    // the hole unless that would move it before its home slot.
    const std::size_t mask = slots.size() - 1;
    std::size_t hole = slotOf(key);
    for (std::size_t j = (hole + 1) & mask; slots[j].value != none;
         j = (j + 1) & mask) {
        const std::size_t h = home(slots[j].key);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            slots[hole] = slots[j];
            hole = j;
        }
    }
    slots[hole].value = none;
    used -= 1;
}

void
PredictabilityAnalyzer::FlatIndex::grow()
{
    std::vector<Slot> old(slots.size() * 2);
    old.swap(slots);
    shift -= 1;
    used = 0;
    for (const Slot &s : old)
        if (s.value != none)
            insert(s.key, s.value);
}

// ---------------------------------------------------------------------
// Analyzer

PredictabilityAnalyzer::PcState &
PredictabilityAnalyzer::stateFor(std::uint32_t pc)
{
    if (lastSlot < states.size() && states[lastSlot].pc == pc)
        return states[lastSlot];
    std::uint32_t slot = pcIndex.find(pc);
    if (slot != FlatIndex::none) {
        lastSlot = slot;
        return states[slot];
    }

    if (states.size() >= cfg.pcCapacity) {
        // Fold the least-observed entry (ties: highest PC) into the
        // remainder - the same deterministic policy shape as
        // BranchProfile, keyed on occurrences since there is no
        // mispredict notion here. One scan per new PC at capacity.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < states.size(); ++i) {
            const PcState &c = states[i];
            const PcState &v = states[victim];
            if (c.occurrences < v.occurrences ||
                (c.occurrences == v.occurrences && c.pc > v.pc))
                victim = i;
        }
        PcState &v = states[victim];
        evictedBranches += 1;
        evictedOccurrences += v.occurrences;
        evictedTaken += v.taken;
        evictedTransitions += v.transitions;
        for (const HashedTable &t : v.hashed)
            evictedPatterns += t.evictedPatterns;
        pcIndex.erase(v.pc);
        if (victim + 1 != states.size()) {
            v = std::move(states.back());
            pcIndex.assign(v.pc, static_cast<std::uint32_t>(victim));
        }
        states.pop_back();
    }

    slot = static_cast<std::uint32_t>(states.size());
    PcState &st = states.emplace_back();
    st.pc = pc;
    st.direct.resize(directSlots);
    st.hashed.resize(hashedTables);
    pcIndex.insert(pc, slot);
    lastSlot = slot;
    return st;
}

namespace {

/** Heap order of pattern folds: fewest observations first, ties to
 *  the highest pattern. */
template <typename Entry>
bool
foldsBefore(const Entry &a, const Entry &b)
{
    const std::uint64_t an = a.counts[0] + a.counts[1];
    const std::uint64_t bn = b.counts[0] + b.counts[1];
    return an < bn || (an == bn && a.pattern > b.pattern);
}

} // namespace

void
PredictabilityAnalyzer::siftDown(HashedTable &t, std::uint32_t pos)
{
    std::vector<std::uint32_t> &heap = t.heap;
    const std::size_t n = heap.size();
    const std::uint32_t e = heap[pos];
    for (;;) {
        std::size_t child = 2 * std::size_t{pos} + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            foldsBefore(t.entries[heap[child + 1]],
                        t.entries[heap[child]]))
            child += 1;
        if (!foldsBefore(t.entries[heap[child]], t.entries[e]))
            break;
        heap[pos] = heap[child];
        t.entries[heap[pos]].heapPos = pos;
        pos = static_cast<std::uint32_t>(child);
    }
    heap[pos] = e;
    t.entries[e].heapPos = pos;
}

void
PredictabilityAnalyzer::recordPattern(HashedTable &t,
                                      std::uint32_t pattern,
                                      bool taken)
{
    std::uint32_t e = t.index.find(pattern);
    if (e == FlatIndex::none) {
        if (t.entries.size() < cfg.patternCapacity) {
            e = static_cast<std::uint32_t>(t.entries.size());
            t.entries.push_back({pattern, 0, {0, 0}});
            t.index.insert(pattern, e);
        } else {
            // At capacity: fold the least-observed pattern (ties:
            // highest pattern), the heap root, into the remainder
            // bucket and reuse its entry for the new pattern. The
            // heap is built once, on the first fold.
            if (t.heap.empty()) {
                t.heap.resize(t.entries.size());
                for (std::uint32_t i = 0; i < t.heap.size(); ++i)
                    t.heap[i] = i;
                for (std::size_t i = t.heap.size() / 2; i-- > 0;)
                    siftDown(t, static_cast<std::uint32_t>(i));
            }
            e = t.heap[0];
            HashedTable::Entry &victim = t.entries[e];
            t.remainder[0] += victim.counts[0];
            t.remainder[1] += victim.counts[1];
            t.evictedPatterns += 1;
            t.index.erase(victim.pattern);
            victim.pattern = pattern;
            victim.counts = {0, 0};
            t.index.insert(pattern, e);
        }
    }
    t.entries[e].counts[taken ? 1 : 0] += 1;
    if (!t.heap.empty())
        siftDown(t, t.entries[e].heapPos);
}

void
PredictabilityAnalyzer::observe(std::uint32_t pc, bool taken)
{
    PcState &st = stateFor(pc);

    for (const TableLayout &t : layout) {
        // Warm-up skip: a k-conditioned table only counts outcomes
        // that have a full k-deep history for this PC.
        if (st.occurrences < t.k)
            continue;
        const std::uint32_t pattern = st.history & t.mask;
        if (t.direct)
            st.direct[t.offset + pattern][taken ? 1 : 0] += 1;
        else
            recordPattern(st.hashed[t.offset], pattern, taken);
    }

    if (st.occurrences > 0 && taken != st.lastOutcome)
        st.transitions += 1;
    st.occurrences += 1;
    st.taken += taken ? 1 : 0;
    st.lastOutcome = taken;
    st.history = (st.history << 1) | (taken ? 1u : 0u);
    total += 1;
}

namespace {

/**
 * Pattern-frequency-weighted binary entropy of one table. @p counts
 * must be in ascending pattern order: the sum is floating point, so
 * its order is part of the reported bytes.
 */
double
tableEntropy(std::span<const std::array<std::uint64_t, 2>> counts,
             const std::array<std::uint64_t, 2> &remainder,
             std::uint64_t total)
{
    if (total == 0)
        return 0.0;
    double h = 0.0;
    for (const std::array<std::uint64_t, 2> &c : counts) {
        const std::uint64_t n = c[0] + c[1];
        if (n == 0)
            continue;
        h += static_cast<double>(n) / static_cast<double>(total) *
            binaryEntropy(static_cast<double>(c[1]) /
                          static_cast<double>(n));
    }
    const std::uint64_t rn = remainder[0] + remainder[1];
    if (rn)
        h += static_cast<double>(rn) / static_cast<double>(total) *
            binaryEntropy(static_cast<double>(remainder[1]) /
                          static_cast<double>(rn));
    return h;
}

} // namespace

PredictabilityReport
PredictabilityAnalyzer::report() const
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
    std::vector<const HashedTable::Entry *> byPattern;
    std::vector<std::array<std::uint64_t, 2>> sorted;
    for (const PcState &st : states) {
        PredictabilityReport::PerPc out;
        out.occurrences = st.occurrences;
        out.taken = st.taken;
        out.transitions = st.transitions;
        out.entropy.reserve(layout.size());
        out.conditioned.reserve(layout.size());
        for (const TableLayout &t : layout) {
            // Every observation past the k-step warm-up landed in
            // the table or its remainder.
            const std::uint64_t n =
                st.occurrences > t.k ? st.occurrences - t.k : 0;
            out.conditioned.push_back(n);
            if (t.direct) {
                out.entropy.push_back(tableEntropy(
                    {st.direct.data() + t.offset, std::size_t{t.mask} + 1},
                    {0, 0}, n));
                continue;
            }
            const HashedTable &h = st.hashed[t.offset];
            byPattern.clear();
            for (const HashedTable::Entry &e : h.entries)
                byPattern.push_back(&e);
            std::sort(byPattern.begin(), byPattern.end(),
                      [](const auto *a, const auto *b) {
                          return a->pattern < b->pattern;
                      });
            sorted.clear();
            for (const HashedTable::Entry *e : byPattern)
                sorted.push_back(e->counts);
            out.entropy.push_back(tableEntropy(sorted, h.remainder, n));
            patternFolds += h.evictedPatterns;
        }
        rep.occurrences += st.occurrences;
        rep.taken += st.taken;
        rep.transitions += st.transitions;
        rep.perPc.emplace(st.pc, std::move(out));
    }
    rep.evictedPatterns = patternFolds;

    // Whole-trace totals fold the evicted remainder back in: the
    // trace-level rates must not depend on pcCapacity (only the
    // per-PC attribution and the entropy weighting do).
    rep.occurrences += evictedOccurrences;
    rep.taken += evictedTaken;
    rep.transitions += evictedTransitions;

    // Occurrence-weighted aggregation: each PC weighs by its
    // conditioned count at that k, so warm-up outcomes never dilute
    // the k-conditioned mean.
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

PredictabilityReport
characterizeTrace(const DecodedTrace &trace,
                  const PredictabilityConfig &cfg,
                  std::uint64_t max_events)
{
    PredictabilityAnalyzer an(cfg);
    std::size_t n = trace.size();
    if (max_events && max_events < n)
        n = static_cast<std::size_t>(max_events);
    constexpr auto cond_branch =
        static_cast<std::uint8_t>(DecodedTrace::Class::CondBranch);
    constexpr auto pred_define =
        static_cast<std::uint8_t>(DecodedTrace::Class::PredDefine);
    // Event index of each predicate register's last write; 0 for a
    // never-written one, so its distance is the branch's own index.
    std::array<std::uint64_t, numPredRegs> last_write{};
    PredictabilityReport::GuardDistance guard;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t cls = trace.cls[i];
        if (cls == cond_branch) {
            an.observe(trace.pcs[i], trace.taken(i));
            guard.sample(i - last_write[trace.inst(i).qp]);
        } else if (cls == pred_define) {
            // Only Cmp/PSet write predicates (DecodedTrace::Class).
            const PredicateWrites &w = trace.predWrites(i);
            if (w.count > 0)
                last_write[w.reg[0]] = i;
            if (w.count > 1)
                last_write[w.reg[1]] = i;
        }
    }
    PredictabilityReport rep = an.report();
    rep.guardDistance = guard;
    return rep;
}

std::vector<std::string>
predictabilityTableColumns(const std::vector<unsigned> &history_lengths)
{
    std::vector<std::string> cols = {"pc", "occurrences", "taken",
                                     "transitions"};
    for (unsigned k : history_lengths)
        cols.push_back("entropy_k" + std::to_string(k) +
                       "_millibits");
    return cols;
}

namespace {

std::uint64_t
millibits(double bits)
{
    return static_cast<std::uint64_t>(
        std::llround(std::max(0.0, bits) * 1000.0));
}

/** The metric-key label of history length @p k, e.g. "k8". */
std::string
historyLabel(unsigned k)
{
    std::string label = "k";
    label += std::to_string(k);
    return label;
}

} // namespace

void
exportPredictability(MetricsExporter &ex,
                     const PredictabilityReport &report,
                     const std::string &prefix)
{
    ex.setInt(prefix + ".static_branches", report.perPc.size());
    ex.setInt(prefix + ".occurrences", report.occurrences);
    ex.setInt(prefix + ".taken", report.taken);
    ex.setInt(prefix + ".transitions", report.transitions);
    ex.setReal(prefix + ".taken_rate", report.takenRate());
    ex.setReal(prefix + ".transition_rate", report.transitionRate());
    ex.setInt(prefix + ".evicted_branches", report.evictedBranches);
    ex.setInt(prefix + ".evicted_occurrences",
              report.evictedOccurrences);
    ex.setInt(prefix + ".evicted_patterns", report.evictedPatterns);
    for (std::size_t i = 0; i < report.historyLengths.size(); ++i) {
        const std::string k = historyLabel(report.historyLengths[i]);
        ex.setReal(prefix + ".entropy." + k, report.entropy[i]);
        ex.setInt(prefix + ".conditioned." + k,
                  report.conditioned[i]);
    }

    ex.declareTable(prefix,
                    predictabilityTableColumns(report.historyLengths));
    for (const auto &[pc, per] : report.perPc) {
        std::vector<std::uint64_t> row = {pc, per.occurrences,
                                          per.taken, per.transitions};
        for (double h : per.entropy)
            row.push_back(millibits(h));
        ex.addRow(prefix, std::move(row));
    }
}

void
aggregatePredictabilityByTier(MetricsExporter &ex,
                              const H2pClassification &cls,
                              const PredictabilityReport &report,
                              const std::string &prefix)
{
    struct TierAgg
    {
        std::uint64_t matched = 0;
        std::uint64_t occurrences = 0;
        std::uint64_t taken = 0;
        std::uint64_t transitions = 0;
        std::vector<std::uint64_t> conditioned;
        std::vector<double> entropySum;
    };
    const std::size_t ks = report.historyLengths.size();
    std::vector<TierAgg> tiers(cls.numTiers());
    for (TierAgg &t : tiers) {
        t.conditioned.assign(ks, 0);
        t.entropySum.assign(ks, 0.0);
    }

    for (const auto &[pc, tier] : cls.tierOf) {
        auto it = report.perPc.find(pc);
        if (it == report.perPc.end())
            continue;
        TierAgg &agg = tiers[tier];
        const PredictabilityReport::PerPc &per = it->second;
        agg.matched += 1;
        agg.occurrences += per.occurrences;
        agg.taken += per.taken;
        agg.transitions += per.transitions;
        for (std::size_t i = 0; i < ks; ++i) {
            agg.conditioned[i] += per.conditioned[i];
            agg.entropySum[i] +=
                static_cast<double>(per.conditioned[i]) *
                per.entropy[i];
        }
    }

    for (unsigned t = 0; t < cls.numTiers(); ++t) {
        const std::string key =
            prefix + ".tier" + std::to_string(t) + ".";
        const TierAgg &agg = tiers[t];
        ex.setInt(key + "matched_branches", agg.matched);
        ex.setInt(key + "occurrences", agg.occurrences);
        ex.setReal(key + "taken_rate",
                   agg.occurrences
                       ? static_cast<double>(agg.taken) /
                           static_cast<double>(agg.occurrences)
                       : 0.0);
        ex.setReal(key + "transition_rate",
                   agg.occurrences
                       ? static_cast<double>(agg.transitions) /
                           static_cast<double>(agg.occurrences)
                       : 0.0);
        for (std::size_t i = 0; i < ks; ++i) {
            const std::string k = historyLabel(report.historyLengths[i]);
            ex.setReal(key + "entropy." + k,
                       agg.conditioned[i]
                           ? agg.entropySum[i] /
                               static_cast<double>(agg.conditioned[i])
                           : 0.0);
        }
    }
}

} // namespace pabp
