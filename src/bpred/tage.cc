#include "bpred/tage.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace pabp {

namespace {

/** Smallest power of two that can hold @p n + 1 history bits. */
std::size_t
historyBufferSize(unsigned n)
{
    std::size_t size = 1;
    while (size < static_cast<std::size_t>(n) + 1)
        size <<= 1;
    return size;
}

} // anonymous namespace

TagePredictor::TagePredictor(const TageConfig &config) : cfg(config)
{
    pabp_assert(cfg.baseLog2 >= 1 && cfg.baseLog2 <= 24);
    pabp_assert(cfg.tableLog2 >= 1 && cfg.tableLog2 <= 24);
    pabp_assert(cfg.numTables >= 1 && cfg.numTables <= 16);
    pabp_assert(cfg.tagBits >= 2 && cfg.tagBits <= 15);
    pabp_assert(cfg.minHistory >= 1);
    pabp_assert(cfg.maxHistory >= cfg.minHistory &&
                cfg.maxHistory <= 512);
    pabp_assert(cfg.counterBits >= 2 && cfg.counterBits <= 8);
    pabp_assert(cfg.usefulBits >= 1 && cfg.usefulBits <= 8);
    pabp_assert(cfg.tickPeriod >= 1);
    pabp_assert(cfg.scLog2 >= 1 && cfg.scLog2 <= 24);
    pabp_assert(cfg.scCounterBits >= 2 && cfg.scCounterBits <= 8);

    // Geometric history series: minHistory for table 0 growing to
    // maxHistory for the last table, strictly increasing.
    histLengths.resize(cfg.numTables);
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        double frac = cfg.numTables > 1
            ? static_cast<double>(t) / (cfg.numTables - 1)
            : 1.0;
        double len = cfg.minHistory *
            std::pow(static_cast<double>(cfg.maxHistory) /
                         cfg.minHistory,
                     frac);
        unsigned rounded =
            static_cast<unsigned>(std::lround(len));
        if (t > 0 && rounded <= histLengths[t - 1])
            rounded = histLengths[t - 1] + 1;
        histLengths[t] = rounded;
    }
    pabp_assert(histLengths.back() <= 512);

    base.assign(std::size_t{1} << cfg.baseLog2, SatCounter(2));
    tables.assign(cfg.numTables,
                  std::vector<TaggedEntry>(std::size_t{1}
                                           << cfg.tableLog2));
    for (auto &table : tables)
        for (TaggedEntry &e : table) {
            e.ctr = SatCounter(cfg.counterBits);
            e.u = SatCounter(cfg.usefulBits, 0);
        }
    scTable.assign(std::size_t{1} << cfg.scLog2,
                   SatCounter(cfg.scCounterBits));

    hist.assign(historyBufferSize(histLengths.back()), 0);
    foldedIdx.resize(cfg.numTables);
    foldedTag0.resize(cfg.numTables);
    foldedTag1.resize(cfg.numTables);
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        foldedIdx[t].init(histLengths[t], cfg.tableLog2);
        foldedTag0[t].init(histLengths[t], cfg.tagBits);
        foldedTag1[t].init(histLengths[t], cfg.tagBits - 1);
    }

    idxLatch.assign(cfg.numTables, 0);
    tagLatch.assign(cfg.numTables, 0);
}

void
TagePredictor::shiftHistory(bool bit)
{
    const std::size_t mask = hist.size() - 1;
    histPtr = (histPtr + hist.size() - 1) & mask;
    hist[histPtr] = bit ? 1 : 0;
    const unsigned newBit = bit ? 1 : 0;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        const unsigned oldBit =
            hist[(histPtr + histLengths[t]) & mask];
        foldedIdx[t].shift(newBit, oldBit);
        foldedTag0[t].shift(newBit, oldBit);
        foldedTag1[t].shift(newBit, oldBit);
    }
}

std::uint32_t
TagePredictor::lfsrNext()
{
    const std::uint32_t bit = lfsr & 1;
    lfsr >>= 1;
    if (bit)
        lfsr ^= 0x80200003u;
    return lfsr;
}

std::size_t
TagePredictor::tableIndex(std::uint32_t pc, unsigned t) const
{
    const std::size_t mask =
        (std::size_t{1} << cfg.tableLog2) - 1;
    return (pc ^ (pc >> (t + 1)) ^ foldedIdx[t].comp) & mask;
}

std::uint16_t
TagePredictor::tableTag(std::uint32_t pc, unsigned t) const
{
    const std::uint32_t mask =
        (std::uint32_t{1} << cfg.tagBits) - 1;
    return static_cast<std::uint16_t>(
        (pc ^ foldedTag0[t].comp ^ (foldedTag1[t].comp << 1)) &
        mask);
}

std::size_t
TagePredictor::scIndex(std::uint32_t pc, bool tagePred) const
{
    std::uint64_t h =
        (static_cast<std::uint64_t>(pc) << 1) | (tagePred ? 1 : 0);
    h ^= h >> cfg.scLog2;
    return h & (scTable.size() - 1);
}

void
TagePredictor::lookup(std::uint32_t pc)
{
    providerLatch = -1;
    altLatch = -1;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        idxLatch[t] = tableIndex(pc, t);
        tagLatch[t] = tableTag(pc, t);
    }
    for (int t = static_cast<int>(cfg.numTables) - 1; t >= 0; --t) {
        if (tables[t][idxLatch[t]].tag != tagLatch[t])
            continue;
        if (providerLatch < 0) {
            providerLatch = t;
        } else {
            altLatch = t;
            break;
        }
    }

    const bool basePred =
        base[pc & (base.size() - 1)].predictTaken();
    if (providerLatch < 0) {
        providerPredLatch = basePred;
        altPredLatch = basePred;
        providerWeakNew = false;
        tagePredLatch = basePred;
    } else {
        const TaggedEntry &provider =
            tables[providerLatch][idxLatch[providerLatch]];
        providerPredLatch = provider.ctr.predictTaken();
        altPredLatch = altLatch >= 0
            ? tables[altLatch][idxLatch[altLatch]]
                  .ctr.predictTaken()
            : basePred;
        // "Newly allocated": the prediction counter is still weak
        // and the entry has never proven useful; for those, a
        // global useAltOnNa counter learns whether the alternate
        // prediction is the better bet (Seznec's use_alt_on_na).
        const std::uint8_t mid =
            static_cast<std::uint8_t>(1u << (cfg.counterBits - 1));
        const std::uint8_t raw = provider.ctr.raw();
        providerWeakNew = provider.u.raw() == 0 &&
            (raw == mid || raw == mid - 1);
        tagePredLatch = providerWeakNew && useAltOnNa.predictTaken()
            ? altPredLatch
            : providerPredLatch;
    }

    // Statistical corrector: a saturated counter for this
    // (pc, tage prediction) pair overrides TAGE - the branch is
    // statistically biased in a way the tagged tables keep missing.
    scIdxLatch = scIndex(pc, tagePredLatch);
    const SatCounter &sc = scTable[scIdxLatch];
    if (sc.isSaturated()) {
        finalPredLatch = sc.predictTaken();
        scOverrideLatch = finalPredLatch != tagePredLatch;
    } else {
        finalPredLatch = tagePredLatch;
        scOverrideLatch = false;
    }
}

bool
TagePredictor::predict(std::uint32_t pc)
{
    lookup(pc);
    if (providerLatch >= 0)
        ++providerHits;
    if (tagePredLatch != providerPredLatch)
        ++altOverrides;
    if (scOverrideLatch)
        ++scOverrides;
    return finalPredLatch;
}

void
TagePredictor::update(std::uint32_t pc, bool taken)
{
    if (scOverrideLatch && finalPredLatch == taken)
        ++scOverrideCorrect;
    scTable[scIdxLatch].update(taken);

    if (providerLatch >= 0) {
        TaggedEntry &provider =
            tables[providerLatch][idxLatch[providerLatch]];
        if (providerWeakNew && providerPredLatch != altPredLatch)
            useAltOnNa.update(altPredLatch == taken);
        if (providerPredLatch != altPredLatch)
            provider.u.update(providerPredLatch == taken);
        provider.ctr.update(taken);
    } else {
        base[pc & (base.size() - 1)].update(taken);
    }

    // Allocate a longer-history entry when TAGE itself (not the
    // corrector) mispredicted and a longer table exists. The LFSR
    // randomises the starting table so one hot branch cannot
    // monopolise the first free slot; failure to find a u == 0
    // entry ages every candidate instead.
    if (tagePredLatch != taken &&
        providerLatch < static_cast<int>(cfg.numTables) - 1) {
        unsigned start = static_cast<unsigned>(providerLatch + 1);
        if (cfg.numTables - start > 1 && (lfsrNext() & 1))
            ++start;
        const std::uint8_t mid =
            static_cast<std::uint8_t>(1u << (cfg.counterBits - 1));
        bool allocated = false;
        for (unsigned t = start; t < cfg.numTables; ++t) {
            TaggedEntry &e = tables[t][idxLatch[t]];
            if (e.u.raw() != 0)
                continue;
            e.tag = tagLatch[t];
            e.ctr = SatCounter(cfg.counterBits,
                               taken ? mid : mid - 1);
            e.u = SatCounter(cfg.usefulBits, 0);
            ++allocations;
            allocated = true;
            break;
        }
        if (!allocated) {
            ++allocFailures;
            for (unsigned t = start; t < cfg.numTables; ++t)
                tables[t][idxLatch[t]].u.decrement();
        }
    }

    // Periodic usefulness decay: alternately clear the MSB and the
    // LSB of every u counter so stale entries become reclaimable.
    if (++tick >= cfg.tickPeriod) {
        tick = 0;
        ++uResets;
        const std::uint8_t clear = tickFlip
            ? 1
            : static_cast<std::uint8_t>(1u << (cfg.usefulBits - 1));
        for (auto &table : tables)
            for (TaggedEntry &e : table)
                e.u.setRaw(e.u.raw() & ~clear);
        tickFlip = !tickFlip;
    }

    shiftHistory(taken);
}

bool
TagePredictor::predictAndUpdate(std::uint32_t pc, bool taken)
{
    // Qualified calls: statically bound, and the unfused pair by
    // construction (the gshare pattern; equivalence tests pin it).
    bool predicted = TagePredictor::predict(pc);
    TagePredictor::update(pc, taken);
    return predicted;
}

void
TagePredictor::registerStats(StatGroup &group,
                             const std::string &prefix)
{
    group.gauge(prefix + "provider_hits",
                [this] { return providerHits; });
    group.gauge(prefix + "alt_overrides",
                [this] { return altOverrides; });
    group.gauge(prefix + "allocations",
                [this] { return allocations; });
    group.gauge(prefix + "alloc_failures",
                [this] { return allocFailures; });
    group.gauge(prefix + "u_resets", [this] { return uResets; });
    group.gauge(prefix + "sc_overrides",
                [this] { return scOverrides; });
    group.gauge(prefix + "sc_override_correct",
                [this] { return scOverrideCorrect; });
}

std::string
TagePredictor::name() const
{
    return "tage-" + std::to_string(cfg.numTables) + "x" +
        std::to_string(std::size_t{1} << cfg.tableLog2) + "t-" +
        std::to_string(base.size()) + "b-" +
        std::to_string(scTable.size()) + "sc-" +
        std::to_string(histLengths.back()) + "h";
}

std::size_t
TagePredictor::storageBits() const
{
    const std::size_t taggedEntryBits =
        cfg.counterBits + cfg.usefulBits + cfg.tagBits;
    const std::size_t folded =
        cfg.numTables * (cfg.tableLog2 + 2 * cfg.tagBits - 1);
    return base.size() * 2 +
        cfg.numTables * (std::size_t{1} << cfg.tableLog2) *
        taggedEntryBits +
        scTable.size() * cfg.scCounterBits + histLengths.back() +
        folded + 4 /* useAltOnNa */;
}

void
TagePredictor::saveState(StateSink &sink) const
{
    sink.writeCounters(base);
    for (const auto &table : tables) {
        sink.writeU64(table.size());
        for (const TaggedEntry &e : table) {
            sink.writePod(e.tag);
            sink.writeU8(e.ctr.raw());
            sink.writeU8(e.u.raw());
        }
    }
    sink.writeCounters(scTable);
    sink.writePodVector(hist);
    sink.writeU64(histPtr);
    for (const auto *folds :
         {&foldedIdx, &foldedTag0, &foldedTag1})
        for (const FoldedHistory &f : *folds)
            sink.writeU32(f.comp);
    sink.writeU8(useAltOnNa.raw());
    sink.writeU32(lfsr);
    sink.writeU32(tick);
    sink.writeBool(tickFlip);
    // Diagnostics are exported as gauges, so a resumed run must
    // report the same counts as an uninterrupted one (the gshare
    // conflict-profiler precedent).
    sink.writeU64(providerHits);
    sink.writeU64(altOverrides);
    sink.writeU64(allocations);
    sink.writeU64(allocFailures);
    sink.writeU64(uResets);
    sink.writeU64(scOverrides);
    sink.writeU64(scOverrideCorrect);
}

Status
TagePredictor::loadState(StateSource &src)
{
    PABP_TRY(src.readCounters(base));
    for (auto &table : tables) {
        std::uint64_t count = 0;
        PABP_TRY(src.readPod(count));
        if (count != table.size())
            return Status(StatusCode::InvalidArgument,
                          "tagged table size mismatch");
        for (TaggedEntry &e : table) {
            PABP_TRY(src.readPod(e.tag));
            std::uint8_t raw = 0;
            PABP_TRY(src.readPod(raw));
            e.ctr.setRaw(raw);
            PABP_TRY(src.readPod(raw));
            e.u.setRaw(raw);
        }
    }
    PABP_TRY(src.readCounters(scTable));
    PABP_TRY(src.readPodVector(hist, hist.size()));
    PABP_TRY(src.readPod(histPtr));
    if (histPtr >= hist.size())
        return Status(StatusCode::Corrupt,
                      "history pointer out of range");
    for (auto *folds : {&foldedIdx, &foldedTag0, &foldedTag1})
        for (FoldedHistory &f : *folds) {
            PABP_TRY(src.readPod(f.comp));
            if (f.comp >> f.compLength)
                return Status(StatusCode::Corrupt,
                              "folded history exceeds its width");
        }
    std::uint8_t alt = 0;
    PABP_TRY(src.readPod(alt));
    useAltOnNa.setRaw(alt);
    PABP_TRY(src.readPod(lfsr));
    PABP_TRY(src.readPod(tick));
    PABP_TRY(src.readBool(tickFlip));
    PABP_TRY(src.readPod(providerHits));
    PABP_TRY(src.readPod(altOverrides));
    PABP_TRY(src.readPod(allocations));
    PABP_TRY(src.readPod(allocFailures));
    PABP_TRY(src.readPod(uResets));
    PABP_TRY(src.readPod(scOverrides));
    return src.readPod(scOverrideCorrect);
}

void
TagePredictor::exportHistory(std::vector<std::uint64_t> &out) const
{
    // Layout: histPtr, then the raw circular buffer packed 8 bytes
    // per word (its size is a power of two, fixed by the config),
    // then every folded register's comp value verbatim.
    out.push_back(histPtr);
    for (std::size_t i = 0; i < hist.size(); i += 8) {
        std::uint64_t word = 0;
        for (std::size_t j = 0; j < 8 && i + j < hist.size(); ++j)
            word |= static_cast<std::uint64_t>(hist[i + j]) << (8 * j);
        out.push_back(word);
    }
    for (const auto *folds : {&foldedIdx, &foldedTag0, &foldedTag1})
        for (const FoldedHistory &f : *folds)
            out.push_back(f.comp);
}

std::size_t
TagePredictor::importHistory(const std::uint64_t *words, std::size_t n)
{
    const std::size_t histWords = (hist.size() + 7) / 8;
    const std::size_t needed = 1 + histWords + 3 * cfg.numTables;
    pabp_assert(n >= needed);
    std::size_t w = 0;
    histPtr = static_cast<std::size_t>(words[w++]) & (hist.size() - 1);
    for (std::size_t i = 0; i < hist.size(); i += 8) {
        const std::uint64_t word = words[w++];
        for (std::size_t j = 0; j < 8 && i + j < hist.size(); ++j)
            hist[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
    for (auto *folds : {&foldedIdx, &foldedTag0, &foldedTag1})
        for (FoldedHistory &f : *folds)
            f.comp = static_cast<std::uint32_t>(words[w++]) &
                ((std::uint32_t{1} << f.compLength) - 1);
    return w;
}

} // namespace pabp
