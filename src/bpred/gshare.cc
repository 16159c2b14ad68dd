#include "bpred/gshare.hh"

#include "util/logging.hh"

namespace pabp {

GSharePredictor::GSharePredictor(unsigned entries_log2,
                                 unsigned history_bits,
                                 unsigned counter_bits)
    : table(std::size_t{1} << entries_log2, SatCounter(counter_bits)),
      entriesLog2(entries_log2),
      histBits(history_bits ? history_bits : entries_log2),
      counterBits(counter_bits)
{
    pabp_assert(entries_log2 >= 1 && entries_log2 <= 24);
    pabp_assert(histBits >= 1 && histBits <= 63);
}

std::size_t
GSharePredictor::index(std::uint32_t pc) const
{
    std::uint64_t hist = ghr & ((std::uint64_t{1} << histBits) - 1);
    return (pc ^ hist) & (table.size() - 1);
}

void
GSharePredictor::enableConflictProfiling()
{
    profiling = true;
    lastPc.assign(table.size(), 0);
    lastPcValid.assign(table.size(), false);
    lookups = 0;
    conflicts = 0;
}

bool
GSharePredictor::predict(std::uint32_t pc)
{
    std::size_t idx = index(pc);
    if (profiling) {
        ++lookups;
        if (lastPcValid[idx] && lastPc[idx] != pc)
            ++conflicts;
        lastPc[idx] = pc;
        lastPcValid[idx] = true;
    }
    return table[idx].predictTaken();
}

void
GSharePredictor::update(std::uint32_t pc, bool taken)
{
    table[index(pc)].update(taken);
    ghr = (ghr << 1) | (taken ? 1 : 0);
}

bool
GSharePredictor::predictAndUpdate(std::uint32_t pc, bool taken)
{
    // Qualified calls: the compiler statically binds both halves, so
    // the fused call is genuinely devirtualised, and the behaviour is
    // the unfused predict-then-update pair by construction.
    bool predicted = GSharePredictor::predict(pc);
    GSharePredictor::update(pc, taken);
    return predicted;
}

void
GSharePredictor::registerStats(StatGroup &group,
                               const std::string &prefix)
{
    group.gauge(prefix + "lookups", [this] { return lookups; });
    group.gauge(prefix + "conflicts", [this] { return conflicts; });
}


std::string
GSharePredictor::name() const
{
    return "gshare-" + std::to_string(table.size()) + "x" +
        std::to_string(histBits) + "h";
}

std::size_t
GSharePredictor::storageBits() const
{
    return table.size() * counterBits + histBits;
}

GAgPredictor::GAgPredictor(unsigned history_bits, unsigned counter_bits)
    : table(std::size_t{1} << history_bits, SatCounter(counter_bits)),
      histBits(history_bits), counterBits(counter_bits)
{
    pabp_assert(history_bits >= 1 && history_bits <= 24);
}

bool
GAgPredictor::predict(std::uint32_t)
{
    return table[ghr & (table.size() - 1)].predictTaken();
}

void
GAgPredictor::update(std::uint32_t, bool taken)
{
    table[ghr & (table.size() - 1)].update(taken);
    ghr = (ghr << 1) | (taken ? 1 : 0);
}

void
GAgPredictor::injectHistoryBit(bool bit)
{
    ghr = (ghr << 1) | (bit ? 1 : 0);
}

std::string
GAgPredictor::name() const
{
    return "gag-" + std::to_string(histBits) + "h";
}

std::size_t
GAgPredictor::storageBits() const
{
    return table.size() * counterBits + histBits;
}


void
GSharePredictor::saveState(StateSink &sink) const
{
    sink.writeCounters(table);
    sink.writeU64(ghr);
    // Conflict-profiling state (bench E16) is diagnostic, not
    // architectural, but it IS checkpointed: a resumed profiling run
    // must report the same lookup/conflict counts as an
    // uninterrupted one. (It used to be skipped, which silently
    // zeroed the counters - and the last-touched-PC table - across
    // every resume.)
    sink.writeBool(profiling);
    if (profiling) {
        sink.writeU64(lookups);
        sink.writeU64(conflicts);
        sink.writePodVector(lastPc);
        sink.writeBoolVector(lastPcValid);
    }
}

Status
GSharePredictor::loadState(StateSource &src)
{
    PABP_TRY(src.readCounters(table));
    PABP_TRY(src.readPod(ghr));
    bool stored_profiling = false;
    PABP_TRY(src.readBool(stored_profiling));
    if (stored_profiling != profiling)
        return Status(StatusCode::InvalidArgument,
                      "checkpoint conflict-profiling mode does not "
                      "match the configured predictor");
    if (profiling) {
        PABP_TRY(src.readPod(lookups));
        PABP_TRY(src.readPod(conflicts));
        PABP_TRY(src.readPodVector(lastPc, table.size()));
        PABP_TRY(src.readBoolVector(lastPcValid, table.size()));
    }
    return Status();
}

void
GAgPredictor::saveState(StateSink &sink) const
{
    sink.writeCounters(table);
    sink.writeU64(ghr);
}

Status
GAgPredictor::loadState(StateSource &src)
{
    PABP_TRY(src.readCounters(table));
    return src.readPod(ghr);
}

} // namespace pabp
