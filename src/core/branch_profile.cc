#include "core/branch_profile.hh"

#include <algorithm>

namespace pabp {

namespace {

template <typename CountersT, typename Fn>
void
forEachCounter(CountersT &c, Fn &&fn)
{
    fn(c.lookups);
    fn(c.taken);
    fn(c.mispredicts);
    fn(c.sfpfSquashes);
    fn(c.specSquashes);
    fn(c.pguInfluenced);
    fn(c.guardKnown);
    fn(c.guardUnknown);
}

} // anonymous namespace

BranchProfile::Counters &
BranchProfile::at(std::uint32_t pc)
{
    if (cap == 0)
        return evicted;
    auto it = table.find(pc);
    if (it != table.end())
        return it->second;
    if (table.size() >= cap) {
        // Evict the coldest entry: fewest mispredicts, then fewest
        // lookups, then highest PC - a total order, so the choice is
        // deterministic regardless of map internals.
        auto victim = table.begin();
        for (auto cand = std::next(table.begin()); cand != table.end();
             ++cand) {
            const Counters &c = cand->second;
            const Counters &v = victim->second;
            if (c.mispredicts < v.mispredicts ||
                (c.mispredicts == v.mispredicts &&
                 (c.lookups < v.lookups ||
                  (c.lookups == v.lookups && cand->first > victim->first))))
                victim = cand;
        }
        evicted.accumulate(victim->second);
        ++evictedCount;
        table.erase(victim);
    }
    return table[pc];
}

std::vector<std::pair<std::uint32_t, BranchProfile::Counters>>
BranchProfile::topByMispredicts(std::size_t k) const
{
    std::vector<std::pair<std::uint32_t, Counters>> out(table.begin(),
                                                        table.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const auto &a, const auto &b) {
                         if (a.second.mispredicts !=
                             b.second.mispredicts)
                             return a.second.mispredicts >
                                 b.second.mispredicts;
                         return a.first < b.first;
                     });
    if (k && out.size() > k)
        out.resize(k);
    return out;
}

void
BranchProfile::saveState(StateSink &sink) const
{
    sink.writeU64(table.size());
    for (const auto &[pc, counters] : table) {
        sink.writeU32(pc);
        forEachCounter(counters, [&](const std::uint64_t &v) {
            sink.writeU64(v);
        });
    }
    forEachCounter(evicted,
                   [&](const std::uint64_t &v) { sink.writeU64(v); });
    sink.writeU64(evictedCount);
}

Status
BranchProfile::loadState(StateSource &src)
{
    std::uint64_t count = 0;
    PABP_TRY(src.readPod(count));
    if (cap != 0 && count > cap)
        return Status(StatusCode::InvalidArgument,
                      "branch profile stored " + std::to_string(count) +
                          " entries > capacity " + std::to_string(cap));
    table.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t pc = 0;
        PABP_TRY(src.readPod(pc));
        Counters counters;
        Status status = Status();
        forEachCounter(counters, [&](std::uint64_t &v) {
            if (status.ok())
                status = src.readPod(v);
        });
        PABP_TRY(std::move(status));
        table.emplace(pc, counters);
    }
    Status status = Status();
    forEachCounter(evicted, [&](std::uint64_t &v) {
        if (status.ok())
            status = src.readPod(v);
    });
    PABP_TRY(std::move(status));
    return src.readPod(evictedCount);
}

std::vector<std::string>
BranchProfile::tableColumns()
{
    return {"pc",           "lookups",        "taken",
            "mispredicts",  "sfpf_squashes",  "spec_squashes",
            "pgu_influenced", "guard_known",  "guard_unknown"};
}

void
BranchProfile::exportTo(MetricsExporter &ex) const
{
    ex.setInt("branch_profile.tracked", table.size());
    ex.setInt("branch_profile.capacity", cap);
    ex.setInt("branch_profile.evicted_branches", evictedCount);
    ex.setInt("branch_profile.evicted.lookups", evicted.lookups);
    ex.setInt("branch_profile.evicted.mispredicts",
              evicted.mispredicts);
    ex.setInt("branch_profile.evicted.sfpf_squashes",
              evicted.sfpfSquashes);
    ex.setInt("branch_profile.evicted.spec_squashes",
              evicted.specSquashes);
    ex.setInt("branch_profile.evicted.pgu_influenced",
              evicted.pguInfluenced);

    ex.declareTable("branches", tableColumns());
    for (const auto &[pc, c] : topByMispredicts()) {
        ex.addRow("branches",
                  {pc, c.lookups, c.taken, c.mispredicts,
                   c.sfpfSquashes, c.specSquashes, c.pguInfluenced,
                   c.guardKnown, c.guardUnknown});
    }
}

} // namespace pabp
