/**
 * @file
 * SweepService implementation - see sweep_service.hh for the
 * partition / resume / execute / drain lifecycle and the byte-
 * convergence argument.
 */

#include "sweep_service.hh"

#include <algorithm>
#include <map>

#include "util/logging.hh"

namespace pabp::bench {

JournalRecord
recordForCell(const RunSpec &spec, const RunResult &result)
{
    JournalRecord rec;
    rec.fingerprint = specFingerprint(spec);
    rec.attempts = result.attempts;
    rec.statusCode = static_cast<std::uint8_t>(result.status.code());
    rec.columns.assign(NumSweepColumns, 0);
    if (result.status.ok()) {
        rec.kind = JournalRecord::Kind::Result;
        rec.columns[ColInsts] = result.engine.insts;
        rec.columns[ColBranches] = result.engine.all.branches;
        rec.columns[ColMispredicts] = result.engine.all.mispredicts;
        rec.columns[ColSquashed] = result.engine.all.squashed;
        rec.columns[ColPguBits] = result.pguBits;
        rec.columns[ColResumeFallback] = result.resumeFallback ? 1 : 0;
        rec.blob = result.metricsJson;
    } else {
        rec.kind = JournalRecord::Kind::Quarantine;
        rec.blob = result.status.toString();
    }
    return rec;
}

std::string
deriveShardJournalPath(const std::string &base, const ShardSpec &shard)
{
    if (shard.count <= 1)
        return base;
    const std::string tag = "-shard" + std::to_string(shard.index) +
        "of" + std::to_string(shard.count);
    const std::size_t slash = base.find_last_of('/');
    const std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return base + tag;
    }
    return base.substr(0, dot) + tag + base.substr(dot);
}

Expected<ServiceReport>
SweepService::runShard(std::vector<RunSpec> grid)
{
    ServiceReport report;
    if (config.shard.index >= std::max(1u, config.shard.count)) {
        return Status(StatusCode::InvalidArgument,
                      "shard index " +
                          std::to_string(config.shard.index) +
                          " out of range for " +
                          std::to_string(config.shard.count) +
                          " shards");
    }

    // Stamp the service knobs onto every cell and find the owned
    // subset, in grid (submission) order - the order the journal
    // commits in and the order drain-time compaction normalises to.
    std::vector<std::size_t> owned;
    std::vector<std::uint64_t> ownedOrder;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        grid[i].shard = config.shard;
        grid[i].captureMetrics = config.captureMetrics;
        const std::uint64_t fp = specFingerprint(grid[i]);
        if (shardOf(fp, config.shard.count) != config.shard.index)
            continue;
        owned.push_back(i);
        ownedOrder.push_back(fp);
    }
    report.ownedCells = owned.size();

    // Open (or adopt) the journal: torn tails truncate here.
    const JournalHeader header{config.shard.index, config.shard.count};
    std::vector<JournalRecord> existing;
    JournalReadInfo info;
    Expected<JournalWriter> writer =
        JournalWriter::open(config.journalPath, header, &existing, &info);
    if (!writer.ok())
        return writer.status();
    if (info.salvaged) {
        report.salvagedTail = true;
        pabp_warn("journal '" + config.journalPath + "': dropped " +
                  std::to_string(info.tailBytesDropped) +
                  " torn tail bytes; resuming from the valid prefix");
    }

    // The LAST record per fingerprint decides a cell's fate: a
    // successful Result is done; Quarantine (or nothing) runs.
    std::map<std::uint64_t, JournalRecord::Kind> last;
    for (const JournalRecord &rec : existing)
        last[rec.fingerprint] = rec.kind;
    std::vector<std::size_t> pending;
    for (std::size_t pos = 0; pos < owned.size(); ++pos) {
        auto it = last.find(ownedOrder[pos]);
        if (it != last.end() && it->second == JournalRecord::Kind::Result)
            ++report.alreadyDone;
        else
            pending.push_back(owned[pos]);
    }

    std::vector<RunSpec> todo;
    todo.reserve(pending.size());
    for (std::size_t i : pending)
        todo.push_back(std::move(grid[i]));
    // One demand over every pending cell, not one per batch: a trace
    // whose cells straddle two batches stays cached between them
    // instead of being freed after the first and recorded again.
    SweepRunner::TraceDemand demand(runner, todo);

    const std::uint64_t fallbacksBefore = runner.resumeFallbacks();
    const std::size_t batch = config.batchCells
        ? config.batchCells
        : std::max<std::size_t>(1, 4 * runner.effectiveJobs());

    for (std::size_t at = 0; at < todo.size() && !report.stopped;
         at += batch) {
        const std::size_t end = std::min(todo.size(), at + batch);
        const std::vector<RunSpec> specs(todo.begin() + at,
                                         todo.begin() + end);
        std::vector<RunResult> results = runner.run(specs, demand);

        for (std::size_t k = 0; k < results.size(); ++k) {
            if (config.stopAfter &&
                report.committed >= config.stopAfter) {
                report.stopped = true;
                break;
            }
            ++report.executed;
            if (results[k].attempts > 1)
                ++report.retried;
            Status st =
                writer.value().append(recordForCell(specs[k], results[k]));
            if (!st.ok())
                return st;
            ++report.committed;
            if (config.compactEvery &&
                writer.value().recordsAppended() >= config.compactEvery) {
                // Compaction renames a new inode into place; the open
                // handle would go stale, so cycle it.
                writer.value().close();
                st = compactJournal(config.journalPath, ownedOrder);
                if (!st.ok())
                    return st;
                writer = JournalWriter::open(config.journalPath, header);
                if (!writer.ok())
                    return writer.status();
            }
        }
    }

    report.resumeFallbacks = runner.resumeFallbacks() - fallbacksBefore;
    writer.value().close();
    if (report.stopped)
        return report; // simulated kill: no drain, no compaction

    // Drained: every owned cell now has a record. The normalising
    // compaction makes interrupted and uninterrupted campaigns
    // byte-identical; re-reading the result (strict) both counts the
    // quarantined cells and proves the rewrite verifies.
    Status st = compactJournal(config.journalPath, ownedOrder);
    if (!st.ok())
        return st;
    Expected<std::vector<JournalRecord>> records =
        readJournalFile(config.journalPath);
    if (!records.ok())
        return records.status();
    for (const JournalRecord &rec : records.value()) {
        if (rec.kind == JournalRecord::Kind::Quarantine)
            ++report.quarantined;
    }
    report.drained = true;
    return report;
}

} // namespace pabp::bench
