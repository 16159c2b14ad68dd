/**
 * @file
 * E16 - The pollution mechanism, made visible: gshare's pattern-table
 * entries are shared across branches by construction, and false-path
 * branches both consume lookups and train counters with their
 * (trivially not-taken) outcomes. With the squash filter armed those
 * branches never touch the table. This bench profiles entry-level
 * aliasing (lookups whose entry was last touched by a different
 * branch) with and without the filter, alongside the mispredict rate
 * of the *unfiltered* branches only - isolating the "cleaner tables"
 * effect from the "free not-taken predictions" effect.
 *
 * The --contexts / --ctx-schedule axis adds the OTHER
 * pollution source: with N > 1 the same tables additionally absorb
 * lookups and training from N-1 unrelated trace contexts
 * (core/multictx.hh), so the conflict counts separate same-stream
 * aliasing from cross-context aliasing under the identical filter
 * comparison.
 */

#include "experiments.hh"

namespace pabp::bench::e16 {

Expected<std::vector<RunSpec>>
grid(const ExperimentConfig &cfg, std::ostream &log)
{
    const ContextSpec &context = cfg.pollutionContext;
    log << "E16: gshare table pollution with/without the filter "
           "(4K entries";
    if (context.contexts > 1)
        log << ", " << context.contexts << " contexts, "
            << scheduleKindName(context.schedule);
    log << ")\n\n";

    // workloads x {base, +SFPF}, both with conflict profiling on.
    std::vector<RunSpec> specs;
    for (const std::string &name : workloadNames()) {
        RunSpec base = cfg.base;
        base.workload = name;
        base.profileConflicts = true;
        base.context = context;
        specs.push_back(base);

        RunSpec with = base;
        with.engine.useSfpf = true;
        specs.push_back(with);
    }
    return specs;
}

bool
table(const GridRun &run, std::ostream &out)
{
    const std::vector<RunResult> &results = run.results;
    Table table({"workload", "lookups(base)", "lookups(+SFPF)",
                 "conflicts(base)", "conflicts(+SFPF)",
                 "mispred(base)", "mispred(+SFPF)"});
    std::uint64_t totals[6] = {};
    std::size_t idx = 0;
    for (const std::string &name : workloadNames()) {
        const RunResult &base = results[idx++];
        const RunResult &with = results[idx++];
        table.startRow();
        table.cell(name);
        table.cell(base.lookups);
        table.cell(with.lookups);
        table.cell(base.conflicts);
        table.cell(with.conflicts);
        table.cell(base.engine.all.mispredicts);
        table.cell(with.engine.all.mispredicts);
        totals[0] += base.lookups;
        totals[1] += with.lookups;
        totals[2] += base.conflicts;
        totals[3] += with.conflicts;
        totals[4] += base.engine.all.mispredicts;
        totals[5] += with.engine.all.mispredicts;
    }
    table.startRow();
    table.cell(std::string("TOTAL"));
    for (std::uint64_t t : totals)
        table.cell(t);

    emitTable(table, run.cfg.csv, out);
    out << "conflicts = lookups landing on an entry last touched "
           "by a different\nbranch. The filter removes squashed "
           "branches' lookups and training from\nthe table "
           "entirely - roughly halving predictor traffic - and "
           "cuts\nmispredicts in aggregate. (Per-workload "
           "conflict counts can move either\nway because "
           "squashing also changes the global history and thus "
           "the\nindex stream.)\n";
    return true;
}

} // namespace pabp::bench::e16
