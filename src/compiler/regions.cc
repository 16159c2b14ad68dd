#include "compiler/regions.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pabp {

bool
Region::contains(BlockId b) const
{
    return std::find(blocks.begin(), blocks.end(), b) != blocks.end();
}

namespace {

/** Can @p cand join the region being grown from @p seed? */
bool
candidateAdmissible(const IrFunction &fn,
                    const std::vector<std::vector<BlockId>> &preds,
                    const std::vector<std::int32_t> &block_region,
                    const std::vector<bool> &in_region, BlockId seed,
                    BlockId cand, const HyperblockHeuristics &h,
                    std::uint64_t seed_count, unsigned body_insts,
                    unsigned num_blocks)
{
    if (cand == 0 || in_region[cand] || block_region[cand] >= 0)
        return false;
    const BasicBlock &bb = fn.block(cand);
    if (bb.term.kind == Terminator::Kind::Halt)
        return false;
    // Single entry: all CFG predecessors already inside.
    for (BlockId p : preds[cand])
        if (!in_region[p])
            return false;
    // Acyclicity: the only possible cycle closes through the seed.
    for (BlockId s : fn.successors(cand))
        if (s == seed)
            return false;
    // Hotness: cold successors stay outside and become side exits.
    double weight = static_cast<double>(bb.execCount);
    if (weight < h.minWeightRatio * static_cast<double>(seed_count))
        return false;
    // Size budget.
    if (num_blocks + 1 > h.maxBlocks)
        return false;
    if (body_insts + bb.body.size() > h.maxBodyInsts)
        return false;
    return true;
}

} // anonymous namespace

RegionAssignment
selectRegions(const IrFunction &fn, const HyperblockHeuristics &heuristics)
{
    RegionAssignment out;
    out.blockRegion.assign(fn.blocks.size(), -1);
    auto preds = fn.predecessorLists();

    for (BlockId seed = 0; seed < fn.blocks.size(); ++seed) {
        if (out.blockRegion[seed] >= 0)
            continue;
        const BasicBlock &seed_bb = fn.block(seed);
        if (seed_bb.term.kind != Terminator::Kind::CondBranch)
            continue;
        if (seed_bb.execCount < heuristics.minSeedExec)
            continue;
        if (heuristics.minSeedMispredictRatio > 0.0 &&
            static_cast<double>(seed_bb.profMispredicts) <
                heuristics.minSeedMispredictRatio *
                    static_cast<double>(seed_bb.execCount)) {
            continue;
        }

        Region region;
        region.blocks.push_back(seed);
        std::vector<bool> in_region(fn.blocks.size(), false);
        in_region[seed] = true;
        unsigned body_insts = static_cast<unsigned>(seed_bb.body.size());

        bool changed = true;
        while (changed && region.blocks.size() < heuristics.maxBlocks) {
            changed = false;
            // Scan the blocks present at the start of this pass (by
            // index: the loop appends); additions re-trigger the outer
            // loop.
            const std::size_t n = region.blocks.size();
            for (std::size_t k = 0; k < n; ++k) {
                const BlockId b = region.blocks[k];
                for (BlockId s : fn.successors(b)) {
                    if (!candidateAdmissible(
                            fn, preds, out.blockRegion, in_region, seed, s,
                            heuristics, seed_bb.execCount, body_insts,
                            static_cast<unsigned>(region.blocks.size()))) {
                        continue;
                    }
                    region.blocks.push_back(s);
                    in_region[s] = true;
                    body_insts += static_cast<unsigned>(
                        fn.block(s).body.size());
                    changed = true;
                    if (region.blocks.size() >= heuristics.maxBlocks)
                        break;
                }
                if (region.blocks.size() >= heuristics.maxBlocks)
                    break;
            }
        }

        // Keep only if at least one seed successor was if-converted.
        bool converts_branch = false;
        for (BlockId s : fn.successors(seed))
            if (in_region[s])
                converts_branch = true;
        if (region.blocks.size() < 2 || !converts_branch)
            continue;

        auto region_idx = static_cast<std::int32_t>(out.regions.size());
        for (BlockId b : region.blocks)
            out.blockRegion[b] = region_idx;
        out.regions.push_back(std::move(region));
    }
    return out;
}

} // namespace pabp
