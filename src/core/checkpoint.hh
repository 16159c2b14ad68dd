/**
 * @file
 * Checkpoint/resume for long simulations. A checkpoint captures the
 * *dynamic* state of a run - architectural state + emulator position,
 * prediction-engine statistics and structures, predictor tables - but
 * never the configuration that produced it: a resumed run rebuilds
 * its objects the same way the original did, and loadCheckpoint()
 * verifies (engine fingerprint, predictor name, table geometry,
 * program size) that the two actually match, returning
 * InvalidArgument when they do not.
 *
 * On-disk layout (little-endian):
 *   | magic "PABPCKP1" | u32 version = 4
 *   | u8 section mask (1 = emulator, 2 = engine, 4 = stream position,
 *   |                  8 = trace id)
 *   | section payloads in mask order
 *   | u32 crc   - CRC-32 of mask + payloads
 *   | footer "PABPCKPE"
 *
 * The emulator section ends in a sparse memory image
 * (ArchState::saveState): u64 memory words, u64 n, then n x (u32 page
 * index, 512 words) for the 4 KiB pages holding a nonzero word, in
 * ascending order; every other page restores as zero. A suite
 * workload's image is a few to a few dozen pages, so a checkpoint is
 * kilobytes rather than the 8 MiB memory. A file of an older version
 * (v3 stored the whole image) is VersionMismatch, and sweep cells
 * resume from it fresh.
 *
 * saveCheckpoint() streams into a unique temp file and renames it into
 * place (util/atomic_file.hh), so a crash mid-write can never destroy
 * the previous good checkpoint, and concurrent writers of one path
 * never share a temp file.
 * On any load failure the target objects are left partially
 * modified; callers must treat them as scratch until a load succeeds.
 */

#ifndef PABP_CORE_CHECKPOINT_HH
#define PABP_CORE_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "core/engine.hh"
#include "sim/emulator.hh"
#include "util/status.hh"

namespace pabp {

/**
 * What to checkpoint / where to restore. Null members are simply not
 * part of the artifact; load requires the same set of members the
 * save provided (the section mask is verified).
 */
struct CheckpointRefs
{
    Emulator *emu = nullptr;
    PredictionEngine *engine = nullptr;
    std::uint64_t *streamPos = nullptr; ///< replay cursor, for
                                        ///< trace-driven runs
    /**
     * Identity of the replayed trace (traceFingerprint(),
     * sim/trace_io.hh). Saved as-is; on load the stored id must equal
     * *traceId, or the load fails with InvalidArgument - a cursor is
     * meaningless on any other trace.
     */
    const std::uint64_t *traceId = nullptr;
};

/** Atomically write a checkpoint of every non-null ref. */
Status saveCheckpoint(const std::string &path,
                      const CheckpointRefs &refs);

/** Restore every non-null ref from @p path. */
Status loadCheckpoint(const std::string &path,
                      const CheckpointRefs &refs);

} // namespace pabp

#endif // PABP_CORE_CHECKPOINT_HH
