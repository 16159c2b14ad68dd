/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) - the integrity check
 * used by the PABPTRC2 trace format, the checkpoint files and the
 * sweep journal. Throughput matters: a checkpoint save checksums the
 * emulator's whole 8 MiB memory image, so update() runs slice-by-8
 * (eight bytes per step through eight tables, about five times the
 * bytewise loop) and finishes any tail bytewise. Both give the same
 * values, so every checksum on disk is unchanged.
 */

#ifndef PABP_UTIL_CRC32_HH
#define PABP_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace pabp {

/** Incremental CRC-32 over a byte stream. */
class Crc32
{
  public:
    /** Fold @p len bytes at @p data into the running checksum. */
    void update(const void *data, std::size_t len);

    /** Finalised checksum of everything updated so far. */
    std::uint32_t value() const { return state ^ 0xffffffffu; }

    void reset() { state = 0xffffffffu; }

  private:
    std::uint32_t state = 0xffffffffu;
};

/** One-shot convenience. */
std::uint32_t crc32(const void *data, std::size_t len);

} // namespace pabp

#endif // PABP_UTIL_CRC32_HH
