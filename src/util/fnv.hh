/**
 * @file
 * 64-bit FNV-1a, the one hash behind every stable fingerprint: sweep
 * spec fingerprints and program-cache keys (bench/sweep.cc), decoded
 * trace fingerprints (sim/trace_io.cc) and fuzz-generator config
 * fingerprints (fuzz/fuzz_gen.cc). These values name checkpoint,
 * metrics and workload files, so the hash and its feeding order are
 * a format: a changed byte renames them.
 *
 * The typed feeders hash field VALUES, not struct layout: an integer
 * is fed as its eight little-endian bytes whatever its width, a bool
 * as 0 or 1, a double as its bit pattern, a string as its length and
 * then its bytes.
 */

#ifndef PABP_UTIL_FNV_HH
#define PABP_UTIL_FNV_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pabp {

/** Incremental 64-bit FNV-1a. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }

    void u32(std::uint32_t v) { u64(v); }
    void b(bool v) { u64(v ? 1 : 0); }
    void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(std::string_view s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ull;
};

} // namespace pabp

#endif // PABP_UTIL_FNV_HH
