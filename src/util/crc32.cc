#include "util/crc32.hh"

#include <array>

namespace pabp {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/** tables[0] is the bytewise table; tables[k][b] is the CRC state
 *  contribution of byte b followed by k zero bytes. */
Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
        for (std::size_t k = 1; k < t.size(); ++k)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

const Tables &
tables()
{
    static const Tables t = makeTables();
    return t;
}

/** The little-endian 32-bit word at @p p. */
std::uint32_t
loadLe32(const unsigned char *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
        std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

} // anonymous namespace

void
Crc32::update(const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    const Tables &t = tables();
    std::uint32_t c = state;
    // Slice-by-8: eight bytes per step through eight tables. It gives
    // exactly the bytewise loop's state, which finishes the tail.
    for (; len >= 8; bytes += 8, len -= 8) {
        const std::uint32_t lo = loadLe32(bytes) ^ c;
        const std::uint32_t hi = loadLe32(bytes + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++bytes, --len)
        c = t[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
    state = c;
}

std::uint32_t
crc32(const void *data, std::size_t len)
{
    Crc32 crc;
    crc.update(data, len);
    return crc.value();
}

} // namespace pabp
