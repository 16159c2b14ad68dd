/**
 * @file
 * Architectural state of the predicated machine: general registers,
 * predicate registers, data memory and the call stack.
 */

#ifndef PABP_SIM_ARCH_STATE_HH
#define PABP_SIM_ARCH_STATE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/inst.hh"
#include "util/serialize.hh"
#include "util/status.hh"

namespace pabp {

/**
 * Zero-initialised guest data memory in a private anonymous mapping:
 * a page reads as zero, and costs nothing resident, until the guest
 * first writes it, so an emulator pays only for the pages its program
 * touches. Copies are deep; the mapping is released on destruction.
 */
class GuestMemory
{
  public:
    /** @param num_words Size in 64-bit words; must be nonzero. */
    explicit GuestMemory(std::size_t num_words);
    GuestMemory(const GuestMemory &other);
    GuestMemory(GuestMemory &&other) noexcept;
    GuestMemory &operator=(GuestMemory other) noexcept;
    ~GuestMemory();

    std::int64_t *data() { return words; }
    const std::int64_t *data() const { return words; }
    std::size_t size() const { return count; }
    std::size_t bytes() const { return count * sizeof(std::int64_t); }

    std::int64_t &operator[](std::size_t i) { return words[i]; }
    std::int64_t operator[](std::size_t i) const { return words[i]; }

    bool operator==(const GuestMemory &other) const;

    /** Zero every word, handing the written pages back to the kernel. */
    void clear();

  private:
    std::int64_t *words = nullptr;
    std::size_t count = 0;
};

/**
 * Full architectural state. r0 reads as zero and ignores writes; p0
 * reads as true and ignores writes. Data memory is a flat word array;
 * effective addresses are masked into range so execution is total and
 * deterministic for any program.
 */
class ArchState
{
  public:
    /** @param mem_words Size of data memory in 64-bit words
     *         (rounded up to a power of two). */
    explicit ArchState(std::size_t mem_words = 1u << 20);

    std::int64_t readGpr(unsigned idx) const { return gpr[idx]; }

    void
    writeGpr(unsigned idx, std::int64_t value)
    {
        if (idx != 0)
            gpr[idx] = value;
    }

    bool readPred(unsigned idx) const { return pred[idx]; }

    void
    writePred(unsigned idx, bool value)
    {
        if (idx != 0)
            pred[idx] = value;
    }

    /** Mask an effective address into the memory range. */
    std::size_t
    maskAddr(std::int64_t addr) const
    {
        return static_cast<std::size_t>(addr) & (mem.size() - 1);
    }

    std::int64_t readMem(std::int64_t addr) const
    {
        return mem[maskAddr(addr)];
    }

    void writeMem(std::int64_t addr, std::int64_t value)
    {
        mem[maskAddr(addr)] = value;
    }

    std::size_t memWords() const { return mem.size(); }

    /** Equality over registers + predicates + memory (for the
     *  if-conversion equivalence property tests). */
    bool sameArchOutcome(const ArchState &other) const;

    /**
     * @name Checkpointing
     * Full architectural state: registers, predicates, pc, call
     * stack and data memory. Memory geometry must match on restore
     * (a checkpoint resumes an identically-configured machine).
     *
     * Memory is a sparse image of imagePageWords-word pages: u64
     * words, u64 n, then n x (u32 page index, the page's words) for
     * the pages holding a nonzero word, in ascending order. A suite
     * workload writes a few to about 50 of an 8 MiB memory's 2048
     * pages, so the image is kilobytes, streamed straight from guest
     * memory.
     * loadState() zeroes memory and writes the listed pages; a count
     * above the page total, an index out of range or an index not
     * above the one before is Corrupt.
     * @{
     */
    static constexpr std::size_t imagePageWords = 512;
    void saveState(StateSink &sink) const;
    Status loadState(StateSource &src);
    /** @} */

    std::uint32_t pc = 0;
    bool halted = false;
    std::vector<std::uint32_t> callStack;

  private:
    std::array<std::int64_t, numGprs> gpr{};
    std::array<bool, numPredRegs> pred{};
    GuestMemory mem;
};

} // namespace pabp

#endif // PABP_SIM_ARCH_STATE_HH
