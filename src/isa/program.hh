/**
 * @file
 * Program container, static validation, and binary encode/decode.
 *
 * A Program is a flat vector of instructions; the PC of an instruction
 * is its index (one word per instruction, as in a fixed-width EPIC
 * encoding). Branch/call targets are instruction indices.
 */

#ifndef PABP_ISA_PROGRAM_HH
#define PABP_ISA_PROGRAM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "isa/inst.hh"

namespace pabp {

/**
 * A complete executable program.
 *
 * Each Program object carries a generation: a number no other Program
 * in the process has had, given at construction and again whenever
 * the object is assigned or moved from. Code that builds a per-program
 * table keys it by generation(), not by the object's address, which a
 * new Program can reuse once the old one is gone (LiveWindow,
 * Pipeline). Editing insts in place keeps the generation: bind tables
 * only to a program that no longer changes.
 */
struct Program
{
    std::string name;
    std::vector<Inst> insts;

    Program() = default;
    Program(const Program &other) : name(other.name), insts(other.insts) {}
    Program(Program &&other) noexcept
        : name(std::move(other.name)), insts(std::move(other.insts))
    {
        other.gen = freshGeneration();
    }
    Program &
    operator=(const Program &other)
    {
        name = other.name;
        insts = other.insts;
        gen = freshGeneration();
        return *this;
    }
    Program &
    operator=(Program &&other) noexcept
    {
        name = std::move(other.name);
        insts = std::move(other.insts);
        gen = freshGeneration();
        other.gen = freshGeneration();
        return *this;
    }

    std::size_t size() const { return insts.size(); }
    const Inst &at(std::uint32_t pc) const { return insts.at(pc); }

    /** This object's generation (never 0). */
    std::uint64_t generation() const { return gen; }

    /** Full disassembly listing with PCs. */
    std::string disassembleAll() const;

  private:
    static std::uint64_t freshGeneration();

    std::uint64_t gen = freshGeneration();
};

/**
 * Check static well-formedness: register indices in range, control
 * targets within the program, immediates present where required, and
 * no fall-through past the last instruction. Returns an empty string
 * when valid, else a description of the first problem.
 */
std::string validateProgram(const Program &prog);

/**
 * Fixed 128-bit binary encoding of one instruction: a field word and
 * an immediate/target word. The compiler metadata (regionId) is not
 * part of the architectural encoding and is dropped by a round trip;
 * regionBranch is encoded as it models an ISA hint bit.
 */
struct EncodedInst
{
    std::uint64_t word0 = 0;
    std::uint64_t word1 = 0;

    bool operator==(const EncodedInst &) const = default;
};

/** Encode an instruction. Panics on out-of-range fields. */
EncodedInst encode(const Inst &inst);

/** Decode an instruction. Panics on an invalid opcode field. */
Inst decode(const EncodedInst &enc);

/**
 * Decode an instruction that may come from an untrusted source (a
 * corrupt trace file): returns nullopt on an invalid opcode or
 * compare-type field instead of panicking.
 */
std::optional<Inst> tryDecode(const EncodedInst &enc);

/**
 * @name Assembler helpers
 * Free functions that build instructions with the common fields; used
 * by the code lowerer, tests, and examples. All take the qualifying
 * predicate last, defaulting to p0 (always true).
 */
/// @{
Inst makeNop();
Inst makeHalt();
Inst makeAlu(Opcode op, unsigned dst, unsigned src1, unsigned src2,
             unsigned qp = 0);
Inst makeAluImm(Opcode op, unsigned dst, unsigned src1, std::int64_t imm,
                unsigned qp = 0);
Inst makeMovImm(unsigned dst, std::int64_t imm, unsigned qp = 0);
Inst makeMov(unsigned dst, unsigned src, unsigned qp = 0);
Inst makeCmp(CmpRel rel, CmpType type, unsigned pdst1, unsigned pdst2,
             unsigned src1, unsigned src2, unsigned qp = 0);
Inst makeCmpImm(CmpRel rel, CmpType type, unsigned pdst1, unsigned pdst2,
                unsigned src1, std::int64_t imm, unsigned qp = 0);
Inst makePSet(unsigned pdst, bool value, unsigned qp = 0);
Inst makeLoad(unsigned dst, unsigned base, std::int64_t offset,
              unsigned qp = 0);
Inst makeStore(unsigned base, std::int64_t offset, unsigned src,
               unsigned qp = 0);
Inst makeBr(std::uint32_t target, unsigned qp = 0);
Inst makeCall(std::uint32_t target, unsigned qp = 0);
Inst makeRet(unsigned qp = 0);
/// @}

} // namespace pabp

#endif // PABP_ISA_PROGRAM_HH
