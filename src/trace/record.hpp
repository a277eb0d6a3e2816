/**
 * @file
 * TraceRecord: one dynamic instruction of a serial execution trace.
 *
 * This is the interface between trace producers (the functional simulator —
 * our Pixie substitute — trace files, or synthetic generators) and the
 * Paragraph analyzer. A record carries exactly what the DDG placement rule
 * needs: the Table 1 operation class, the source/destination storage
 * locations (registers or classified memory addresses), and whether the
 * instruction creates a value / is a system call.
 *
 * The in-memory record is the on-disk record: the 48 bytes of a trace
 * file (format v2) record, byte for byte, so a mapped `.ptrc` payload is
 * an array of TraceRecords the analyzer walks in place.
 */

#ifndef PARAGRAPH_TRACE_RECORD_HPP
#define PARAGRAPH_TRACE_RECORD_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "isa/op_class.hpp"

namespace paragraph {
namespace trace {

/** Memory segment of an accessed address; drives the renaming switches. */
enum class Segment : uint8_t
{
    None,  ///< not a memory operand
    Data,  ///< static data (globals); non-stack
    Heap,  ///< dynamic allocation; non-stack
    Stack, ///< procedure frames
};

/** Human-readable segment name. */
const char *segmentName(Segment seg);

/** One source or destination storage location. */
struct Operand
{
    enum class Kind : uint8_t { None, IntReg, FpReg, Mem };

    Kind kind = Kind::None;
    Segment seg = Segment::None; ///< meaningful only for Kind::Mem
    uint64_t id = 0;             ///< register index, or memory address

    /** Integer-register operand. */
    static Operand
    intReg(uint8_t idx)
    {
        return Operand{Kind::IntReg, Segment::None, idx};
    }

    /** FP-register operand. */
    static Operand
    fpReg(uint8_t idx)
    {
        return Operand{Kind::FpReg, Segment::None, idx};
    }

    /** Memory operand at @p addr inside @p seg. */
    static Operand
    mem(uint64_t addr, Segment seg)
    {
        return Operand{Kind::Mem, seg, addr};
    }

    bool valid() const { return kind != Kind::None; }
    bool isMem() const { return kind == Kind::Mem; }

    bool operator==(const Operand &other) const = default;
};

/** An operand's kind byte as a record stores it: kind | segment << 4. */
inline uint8_t
kindByte(const Operand &op)
{
    return static_cast<uint8_t>(static_cast<uint8_t>(op.kind) |
                                (static_cast<uint8_t>(op.seg) << 4));
}

/** The operand a record's kind byte and id describe. */
inline Operand
operandOf(uint8_t kind_seg, uint64_t id)
{
    return Operand{static_cast<Operand::Kind>(kind_seg & 0x0f),
                   static_cast<Segment>(kind_seg >> 4), id};
}

/** True when a record's kind byte names a memory operand. */
inline bool
isMemKind(uint8_t kind_seg)
{
    return (kind_seg & 0x0f) == static_cast<uint8_t>(Operand::Kind::Mem);
}

/**
 * Unique 64-bit storage-location key for the live well, from a record's
 * kind byte and id. The top two bits tag the namespace (memory / int reg /
 * FP reg) so register indices can never collide with addresses.
 */
inline uint64_t
locationKey(uint8_t kind_seg, uint64_t id)
{
    // Branchless: operand kinds vary record to record, so a switch here
    // mispredicts on the analyzer hot path. Indexed by the kind nibble
    // (a validated record's is at most Mem): None yields the all-ones
    // invalid key, registers get their namespace tag ORed with the index,
    // memory keeps the address with the tag bits cleared.
    static constexpr uint64_t tagFor[4] = {~0ULL, 1ULL << 62, 2ULL << 62, 0};
    static constexpr uint64_t maskFor[4] = {0, ~0ULL, ~0ULL, ~(3ULL << 62)};
    size_t k = kind_seg & 3;
    return tagFor[k] | (id & maskFor[k]);
}

/** locationKey() of an operand. */
inline uint64_t
locationKey(const Operand &op)
{
    return locationKey(kindByte(op), op.id);
}

/** Maximum number of source operands a record can carry. */
constexpr int maxSrcs = 3;

/**
 * One dynamic instruction, laid out as trace format v2 stores it
 * (little-endian, 48 bytes, no padding):
 *
 *     [0]       cls           operation class
 *     [1]       flags         bit 0 createsValue, 1 isSysCall,
 *                             2 isCondBranch, 3 branchTaken
 *     [2]       numSrcs
 *     [3]       lastUseMask
 *     [4..7]    operandKinds  kind | segment << 4; [3] is the destination
 *     [8..39]   operandIds    register index or address; [3] is the
 *                             destination
 *     [40..47]  pc
 *
 * Source slots at or above numSrcs hold zero bytes. The flags and the
 * operands are read and written through the accessors; the placement
 * loop reads the kind bytes and ids directly.
 */
struct TraceRecord
{
    static constexpr uint8_t kCreatesValue = 1; ///< not a branch/jump
    static constexpr uint8_t kSysCall = 2;
    static constexpr uint8_t kCondBranch = 4;  ///< a prediction target
    static constexpr uint8_t kBranchTaken = 8; ///< outcome of a cond branch
    static constexpr int destSlot = 3; ///< operand slot of the destination

    isa::OpClass cls = isa::OpClass::IntAlu;
    uint8_t flags = 0;
    uint8_t numSrcs = 0;
    /**
     * Bit i set when source i is the last read of that live value
     * (filled by LastUseAnnotator; zero in raw traces).
     */
    uint8_t lastUseMask = 0;
    uint8_t operandKinds[4] = {};
    uint64_t operandIds[4] = {};
    uint64_t pc = 0; ///< static instruction index (diagnostics only)

    bool createsValue() const { return flags & kCreatesValue; }
    bool isSysCall() const { return flags & kSysCall; }
    bool isCondBranch() const { return flags & kCondBranch; }
    bool branchTaken() const { return flags & kBranchTaken; }

    void setCreatesValue(bool on) { setFlag(kCreatesValue, on); }
    void setSysCall(bool on) { setFlag(kSysCall, on); }
    void setCondBranch(bool on) { setFlag(kCondBranch, on); }
    void setBranchTaken(bool on) { setFlag(kBranchTaken, on); }

    /** Source operand @p i (< maxSrcs). */
    Operand
    src(int i) const
    {
        return operandOf(operandKinds[i], operandIds[i]);
    }

    Operand
    dest() const
    {
        return operandOf(operandKinds[destSlot], operandIds[destSlot]);
    }

    bool hasDest() const { return (operandKinds[destSlot] & 0x0f) != 0; }

    /** Append a source operand (ignores invalid operands). */
    void
    addSrc(const Operand &op)
    {
        if (op.valid() && numSrcs < maxSrcs)
            setSrc(numSrcs++, op);
    }

    /** Overwrite source slot @p i (< maxSrcs); numSrcs is unchanged. */
    void
    setSrc(int i, const Operand &op)
    {
        operandKinds[i] = kindByte(op);
        operandIds[i] = op.id;
    }

    void setDest(const Operand &op) { setSrc(destSlot, op); }

    bool operator==(const TraceRecord &other) const = default;

  private:
    void
    setFlag(uint8_t bit, bool on)
    {
        flags = static_cast<uint8_t>(on ? flags | bit : flags & ~bit);
    }
};

// The record is the file format: pin its size, field offsets and byte
// order, so a mapped payload can be read as records.
static_assert(std::endian::native == std::endian::little,
              "trace records are little-endian on disk");
static_assert(sizeof(TraceRecord) == 48, "a record is 48 bytes on disk");
static_assert(std::is_trivially_copyable_v<TraceRecord> &&
                  std::is_standard_layout_v<TraceRecord>,
              "records are copied and mapped as bytes");
static_assert(offsetof(TraceRecord, cls) == 0 &&
                  offsetof(TraceRecord, flags) == 1 &&
                  offsetof(TraceRecord, numSrcs) == 2 &&
                  offsetof(TraceRecord, lastUseMask) == 3 &&
                  offsetof(TraceRecord, operandKinds) == 4 &&
                  offsetof(TraceRecord, operandIds) == 8 &&
                  offsetof(TraceRecord, pc) == 40,
              "record fields sit at their format v2 offsets");

/** Render a record for diagnostics. */
std::string toString(const TraceRecord &rec);

} // namespace trace
} // namespace paragraph

#endif // PARAGRAPH_TRACE_RECORD_HPP
