#include "fuzz/trace_fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "support/crc32.hpp"
#include "support/panic.hpp"
#include "support/string_utils.hpp"
#include "trace/file_io.hpp"

namespace paragraph {
namespace fuzz {

using trace::Operand;
using trace::Segment;
using trace::TraceBuffer;
using trace::TraceRecord;

const char *
mutationName(Mutation m)
{
    switch (m) {
      case Mutation::Truncate:        return "truncate";
      case Mutation::DuplicateRun:    return "duplicate-run";
      case Mutation::SelfDependence:  return "self-dependence";
      case Mutation::DeepChain:       return "deep-chain";
      case Mutation::SyscallBurst:    return "syscall-burst";
      case Mutation::UniqueDestFlood: return "unique-dest-flood";
      case Mutation::SegmentShuffle:  return "segment-shuffle";
      case Mutation::SourceStorm:     return "source-storm";
      default:                        return "none";
    }
}

TraceFuzzer::TraceFuzzer(FuzzerOptions opt) : opt_(opt), prng_(opt.seed) {}

namespace {

/** Segment base addresses keep the three universes visually distinct while
 *  still letting the alias machinery reuse the same numeric address across
 *  segments. */
uint64_t
segmentBase(Segment seg)
{
    switch (seg) {
      case Segment::Stack: return 0x7fff0000ULL;
      case Segment::Heap:  return 0x00200000ULL;
      default:             return 0x00010000ULL;
    }
}

Segment
rollSegment(Prng &prng)
{
    return static_cast<Segment>(1 + prng.nextBelow(3));
}

/** Value-creating classes a generic computation record can carry. */
const isa::OpClass kIntClasses[] = {isa::OpClass::IntAlu,
                                    isa::OpClass::IntAlu,
                                    isa::OpClass::IntAlu};
const isa::OpClass kLongClasses[] = {isa::OpClass::IntMul,
                                     isa::OpClass::IntDiv};
const isa::OpClass kFpClasses[] = {isa::OpClass::FpAddSub,
                                   isa::OpClass::FpMul, isa::OpClass::FpDiv};

} // namespace

Operand
TraceFuzzer::randomMemOperand(Prng &prng, uint64_t lastMemAddr)
{
    Segment seg = rollSegment(prng);
    if (lastMemAddr != 0 && prng.nextBelow(100) < opt_.aliasPct) {
        // Stack/heap aliasing: the same word re-appears under another
        // rolled segment, so the renaming switches see the address in
        // several storage classes over the trace.
        return Operand::mem(lastMemAddr, seg);
    }
    uint64_t word = prng.nextBelow(opt_.memWords ? opt_.memWords : 1);
    return Operand::mem(segmentBase(seg) + 8 * word, seg);
}

Operand
TraceFuzzer::randomOperand(Prng &prng, uint64_t lastMemAddr)
{
    switch (prng.nextBelow(3)) {
      case 0:
        return Operand::intReg(static_cast<uint8_t>(
            1 + prng.nextBelow(opt_.intRegs ? opt_.intRegs : 1)));
      case 1:
        return Operand::fpReg(static_cast<uint8_t>(
            prng.nextBelow(opt_.fpRegs ? opt_.fpRegs : 1)));
      default:
        return randomMemOperand(prng, lastMemAddr);
    }
}

TraceBuffer
TraceFuzzer::generate()
{
    TraceBuffer buf;
    Operand lastDest;
    uint64_t lastMemAddr = 0;

    const unsigned branchEnd = opt_.syscalls
                                   ? opt_.syscallPct + opt_.branchPct
                                   : opt_.branchPct;
    const unsigned memEnd = branchEnd + opt_.loadStorePct;
    const unsigned fpEnd = memEnd + opt_.fpPct;
    const unsigned longEnd = fpEnd + opt_.longLatencyPct;

    for (size_t i = 0; i < opt_.length; ++i) {
        TraceRecord rec;
        rec.pc = i;
        const uint64_t roll = prng_.nextBelow(100);

        if (opt_.syscalls && roll < opt_.syscallPct) {
            rec.cls = isa::OpClass::SysCall;
            rec.setCreatesValue(true);
            rec.setSysCall(true);
            rec.addSrc(Operand::intReg(2));
            rec.setDest(Operand::intReg(2));
        } else if (roll < branchEnd) {
            rec.cls = isa::OpClass::Control;
            rec.setCreatesValue(false);
            rec.setCondBranch(prng_.nextBelow(4) != 0);
            rec.setBranchTaken(prng_.nextBelow(2) != 0);
            rec.addSrc(Operand::intReg(static_cast<uint8_t>(
                1 + prng_.nextBelow(opt_.intRegs ? opt_.intRegs : 1))));
        } else if (roll < memEnd) {
            // Memory traffic: half loads, half stores.
            Operand mem = randomMemOperand(prng_, lastMemAddr);
            lastMemAddr = mem.id;
            if (prng_.nextBelow(2) == 0) {
                rec.cls = isa::OpClass::Load;
                rec.setCreatesValue(true);
                if (prng_.nextBelow(2) == 0) {
                    rec.addSrc(Operand::intReg(static_cast<uint8_t>(
                        1 +
                        prng_.nextBelow(opt_.intRegs ? opt_.intRegs : 1))));
                }
                rec.addSrc(mem);
                rec.setDest(Operand::intReg(static_cast<uint8_t>(
                    1 + prng_.nextBelow(opt_.intRegs ? opt_.intRegs : 1))));
            } else {
                rec.cls = isa::OpClass::Store;
                rec.setCreatesValue(true);
                Operand src =
                    (lastDest.valid() &&
                     prng_.nextBelow(100) < opt_.chainPct)
                        ? lastDest
                        : randomOperand(prng_, lastMemAddr);
                rec.addSrc(src);
                rec.setDest(mem);
            }
        } else {
            if (roll < fpEnd) {
                rec.cls = kFpClasses[prng_.nextBelow(3)];
            } else if (roll < longEnd) {
                rec.cls = kLongClasses[prng_.nextBelow(2)];
            } else {
                rec.cls = kIntClasses[prng_.nextBelow(3)];
            }
            rec.setCreatesValue(true);
            const int nsrcs = 1 + static_cast<int>(prng_.nextBelow(2));
            for (int s = 0; s < nsrcs; ++s) {
                // Dependence chains: reuse the previous destination so deep
                // serial structure (long critical paths) actually occurs.
                if (lastDest.valid() &&
                    prng_.nextBelow(100) < opt_.chainPct) {
                    rec.addSrc(lastDest);
                } else {
                    Operand op = randomOperand(prng_, lastMemAddr);
                    if (op.isMem())
                        lastMemAddr = op.id;
                    rec.addSrc(op);
                }
            }
            rec.setDest(randomOperand(prng_, lastMemAddr));
            if (rec.dest().isMem())
                lastMemAddr = rec.dest().id;
        }
        if (rec.createsValue())
            lastDest = rec.dest();
        buf.push(rec);
    }
    return buf;
}

TraceBuffer
TraceFuzzer::mutate(const TraceBuffer &base, uint64_t seed,
                    Mutation *applied)
{
    Prng prng(seed);
    const size_t n = base.size();
    Mutation m = static_cast<Mutation>(
        prng.nextBelow(static_cast<uint64_t>(Mutation::NumMutations)));
    if (applied)
        *applied = m;
    if (n == 0)
        return base;

    TraceBuffer out = base;
    auto spanStart = [&](size_t len) {
        return static_cast<size_t>(prng.nextBelow(n - len + 1));
    };

    switch (m) {
      case Mutation::Truncate: {
        // Keep a non-empty prefix or suffix.
        size_t keep = 1 + static_cast<size_t>(prng.nextBelow(n));
        std::vector<TraceRecord> recs;
        if (prng.nextBelow(2) == 0) {
            recs.assign(base.records().begin(),
                        base.records().begin() +
                            static_cast<ptrdiff_t>(keep));
        } else {
            recs.assign(base.records().end() - static_cast<ptrdiff_t>(keep),
                        base.records().end());
        }
        return TraceBuffer(std::move(recs));
      }
      case Mutation::DuplicateRun: {
        size_t len = 1 + static_cast<size_t>(
                             prng.nextBelow(std::min<size_t>(n, 64)));
        size_t at = spanStart(len);
        std::vector<TraceRecord> recs = base.records();
        recs.insert(recs.begin() + static_cast<ptrdiff_t>(at + len),
                    base.records().begin() + static_cast<ptrdiff_t>(at),
                    base.records().begin() +
                        static_cast<ptrdiff_t>(at + len));
        return TraceBuffer(std::move(recs));
      }
      case Mutation::SelfDependence: {
        // Records that read the value they overwrite: the tightest storage
        // dependence (and a renaming edge case — Ddest from its own dest).
        size_t edits = 1 + static_cast<size_t>(prng.nextBelow(16));
        for (size_t e = 0; e < edits; ++e) {
            TraceRecord &rec = out[static_cast<size_t>(prng.nextBelow(n))];
            if (!rec.createsValue() || !rec.dest().valid())
                continue;
            if (rec.numSrcs == 0)
                rec.addSrc(rec.dest());
            else
                rec.setSrc(prng.nextBelow(rec.numSrcs), rec.dest());
        }
        return out;
      }
      case Mutation::DeepChain: {
        // Rewrite a span into one serial dependence chain through a single
        // register: critical path grows to ~the span length.
        size_t len = std::min<size_t>(
            n, 2 + static_cast<size_t>(prng.nextBelow(256)));
        size_t at = spanStart(len);
        uint8_t reg = static_cast<uint8_t>(
            1 + prng.nextBelow(opt_.intRegs ? opt_.intRegs : 1));
        for (size_t i = at; i < at + len; ++i) {
            TraceRecord &rec = out[i];
            rec.cls = isa::OpClass::IntAlu;
            rec.setCreatesValue(true);
            rec.setSysCall(false);
            rec.setCondBranch(false);
            rec.numSrcs = 0;
            rec.lastUseMask = 0;
            for (int k = 0; k < trace::maxSrcs; ++k)
                rec.setSrc(k, Operand{});
            rec.addSrc(Operand::intReg(reg));
            rec.setDest(Operand::intReg(reg));
        }
        return out;
      }
      case Mutation::SyscallBurst: {
        size_t burst = 3 + static_cast<size_t>(prng.nextBelow(14));
        size_t at = static_cast<size_t>(prng.nextBelow(n + 1));
        TraceRecord sys;
        sys.cls = isa::OpClass::SysCall;
        sys.setCreatesValue(true);
        sys.setSysCall(true);
        sys.addSrc(Operand::intReg(2));
        sys.setDest(Operand::intReg(2));
        std::vector<TraceRecord> recs = base.records();
        recs.insert(recs.begin() + static_cast<ptrdiff_t>(at), burst, sys);
        return TraceBuffer(std::move(recs));
      }
      case Mutation::UniqueDestFlood: {
        // A span of independent stores to never-reused addresses: with a
        // W-window every level must still respect the firewall bound.
        size_t len = std::min<size_t>(
            n, 8 + static_cast<size_t>(prng.nextBelow(512)));
        size_t at = spanStart(len);
        for (size_t i = at; i < at + len; ++i) {
            TraceRecord &rec = out[i];
            rec.cls = isa::OpClass::Store;
            rec.setCreatesValue(true);
            rec.setSysCall(false);
            rec.setCondBranch(false);
            rec.numSrcs = 0;
            rec.lastUseMask = 0;
            for (int k = 0; k < trace::maxSrcs; ++k)
                rec.setSrc(k, Operand{});
            rec.setDest(Operand::mem(0x90000000ULL + 8 * i, Segment::Data));
        }
        return out;
      }
      case Mutation::SegmentShuffle: {
        // A fixed permutation of the three segments across the whole trace
        // (the rename-stack/rename-data switches see traffic migrate).
        Segment perm[3] = {Segment::Data, Segment::Heap, Segment::Stack};
        std::swap(perm[prng.nextBelow(3)], perm[prng.nextBelow(3)]);
        auto remap = [&perm](Operand op) {
            if (op.isMem())
                op.seg = perm[static_cast<size_t>(op.seg) - 1];
            return op;
        };
        for (size_t i = 0; i < n; ++i) {
            for (int s = 0; s < out[i].numSrcs; ++s)
                out[i].setSrc(s, remap(out[i].src(s)));
            out[i].setDest(remap(out[i].dest()));
        }
        return out;
      }
      case Mutation::SourceStorm:
      default: {
        // Max out source counts with duplicated operands: duplicate-source
        // resolution and the degree-of-sharing accounting both stress.
        size_t edits = 1 + static_cast<size_t>(prng.nextBelow(32));
        for (size_t e = 0; e < edits; ++e) {
            TraceRecord &rec = out[static_cast<size_t>(prng.nextBelow(n))];
            if (rec.numSrcs == 0)
                continue;
            Operand dup = rec.src(prng.nextBelow(rec.numSrcs));
            while (rec.numSrcs < trace::maxSrcs)
                rec.addSrc(dup);
        }
        return out;
      }
    }
}

bool
TraceFuzzer::validRecord(const TraceRecord &rec, std::string *why)
{
    auto bad = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (static_cast<uint8_t>(rec.cls) >=
        static_cast<uint8_t>(isa::OpClass::NumClasses))
        return bad(strFormat("bad op class %u",
                             static_cast<unsigned>(rec.cls)));
    if (rec.numSrcs > trace::maxSrcs)
        return bad(strFormat("bad source count %u", rec.numSrcs));
    if (rec.lastUseMask & ~((1u << rec.numSrcs) - 1))
        return bad(strFormat("last-use mask 0x%x names missing sources",
                             rec.lastUseMask));
    auto validOperand = [&](const Operand &op, const char *what) {
        switch (op.kind) {
          case Operand::Kind::None:
            if (op.seg != Segment::None)
                return bad(strFormat("%s: empty operand with a segment",
                                     what));
            return true;
          case Operand::Kind::IntReg:
          case Operand::Kind::FpReg:
            if (op.seg != Segment::None)
                return bad(strFormat("%s: register with a segment", what));
            if (op.id > 0xff)
                return bad(strFormat("%s: register index %llu too large",
                                     what,
                                     static_cast<unsigned long long>(
                                         op.id)));
            return true;
          case Operand::Kind::Mem:
            if (op.seg == Segment::None)
                return bad(strFormat("%s: memory operand without a segment",
                                     what));
            return true;
          default:
            return bad(strFormat("%s: bad operand kind", what));
        }
    };
    for (int s = 0; s < rec.numSrcs; ++s) {
        if (!rec.src(s).valid())
            return bad(strFormat("source %d missing below numSrcs", s));
        if (!validOperand(rec.src(s), "source"))
            return false;
    }
    for (int s = rec.numSrcs; s < trace::maxSrcs; ++s) {
        if (rec.src(s).valid())
            return bad(strFormat("source %d present above numSrcs", s));
    }
    if (!validOperand(rec.dest(), "destination"))
        return false;
    if (rec.createsValue() && !rec.dest().valid())
        return bad("value-creating record without a destination");
    return true;
}

bool
TraceFuzzer::validTrace(const TraceBuffer &buf, std::string *why)
{
    for (size_t i = 0; i < buf.size(); ++i) {
        std::string msg;
        if (!validRecord(buf[i], &msg)) {
            if (why)
                *why = strFormat("record %zu: %s", i, msg.c_str());
            return false;
        }
    }
    return true;
}

TraceBuffer
writeTraceWithFieldEdit(const TraceBuffer &buf, const std::string &path,
                        uint64_t seed)
{
    PARA_ASSERT(!buf.empty(), "field edit needs a non-empty trace");
    {
        trace::TraceFileWriter writer(path);
        for (const TraceRecord &rec : buf.records())
            writer.write(rec);
        writer.close();
    }

    Prng prng(seed);
    const size_t target = static_cast<size_t>(prng.nextBelow(buf.size()));
    const long recordOffset = static_cast<long>(
        sizeof(trace::TraceFileHeader) +
        target * sizeof(TraceRecord));

    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        PARA_FATAL("cannot reopen %s for the field edit", path.c_str());

    TraceRecord packed;
    if (std::fseek(f, recordOffset, SEEK_SET) != 0 ||
        std::fread(&packed, sizeof(packed), 1, f) != 1) {
        std::fclose(f);
        PARA_FATAL("cannot read record %zu of %s", target, path.c_str());
    }

    // One in-range field edit the checksums cannot flag once repaired: the
    // reader's range validation plus decode determinism are all that stand
    // between this and silent corruption.
    switch (prng.nextBelow(4)) {
      case 0:
        packed.cls = static_cast<isa::OpClass>(
            (static_cast<unsigned>(packed.cls) + 1 +
             prng.nextBelow(isa::numOpClasses - 1)) %
            isa::numOpClasses);
        break;
      case 1:
        packed.pc ^= 1 + prng.nextBelow(0xffff);
        break;
      case 2:
        packed.flags ^= 0x08; // branchTaken: always within the valid mask
        break;
      default:
        packed.operandIds[3] ^= 8 * (1 + prng.nextBelow(0xff));
        break;
    }

    if (std::fseek(f, recordOffset, SEEK_SET) != 0 ||
        std::fwrite(&packed, sizeof(packed), 1, f) != 1) {
        std::fclose(f);
        PARA_FATAL("cannot rewrite record %zu of %s", target, path.c_str());
    }

    // Repair the payload CRC over the edited byte stream, then the header
    // CRC over the repaired header.
    uint32_t payloadCrc = 0;
    if (std::fseek(f, sizeof(trace::TraceFileHeader), SEEK_SET) != 0) {
        std::fclose(f);
        PARA_FATAL("seek failed in %s", path.c_str());
    }
    TraceRecord scan;
    for (size_t i = 0; i < buf.size(); ++i) {
        if (std::fread(&scan, sizeof(scan), 1, f) != 1) {
            std::fclose(f);
            PARA_FATAL("payload rescan failed in %s", path.c_str());
        }
        payloadCrc = crc32Update(payloadCrc, &scan, sizeof(scan));
    }
    trace::TraceFileHeader hdr;
    if (std::fseek(f, 0, SEEK_SET) != 0 ||
        std::fread(&hdr, sizeof(hdr), 1, f) != 1) {
        std::fclose(f);
        PARA_FATAL("header reread failed in %s", path.c_str());
    }
    hdr.payloadCrc = payloadCrc;
    hdr.headerCrc = trace::traceHeaderCrc(hdr);
    if (std::fseek(f, 0, SEEK_SET) != 0 ||
        std::fwrite(&hdr, sizeof(hdr), 1, f) != 1 || std::fflush(f) != 0) {
        std::fclose(f);
        PARA_FATAL("header rewrite failed in %s", path.c_str());
    }
    std::fclose(f);

    // The expected decode: the same edit applied in memory. Any divergence
    // between this and what the reader returns is a found bug.
    TraceBuffer expected = buf;
    expected[target] = packed;
    return expected;
}

} // namespace fuzz
} // namespace paragraph
