#include "core/paragraph.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "core/cancel_token.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace core {

using trace::Operand;
using trace::Segment;
using trace::TraceRecord;

namespace {
/// Records fetched per TraceSource::nextBatch call in streaming analyze().
constexpr size_t streamBatchSize = 256;
/// How many records ahead live-well slots are prefetched.
constexpr size_t prefetchDistance = 8;
/// Records between CancelToken polls in the bulk loop (keeps the clock
/// read off the per-record path).
constexpr size_t cancelCheckInterval = 32768;

/** Tagged live-well key of operand slot @p s of @p rec: the segment log's
 *  location name (the placement itself resolves operands by locate()). */
inline uint64_t
slotKey(const TraceRecord &rec, int s)
{
    return trace::locationKey(rec.operandKinds[s], rec.operandIds[s]);
}

/** The live-well location of operand slot @p s of @p rec. */
inline LiveWell::Loc
slotLoc(const TraceRecord &rec, int s)
{
    return LiveWell::locate(rec.operandKinds[s], rec.operandIds[s]);
}
} // namespace

Paragraph::Paragraph(AnalysisConfig cfg)
    : cfg_(cfg),
      throttle_(cfg),
      predictor_(cfg.branchPredictor, cfg.predictorTableBits),
      result_()
{
    if (cfg_.windowSize > 0)
        window_ = std::make_unique<SlidingWindow>(cfg_.windowSize);
    begin();
}

void
Paragraph::begin()
{
    renamedByKindByte_ = 0;
    for (uint8_t seg = 0; seg <= static_cast<uint8_t>(Segment::Stack);
         ++seg) {
        auto set = [&](Operand::Kind kind, bool renamed) {
            const Operand op{kind, static_cast<Segment>(seg), 0};
            if (renamed)
                renamedByKindByte_ |= 1ULL << trace::kindByte(op);
        };
        set(Operand::Kind::None, true);
        set(Operand::Kind::IntReg, cfg_.renameRegisters);
        set(Operand::Kind::FpReg, cfg_.renameRegisters);
        set(Operand::Kind::Mem, seg == static_cast<uint8_t>(Segment::Stack)
                                    ? cfg_.renameStack
                                    : cfg_.renameData);
    }
    liveWell_.clear();
    throttle_.reset();
    predictor_.reset();
    if (window_)
        window_->reset();
    result_ = AnalysisResult();
    result_.profile = BucketedProfile(cfg_.profileBins);
    result_.storageProfile = IntervalProfile(cfg_.profileBins);
    highestLevel_ = 0;
    deepestLevel_ = -1;
    lastPlacedLevel_ = -1;
    done_ = false;
    finished_ = false;
    segLog_ = nullptr;
    segPeakWindow_ = 0;
    segSeen_ = 0;
    misBits_ = nullptr;
    misCursor_ = 0;
    pickSpan();
}

void
Paragraph::pickSpan()
{
    static constexpr auto spans =
        []<unsigned... S>(std::integer_sequence<unsigned, S...>) {
            return std::array<SpanFn, sizeof...(S)>{
                &Paragraph::spanLoop<S>...};
        }(std::make_integer_sequence<unsigned, shapeCount>{});
    unsigned shape = 0;
    if (segLog_)
        shape |= shapeSegment;
    if (window_)
        shape |= shapeWindow;
    if (throttle_.enabled())
        shape |= shapeFu;
    if (cfg_.useLastUseEviction)
        shape |= shapeLastUse;
    if (cfg_.distributions)
        shape |= shapeFull;
    span_ = spans[shape];
}

void
Paragraph::resumeSpan(AnalysisResult &&acc, PatchCarry &&carry)
{
    begin();
    if (throttle_.enabled() && carry.floor <= carry.deepest) {
        PARA_ASSERT(carry.fuRows.size() ==
                        static_cast<size_t>(carry.deepest - carry.floor + 1) *
                            FuThrottle::rowWidth,
                    "FU-limited replay below the deepest level needs the "
                    "throttle rows for [floor, deepest]");
        throttle_.seedSpan(carry.floor, carry.fuRows);
    }
    result_ = std::move(acc);
    liveWell_ = std::move(carry.well);
    highestLevel_ = carry.floor;
    deepestLevel_ = carry.deepest;
    if (window_)
        window_->seed(carry.windowRing);
}

void
Paragraph::suspendSpan(AnalysisResult &acc, PatchCarry &carry)
{
    PARA_ASSERT(!finished_, "suspendSpan on a hollow engine");
    carry.floor = highestLevel_;
    carry.deepest = deepestLevel_;
    carry.windowRing =
        window_ ? window_->snapshot() : std::vector<int64_t>();
    carry.well = std::move(liveWell_);
    acc = std::move(result_);
    // Leave a usable (empty) well behind: the moved-from map has no slot
    // storage until the next rehash.
    liveWell_ = LiveWell();
    finished_ = true; // hollow until the next begin()/resumeSpan()
}

std::vector<int64_t>
Paragraph::windowRing() const
{
    return window_ ? window_->snapshot() : std::vector<int64_t>();
}

void
Paragraph::beginSegment(SegmentLog *log)
{
    begin();
    log->clear();
    segLog_ = log;
    pickSpan();
}

void
Paragraph::noteWellInsert(uint64_t key, bool via_read, int64_t close_issue)
{
    auto [pos, fresh] = segLog_->index.findOrInsert(
        key, static_cast<uint32_t>(segLog_->imports.size()));
    uint64_t size = liveWell_.size();
    if (!fresh) {
        // A later episode of an already-touched location: shift-identical
        // to the solo run, so only the peak watermark advances.
        if (size > segPeakWindow_)
            segPeakWindow_ = size;
        return;
    }
    (void)pos;
    SegmentImport im;
    im.key = key;
    im.viaRead = via_read;
    im.floorAtTouch = highestLevel_;
    // peakBefore deliberately excludes this touch's own insert: the stitch
    // re-bases the two sides of a first touch with different carried-well
    // corrections (the touch may consume one carried slot).
    im.peakBefore = segPeakWindow_;
    im.sizeAfter = size;
    if (!via_read) {
        // Write-first touch: if the location carried a value across the
        // cut, solo overwrites it here with zero segment-local reads — and
        // this op faces the carried value's storage dependency.
        im.died = true;
        im.closed = true;
        im.closeIssue = close_issue;
    }
    segLog_->imports.push_back(im);
    segPeakWindow_ = size;
}

void
Paragraph::closeImport(uint64_t key, const LiveValue &lv, int64_t close_issue)
{
    uint32_t *pos = segLog_->index.find(key);
    if (!pos)
        return;
    SegmentImport &im = segLog_->imports[*pos];
    if (im.closed)
        return; // episode >= 2: symmetric with solo, nothing to record
    im.useCount = lv.useCount;
    im.maxReadRel = lv.deepestAccess;
    im.died = true;
    im.closed = true;
    im.closeIssue = close_issue;
}

bool
Paragraph::destRenamed(uint8_t kind_seg) const
{
    // Table lookup: destination kinds alternate between registers and
    // memory, so a switch here mispredicts on the placement hot path. The
    // table is filled from the renaming switches in begin().
    return (renamedByKindByte_ >> (kind_seg & 63)) & 1;
}

void
Paragraph::raiseFloor(int64_t level)
{
    if (level > highestLevel_) {
        highestLevel_ = level;
        ++result_.firewalls;
    }
}

void
Paragraph::process(const TraceRecord &rec)
{
    if (done_)
        return;
    ++result_.instructions;
    if (cfg_.maxInstructions && result_.instructions >= cfg_.maxInstructions)
        done_ = true;
    (this->*span_)(&rec, 1);
}

void
Paragraph::handleCondBranch(const TraceRecord &rec)
{
    ++result_.condBranches;
    if (predictor_.kind() == PredictorKind::Perfect) {
        // Fast path: the paper's default assumption — perfect control flow.
        return;
    }
    bool correct;
    if (misBits_) {
        // Split-and-patch feed: the sequential predictor pre-pass already
        // decided every branch; consume the precomputed bit.
        correct = !((misBits_[misCursor_ >> 6] >> (misCursor_ & 63)) & 1);
        ++misCursor_;
    } else {
        correct = predictor_.predictAndUpdate(rec.pc, rec.branchTaken());
    }
    if (correct)
        return;
    ++result_.branchMispredictions;
    // The branch resolves once its sources are available; nothing after a
    // mispredicted branch may start earlier than that. Sources missing from
    // the live well are pre-existing values, entered with a single probe.
    int64_t resolve = highestLevel_;
    for (int s = 0; s < rec.numSrcs; ++s) {
        auto [lv, fresh] =
            liveWell_.findOrCreatePreExisting(slotLoc(rec, s), highestLevel_);
        if (fresh) {
            ++result_.preExistingValues;
            if (segLog_) {
                noteWellInsert(slotKey(rec, s), /*via_read=*/true,
                               SegmentImport::unconstrained);
            }
        }
        if (lv->level + 1 > resolve)
            resolve = lv->level + 1;
    }
    raiseFloor(resolve);
}

template <unsigned ShapeBits>
[[gnu::always_inline]] inline void
Paragraph::step(const TraceRecord &rec)
{
    constexpr bool segment = ShapeBits & shapeSegment;
    constexpr bool windowed = ShapeBits & shapeWindow;
    constexpr bool fuLimited = ShapeBits & shapeFu;
    constexpr bool lastUse = ShapeBits & shapeLastUse;
    constexpr bool full = ShapeBits & shapeFull;

    // Segment mode, finite window: while the fresh window is still
    // filling, the solo run displaces pre-cut entries this run cannot see.
    // Log the floor before each head record (and its level below) so the
    // patch can verify those displacement raises are no-ops.
    bool logHead = false;
    if constexpr (segment && windowed) {
        logHead = segSeen_ < window_->capacity();
        if (logHead)
            segLog_->headFloors.push_back(highestLevel_);
    }

    // The incoming record displaces the oldest window entry before it is
    // placed; the displaced operation's level becomes a firewall.
    if constexpr (windowed) {
        int64_t displaced = window_->willEnter();
        if (displaced != SlidingWindow::notPlaced)
            raiseFloor(displaced + 1);
    }

    const bool sysCall = rec.isSysCall();
    if (sysCall)
        ++result_.sysCalls;
    if (rec.isCondBranch())
        handleCondBranch(rec);

    // Optimistic syscall assumption: the syscall modifies nothing and is
    // ignored entirely.
    const bool place =
        rec.createsValue() && !(sysCall && !cfg_.sysCallsStall);
    int64_t level = SlidingWindow::notPlaced;
    if (place) {
        // Phase 1: true data dependencies — and the only resolution of
        // each source. Sources missing from the live well are
        // pre-existing values (registers or DATA words untouched so far);
        // they enter at highestLevel - 1 so they never delay computation,
        // with a single find-or-create probe. The handle (pointer +
        // location) is kept for the read-access bookkeeping below.
        struct SrcRef
        {
            LiveValue *lv;
            LiveWell::Loc loc;
        };
        SrcRef srcs[trace::maxSrcs];
        const int nsrcs = rec.numSrcs;
        const uint64_t epoch0 = liveWell_.memEpoch();
        int64_t issue = highestLevel_;
        for (int s = 0; s < nsrcs; ++s) {
            const LiveWell::Loc loc = slotLoc(rec, s);
            auto [lv, fresh] =
                liveWell_.findOrCreatePreExisting(loc, highestLevel_);
            if (fresh) {
                ++result_.preExistingValues;
                if constexpr (segment) {
                    noteWellInsert(slotKey(rec, s), /*via_read=*/true,
                                   SegmentImport::unconstrained);
                }
            }
            if (lv->level + 1 > issue)
                issue = lv->level + 1;
            srcs[s] = SrcRef{lv, loc};
        }
        // A later source's insertion can move earlier handles that point
        // into the memory map (rehash or robin-hood displacement);
        // register-file handles are immune. Rare: re-resolve only when the
        // epoch moved.
        if (liveWell_.memEpoch() != epoch0) {
            for (int s = 0; s < nsrcs; ++s) {
                if (!srcs[s].loc.direct())
                    srcs[s].lv = liveWell_.find(srcs[s].loc);
            }
        }

        // The post-data-dependency issue level: if a first-touch value is
        // overwritten by this op, the carried value's storage dependency
        // applies against exactly this level solo-side (segment mode).
        const int64_t dataIssue = issue;

        // Phase 2: the destination is resolved once, here — its previous
        // occupant both bounds the issue level (storage dependency, when
        // the storage class is not renamed) and dies in phase 6. No
        // inserts happen between here and the phase-5 evictions, so the
        // handle stays valid.
        const uint8_t dkind = rec.operandKinds[TraceRecord::destSlot];
        const bool has_dest = rec.hasDest();
        const LiveWell::Loc dloc = slotLoc(rec, TraceRecord::destSlot);
        LiveValue *destPrev = has_dest ? liveWell_.find(dloc) : nullptr;
        const bool renamed = destRenamed(dkind);
        if (destPrev && !renamed && destPrev->deepestAccess + 1 > issue) {
            issue = destPrev->deepestAccess + 1;
            ++result_.storageDelayedOps;
        }

        // Phase 3: resource dependencies.
        const uint32_t top = cfg_.latency[static_cast<size_t>(rec.cls)];
        if constexpr (fuLimited) {
            int64_t adjusted = throttle_.place(rec.cls, issue, top);
            if (adjusted > issue)
                ++result_.fuDelayedOps;
            issue = adjusted;
        }

        const int64_t ldest = issue + static_cast<int64_t>(top) - 1;

        // Phase 4: the operation reads its sources; record the access
        // depth (for future storage dependencies) and the degree of
        // sharing — through the handles resolved in phase 1, no further
        // probes.
        for (int s = 0; s < nsrcs; ++s) {
            LiveValue *lv = srcs[s].lv;
            ++lv->useCount;
            if (ldest > lv->deepestAccess)
                lv->deepestAccess = ldest;
        }

        // Phase 5: two-pass deadness — evict values whose last use this
        // is. The first eviction can shift memory-map entries (and a
        // duplicate last-use source may already be gone), so handles are
        // re-resolved once anything was killed.
        bool killedAny = false;
        if (lastUse && rec.lastUseMask) {
            for (int s = 0; s < nsrcs; ++s) {
                if (!(rec.lastUseMask & (1u << s)))
                    continue;
                LiveValue *lv =
                    killedAny ? liveWell_.find(srcs[s].loc) : srcs[s].lv;
                if (!lv)
                    continue; // duplicate source already evicted
                retireValue<full>(result_, *lv);
                if constexpr (segment) {
                    if (lv->preExisting) {
                        closeImport(slotKey(rec, s), *lv,
                                    SegmentImport::unconstrained);
                    }
                }
                liveWell_.kill(srcs[s].loc);
                killedAny = true;
            }
        }

        // Phase 6: the created value enters the live well; the previous
        // occupant of the location dies (one-pass deadness). The occupant
        // was already resolved in phase 2 — overwrite it in place (the
        // location does not change, so the map structure is untouched)
        // unless a phase-5 eviction moved or removed it.
        if (has_dest) {
            [[maybe_unused]] const int64_t overwriteIssue =
                renamed ? SegmentImport::unconstrained : dataIssue;
            LiveValue *prev = killedAny ? liveWell_.find(dloc) : destPrev;
            if (prev) {
                retireValue<full>(result_, *prev);
                if constexpr (segment) {
                    if (prev->preExisting) {
                        closeImport(slotKey(rec, TraceRecord::destSlot),
                                    *prev, overwriteIssue);
                    }
                }
                *prev = LiveValue{ldest, ldest, 0, false};
            } else {
                liveWell_.define(dloc, ldest);
                if constexpr (segment) {
                    noteWellInsert(slotKey(rec, TraceRecord::destSlot),
                                   /*via_read=*/false, overwriteIssue);
                }
            }
        }

        ++result_.placedOps;
        result_.profile.add(static_cast<uint64_t>(ldest));
        if constexpr (segment) {
            // Exact per-level counts for the stitch: the profile above
            // folds its buckets once levels outgrow the bin count, which
            // would make the stitched profile approximate (see
            // SegmentLog::levelOps).
            const size_t lvl = static_cast<size_t>(ldest);
            if (lvl >= segLog_->levelOps.size())
                segLog_->levelOps.resize(lvl + 1, 0);
            ++segLog_->levelOps[lvl];
        }
        if (ldest > deepestLevel_)
            deepestLevel_ = ldest;
        level = ldest;
    }
    lastPlacedLevel_ = place ? level : -1;

    // Conservative assumption: the syscall modified every live value. A
    // firewall goes immediately after the deepest computation so far; no
    // later operation may be placed above it.
    if (sysCall && cfg_.sysCallsStall) {
        if constexpr (segment) {
            if (segLog_->firstStallDeepest == SegmentLog::noStall)
                segLog_->firstStallDeepest = deepestLevel_;
        }
        raiseFloor(deepestLevel_ + 1);
    }

    if constexpr (windowed)
        window_->entered(level);
    if constexpr (segment) {
        if (logHead)
            segLog_->headLevels.push_back(level);
        ++segSeen_;
    }
}

template <unsigned ShapeBits>
void
Paragraph::spanLoop(const TraceRecord *records, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        // Memory operands probe a large randomly-indexed table; start the
        // loads for a record a few iterations before it is processed.
        if (i + prefetchDistance < n)
            prefetchRecord(records[i + prefetchDistance]);
        step<ShapeBits>(records[i]);
    }
}

AnalysisResult
Paragraph::finish()
{
    PARA_ASSERT(!finished_, "finish() called twice");
    finished_ = true;

    if (segLog_) {
        // Segment mode: survivors are exported, not retired — whether a
        // value dies later (and its lifetime/sharing entry) is decided by
        // the stitch across segments. Surviving first-touch episodes close
        // here with their read stats but no death.
        liveWell_.forEach([this](uint64_t key, const LiveValue &lv) {
            if (lv.preExisting) {
                if (uint32_t *pos = segLog_->index.find(key)) {
                    SegmentImport &im = segLog_->imports[*pos];
                    if (!im.closed) {
                        im.useCount = lv.useCount;
                        im.maxReadRel = lv.deepestAccess;
                        im.closed = true; // died stays false: it survived
                    }
                }
            }
            segLog_->exports.emplace_back(key, lv);
        });
        segLog_->trailingPeak =
            std::max(segPeakWindow_,
                     static_cast<uint64_t>(liveWell_.size()));
        segLog_->relHighest = highestLevel_;
        segLog_->relDeepest = deepestLevel_;
        if (window_)
            segLog_->windowTail = window_->snapshot();
        if (throttle_.enabled() && deepestLevel_ >= highestLevel_) {
            segLog_->fuTail = throttle_.snapshotSpan(
                highestLevel_, deepestLevel_ - highestLevel_ + 1);
        }
    } else if (cfg_.distributions) {
        liveWell_.forEach([this](uint64_t, const LiveValue &lv) {
            retireValue<true>(result_, lv);
        });
    } else {
        liveWell_.forEach([this](uint64_t, const LiveValue &lv) {
            retireValue<false>(result_, lv);
        });
    }

    result_.liveWellFinal = liveWell_.size();
    result_.liveWellPeak = liveWell_.peakSize();
    // The live well's footprint only grows within a run (the map never
    // shrinks its slot array), so the final size is the peak — no need to
    // sample it on every placed record.
    result_.liveWellPeakBytes = liveWell_.memoryBytes();
    result_.criticalPathLength =
        deepestLevel_ >= 0 ? static_cast<uint64_t>(deepestLevel_) + 1 : 0;
    result_.availableParallelism =
        result_.criticalPathLength
            ? static_cast<double>(result_.placedOps) /
                  static_cast<double>(result_.criticalPathLength)
            : 0.0;
    return result_;
}

void
Paragraph::prefetchRecord(const TraceRecord &rec) const
{
    for (int s = 0; s <= TraceRecord::destSlot; ++s) {
        // Unused source slots hold zero bytes, never a memory kind.
        if (trace::isMemKind(rec.operandKinds[s]))
            liveWell_.prefetchMem(slotKey(rec, s));
    }
}

void
Paragraph::processAll(const trace::TraceBuffer &buffer)
{
    processAll(buffer.records().data(), buffer.records().size());
}

void
Paragraph::processAll(const TraceRecord *records, size_t n)
{
    if (done_)
        return;
    // The instruction cap is the only thing that stops mid-span, so the
    // record count is known up front: count and check once, not per record.
    if (cfg_.maxInstructions) {
        uint64_t remaining = cfg_.maxInstructions - result_.instructions;
        if (remaining < n)
            n = static_cast<size_t>(remaining);
    }
    if (cfg_.cancel) {
        // Cooperative cancellation: poll the token between chunks so a
        // runaway cell becomes a diagnosed CancelledError, not a hang.
        for (size_t i = 0; i < n; i += cancelCheckInterval) {
            cfg_.cancel->checkpoint();
            (this->*span_)(records + i, std::min(cancelCheckInterval, n - i));
        }
    } else {
        (this->*span_)(records, n);
    }
    result_.instructions += n;
    if (cfg_.maxInstructions && result_.instructions >= cfg_.maxInstructions)
        done_ = true;
}

AnalysisResult
Paragraph::analyze(trace::TraceSource &src)
{
    begin();
    auto start = std::chrono::steady_clock::now();
    // Drain in batches: one virtual call refills a whole block, so the
    // per-record cost is a plain loop over stack storage.
    trace::TraceRecord batch[streamBatchSize];
    while (!done_) {
        if (cfg_.cancel)
            cfg_.cancel->checkpoint();
        // Never request past the instruction cap: a shared source must not
        // be drained further than record-at-a-time consumption would.
        size_t want = streamBatchSize;
        if (cfg_.maxInstructions) {
            uint64_t remaining =
                cfg_.maxInstructions - result_.instructions;
            if (remaining < want)
                want = static_cast<size_t>(remaining);
        }
        size_t n = src.nextBatch(batch, want);
        if (n == 0)
            break;
        (this->*span_)(batch, n);
        result_.instructions += n;
        if (cfg_.maxInstructions &&
            result_.instructions >= cfg_.maxInstructions)
            done_ = true;
    }
    AnalysisResult res = finish();
    auto end = std::chrono::steady_clock::now();
    res.analysisSeconds =
        std::chrono::duration<double>(end - start).count();
    return res;
}

AnalysisResult
Paragraph::analyze(const trace::TraceBuffer &buffer)
{
    begin();
    auto start = std::chrono::steady_clock::now();
    processAll(buffer);
    AnalysisResult res = finish();
    auto end = std::chrono::steady_clock::now();
    res.analysisSeconds =
        std::chrono::duration<double>(end - start).count();
    return res;
}

} // namespace core
} // namespace paragraph
