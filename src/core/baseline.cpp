#include "core/baseline.hpp"

namespace paragraph {
namespace core {

using trace::Operand;
using trace::Segment;
using trace::TraceRecord;

CriticalPathAnalyzer::CriticalPathAnalyzer(AnalysisConfig cfg)
    : cfg_(cfg), predictor_(cfg.branchPredictor, cfg.predictorTableBits)
{
    begin();
}

void
CriticalPathAnalyzer::begin()
{
    predictor_.reset();
    levels_.clear();
    result_ = BaselineResult{};
    highestLevel_ = 0;
    deepestLevel_ = -1;
    done_ = false;
}

bool
CriticalPathAnalyzer::destRenamed(const Operand &op) const
{
    switch (op.kind) {
      case Operand::Kind::IntReg:
      case Operand::Kind::FpReg:
        return cfg_.renameRegisters;
      case Operand::Kind::Mem:
        return op.seg == Segment::Stack ? cfg_.renameStack : cfg_.renameData;
      default:
        return true;
    }
}

void
CriticalPathAnalyzer::process(const TraceRecord &rec)
{
    if (done_)
        return;
    ++result_.instructions;
    if (cfg_.maxInstructions && result_.instructions >= cfg_.maxInstructions)
        done_ = true;

    if (rec.isCondBranch() &&
        predictor_.kind() != PredictorKind::Perfect &&
        !predictor_.predictAndUpdate(rec.pc, rec.branchTaken())) {
        int64_t resolve = highestLevel_;
        for (int s = 0; s < rec.numSrcs; ++s) {
            uint64_t key = locationKey(rec.src(s));
            Slot *slot = levels_.find(key);
            if (!slot) {
                slot = &levels_.insertOrAssign(
                    key, Slot{highestLevel_ - 1, highestLevel_ - 1});
            }
            if (slot->level + 1 > resolve)
                resolve = slot->level + 1;
        }
        if (resolve > highestLevel_)
            highestLevel_ = resolve;
    }

    bool place = rec.createsValue();
    if (rec.isSysCall() && !cfg_.sysCallsStall)
        place = false;

    if (place) {
        int64_t issue = highestLevel_;
        for (int s = 0; s < rec.numSrcs; ++s) {
            uint64_t key = locationKey(rec.src(s));
            Slot *slot = levels_.find(key);
            if (!slot) {
                slot = &levels_.insertOrAssign(
                    key, Slot{highestLevel_ - 1, highestLevel_ - 1});
            }
            if (slot->level + 1 > issue)
                issue = slot->level + 1;
        }

        const Operand dest = rec.dest();
        const bool has_dest = dest.valid();
        const uint64_t dkey = has_dest ? locationKey(dest) : 0;
        if (has_dest && !destRenamed(dest)) {
            if (Slot *prev = levels_.find(dkey)) {
                if (prev->deepestAccess + 1 > issue)
                    issue = prev->deepestAccess + 1;
            }
        }

        const uint32_t top = cfg_.latency[static_cast<size_t>(rec.cls)];
        const int64_t ldest = issue + static_cast<int64_t>(top) - 1;

        for (int s = 0; s < rec.numSrcs; ++s) {
            if (Slot *slot = levels_.find(locationKey(rec.src(s)))) {
                if (ldest > slot->deepestAccess)
                    slot->deepestAccess = ldest;
            }
        }
        if (has_dest)
            levels_.insertOrAssign(dkey, Slot{ldest, ldest});

        ++result_.placedOps;
        if (ldest > deepestLevel_)
            deepestLevel_ = ldest;
    }

    if (rec.isSysCall() && cfg_.sysCallsStall &&
        deepestLevel_ + 1 > highestLevel_)
        highestLevel_ = deepestLevel_ + 1;
}

BaselineResult
CriticalPathAnalyzer::finish()
{
    result_.criticalPathLength =
        deepestLevel_ >= 0 ? static_cast<uint64_t>(deepestLevel_) + 1 : 0;
    result_.availableParallelism =
        result_.criticalPathLength
            ? static_cast<double>(result_.placedOps) /
                  static_cast<double>(result_.criticalPathLength)
            : 0.0;
    return result_;
}

BaselineResult
CriticalPathAnalyzer::analyze(trace::TraceSource &src)
{
    begin();
    TraceRecord rec;
    while (!done_ && src.next(rec))
        process(rec);
    return finish();
}

} // namespace core
} // namespace paragraph
