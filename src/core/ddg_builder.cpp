#include "core/ddg_builder.hpp"

#include <algorithm>
#include <sstream>

#include "core/branch_predictor.hpp"
#include "core/fu_throttle.hpp"
#include "support/flat_hash_map.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace core {

using trace::Operand;
using trace::Segment;
using trace::TraceRecord;

const char *
depKindName(DepKind kind)
{
    switch (kind) {
      case DepKind::True:    return "true";
      case DepKind::Storage: return "storage";
      case DepKind::Control: return "control";
      default:               return "?";
    }
}

size_t
Ddg::countEdges(DepKind kind) const
{
    return static_cast<size_t>(
        std::count_if(edges.begin(), edges.end(),
                      [kind](const Edge &e) { return e.kind == kind; }));
}

std::vector<uint64_t>
Ddg::levelHistogram() const
{
    int64_t deepest = -1;
    for (const Node &n : nodes)
        deepest = std::max(deepest, n.level);
    std::vector<uint64_t> hist(static_cast<size_t>(deepest + 1), 0);
    for (const Node &n : nodes)
        ++hist[static_cast<size_t>(n.level)];
    return hist;
}

std::string
Ddg::toDot() const
{
    std::ostringstream oss;
    oss << "digraph ddg {\n"
        << "  rankdir=TB;\n"
        << "  node [shape=box, fontname=\"monospace\", fontsize=10];\n";

    int64_t deepest = -1;
    for (const Node &n : nodes)
        deepest = std::max(deepest, n.level);

    for (size_t i = 0; i < nodes.size(); ++i) {
        oss << "  n" << i << " [label=\"" << nodes[i].label << "\\nL"
            << nodes[i].level << "\"];\n";
    }
    // Bucket nodes per level once instead of rescanning every node for
    // every level (deep graphs made that quadratic).
    std::vector<std::vector<size_t>> by_level(
        static_cast<size_t>(deepest + 1));
    for (size_t i = 0; i < nodes.size(); ++i)
        by_level[static_cast<size_t>(nodes[i].level)].push_back(i);
    for (const std::vector<size_t> &members : by_level) {
        if (members.empty())
            continue;
        oss << "  { rank=same;";
        for (size_t i : members)
            oss << " n" << i << ";";
        oss << " }\n";
    }
    for (const Edge &e : edges) {
        oss << "  n" << e.from << " -> n" << e.to;
        switch (e.kind) {
          case DepKind::Storage:
            oss << " [color=gray, style=solid, arrowhead=odot]";
            break;
          case DepKind::Control:
            oss << " [style=dashed]";
            break;
          default:
            break;
        }
        oss << ";\n";
    }
    oss << "}\n";
    return oss.str();
}

namespace {

/** Per-location bookkeeping: the live value plus its producing node and the
 *  nodes that have read it (for storage-dependence edges). */
struct BuilderSlot
{
    int64_t level = 0;
    int64_t deepestAccess = 0;
    int32_t producer = -1; ///< node index, -1 for pre-existing values
    std::vector<uint32_t> readers;
};

} // namespace

Ddg
buildDdg(const trace::TraceBuffer &buffer, const AnalysisConfig &cfg)
{
    Ddg ddg;
    FlatHashMap<uint64_t, uint32_t> slot_index; // location -> slots idx
    std::vector<BuilderSlot> slots;
    FuThrottle throttle(cfg);
    BranchPredictor predictor(cfg.branchPredictor, cfg.predictorTableBits);
    SlidingWindow window(cfg.windowSize ? cfg.windowSize : 1);
    const bool windowed = cfg.windowSize > 0;

    int64_t highest_level = 0;
    int64_t deepest_level = -1;
    int32_t firewall_node = -1; // node that caused the current floor

    // Single-probe find-or-create (same scheme as Paragraph::step):
    // findOrInsert resolves the location in one hash walk instead of a
    // find() miss followed by a second full probe in insertOrAssign().
    auto slot_id_for = [&](uint64_t key, bool &fresh) -> uint32_t {
        auto [idx, inserted] = slot_index.findOrInsert(
            key, static_cast<uint32_t>(slots.size()));
        fresh = inserted;
        if (inserted)
            slots.emplace_back();
        return *idx;
    };
    auto slot_for = [&](uint64_t key, bool &fresh) -> BuilderSlot & {
        return slots[slot_id_for(key, fresh)];
    };

    for (size_t ri = 0; ri < buffer.size(); ++ri) {
        const TraceRecord &rec = buffer[ri];

        if (windowed) {
            int64_t displaced = window.willEnter();
            if (displaced != SlidingWindow::notPlaced &&
                displaced + 1 > highest_level) {
                highest_level = displaced + 1;
                // Control constraint now comes from the displaced op; node
                // identity is not tracked per displacement, so edges for
                // window firewalls are attributed to no node.
                firewall_node = -1;
            }
        }

        if (rec.isCondBranch() &&
            predictor.kind() != PredictorKind::Perfect &&
            !predictor.predictAndUpdate(rec.pc, rec.branchTaken())) {
            int64_t resolve = highest_level;
            for (int s = 0; s < rec.numSrcs; ++s) {
                bool fresh = false;
                BuilderSlot &slot = slot_for(locationKey(rec.src(s)), fresh);
                if (fresh) {
                    slot.level = highest_level - 1;
                    slot.deepestAccess = highest_level - 1;
                    slot.producer = -1;
                }
                if (slot.level + 1 > resolve)
                    resolve = slot.level + 1;
            }
            if (resolve > highest_level) {
                highest_level = resolve;
                firewall_node = -1; // branch records are not DDG nodes
            }
        }

        bool place = rec.createsValue();
        if (rec.isSysCall() && !cfg.sysCallsStall)
            place = false;

        int64_t placed_level = SlidingWindow::notPlaced;
        if (place) {
            uint32_t node_id = static_cast<uint32_t>(ddg.nodes.size());

            // True data dependencies. Slot indices are remembered so the
            // edge-emission and reader-update passes below reuse them
            // instead of re-probing the hash table per source.
            uint32_t src_slot[trace::maxSrcs] = {};
            int64_t issue = highest_level;
            bool floor_binding = true;
            for (int s = 0; s < rec.numSrcs; ++s) {
                bool fresh = false;
                uint32_t si = slot_id_for(locationKey(rec.src(s)), fresh);
                src_slot[s] = si;
                BuilderSlot &slot = slots[si];
                if (fresh) {
                    slot.level = highest_level - 1;
                    slot.deepestAccess = highest_level - 1;
                    slot.producer = -1;
                }
                if (slot.level + 1 > issue) {
                    issue = slot.level + 1;
                    floor_binding = false;
                }
            }

            // Storage dependency on the destination.
            const Operand dest = rec.dest();
            const bool has_dest = dest.valid();
            const uint64_t dkey = has_dest ? locationKey(dest) : 0;
            bool renamed = true;
            if (has_dest) {
                switch (dest.kind) {
                  case Operand::Kind::IntReg:
                  case Operand::Kind::FpReg:
                    renamed = cfg.renameRegisters;
                    break;
                  case Operand::Kind::Mem:
                    renamed = dest.seg == Segment::Stack
                                  ? cfg.renameStack
                                  : cfg.renameData;
                    break;
                  default:
                    break;
                }
            }
            bool storage_edges = false;
            uint32_t dest_slot = 0;
            if (has_dest && !renamed) {
                if (uint32_t *idx = slot_index.find(dkey)) {
                    dest_slot = *idx;
                    BuilderSlot &prev = slots[dest_slot];
                    if (prev.deepestAccess + 1 > issue) {
                        issue = prev.deepestAccess + 1;
                        floor_binding = false;
                    }
                    storage_edges = true;
                }
            }

            // Resource dependencies.
            const uint32_t top = cfg.latency[static_cast<size_t>(rec.cls)];
            if (throttle.enabled())
                issue = throttle.place(rec.cls, issue, top);
            const int64_t ldest = issue + static_cast<int64_t>(top) - 1;

            // Emit edges: one true edge per distinct producing node. Only
            // this record's sources can duplicate a producer, so checking
            // against the handful already emitted for node_id replaces the
            // old scan over every edge in the graph (O(edges) per record).
            int32_t emitted[trace::maxSrcs];
            int num_emitted = 0;
            for (int s = 0; s < rec.numSrcs; ++s) {
                const BuilderSlot &slot = slots[src_slot[s]];
                if (slot.producer < 0)
                    continue;
                bool dup = false;
                for (int e = 0; e < num_emitted; ++e) {
                    if (emitted[e] == slot.producer) {
                        dup = true;
                        break;
                    }
                }
                if (!dup) {
                    emitted[num_emitted++] = slot.producer;
                    ddg.edges.push_back(
                        Ddg::Edge{static_cast<uint32_t>(slot.producer),
                             node_id, DepKind::True});
                }
            }

            if (storage_edges) {
                BuilderSlot &prev = slots[dest_slot];
                if (prev.producer >= 0) {
                    ddg.edges.push_back(
                        Ddg::Edge{static_cast<uint32_t>(prev.producer), node_id,
                             DepKind::Storage});
                }
                for (uint32_t reader : prev.readers) {
                    if (reader != node_id) {
                        ddg.edges.push_back(
                            Ddg::Edge{reader, node_id, DepKind::Storage});
                    }
                }
            }

            if (floor_binding && highest_level > 0 && firewall_node >= 0) {
                ddg.edges.push_back(
                    Ddg::Edge{static_cast<uint32_t>(firewall_node), node_id,
                         DepKind::Control});
            }

            // Readers update.
            for (int s = 0; s < rec.numSrcs; ++s) {
                BuilderSlot &slot = slots[src_slot[s]];
                if (ldest > slot.deepestAccess)
                    slot.deepestAccess = ldest;
                slot.readers.push_back(node_id);
            }

            // Destination defines a new value.
            if (has_dest) {
                bool fresh = false;
                BuilderSlot &slot = slot_for(dkey, fresh);
                slot.level = ldest;
                slot.deepestAccess = ldest;
                slot.producer = static_cast<int32_t>(node_id);
                slot.readers.clear();
            }

            ddg.nodes.push_back(Ddg::Node{
                ri, ldest, issue, rec.cls, trace::toString(rec)});
            placed_level = ldest;
            if (ldest > deepest_level)
                deepest_level = ldest;

            if (rec.isSysCall() && cfg.sysCallsStall) {
                if (deepest_level + 1 > highest_level) {
                    highest_level = deepest_level + 1;
                    firewall_node = static_cast<int32_t>(node_id);
                }
            }
        }

        if (windowed)
            window.entered(placed_level);
    }

    ddg.criticalPathLength =
        deepest_level >= 0 ? static_cast<uint64_t>(deepest_level) + 1 : 0;
    return ddg;
}

} // namespace core
} // namespace paragraph
