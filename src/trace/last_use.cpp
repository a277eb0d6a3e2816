#include "trace/last_use.hpp"

#include "support/flat_hash_map.hpp"
#include "trace/record.hpp"

namespace paragraph {
namespace trace {

uint64_t
annotateLastUses(TraceBuffer &buffer)
{
    // seen[L] == true means: walking backward, we already passed a read of
    // the value that is live in L at this point of the forward trace.
    FlatHashMap<uint64_t, uint8_t> seen;
    uint64_t marked = 0;

    auto &records = buffer.records();
    for (size_t i = records.size(); i-- > 0;) {
        TraceRecord &rec = records[i];
        rec.lastUseMask = 0;

        // The write happens after this instruction's reads, so process it
        // first when moving backward: reads found earlier in the trace
        // belong to the previous value in this location.
        if (rec.createsValue() && rec.hasDest())
            seen.erase(locationKey(rec.dest()));

        for (int s = 0; s < rec.numSrcs; ++s) {
            uint64_t key = locationKey(rec.src(s));
            uint8_t *flag = seen.find(key);
            if (!flag) {
                rec.lastUseMask |= static_cast<uint8_t>(1u << s);
                seen.insertOrAssign(key, 1);
                ++marked;
            }
        }
    }
    return marked;
}

} // namespace trace
} // namespace paragraph
