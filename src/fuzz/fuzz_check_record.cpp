// libFuzzer entry point for trace::checkRecord (PARAGRAPH_FUZZ=ON).
//
// The reader's contract: any 48-byte pattern either passes the record
// range checks or throws FatalError naming the defect — never UB — and
// the bulk SIMD scan (packedRecordsValid) over the input's records reaches
// the same verdict as the scalar check. Run under ASan+UBSan:
//
//   clang++ ... -fsanitize=fuzzer,address,undefined
//   ./fuzz_check_record -max_len=4096 corpus/

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/panic.hpp"
#include "trace/record.hpp"
#include "trace/validate.hpp"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    using namespace paragraph;

    std::vector<trace::TraceRecord> recs(size / sizeof(trace::TraceRecord));
    std::memcpy(recs.data(), data, recs.size() * sizeof(trace::TraceRecord));
    bool allValid = true;
    for (const trace::TraceRecord &rec : recs) {
        try {
            trace::checkRecord(rec);
            // Anything accepted must be safe to render.
            (void)trace::toString(rec);
        } catch (const FatalError &) {
            // Rejection with a diagnostic is the correct outcome for
            // malformed bytes.
            allValid = false;
        }
    }
    if (allValid != trace::packedRecordsValid(recs.data(), recs.size()))
        PARA_PANIC("scalar and bulk record checks disagree");
    return 0;
}
