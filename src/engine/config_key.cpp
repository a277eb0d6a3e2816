#include "engine/config_key.hpp"

#include "core/branch_predictor.hpp"
#include "support/crc32.hpp"
#include "support/string_utils.hpp"

namespace paragraph {
namespace engine {

std::string
canonicalConfigText(const core::AnalysisConfig &cfg)
{
    // Fixed field order, fixed encodings. The text is versioned so a future
    // field addition changes every key instead of silently colliding with
    // pre-existing stores.
    std::string s = "paragraph-config-v1";
    auto flag = [&s](const char *name, bool v) {
        s += ';';
        s += name;
        s += v ? "=1" : "=0";
    };
    auto num = [&s](const char *name, uint64_t v) {
        s += ';';
        s += name;
        s += '=';
        s += std::to_string(v);
    };

    flag("syscalls_stall", cfg.sysCallsStall);
    flag("rename_regs", cfg.renameRegisters);
    flag("rename_data", cfg.renameData);
    flag("rename_stack", cfg.renameStack);
    num("window", cfg.windowSize);
    s += ";predictor=";
    s += core::predictorKindName(cfg.branchPredictor);
    num("predictor_bits", cfg.predictorTableBits);
    s += ";fu_limit=";
    for (size_t i = 0; i < cfg.fuLimit.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(cfg.fuLimit[i]);
    }
    num("total_fus", cfg.totalFuLimit);
    flag("pipelined_fus", cfg.pipelinedFus);
    s += ";latency=";
    for (size_t i = 0; i < cfg.latency.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(cfg.latency[i]);
    }
    num("max_instructions", cfg.maxInstructions);
    num("profile_bins", cfg.profileBins);
    // Every stored key was computed with these three metric-collection
    // flags set, so they stay as fixed text. AnalysisConfig::distributions
    // is not part of the identity: no rendered cell field depends on it.
    s += ";lifetimes=1;sharing=1;storage_profile=1";
    flag("last_use_eviction", cfg.useLastUseEviction);
    return s;
}

uint32_t
configKey(const core::AnalysisConfig &cfg)
{
    std::string text = canonicalConfigText(cfg);
    return crc32Of(text.data(), text.size());
}

std::string
configKeyHex(const core::AnalysisConfig &cfg)
{
    return strFormat("%08x", configKey(cfg));
}

} // namespace engine
} // namespace paragraph
