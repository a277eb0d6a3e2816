// Config fingerprinting (engine/config_key.hpp): the canonical text and
// CRC-32 key that content-address analysis configs in the sweep journal and
// the paragraph-serve result store. The key must be stable run to run,
// sensitive to every semantic field, and collision-free across the config
// shapes the project actually sweeps.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/config.hpp"
#include "engine/config_key.hpp"
#include "engine/journal.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_args.hpp"

using namespace paragraph;
using core::AnalysisConfig;

TEST(ConfigKey, IsDeterministicAndVersioned)
{
    AnalysisConfig cfg;
    std::string text = engine::canonicalConfigText(cfg);
    EXPECT_EQ(text.rfind("paragraph-config-v1", 0), 0u)
        << "canonical text must lead with its format version";
    EXPECT_EQ(text, engine::canonicalConfigText(cfg));
    EXPECT_EQ(engine::configKey(cfg), engine::configKey(cfg));
    EXPECT_EQ(engine::configKeyHex(cfg), engine::configKeyHex(cfg));
    EXPECT_EQ(engine::configKeyHex(cfg).size(), 8u);
}

TEST(ConfigKey, CancelTokenIsNotPartOfTheIdentity)
{
    // The cancel pointer is plumbing, not analysis semantics: the same
    // config with and without a token must cache under the same address.
    AnalysisConfig cfg;
    uint32_t bare = engine::configKey(cfg);
    core::CancelToken token;
    cfg.cancel = &token;
    EXPECT_EQ(engine::configKey(cfg), bare);
}

TEST(ConfigKey, EverySemanticFieldChangesTheKey)
{
    AnalysisConfig base;
    uint32_t baseKey = engine::configKey(base);

    auto differs = [&](AnalysisConfig cfg, const char *what) {
        EXPECT_NE(engine::configKey(cfg), baseKey) << what;
    };

    AnalysisConfig c = base;
    c.sysCallsStall = !c.sysCallsStall;
    differs(c, "sysCallsStall");

    c = base;
    c.renameRegisters = !c.renameRegisters;
    differs(c, "renameRegisters");

    c = base;
    c.renameData = !c.renameData;
    differs(c, "renameData");

    c = base;
    c.renameStack = !c.renameStack;
    differs(c, "renameStack");

    c = base;
    c.windowSize = c.windowSize + 1;
    differs(c, "windowSize");

    c = base;
    c.branchPredictor = core::PredictorKind::AlwaysWrong;
    differs(c, "branchPredictor");

    c = base;
    c.predictorTableBits = c.predictorTableBits + 1;
    differs(c, "predictorTableBits");

    c = base;
    c.fuLimit[0] = c.fuLimit[0] + 1;
    differs(c, "fuLimit");

    c = base;
    c.totalFuLimit = c.totalFuLimit + 1;
    differs(c, "totalFuLimit");

    c = base;
    c.pipelinedFus = !c.pipelinedFus;
    differs(c, "pipelinedFus");

    c = base;
    c.latency[0] = c.latency[0] + 1;
    differs(c, "latency");

    c = base;
    c.maxInstructions = c.maxInstructions + 1;
    differs(c, "maxInstructions");

    c = base;
    c.profileBins = c.profileBins + 1;
    differs(c, "profileBins");

    c = base;
    c.useLastUseEviction = !c.useLastUseEviction;
    differs(c, "useLastUseEviction");
}

TEST(ConfigKey, KeepsTheMetricFlagsEveryStoredKeyCarries)
{
    // Every key in an existing store or journal was computed with the
    // lifetime, sharing and storage-profile flags set; the text keeps them
    // as fixed values in their old place.
    const std::string text = engine::canonicalConfigText(AnalysisConfig());
    EXPECT_NE(text.find(";profile_bins=4096;lifetimes=1;sharing=1;"
                        "storage_profile=1;last_use_eviction=0"),
              std::string::npos)
        << text;
}

TEST(ConfigKey, DistributionsSwitchIsNotPartOfTheIdentity)
{
    // A sweep cell runs without full distributions, but renders the same
    // fields, so it must cache under the key of the config it was asked.
    AnalysisConfig cfg;
    cfg.windowSize = 64;
    const std::string text = engine::canonicalConfigText(cfg);
    cfg.distributions = !cfg.distributions;
    EXPECT_EQ(engine::canonicalConfigText(cfg), text);
    EXPECT_EQ(engine::configKeyHex(cfg),
              engine::configKeyHex(AnalysisConfig::windowed(64)));
}

namespace {

/** The configs, in grid order, that a paragraph-sweep command line with
 *  @p axes expands to (the daemon's requests build theirs the same way). */
std::vector<AnalysisConfig>
gridConfigs(std::vector<std::string> axes)
{
    axes.insert(axes.begin(), "--inputs=xlisp");
    engine::SweepArgs args;
    std::string error;
    EXPECT_TRUE(engine::parseSweepArgs(axes, args, error)) << error;
    std::vector<AnalysisConfig> configs;
    std::vector<std::string> labels;
    EXPECT_TRUE(engine::buildSweepConfigAxis(args, configs, labels, error))
        << error;
    return configs;
}

std::vector<std::string>
keysOf(const std::vector<AnalysisConfig> &configs)
{
    std::vector<std::string> keys;
    for (const AnalysisConfig &cfg : configs)
        keys.push_back(engine::configKeyHex(cfg));
    return keys;
}

} // namespace

TEST(ConfigKey, KeysOfExistingStoresArePinned)
{
    // Literal keys that existing journals and result stores hold: the
    // default config, the 8-cell sweep grid and the daemon's 32-cell warm
    // grid that perfbench runs (at its 1M-instruction cap). A change to
    // the canonical text, or to how an axis builds its config, moves them
    // and turns every stored cell into a miss.
    EXPECT_EQ(engine::configKeyHex(AnalysisConfig()), "403561ee");

    const std::vector<std::string> sweep = {
        "15f5491f", "763a7634", "e9a449ef", "457b7f90",
        "df1805d9", "73c733a6", "1f87df80", "df916c1b",
    };
    EXPECT_EQ(keysOf(gridConfigs({"--windows=0,16,64,256",
                                  "--rename=none,data", "--max=1000000"})),
              sweep);

    const std::vector<std::string> warm = {
        "15f5491f", "713a995b", "fdf4858f", "993b55cb", "392019b6",
        "5defc9f2", "763a7634", "12f5a670", "e9a449ef", "987103b6",
        "1943db67", "6896913e", "468287f3", "3757cdaa", "457b7f90",
        "34ae35c9", "df1805d9", "aecd4f80", "2fff9751", "5e2add08",
        "703ecbc5", "01eb819c", "73c733a6", "021279ff", "1f87df80",
        "0d41e39a", "fc143300", "eed20f1a", "0b29a501", "19ef991b",
        "df916c1b", "cd575001",
    };
    EXPECT_EQ(keysOf(gridConfigs({"--windows=0,16,64,256",
                                  "--rename=none,regs,stack,data",
                                  "--syscalls=stall,ignore",
                                  "--max=1000000"})),
              warm);
}

TEST(ConfigKey, FuzzOracleMatrixIsCollisionFree)
{
    // The eight config shapes the fuzz oracle crosses every generated
    // trace with (src/fuzz/invariant_oracle.cpp buildMatrix) must all land
    // on distinct keys — these are the configs most likely to coexist in
    // one result store.
    std::vector<AnalysisConfig> matrix;
    AnalysisConfig base;
    matrix.push_back(base);

    AnalysisConfig w = base;
    w.windowSize = 16;
    matrix.push_back(w);
    w.windowSize = 64;
    matrix.push_back(w);

    AnalysisConfig rn = base;
    rn.renameRegisters = rn.renameData = rn.renameStack = false;
    matrix.push_back(rn);
    rn.renameRegisters = true;
    matrix.push_back(rn);

    AnalysisConfig sc = base;
    sc.sysCallsStall = false;
    matrix.push_back(sc);

    AnalysisConfig fu = base;
    fu.totalFuLimit = 2;
    matrix.push_back(fu);

    AnalysisConfig bp = base;
    bp.branchPredictor = core::PredictorKind::AlwaysWrong;
    matrix.push_back(bp);

    ASSERT_EQ(matrix.size(), 8u);
    std::set<uint32_t> keys;
    std::set<std::string> texts;
    for (const AnalysisConfig &cfg : matrix) {
        keys.insert(engine::configKey(cfg));
        texts.insert(engine::canonicalConfigText(cfg));
    }
    EXPECT_EQ(texts.size(), matrix.size()) << "canonical texts collided";
    EXPECT_EQ(keys.size(), matrix.size()) << "CRC-32 keys collided";
}

TEST(ConfigKey, JournalEntriesMatchOnFingerprintNotJustLabel)
{
    // Two different configs can share a label (labels elide axes at their
    // defaults); the journal must refuse to splice a cell whose recorded
    // fingerprint disagrees with the job it is asked to satisfy.
    engine::SweepJob job;
    job.input = "xlisp";
    job.configLabel = "window=16";
    job.config.windowSize = 16;

    engine::JournalEntry entry;
    entry.index = 0;
    entry.input = "xlisp";
    entry.configLabel = "window=16";
    entry.status = "ok";
    entry.cellJson = "{}";

    engine::JournalData data;

    // A pre-fingerprint entry (no config_key) still matches by position,
    // input, and label — old journals stay resumable.
    data.entries[0] = entry;
    EXPECT_NE(data.findOk(0, job), nullptr);

    // The right fingerprint matches; a wrong one is rejected even though
    // every other field agrees.
    entry.configKey = engine::configKeyHex(job.config);
    data.entries[0] = entry;
    EXPECT_NE(data.findOk(0, job), nullptr);

    engine::SweepJob other = job;
    other.config.sysCallsStall = !other.config.sysCallsStall;
    EXPECT_EQ(data.findOk(0, other), nullptr);
}
