/**
 * @file
 * paragraph-sweep argument parsing as a library.
 *
 * Extracted from tools/sweep_main.cpp so the parser (a) can be fuzzed —
 * the PARAGRAPH_FUZZ libFuzzer target drives parseSweepArgs() with
 * adversarial argument vectors, which a parser that printed-and-exited
 * could never survive — and (b) reports errors as values: every failure
 * path returns false with a message instead of calling exit(), leaving
 * usage text and process exit codes to the CLI shell.
 */

#ifndef PARAGRAPH_ENGINE_SWEEP_ARGS_HPP
#define PARAGRAPH_ENGINE_SWEEP_ARGS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "engine/sweep_json.hpp"

namespace paragraph {
namespace engine {

/** Everything the paragraph-sweep command line can express. */
struct SweepArgs
{
    std::vector<std::string> inputs;
    std::vector<uint64_t> windows;
    std::vector<std::string> renames;
    std::vector<std::string> syscalls;
    std::vector<std::string> predictors;
    std::vector<uint32_t> fus;
    uint64_t maxInstructions = 0;
    unsigned jobs = 0;
    unsigned group = 0;  // 0 = auto (one fused pass per worker share)
    unsigned shards = 1; // --shard=N as given; no cell reads it, kept for
                         // callers built against it
    unsigned retries = 0;
    double deadlineSeconds = 0.0;
    bool small = false;
    bool quiet = false;
    bool listRequested = false; ///< --list: print workloads and exit
    bool explore = false;       ///< adaptive exploration instead of the grid
    double kneeTol = 0.0;       ///< --knee-tol: parallelism tolerance for
                                ///< window-knee bracket collapse (0 = exact)
    std::string outPath;
    std::string journalPath;
    std::string resumePath;
    SweepJsonOptions json;
};

/**
 * The defaulted axis point lists behind one sweep grid: what
 * buildSweepConfigAxis crosses, in cross-product nesting order
 * (windows → renames → syscalls → predictors → fus). The explorer needs
 * the individual axes — not just the flattened config list — to decompose
 * a config index back into axis coordinates for its monotonicity
 * reasoning.
 */
struct SweepAxes
{
    std::vector<uint64_t> windows;
    std::vector<std::string> renames;
    std::vector<std::string> syscalls;
    std::vector<std::string> predictors;
    std::vector<uint32_t> fus;

    /** Grid size: the product of the axis lengths. */
    size_t points() const
    {
        return windows.size() * renames.size() * syscalls.size() *
               predictors.size() * fus.size();
    }
};

/** The axis lists @p opt expands to, with unspecified axes replaced by
 *  their single default point (the lists buildSweepConfigAxis crosses). */
SweepAxes defaultedSweepAxes(const SweepArgs &opt);

/**
 * Parse @p args (argv[1..]) into @p out. Never prints or exits.
 * @return false with @p error set on any malformed argument (including a
 *         grid with no inputs, unless --list was requested).
 */
bool parseSweepArgs(const std::vector<std::string> &args, SweepArgs &out,
                    std::string &error);

/**
 * Expand the parsed axes into the config cross product with one label per
 * cell. Unspecified axes contribute their single default point.
 * @return false with @p error set on a bad axis value.
 */
bool buildSweepConfigAxis(const SweepArgs &opt,
                          std::vector<core::AnalysisConfig> &configs,
                          std::vector<std::string> &labels,
                          std::string &error);

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_SWEEP_ARGS_HPP
