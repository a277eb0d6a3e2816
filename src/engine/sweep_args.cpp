#include "engine/sweep_args.hpp"

#include <cstdlib>

#include "support/string_utils.hpp"

namespace paragraph {
namespace engine {

namespace {

bool
parseIntList(const std::string &list, const char *flag,
             std::vector<uint64_t> &out, std::string &error)
{
    for (const std::string &piece : splitAndTrim(list, ',')) {
        int64_t n = 0;
        if (!parseInt(piece, n) || n < 0) {
            error = strFormat("bad %s value '%s'", flag, piece.c_str());
            return false;
        }
        out.push_back(static_cast<uint64_t>(n));
    }
    if (out.empty()) {
        error = strFormat("empty %s list", flag);
        return false;
    }
    return true;
}

/** Expand one point of the rename axis into config switches. */
bool
applyRename(core::AnalysisConfig &cfg, const std::string &value,
            std::string &error)
{
    if (value == "none") {
        cfg.renameRegisters = false;
        cfg.renameStack = false;
        cfg.renameData = false;
    } else if (value == "regs") {
        cfg.renameRegisters = true;
        cfg.renameStack = false;
        cfg.renameData = false;
    } else if (value == "stack") { // regs + stack (Table 4 column 3)
        cfg.renameRegisters = true;
        cfg.renameStack = true;
        cfg.renameData = false;
    } else if (value == "data" || value == "all") { // regs + all memory
        cfg.renameRegisters = true;
        cfg.renameStack = true;
        cfg.renameData = true;
    } else {
        error = strFormat("bad --rename value '%s'", value.c_str());
        return false;
    }
    return true;
}

bool
applyPredictor(core::AnalysisConfig &cfg, const std::string &value,
               std::string &error)
{
    if (value == "perfect")
        cfg.branchPredictor = core::PredictorKind::Perfect;
    else if (value == "bimodal")
        cfg.branchPredictor = core::PredictorKind::Bimodal;
    else if (value == "taken")
        cfg.branchPredictor = core::PredictorKind::AlwaysTaken;
    else if (value == "nottaken")
        cfg.branchPredictor = core::PredictorKind::NeverTaken;
    else if (value == "wrong")
        cfg.branchPredictor = core::PredictorKind::AlwaysWrong;
    else {
        error = strFormat("bad --predictors value '%s'", value.c_str());
        return false;
    }
    return true;
}

} // namespace

bool
parseSweepArgs(const std::vector<std::string> &args, SweepArgs &opt,
               std::string &error)
{
    for (const std::string &arg : args) {
        int64_t n = 0;
        if (arg == "--list") {
            opt.listRequested = true;
        } else if (startsWith(arg, "--inputs=")) {
            for (const std::string &s : splitAndTrim(arg.substr(9), ','))
                if (!s.empty())
                    opt.inputs.push_back(s);
        } else if (startsWith(arg, "--windows=")) {
            opt.windows.clear();
            if (!parseIntList(arg.substr(10), "--windows", opt.windows,
                              error))
                return false;
        } else if (startsWith(arg, "--rename=")) {
            opt.renames = splitAndTrim(arg.substr(9), ',');
        } else if (startsWith(arg, "--syscalls=")) {
            opt.syscalls = splitAndTrim(arg.substr(11), ',');
        } else if (startsWith(arg, "--predictors=")) {
            opt.predictors = splitAndTrim(arg.substr(13), ',');
        } else if (startsWith(arg, "--fus=")) {
            std::vector<uint64_t> raw;
            if (!parseIntList(arg.substr(6), "--fus", raw, error))
                return false;
            opt.fus.clear();
            for (uint64_t v : raw)
                opt.fus.push_back(static_cast<uint32_t>(v));
        } else if (startsWith(arg, "--jobs=") &&
                   parseInt(arg.substr(7), n) && n > 0) {
            opt.jobs = static_cast<unsigned>(n);
        } else if (startsWith(arg, "--group=") &&
                   parseInt(arg.substr(8), n) && n >= 0) {
            opt.group = static_cast<unsigned>(n);
        } else if (startsWith(arg, "--shard=") &&
                   parseInt(arg.substr(8), n) && n > 0) {
            // Accepted for old command lines: every cell runs one pass.
            opt.shards = static_cast<unsigned>(n);
        } else if (startsWith(arg, "--max=") && parseInt(arg.substr(6), n) &&
                   n >= 0) {
            opt.maxInstructions = static_cast<uint64_t>(n);
        } else if (startsWith(arg, "--out=")) {
            opt.outPath = arg.substr(6);
        } else if (startsWith(arg, "--retries=") &&
                   parseInt(arg.substr(10), n) && n >= 0) {
            opt.retries = static_cast<unsigned>(n);
        } else if (startsWith(arg, "--deadline=")) {
            char *end = nullptr;
            opt.deadlineSeconds = std::strtod(arg.c_str() + 11, &end);
            if (!end || *end != '\0' || opt.deadlineSeconds < 0.0) {
                error = strFormat("bad --deadline value '%s'",
                                  arg.c_str() + 11);
                return false;
            }
        } else if (startsWith(arg, "--journal=")) {
            opt.journalPath = arg.substr(10);
        } else if (startsWith(arg, "--resume=")) {
            opt.resumePath = arg.substr(9);
        } else if (arg == "--explore") {
            opt.explore = true;
        } else if (startsWith(arg, "--knee-tol=")) {
            char *end = nullptr;
            opt.kneeTol = std::strtod(arg.c_str() + 11, &end);
            if (!end || *end != '\0' || opt.kneeTol < 0.0 ||
                opt.kneeTol != opt.kneeTol) {
                error = strFormat("bad --knee-tol value '%s'",
                                  arg.c_str() + 11);
                return false;
            }
        } else if (arg == "--small") {
            opt.small = true;
        } else if (arg == "--stream") {
            // Accepted for old command lines: every trace file streams.
        } else if (arg == "--stats") {
            opt.json.stats = true;
        } else if (arg == "--no-timing") {
            opt.json.timing = false;
        } else if (arg == "--no-profiles") {
            opt.json.profiles = false;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (!startsWith(arg, "--")) {
            opt.inputs.push_back(arg);
        } else {
            error = strFormat("bad argument '%s'", arg.c_str());
            return false;
        }
    }
    if (opt.inputs.empty() && !opt.listRequested) {
        error = "no inputs given";
        return false;
    }
    return true;
}

SweepAxes
defaultedSweepAxes(const SweepArgs &opt)
{
    SweepAxes axes;
    axes.windows =
        opt.windows.empty() ? std::vector<uint64_t>{0} : opt.windows;
    axes.renames =
        opt.renames.empty() ? std::vector<std::string>{"data"} : opt.renames;
    axes.syscalls = opt.syscalls.empty() ? std::vector<std::string>{"stall"}
                                         : opt.syscalls;
    axes.predictors = opt.predictors.empty()
                          ? std::vector<std::string>{"perfect"}
                          : opt.predictors;
    axes.fus = opt.fus.empty() ? std::vector<uint32_t>{0} : opt.fus;
    return axes;
}

bool
buildSweepConfigAxis(const SweepArgs &opt,
                     std::vector<core::AnalysisConfig> &configs,
                     std::vector<std::string> &labels, std::string &error)
{
    SweepAxes axes = defaultedSweepAxes(opt);
    const std::vector<uint64_t> &windows = axes.windows;
    const std::vector<std::string> &renames = axes.renames;
    const std::vector<std::string> &syscalls = axes.syscalls;
    const std::vector<std::string> &predictors = axes.predictors;
    const std::vector<uint32_t> &fus = axes.fus;

    for (uint64_t w : windows) {
        for (const std::string &ren : renames) {
            for (const std::string &sys : syscalls) {
                for (const std::string &pred : predictors) {
                    for (uint32_t fu : fus) {
                        core::AnalysisConfig cfg;
                        cfg.windowSize = w;
                        if (!applyRename(cfg, ren, error))
                            return false;
                        if (sys != "stall" && sys != "ignore") {
                            error = strFormat("bad --syscalls value '%s'",
                                              sys.c_str());
                            return false;
                        }
                        cfg.sysCallsStall = (sys == "stall");
                        if (!applyPredictor(cfg, pred, error))
                            return false;
                        cfg.totalFuLimit = fu;
                        cfg.maxInstructions = opt.maxInstructions;
                        configs.push_back(cfg);

                        std::string label = "window=" +
                                            (w ? std::to_string(w)
                                               : std::string("unlimited"));
                        label += " rename=" + ren;
                        if (syscalls.size() > 1 || sys != "stall")
                            label += " syscalls=" + sys;
                        if (predictors.size() > 1 || pred != "perfect")
                            label += " predictor=" + pred;
                        if (fus.size() > 1 || fu != 0)
                            label += " fus=" + std::to_string(fu);
                        labels.push_back(label);
                    }
                }
            }
        }
    }
    return true;
}

} // namespace engine
} // namespace paragraph
