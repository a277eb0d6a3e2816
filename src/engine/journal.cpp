#include "engine/journal.hpp"

#include <fstream>

#include "engine/config_key.hpp"
#include "engine/sweep_json.hpp"
#include "support/failpoint.hpp"
#include "support/json_line.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace engine {

namespace {

constexpr const char *journalSchema = "paragraph-sweep-journal-v1";

} // namespace

const JournalEntry *
JournalData::findOk(size_t index, const SweepJob &job) const
{
    auto it = entries.find(index);
    if (it == entries.end())
        return nullptr;
    const JournalEntry &e = it->second;
    if (e.status != "ok" || e.input != job.input ||
        e.configLabel != job.configLabel)
        return nullptr;
    // Entries that recorded a config fingerprint must also match on it —
    // the label is only a human-readable alias, the key is the content.
    if (!e.configKey.empty() && e.configKey != configKeyHex(job.config))
        return nullptr;
    return &e;
}

JournalData
loadJournal(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        PARA_FATAL("cannot open sweep journal: %s", path.c_str());

    JournalData data;
    std::string line;
    size_t lineNo = 0;
    bool sawHeader = false;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        JsonLineParser p(line);
        if (!p.parse()) {
            PARA_WARN("journal %s line %zu is malformed; skipped",
                      path.c_str(), lineNo);
            continue;
        }
        if (!sawHeader) {
            const std::string *schema = p.str("schema");
            if (!schema || *schema != journalSchema) {
                PARA_FATAL("%s is not a sweep journal (expected schema %s)",
                           path.c_str(), journalSchema);
            }
            p.boolean("profiles", data.profiles);
            sawHeader = true;
            continue;
        }
        JournalEntry e;
        uint64_t index = 0;
        const std::string *input = p.str("input");
        const std::string *label = p.str("config_label");
        const std::string *status = p.str("status");
        if (!p.num("index", index) || !input || !label || !status ||
            (*status != "ok" && *status != "failed")) {
            PARA_WARN("journal %s line %zu has missing fields; skipped",
                      path.c_str(), lineNo);
            continue;
        }
        e.index = static_cast<size_t>(index);
        e.input = *input;
        e.configLabel = *label;
        e.status = *status;
        if (const std::string *key = p.str("config_key"))
            e.configKey = *key;
        uint64_t attempts = 1;
        p.num("attempts", attempts);
        e.attempts = static_cast<unsigned>(attempts);
        if (const std::string *err = p.str("error"))
            e.error = *err;
        const std::string *cell = p.str("cell");
        if (e.status == "ok") {
            if (!cell) {
                PARA_WARN("journal %s line %zu: ok entry without cell "
                          "JSON; skipped",
                          path.c_str(), lineNo);
                continue;
            }
            e.cellJson = *cell;
        }
        data.entries[e.index] = std::move(e); // last entry per index wins
    }
    if (!sawHeader)
        PARA_FATAL("sweep journal %s is empty or has no header line",
                   path.c_str());
    return data;
}

SweepJournal::SweepJournal(const std::string &path, bool profiles)
    : path_(path)
{
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_)
        PARA_FATAL("cannot open sweep journal for append: %s", path.c_str());
    if (std::fseek(file_, 0, SEEK_END) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        PARA_FATAL("cannot seek sweep journal: %s", path.c_str());
    }
    if (std::ftell(file_) == 0) {
        std::string header = std::string("{\"schema\": \"") + journalSchema +
                             "\", \"profiles\": " +
                             (profiles ? "true" : "false") + "}\n";
        if (std::fwrite(header.data(), 1, header.size(), file_) !=
                header.size() ||
            std::fflush(file_) != 0) {
            std::fclose(file_);
            file_ = nullptr;
            PARA_FATAL("cannot write sweep journal header: %s",
                       path.c_str());
        }
    }
}

SweepJournal::~SweepJournal()
{
    if (file_)
        std::fclose(file_);
}

void
SweepJournal::record(size_t index, const SweepCell &cell,
                     const std::string &cellJson)
{
    bool failed = cell.status == SweepCell::Status::Failed;
    std::string line;
    JsonOut os(line);
    os << "{\"index\": " << index << ", \"input\": " << quoted(cell.job.input)
       << ", \"config_label\": " << quoted(cell.job.configLabel)
       << ", \"config_key\": \"" << configKeyHex(cell.job.config)
       << "\", \"status\": \"" << (failed ? "failed" : "ok")
       << "\", \"attempts\": " << cell.attempts;
    if (failed)
        os << ", \"error\": " << quoted(cell.errorMessage);
    else
        os << ", \"cell\": " << quoted(cellJson);
    os << "}\n";

    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_ || writeFailed_)
        return;
    if (PARA_FAILPOINT("journal.write") ||
        std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0) {
        writeFailed_ = true;
        PARA_WARN("sweep journal write failed: %s (checkpointing disabled "
                  "for the rest of the sweep)",
                  path_.c_str());
    }
}

} // namespace engine
} // namespace paragraph
