#include "serve/result_store.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "engine/sweep_json.hpp"
#include "support/failpoint.hpp"
#include "support/json_line.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace serve {

namespace {

constexpr const char *storeSchema = "paragraph-serve-store-v1";

std::string
renderEntry(const ResultKey &key, const std::string &cellJson)
{
    std::string line;
    engine::JsonOut os(line);
    os << "{\"trace_crc\": " << key.traceCrc
       << ", \"config_key\": " << key.configKey
       << ", \"profiles\": " << (key.profiles ? "true" : "false")
       << ", \"cell\": " << engine::quoted(cellJson) << "}\n";
    return line;
}

/** Parse one entry line; false if it is not a complete, well-formed entry. */
bool
parseEntry(const std::string &line, ResultKey &key, std::string &cellJson)
{
    JsonLineParser p(line);
    if (!p.parse())
        return false;
    uint64_t traceCrc = 0;
    uint64_t configKey = 0;
    bool profiles = false;
    const std::string *cell = p.str("cell");
    if (!p.num("trace_crc", traceCrc) || !p.num("config_key", configKey) ||
        !p.boolean("profiles", profiles) || !cell ||
        traceCrc > UINT32_MAX || configKey > UINT32_MAX)
        return false;
    key.traceCrc = static_cast<uint32_t>(traceCrc);
    key.configKey = static_cast<uint32_t>(configKey);
    key.profiles = profiles;
    cellJson = *cell;
    return true;
}

} // namespace

ResultStore::ResultStore(std::string path)
    : ResultStore(std::move(path), Options())
{
}

ResultStore::ResultStore(std::string path, Options opt)
    : path_(std::move(path)), opt_(opt),
      lastSync_(std::chrono::steady_clock::now())
{
    // a+ creates the file if needed without truncating an existing store;
    // the separate read handle keeps appends and lookups independent.
    append_ = std::fopen(path_.c_str(), "ab");
    if (!append_)
        PARA_FATAL("cannot open result store for append: %s", path_.c_str());
    read_ = std::fopen(path_.c_str(), "rb");
    if (!read_) {
        std::fclose(append_);
        append_ = nullptr;
        PARA_FATAL("cannot open result store for reading: %s", path_.c_str());
    }

    // Index every line. Offsets are tracked manually so damaged lines cost
    // nothing but a warning.
    std::string line;
    long offset = 0;
    size_t lineNo = 0;
    bool sawHeader = false;
    int c;
    for (;;) {
        line.clear();
        long lineStart = offset;
        while ((c = std::fgetc(read_)) != EOF && c != '\n')
            line += static_cast<char>(c);
        offset = lineStart + static_cast<long>(line.size()) + (c == '\n');
        if (line.empty() && c == EOF)
            break;
        ++lineNo;
        if (c == EOF) {
            // Torn final line (crash mid-append): drop it from the index
            // and terminate it on disk, so the next insert starts a clean
            // line instead of concatenating onto the fragment. The sealed
            // fragment is then just another malformed line future loads
            // warn about and skip.
            PARA_WARN("result store %s line %zu is truncated; dropped",
                      path_.c_str(), lineNo);
            if (std::fputc('\n', append_) == EOF ||
                std::fflush(append_) != 0)
                PARA_WARN("result store %s: cannot seal truncated line",
                          path_.c_str());
            break;
        }
        if (line.empty())
            continue;
        if (!sawHeader) {
            JsonLineParser p(line);
            const std::string *schema = p.parse() ? p.str("schema") : nullptr;
            if (!schema || *schema != storeSchema) {
                PARA_FATAL("%s is not a serve result store (expected "
                           "schema %s)",
                           path_.c_str(), storeSchema);
            }
            sawHeader = true;
            continue;
        }
        ResultKey key;
        std::string cellJson;
        if (!parseEntry(line, key, cellJson)) {
            PARA_WARN("result store %s line %zu is malformed; skipped",
                      path_.c_str(), lineNo);
            continue;
        }
        Entry &entry = index_[key]; // duplicate keys: newest position wins
        if (entry.hot)
            hotBytes_ -= entry.hotText.size();
        entry.offset = lineStart;
        entry.length = line.size();
        entry.hot = false;
        entry.hotText.clear();
        touch(entry, std::move(cellJson));
    }

    if (!sawHeader) {
        std::string header =
            std::string("{\"schema\": \"") + storeSchema + "\"}\n";
        if (std::fwrite(header.data(), 1, header.size(), append_) !=
                header.size() ||
            std::fflush(append_) != 0)
            PARA_FATAL("cannot write result store header: %s", path_.c_str());
    }
}

ResultStore::~ResultStore()
{
    // Buffered stdio reports a full disk only at flush/close; losing that
    // here would silently drop the final appends of the daemon's lifetime.
    if (append_) {
        if (std::fflush(append_) != 0)
            PARA_WARN("result store %s: flush failed on close; recent "
                      "entries may be lost",
                      path_.c_str());
        else if (opt_.syncPolicy != SyncPolicy::None &&
                 ::fsync(::fileno(append_)) != 0)
            PARA_WARN("result store %s: fsync failed on close; recent "
                      "entries may not be on the device",
                      path_.c_str());
        if (std::fclose(append_) != 0)
            PARA_WARN("result store %s: close failed; recent entries may "
                      "be lost",
                      path_.c_str());
    }
    if (read_)
        std::fclose(read_);
}

void
ResultStore::syncLocked()
{
    if (PARA_FAILPOINT("store.sync") || ::fsync(::fileno(append_)) != 0) {
        PARA_WARN("result store %s: fsync failed; acknowledged entries "
                  "may not survive a machine crash",
                  path_.c_str());
        return;
    }
    ++syncs_;
    lastSync_ = std::chrono::steady_clock::now();
}

void
ResultStore::touch(Entry &entry, std::string text)
{
    entry.lastUse = ++useCounter_;
    if (!entry.hot) {
        hotBytes_ += text.size();
        entry.hotText = std::move(text);
        entry.hot = true;
    }
    enforceBudget();
}

void
ResultStore::enforceBudget()
{
    if (opt_.memoryBudget == 0)
        return;
    while (hotBytes_ > opt_.memoryBudget) {
        Entry *victim = nullptr;
        for (auto &kv : index_) {
            if (!kv.second.hot)
                continue;
            if (!victim || kv.second.lastUse < victim->lastUse)
                victim = &kv.second;
        }
        if (!victim)
            return;
        hotBytes_ -= victim->hotText.size();
        victim->hotText.clear();
        victim->hotText.shrink_to_fit();
        victim->hot = false;
    }
}

bool
ResultStore::lookup(const ResultKey &key, std::string &cellJson)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end())
        return false;
    Entry &entry = it->second;
    if (entry.hot) {
        cellJson = entry.hotText;
        entry.lastUse = ++useCounter_;
        return true;
    }
    // Cold entry: re-read its line from disk and re-validate. A line that
    // no longer parses (external damage) degrades to a miss.
    std::string line(entry.length, '\0');
    if (std::fseek(read_, entry.offset, SEEK_SET) != 0 ||
        std::fread(line.data(), 1, line.size(), read_) != line.size()) {
        PARA_WARN("result store %s: cannot re-read entry at offset %ld",
                  path_.c_str(), entry.offset);
        return false;
    }
    ResultKey diskKey;
    bool parsed = parseEntry(line, diskKey, cellJson);
    bool sameKey = parsed && !(diskKey < key) && !(key < diskKey);
    if (!parsed || !sameKey) {
        PARA_WARN("result store %s: entry at offset %ld no longer parses; "
                  "treated as a miss",
                  path_.c_str(), entry.offset);
        cellJson.clear();
        return false;
    }
    touch(entry, cellJson);
    return true;
}

void
ResultStore::insert(const ResultKey &key, const std::string &cellJson)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.count(key))
        return;
    if (!append_ || writeFailed_)
        return;
    std::string entryLine = renderEntry(key, cellJson);
    if (std::fseek(append_, 0, SEEK_END) != 0) {
        writeFailed_ = true;
        PARA_WARN("result store %s: seek failed; caching disabled",
                  path_.c_str());
        return;
    }
    long offset = std::ftell(append_);
    if (PARA_FAILPOINT("store.append.torn")) {
        // Simulated crash mid-append: half the line reaches the file with
        // no terminating newline, exactly what a power cut during fwrite
        // leaves behind. The fragment is never indexed; the next open
        // seals and skips it.
        std::fwrite(entryLine.data(), 1, entryLine.size() / 2, append_);
        std::fflush(append_);
        writeFailed_ = true;
        PARA_WARN("result store %s: torn append (injected); caching "
                  "disabled",
                  path_.c_str());
        return;
    }
    if (offset < 0 || PARA_FAILPOINT("store.append.fail") ||
        std::fwrite(entryLine.data(), 1, entryLine.size(), append_) !=
            entryLine.size() ||
        std::fflush(append_) != 0) {
        writeFailed_ = true;
        PARA_WARN("result store %s: append failed; caching disabled",
                  path_.c_str());
        return;
    }
    ++appends_;
    if (opt_.syncPolicy == SyncPolicy::Cell) {
        syncLocked();
    } else if (opt_.syncPolicy == SyncPolicy::Interval) {
        auto now = std::chrono::steady_clock::now();
        std::chrono::duration<double> since = now - lastSync_;
        if (since.count() >= opt_.syncIntervalSeconds)
            syncLocked();
    }
    Entry &entry = index_[key];
    entry.offset = offset;
    entry.length = entryLine.size() - 1; // exclude the newline
    touch(entry, cellJson);
    if (opt_.compactEveryAppends != 0 &&
        ++appendsSinceCompact_ >= opt_.compactEveryAppends) {
        std::string error;
        if (!compactLocked(error))
            PARA_WARN("result store %s: compaction failed (%s); store "
                      "kept as-is",
                      path_.c_str(), error.c_str());
    }
}

bool
ResultStore::compact(std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return compactLocked(error);
}

bool
ResultStore::compactLocked(std::string &error)
{
    appendsSinceCompact_ = 0;

    // Stage 1: collect every live entry's text. Hot entries come from
    // memory; cold ones re-read through the old file handle. Unreadable
    // entries are dropped — compaction is the designated place to shed
    // damage, and lookup() already treats them as misses.
    std::vector<std::pair<ResultKey, std::string>> live;
    live.reserve(index_.size());
    for (auto it = index_.begin(); it != index_.end();) {
        Entry &entry = it->second;
        std::string cellJson;
        bool ok;
        if (entry.hot) {
            cellJson = entry.hotText;
            ok = true;
        } else {
            std::string line(entry.length, '\0');
            ResultKey diskKey;
            ok = std::fseek(read_, entry.offset, SEEK_SET) == 0 &&
                 std::fread(line.data(), 1, line.size(), read_) ==
                     line.size() &&
                 parseEntry(line, diskKey, cellJson) &&
                 !(diskKey < it->first) && !(it->first < diskKey);
        }
        if (!ok) {
            PARA_WARN("result store %s: entry at offset %ld is unreadable; "
                      "dropped by compaction",
                      path_.c_str(), entry.offset);
            if (entry.hot)
                hotBytes_ -= entry.hotText.size();
            it = index_.erase(it);
            continue;
        }
        live.emplace_back(it->first, std::move(cellJson));
        ++it;
    }

    // Stage 2: write header + live entries to a temp file and push it to
    // the device before it can replace anything.
    std::string tmpPath = path_ + ".compact.tmp";
    std::FILE *tmp = std::fopen(tmpPath.c_str(), "wb");
    if (!tmp) {
        error = "cannot create " + tmpPath;
        return false;
    }
    std::vector<long> offsets(live.size(), 0);
    std::string header = std::string("{\"schema\": \"") + storeSchema +
                         "\"}\n";
    bool failed =
        PARA_FAILPOINT("store.compact") ||
        std::fwrite(header.data(), 1, header.size(), tmp) != header.size();
    long offset = static_cast<long>(header.size());
    std::vector<std::string> lines(live.size());
    for (size_t i = 0; !failed && i < live.size(); ++i) {
        lines[i] = renderEntry(live[i].first, live[i].second);
        offsets[i] = offset;
        failed = std::fwrite(lines[i].data(), 1, lines[i].size(), tmp) !=
                 lines[i].size();
        offset += static_cast<long>(lines[i].size());
    }
    if (!failed)
        failed = std::fflush(tmp) != 0 || ::fsync(::fileno(tmp)) != 0;
    if (std::fclose(tmp) != 0)
        failed = true;
    if (failed) {
        std::remove(tmpPath.c_str());
        error = "cannot write " + tmpPath;
        return false;
    }

    // Stage 3: atomically replace the store, then reopen both handles on
    // the new file (the old descriptors still reference the old inode) and
    // fsync the directory so the rename itself survives a machine crash.
    if (std::rename(tmpPath.c_str(), path_.c_str()) != 0) {
        std::remove(tmpPath.c_str());
        error = "cannot rename " + tmpPath + " over " + path_;
        return false;
    }
    size_t slash = path_.find_last_of('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : path_.substr(0, slash ? slash : 1);
    int dirFd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (dirFd >= 0) {
        ::fsync(dirFd);
        ::close(dirFd);
    }
    std::fclose(append_);
    std::fclose(read_);
    append_ = std::fopen(path_.c_str(), "ab");
    read_ = append_ ? std::fopen(path_.c_str(), "rb") : nullptr;
    if (!append_ || !read_) {
        // The compacted file is on disk and intact; only this process can
        // no longer write to it.
        if (append_) {
            std::fclose(append_);
            append_ = nullptr;
        }
        writeFailed_ = true;
        error = "cannot reopen " + path_ + " after compaction";
        return false;
    }

    // Stage 4: point the index at the rewritten lines. The rewrite also
    // repairs append failures: the new file is clean and the handle fresh.
    size_t i = 0;
    for (auto &kv : index_) {
        kv.second.offset = offsets[i];
        kv.second.length = lines[i].size() - 1; // exclude the newline
        ++i;
    }
    writeFailed_ = false;
    ++compactions_;
    return true;
}

size_t
ResultStore::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

size_t
ResultStore::hotBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hotBytes_;
}

uint64_t
ResultStore::appends() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return appends_;
}

uint64_t
ResultStore::syncs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return syncs_;
}

uint64_t
ResultStore::compactions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return compactions_;
}

long
ResultStore::diskBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!read_ || std::fseek(read_, 0, SEEK_END) != 0)
        return -1;
    return std::ftell(read_);
}

} // namespace serve
} // namespace paragraph
