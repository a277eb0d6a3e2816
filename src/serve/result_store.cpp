#include "serve/result_store.hpp"

#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "engine/sweep_json.hpp"
#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/json_line.hpp"
#include "support/panic.hpp"

namespace paragraph {
namespace serve {

namespace {

constexpr const char *storeSchema = "paragraph-serve-store-v1";

/** Bytes the constructor reads the store in. */
constexpr size_t kLoadBlock = size_t{1} << 20;

/** What follows an entry's wire text on its line. */
constexpr std::string_view kEntryTail = "\"}\n";

/** An entry line up to its wire text: the key, the checksum of @p wire,
 *  and the opening quote of "cell". */
std::string
entryHead(const ResultKey &key, std::string_view wire)
{
    std::string head;
    engine::JsonOut os(head);
    os << "{\"trace_crc\": " << key.traceCrc
       << ", \"config_key\": " << key.configKey
       << ", \"profiles\": " << (key.profiles ? "true" : "false")
       << ", \"cell_crc\": " << crc32Of(wire.data(), wire.size())
       << ", \"cell\": \"";
    return head;
}

/** Write @p key's entry line around @p wire to @p f, setting @p length to
 *  its bytes before the newline. @return false on a short write. */
bool
writeEntry(std::FILE *f, const ResultKey &key, std::string_view wire,
           size_t &length)
{
    const std::string head = entryHead(key, wire);
    length = head.size() + wire.size() + kEntryTail.size() - 1;
    return std::fwrite(head.data(), 1, head.size(), f) == head.size() &&
           std::fwrite(wire.data(), 1, wire.size(), f) == wire.size() &&
           std::fwrite(kEntryTail.data(), 1, kEntryTail.size(), f) ==
               kEntryTail.size();
}

/**
 * Parse one entry line into its key and its cell's wire text. The cell is
 * re-escaped from its parsed value rather than copied from the line, so a
 * hand-edited escape (`\/`, `\u0041`) serves the bytes a fresh render
 * would. A line with "cell_crc" must match it; lines written before the
 * field existed carry none and load unchecked.
 * @return nullptr, or why the line cannot be served.
 */
const char *
parseEntry(std::string_view line, ResultKey &key, std::string &wire)
{
    JsonLineParser p(line);
    if (!p.parse())
        return "is malformed";
    uint64_t traceCrc = 0;
    uint64_t configKey = 0;
    uint64_t cellCrc = 0;
    bool profiles = false;
    const std::string *cell = p.str("cell");
    if (!p.num("trace_crc", traceCrc) || !p.num("config_key", configKey) ||
        !p.boolean("profiles", profiles) || !cell ||
        traceCrc > UINT32_MAX || configKey > UINT32_MAX)
        return "is malformed";
    key.traceCrc = static_cast<uint32_t>(traceCrc);
    key.configKey = static_cast<uint32_t>(configKey);
    key.profiles = profiles;
    wire.clear();
    engine::appendJsonEscaped(wire, *cell);
    if (p.num("cell_crc", cellCrc) &&
        cellCrc != crc32Of(wire.data(), wire.size()))
        return "fails its cell checksum";
    return nullptr;
}

bool
sameKey(const ResultKey &a, const ResultKey &b)
{
    return !(a < b) && !(b < a);
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

    // Index every line, reading the file a block at a time. Offsets are
    // tracked manually so damaged lines cost nothing but a warning.
    std::string buf;  // unconsumed bytes, from file offset `base`
    long base = 0;
    size_t start = 0; // first byte of the next line in buf
    size_t scan = 0;  // bytes of buf already searched for a newline
    bool eof = false;
    size_t lineNo = 0;
    bool sawHeader = false;
    std::string wire;
    for (;;) {
        size_t nl = buf.find('\n', scan);
        if (nl == std::string::npos) {
            if (eof) {
                if (start == buf.size())
                    break;
                // Torn final line (crash mid-append): drop it from the
                // index and terminate it on disk, so the next insert
                // starts a clean line instead of concatenating onto the
                // fragment. The sealed fragment is then just another
                // malformed line future loads warn about and skip.
                PARA_WARN("result store %s line %zu is truncated; dropped",
                          path_.c_str(), lineNo + 1);
                if (std::fputc('\n', append_) == EOF ||
                    std::fflush(append_) != 0)
                    PARA_WARN("result store %s: cannot seal truncated line",
                              path_.c_str());
                break;
            }
            buf.erase(0, start);
            base += static_cast<long>(start);
            start = 0;
            scan = buf.size();
            buf.resize(scan + kLoadBlock);
            const size_t got =
                std::fread(buf.data() + scan, 1, kLoadBlock, read_);
            buf.resize(scan + got);
            eof = got == 0;
            continue;
        }
        const std::string_view line(buf.data() + start, nl - start);
        const long lineStart = base + static_cast<long>(start);
        start = scan = nl + 1;
        ++lineNo;
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
        if (const char *why = parseEntry(line, key, wire)) {
            PARA_WARN("result store %s line %zu %s; skipped", path_.c_str(),
                      lineNo, why);
            ++rejected_;
            continue;
        }
        Entry &entry = index_[key]; // duplicate keys: newest position wins
        cool(entry);
        entry.offset = lineStart;
        entry.length = line.size();
        makeHot(entry,
                std::make_shared<const std::string>(std::move(wire)));
        wire = std::string();
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
ResultStore::makeHot(Entry &entry, WireText text)
{
    hotBytes_ += text->size();
    entry.hot = std::move(text);
    entry.lru = lru_.insert(lru_.end(), &entry);
    enforceBudget();
}

void
ResultStore::cool(Entry &entry)
{
    if (!entry.hot)
        return;
    lru_.erase(entry.lru);
    hotBytes_ -= entry.hot->size();
    entry.hot.reset(); // a response in flight keeps its own reference
}

void
ResultStore::enforceBudget()
{
    if (opt_.memoryBudget == 0)
        return;
    while (hotBytes_ > opt_.memoryBudget && !lru_.empty())
        cool(*lru_.front());
}

bool
ResultStore::readCold(const ResultKey &key, const Entry &entry,
                      std::string &wire)
{
    ++coldReads_;
    std::string line(entry.length, '\0');
    ResultKey diskKey;
    const char *why = nullptr;
    if (!read_ || std::fseek(read_, entry.offset, SEEK_SET) != 0 ||
        std::fread(line.data(), 1, line.size(), read_) != line.size())
        why = "cannot be re-read";
    else if (!(why = parseEntry(line, diskKey, wire)) &&
             !sameKey(diskKey, key))
        why = "holds another key";
    if (!why)
        return true;
    PARA_WARN("result store %s: entry at offset %ld %s; dropped",
              path_.c_str(), entry.offset, why);
    ++rejected_;
    return false;
}

ResultStore::Index::iterator
ResultStore::drop(Index::iterator it)
{
    cool(it->second);
    return index_.erase(it);
}

ResultStore::WireText
ResultStore::lookupWire(const ResultKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end())
        return nullptr;
    Entry &entry = it->second;
    if (entry.hot) {
        lru_.splice(lru_.end(), lru_, entry.lru); // now the newest use
        return entry.hot;
    }
    // Cold entry: re-read its line from disk and re-validate it. A line
    // that no longer holds its cell (external damage) is a miss, and the
    // entry goes, so the recomputed cell is appended again.
    std::string wire;
    if (!readCold(key, entry, wire)) {
        drop(it);
        return nullptr;
    }
    WireText text = std::make_shared<const std::string>(std::move(wire));
    makeHot(entry, text); // may evict it again under a tiny budget
    return text;
}

bool
ResultStore::lookup(const ResultKey &key, std::string &cellJson)
{
    WireText wire = lookupWire(key);
    if (!wire)
        return false;
    cellJson.clear();
    appendJsonUnescaped(cellJson, *wire);
    return true;
}

void
ResultStore::insert(const ResultKey &key, const std::string &cellJson)
{
    auto wire = std::make_shared<std::string>();
    engine::appendJsonEscaped(*wire, cellJson);
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.count(key))
        return;
    if (!append_ || writeFailed_)
        return;
    if (std::fseek(append_, 0, SEEK_END) != 0) {
        writeFailed_ = true;
        PARA_WARN("result store %s: seek failed; caching disabled",
                  path_.c_str());
        return;
    }
    long offset = std::ftell(append_);
    if (PARA_FAILPOINT("store.append.torn")) {
        // Simulated crash mid-append: part of the line reaches the file
        // with no terminating newline, exactly what a power cut during
        // fwrite leaves behind. The fragment is never indexed; the next
        // open seals and skips it.
        const std::string head = entryHead(key, *wire);
        std::fwrite(head.data(), 1, head.size(), append_);
        std::fwrite(wire->data(), 1, wire->size() / 2, append_);
        std::fflush(append_);
        writeFailed_ = true;
        PARA_WARN("result store %s: torn append (injected); caching "
                  "disabled",
                  path_.c_str());
        return;
    }
    size_t length = 0;
    if (offset < 0 || PARA_FAILPOINT("store.append.fail") ||
        !writeEntry(append_, key, *wire, length) ||
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
    entry.length = length;
    makeHot(entry, std::move(wire));
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

    // Stage 1: write the header and one line per live entry to a temp
    // file, straight from each entry's wire text: hot entries from
    // memory, cold ones re-read (and re-validated) through the old file
    // handle, one at a time. Unreadable entries are dropped — compaction
    // is the designated place to shed damage, and lookups already treat
    // them as misses. The file is pushed to the device before it can
    // replace anything.
    std::string tmpPath = path_ + ".compact.tmp";
    std::FILE *tmp = std::fopen(tmpPath.c_str(), "wb");
    if (!tmp) {
        error = "cannot create " + tmpPath;
        return false;
    }
    std::string header = std::string("{\"schema\": \"") + storeSchema +
                         "\"}\n";
    bool failed =
        PARA_FAILPOINT("store.compact") ||
        std::fwrite(header.data(), 1, header.size(), tmp) != header.size();
    long offset = static_cast<long>(header.size());
    std::vector<std::pair<long, size_t>> placed; // per surviving entry
    placed.reserve(index_.size());
    std::string coldWire;
    for (auto it = index_.begin(); !failed && it != index_.end();) {
        Entry &entry = it->second;
        if (!entry.hot && !readCold(it->first, entry, coldWire)) {
            it = drop(it);
            continue;
        }
        size_t length = 0;
        failed = !writeEntry(tmp, it->first,
                             entry.hot ? *entry.hot : coldWire, length);
        placed.emplace_back(offset, length);
        offset += static_cast<long>(length + 1);
        ++it;
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

    // Stage 2: atomically replace the store, then reopen both handles on
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

    // Stage 3: point the index at the rewritten lines. The rewrite also
    // repairs append failures: the new file is clean and the handle fresh.
    size_t i = 0;
    for (auto &kv : index_) {
        kv.second.offset = placed[i].first;
        kv.second.length = placed[i].second;
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

uint64_t
ResultStore::coldReads() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return coldReads_;
}

uint64_t
ResultStore::rejectedEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_;
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
