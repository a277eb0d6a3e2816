/**
 * @file
 * ResultStore: the daemon's content-addressed cell cache.
 *
 * Every Ok cell the daemon ever computes is stored under its *content*
 * address — the CRC-32 of the trace's packed records plus the CRC-32 of the
 * canonical config text (engine/config_key.hpp) plus the profiles flag that
 * selects the cell rendering. Nothing about the key involves input spec
 * strings, request shapes, or time, so any client asking for a cell that
 * any client has ever computed gets the original bytes back, even across
 * daemon restarts.
 *
 * Persistence is an append-only JSONL file in the journal's mold: a schema
 * header line, then one self-contained entry per line, flushed as written.
 * Each line carries the CRC-32 of its cell text ("cell_crc"), checked on
 * load and on every re-read. Loading tolerates torn, corrupt or
 * checksum-failing lines (a crash mid-append loses at most the line being
 * written; everything else re-serves, and a damaged cell is a miss that
 * is recomputed and re-appended), and duplicate keys resolve to the newest
 * entry. The in-memory index holds every entry's file position; entry
 * *text* is kept hot only up to Options::memoryBudget bytes (LRU), older
 * entries re-read from disk on demand — the index stays small even when
 * the store grows far past RAM.
 *
 * Hot text is held in wire form: the cell escaped as the inside of a JSON
 * string literal, exactly the bytes its line holds between the quotes of
 * "cell" and exactly what a daemon response carries, as one shared
 * immutable string. A hit takes a reference, not a copy; eviction drops
 * only the store's reference, so a response in flight keeps its text.
 */

#ifndef PARAGRAPH_SERVE_RESULT_STORE_HPP
#define PARAGRAPH_SERVE_RESULT_STORE_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace paragraph {
namespace serve {

/**
 * When appended entries are pushed past the OS page cache to the device.
 * Every policy flushes stdio buffers per entry (a daemon crash never loses
 * an acknowledged append); the policy only controls fsync, i.e. what a
 * *machine* crash can take with it.
 */
enum class SyncPolicy
{
    None,     ///< never fsync; machine crash may lose recent entries
    Interval, ///< fsync at most once per syncIntervalSeconds, on append
    Cell,     ///< fsync after every appended entry
};

/** Content address of one cell result. */
struct ResultKey
{
    uint32_t traceCrc = 0;  ///< trace::traceBufferCrc of the input's records
    uint32_t configKey = 0; ///< engine::configKey of the analysis config
    bool profiles = false;  ///< cell rendered with profile buckets?

    bool
    operator<(const ResultKey &o) const
    {
        if (traceCrc != o.traceCrc)
            return traceCrc < o.traceCrc;
        if (configKey != o.configKey)
            return configKey < o.configKey;
        return profiles < o.profiles;
    }
};

class ResultStore
{
  public:
    /** A cell's text in wire form (see the file comment), shared. */
    using WireText = std::shared_ptr<const std::string>;

    struct Options
    {
        /** Byte budget for hot entry text, counted in wire form (escapes
         *  make it ~9% larger than the cell text); 0 = keep everything
         *  resident. The index (a few dozen bytes per entry) is never
         *  evicted. */
        size_t memoryBudget = 0;

        /** Device-durability policy for appended entries. */
        SyncPolicy syncPolicy = SyncPolicy::None;

        /** Minimum seconds between fsyncs under SyncPolicy::Interval. */
        double syncIntervalSeconds = 5.0;

        /** Compact automatically after this many appends; 0 = only when
         *  compact() is called explicitly. */
        size_t compactEveryAppends = 0;
    };

    /**
     * Open (creating if absent) the store at @p path and index every
     * parseable entry whose checksum holds. Throws FatalError if the file
     * cannot be opened or carries the wrong schema header; damaged entry
     * lines are warned about (by line number) and skipped.
     */
    explicit ResultStore(std::string path);
    ResultStore(std::string path, Options opt);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * The wire text stored under @p key: a reference to the hot text
     * (taken under the lock, no copy), or the entry's line re-read from
     * disk and re-validated, which makes it hot.
     * @return null on a miss. An entry whose on-disk line has since been
     *         damaged is a miss too, and is dropped from the index, so the
     *         caller's recomputed cell is appended again.
     */
    WireText lookupWire(const ResultKey &key);

    /** lookupWire(), with the cell text unescaped into @p cellJson.
     *  @return false on a miss. */
    bool lookup(const ResultKey &key, std::string &cellJson);

    /**
     * Append @p cellJson under @p key and flush. A key already present is
     * left alone (first write wins — identical by construction, since the
     * key is the content address of everything that determines the text).
     * The cell is escaped once; its line is written around those bytes,
     * which stay hot as the entry's wire text.
     */
    void insert(const ResultKey &key, const std::string &cellJson);

    /**
     * Rewrite the store as exactly one line per indexed key — dropping
     * superseded duplicates, damaged lines, and sealed torn fragments —
     * via a temp file that is fsynced and atomically renamed over the
     * store, so a crash at any point leaves either the old file or the
     * new one, never a mixture. Entries whose on-disk line can no longer
     * be read are dropped from the index with a warning.
     * @return false (with @p error set) if compaction could not complete;
     *         the existing store is untouched and stays in service.
     */
    bool compact(std::string &error);

    /** Entries indexed. */
    size_t entries() const;

    /** Bytes of entry text currently hot, in wire form. */
    size_t hotBytes() const;

    /** Entries appended since open (survives compaction). */
    uint64_t appends() const;

    /** fsync calls issued by the durability policy. */
    uint64_t syncs() const;

    /** Completed compactions. */
    uint64_t compactions() const;

    /** Entry lines re-read from disk, by lookups and compactions. */
    uint64_t coldReads() const;

    /** Entry lines that failed to parse or to match their checksum (or
     *  their key, or could not be read), at load or on a re-read. */
    uint64_t rejectedEntries() const;

    /** Current size of the store file in bytes, or -1 if unknown. */
    long diskBytes() const;

  private:
    struct Entry
    {
        long offset = 0;   ///< byte offset of this entry's line
        size_t length = 0; ///< line length excluding the newline
        WireText hot;      ///< the wire text while hot; null when cold
        std::list<Entry *>::iterator lru; ///< place in lru_ while hot
    };
    using Index = std::map<ResultKey, Entry>;

    void makeHot(Entry &entry, WireText text);
    void cool(Entry &entry);
    void enforceBudget();
    bool readCold(const ResultKey &key, const Entry &entry,
                  std::string &wire);
    Index::iterator drop(Index::iterator it);
    void syncLocked();
    bool compactLocked(std::string &error);

    std::string path_;
    Options opt_;
    mutable std::mutex mutex_;
    std::FILE *append_ = nullptr;
    std::FILE *read_ = nullptr;
    Index index_;
    std::list<Entry *> lru_; ///< hot entries, least recently used first
    size_t hotBytes_ = 0;
    bool writeFailed_ = false;
    uint64_t appends_ = 0;
    uint64_t syncs_ = 0;
    uint64_t compactions_ = 0;
    uint64_t coldReads_ = 0;
    uint64_t rejected_ = 0;
    size_t appendsSinceCompact_ = 0;
    std::chrono::steady_clock::time_point lastSync_{};
};

} // namespace serve
} // namespace paragraph

#endif // PARAGRAPH_SERVE_RESULT_STORE_HPP
