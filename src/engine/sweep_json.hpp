/**
 * @file
 * Stable machine-readable JSON for sweep results.
 *
 * One object per grid cell: config echo, critical path, available
 * parallelism, profile buckets, timing. Key order, number formatting, and
 * cell order (grid order, not completion order) are all deterministic, so
 * two sweeps of the same grid produce byte-identical documents regardless
 * of worker count — the timing fields are segregated under "timing" keys
 * and can be omitted (`timing = false`) for such comparisons, and for
 * `BENCH_*.json` trajectories that diff runs.
 *
 * Everything renders by appending to a caller's std::string (JsonOut
 * below). A whole document renders into a string (sweepToJson), streams
 * to a sink a cell at a time (streamSweepJson), so a file takes it without
 * the document ever being held whole, or renders escaped, as the body of
 * a JSON string, straight into a daemon response (JsonForm::StringBody),
 * where a store hit's cells are spliced in their stored escaped form.
 */

#ifndef PARAGRAPH_ENGINE_SWEEP_JSON_HPP
#define PARAGRAPH_ENGINE_SWEEP_JSON_HPP

#include <charconv>
#include <concepts>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sweep.hpp"

namespace paragraph {
namespace engine {

struct SweepJsonOptions
{
    /** Include wall-clock / throughput fields (never deterministic). */
    bool timing = true;

    /** Include the per-cell parallelism-profile bucket series. */
    bool profiles = true;

    /** Break each cell's wall time into decode vs analyze shares, report
     *  shard-segment counts, and the sweep's fused groups (passes)
     *  (inside "timing", so `timing = false` documents stay deterministic
     *  and journal splicing is unaffected). */
    bool stats = false;
};

/** Append the shortest `%.*g` rendering of @p v that strtod reads back
 *  exactly (`null` for inf/nan, which JSON cannot express). */
void appendJsonDouble(std::string &out, double v);

/** Append @p s escaped for the inside of a JSON string literal: `"`,
 *  `\`, newline and tab by name, other control bytes as `\u00xx`.
 *  Escaping is per byte, so a text escaped in pieces reads the same. */
void appendJsonEscaped(std::string &out, std::string_view s);

/** Append @p s as a JSON string literal (quoted appendJsonEscaped). */
void appendJsonString(std::string &out, std::string_view s);

/** Shortest round-trip decimal rendering of @p v (JSON number syntax). */
std::string jsonDouble(double v);

/** JSON string literal (quotes and escapes @p s). */
std::string jsonString(std::string_view s);

/**
 * Stream-style appender the document writers render through: text and
 * chars verbatim, integers in decimal, doubles as appendJsonDouble
 * renders them, and quoted() text as a JSON string literal.
 */
class JsonOut
{
  public:
    struct Quoted
    {
        std::string_view text;
    };

    explicit JsonOut(std::string &out) : out_(out) {}

    JsonOut &operator<<(std::string_view text)
    {
        out_.append(text);
        return *this;
    }
    JsonOut &operator<<(const char *text)
    {
        out_.append(text);
        return *this;
    }
    JsonOut &operator<<(char c)
    {
        out_ += c;
        return *this;
    }
    JsonOut &operator<<(double v)
    {
        appendJsonDouble(out_, v);
        return *this;
    }
    JsonOut &operator<<(Quoted q)
    {
        appendJsonString(out_, q.text);
        return *this;
    }
    template <std::integral T>
    JsonOut &operator<<(T v)
    {
        char digits[24];
        out_.append(digits,
                    std::to_chars(digits, digits + sizeof(digits), v).ptr);
        return *this;
    }
    JsonOut &operator<<(bool) = delete; // spell booleans out

    std::string &buffer() { return out_; }

  private:
    std::string &out_;
};

/** Mark @p s for JsonOut as a string literal to quote and escape. */
inline JsonOut::Quoted
quoted(std::string_view s)
{
    return {s};
}

/** The two forms a document renders in. */
enum class JsonForm
{
    Document,   ///< the JSON text itself: files, sweepToJson()
    StringBody, ///< escaped as the inside of a JSON string literal: the
                ///< "document" field of a daemon response
};

/**
 * A document being rendered into a string in either JsonForm. Freshly
 * rendered text goes through text(); a store-served cell's wire text
 * (SweepCell::wireText, already escaped) through splice(). In Document
 * form text() appends to the output and splice() unescapes into it. In
 * StringBody form text() collects in a scratch buffer that settle()
 * escapes into the output, and splice() settles, then appends the wire
 * bytes verbatim: a store hit's response copies each cell's stored bytes
 * once. The writers settle after every cell and at the end.
 */
class JsonDocOut
{
  public:
    JsonDocOut(std::string &out, JsonForm form)
        : out_(out), form_(form),
          os_(form == JsonForm::Document ? out : fresh_)
    {
    }

    JsonDocOut(const JsonDocOut &) = delete;
    JsonDocOut &operator=(const JsonDocOut &) = delete;

    /** Fresh text, in document form. */
    JsonOut &text() { return os_; }

    /** Append @p wire, text escaped as by appendJsonEscaped. */
    void splice(std::string_view wire);

    /** StringBody form: escape the fresh text collected so far into the
     *  output. Document form: nothing to do. */
    void settle();

  private:
    std::string &out_;
    JsonForm form_;
    std::string fresh_; ///< StringBody form: fresh text not yet escaped
    JsonOut os_;
};

/**
 * Append one cell exactly as it appears inside the "cells" array. The
 * checkpoint journal and the serve result store keep this text, and a
 * resumed sweep or a store hit splices it back: the head (input, grid
 * indices, config block) rendered from the cell's own job, the rest
 * verbatim from the "status" line on (byte-identical to a fresh run).
 */
void appendCellJson(JsonDocOut &doc, const SweepCell &cell,
                    const SweepJsonOptions &opt);

/** Bytes of stored text (journal or wire) @p cells splice into their
 *  document, heads included: nearly all of a store hit's document. */
size_t splicedBytes(const std::vector<SweepCell> &cells);

/** Takes a document piece by piece; returns false to stop the render. */
using JsonSink = std::function<bool(std::string_view piece)>;

/**
 * Render @p sweep's document into @p sink in pieces, one per cell (the
 * first also carries the header) and one for the footer, through one
 * reused buffer, so the document is never held whole: a file or a
 * response line can take it as it is rendered.
 * @return false as soon as @p sink does.
 */
bool streamSweepJson(const SweepResult &sweep, const SweepJsonOptions &opt,
                     const JsonSink &sink);

/** Append @p sweep's document to @p out in @p form. */
void appendSweepJson(std::string &out, const SweepResult &sweep,
                     const SweepJsonOptions &opt, JsonForm form);

/** One cell, as appendCellJson renders it, in document form. */
std::string cellToJson(const SweepCell &cell, const SweepJsonOptions &opt);

/** @p sweep as a JSON document. */
std::string sweepToJson(const SweepResult &sweep,
                        const SweepJsonOptions &opt = {});

} // namespace engine
} // namespace paragraph

#endif // PARAGRAPH_ENGINE_SWEEP_JSON_HPP
