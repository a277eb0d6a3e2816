/**
 * @file
 * JsonLineParser: a strict scanner for one line of flat JSON.
 *
 * Shared by the sweep journal, the paragraph-serve result store, and the
 * serve wire protocol — all of which exchange newline-delimited JSON
 * objects whose values are strings, unsigned integers, booleans, or flat
 * arrays of strings/integers. The parser is deliberately strict about that
 * subset (no nesting, no floats, no trailing bytes): any line damaged by a
 * crash or a torn write fails to parse as a whole and is skipped by its
 * loader, instead of yielding garbage field values.
 */

#ifndef PARAGRAPH_SUPPORT_JSON_LINE_HPP
#define PARAGRAPH_SUPPORT_JSON_LINE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace paragraph {

/**
 * Append the JSON string body @p s (the bytes after an opening quote) to
 * @p out with its escapes decoded, up to its closing quote or the end of
 * @p s.
 * @return the offset of the closing quote in @p s (s.size() when it has
 *         none), or std::string_view::npos on a malformed escape.
 */
size_t appendJsonUnescaped(std::string &out, std::string_view s);

class JsonLineParser
{
  public:
    /** Parse @p line, which must outlive the parser. */
    explicit JsonLineParser(std::string_view line) : s_(line) {}

    /** Scan the whole line; false on any syntax violation or trailing
     *  bytes. Field values are available through the accessors after a
     *  successful parse. */
    bool parse();

    /** String field, or nullptr if absent / not a string. */
    const std::string *str(const char *key) const;

    /** Unsigned integer field; false if absent / not an integer. */
    bool num(const char *key, uint64_t &out) const;

    /** Boolean field; false if absent / not a boolean. */
    bool boolean(const char *key, bool &out) const;

    /** Array-of-strings field, or nullptr. */
    const std::vector<std::string> *strList(const char *key) const;

    /** Array-of-integers field, or nullptr. */
    const std::vector<uint64_t> *numList(const char *key) const;

  private:
    std::string_view s_;
    size_t p_ = 0;
    std::map<std::string, std::string> strs_;
    std::map<std::string, uint64_t> nums_;
    std::map<std::string, bool> bools_;
    std::map<std::string, std::vector<std::string>> strLists_;
    std::map<std::string, std::vector<uint64_t>> numLists_;

    void skipWs();
    bool eat(char c);
    bool parseString(std::string &out);
    bool parseNumber(uint64_t &out);
    bool parseValue(const std::string &key);
};

} // namespace paragraph

#endif // PARAGRAPH_SUPPORT_JSON_LINE_HPP
