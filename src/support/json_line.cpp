#include "support/json_line.hpp"

#include <cctype>
#include <charconv>

namespace paragraph {

namespace {

/** Decode the escape whose letter is at @p s[p] (past its backslash) into
 *  @p c, advancing @p p past it; false if it is malformed. */
bool
decodeEscape(std::string_view s, size_t &p, char &c)
{
    if (p == s.size())
        return false;
    switch (s[p++]) {
      case '"':  c = '"'; return true;
      case '\\': c = '\\'; return true;
      case '/':  c = '/'; return true;
      case 'n':  c = '\n'; return true;
      case 't':  c = '\t'; return true;
      case 'r':  c = '\r'; return true;
      case 'u': {
        if (p + 4 > s.size())
            return false;
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            char h = s[p++];
            v <<= 4;
            if (h >= '0' && h <= '9')
                v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                v |= static_cast<unsigned>(h - 'A' + 10);
            else
                return false;
        }
        if (v > 0xff) // the writers only escape control bytes
            return false;
        c = static_cast<char>(v);
        return true;
      }
      default:
        return false;
    }
}

} // namespace

size_t
appendJsonUnescaped(std::string &out, std::string_view s)
{
    // Decoded into a stack block and appended a block at a time: escapes
    // come every few dozen bytes in a sweep document, and an append per
    // run between them cost more than the decoding.
    char block[4096];
    size_t n = 0;
    size_t p = 0;
    size_t stop = s.size();
    while (p < s.size()) {
        if (n == sizeof(block)) {
            out.append(block, n);
            n = 0;
        }
        char c = s[p++];
        if (c == '"') {
            stop = p - 1;
            break;
        }
        if (c == '\\' && !decodeEscape(s, p, c)) {
            stop = std::string_view::npos;
            break;
        }
        block[n++] = c;
    }
    out.append(block, n);
    return stop;
}

bool
JsonLineParser::parse()
{
    skipWs();
    if (!eat('{'))
        return false;
    skipWs();
    if (eat('}')) {
        skipWs();
        return p_ == s_.size();
    }
    for (;;) {
        std::string key;
        if (!parseString(key))
            return false;
        skipWs();
        if (!eat(':'))
            return false;
        skipWs();
        if (!parseValue(key))
            return false;
        skipWs();
        if (eat('}'))
            break;
        if (!eat(','))
            return false;
        skipWs();
    }
    skipWs();
    return p_ == s_.size();
}

const std::string *
JsonLineParser::str(const char *key) const
{
    auto it = strs_.find(key);
    return it == strs_.end() ? nullptr : &it->second;
}

bool
JsonLineParser::num(const char *key, uint64_t &out) const
{
    auto it = nums_.find(key);
    if (it == nums_.end())
        return false;
    out = it->second;
    return true;
}

bool
JsonLineParser::boolean(const char *key, bool &out) const
{
    auto it = bools_.find(key);
    if (it == bools_.end())
        return false;
    out = it->second;
    return true;
}

const std::vector<std::string> *
JsonLineParser::strList(const char *key) const
{
    auto it = strLists_.find(key);
    return it == strLists_.end() ? nullptr : &it->second;
}

const std::vector<uint64_t> *
JsonLineParser::numList(const char *key) const
{
    auto it = numLists_.find(key);
    return it == numLists_.end() ? nullptr : &it->second;
}

void
JsonLineParser::skipWs()
{
    while (p_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[p_])))
        ++p_;
}

bool
JsonLineParser::eat(char c)
{
    if (p_ < s_.size() && s_[p_] == c) {
        ++p_;
        return true;
    }
    return false;
}

bool
JsonLineParser::parseString(std::string &out)
{
    if (!eat('"'))
        return false;
    out.clear();
    const size_t close = appendJsonUnescaped(out, s_.substr(p_));
    if (close == std::string_view::npos || p_ + close == s_.size())
        return false; // bad escape, or unterminated
    p_ += close + 1;
    return true;
}

bool
JsonLineParser::parseNumber(uint64_t &out)
{
    size_t start = p_;
    while (p_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[p_])))
        ++p_;
    if (p_ == start)
        return false;
    if (std::from_chars(s_.data() + start, s_.data() + p_, out).ec !=
        std::errc())
        out = UINT64_MAX; // saturates, as strtoull does
    return true;
}

bool
JsonLineParser::parseValue(const std::string &key)
{
    if (p_ < s_.size() && s_[p_] == '"') {
        std::string v;
        if (!parseString(v))
            return false;
        strs_[key] = std::move(v);
        return true;
    }
    if (s_.compare(p_, 4, "true") == 0) {
        p_ += 4;
        bools_[key] = true;
        return true;
    }
    if (s_.compare(p_, 5, "false") == 0) {
        p_ += 5;
        bools_[key] = false;
        return true;
    }
    if (p_ < s_.size() && s_[p_] == '[') {
        ++p_;
        skipWs();
        std::vector<std::string> strItems;
        std::vector<uint64_t> numItems;
        if (eat(']')) { // an empty array registers under both types
            strLists_[key] = std::move(strItems);
            numLists_[key] = std::move(numItems);
            return true;
        }
        // A flat array must be homogeneous: all strings or all integers.
        bool stringArray = s_[p_] == '"';
        for (;;) {
            if (stringArray) {
                std::string v;
                if (!parseString(v))
                    return false;
                strItems.push_back(std::move(v));
            } else {
                uint64_t v = 0;
                if (!parseNumber(v))
                    return false;
                numItems.push_back(v);
            }
            skipWs();
            if (eat(']'))
                break;
            if (!eat(','))
                return false;
            skipWs();
        }
        if (stringArray)
            strLists_[key] = std::move(strItems);
        else
            numLists_[key] = std::move(numItems);
        return true;
    }
    uint64_t v = 0;
    if (!parseNumber(v))
        return false;
    nums_[key] = v;
    return true;
}

} // namespace paragraph
