/**
 * @file
 * Checked document output for the command-line tools.
 */

#ifndef PARAGRAPH_SUPPORT_OUTPUT_FILE_HPP
#define PARAGRAPH_SUPPORT_OUTPUT_FILE_HPP

#include <functional>
#include <string>
#include <string_view>

namespace paragraph {

/** Writes one piece of a document; false (errno set) if the write failed. */
using OutputWriter = std::function<bool(std::string_view piece)>;

/**
 * Write a document to @p path, or to stdout when @p path is empty:
 * @p render passes it to the writer it is given, piece by piece, and
 * returns false once a write fails. Every write, the final flush and the
 * close are checked: a failure throws FatalError "cannot write PATH:
 * <reason>" (PATH is "stdout" for stdout), so a full disk or a closed pipe
 * never passes for success. An unopenable path throws "cannot open PATH".
 */
void writeOutputFile(const std::string &path,
                     const std::function<bool(const OutputWriter &)> &render);

} // namespace paragraph

#endif // PARAGRAPH_SUPPORT_OUTPUT_FILE_HPP
