#include "support/output_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/panic.hpp"

namespace paragraph {

void
writeOutputFile(const std::string &path,
                const std::function<bool(const OutputWriter &)> &render)
{
    std::FILE *out = path.empty() ? stdout : std::fopen(path.c_str(), "w");
    if (!out)
        PARA_FATAL("cannot open %s", path.c_str());
    OutputWriter write = [out](std::string_view piece) {
        return std::fwrite(piece.data(), 1, piece.size(), out) ==
               piece.size();
    };
    // Keep the first failure's errno; later steps may fail for the same
    // reason and must not mask it.
    int error = render(write) ? 0 : errno;
    if (std::fflush(out) != 0 && error == 0)
        error = errno;
    if (std::ferror(out) && error == 0)
        error = EIO;
    if (out != stdout && std::fclose(out) != 0 && error == 0)
        error = errno;
    if (error != 0) {
        PARA_FATAL("cannot write %s: %s",
                   path.empty() ? "stdout" : path.c_str(),
                   std::strerror(error));
    }
}

} // namespace paragraph
