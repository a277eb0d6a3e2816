#include "serve/client.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace paragraph {
namespace serve {

bool
ServeClient::connect(std::string &error)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (socketPath_.empty() ||
        socketPath_.size() >= sizeof(addr.sun_path)) {
        error = "socket path empty or too long for AF_UNIX";
        return false;
    }
    std::memcpy(addr.sun_path, socketPath_.c_str(), socketPath_.size() + 1);

    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        error = socketPath_ + ": " + std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    if (!applyTimeout(error)) {
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    return true;
}

void
ServeClient::setTimeout(double seconds)
{
    timeoutSeconds_ = seconds > 0 ? seconds : 0.0;
    if (fd_ >= 0) {
        std::string ignored;
        applyTimeout(ignored);
    }
}

bool
ServeClient::applyTimeout(std::string &error)
{
    timeval tv;
    tv.tv_sec = static_cast<time_t>(timeoutSeconds_);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeoutSeconds_ - static_cast<double>(tv.tv_sec)) * 1e6);
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
        error = std::string("setsockopt: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
ServeClient::sendLine(const std::string &line, std::string &error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    std::string data = line + "\n";
    size_t sent = 0;
    while (sent < data.size()) {
        ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                error = "timed out sending to the daemon";
                return false;
            }
            error = std::string("send: ") + std::strerror(errno);
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
ServeClient::roundTrip(const std::string &line, std::string &responseLine,
                       std::string &error)
{
    // A daemon shedding at accept writes its busy response and closes
    // before ever reading the request, so the send can fail with EPIPE
    // while a complete response line sits queued on the socket. Attempt
    // the read either way and prefer a real response over the send error.
    std::string sendError;
    bool sendOk = sendLine(line, sendError);
    char chunk[4096];
    // Only the bytes each recv adds are searched: rescanning the whole
    // buffer per read made a multi-MB response quadratic.
    size_t scanned = 0;
    for (;;) {
        size_t nl = buffer_.find('\n', scanned);
        if (nl != std::string::npos) {
            responseLine.assign(buffer_, 0, nl);
            buffer_.erase(0, nl + 1);
            return true;
        }
        scanned = buffer_.size();
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (!sendOk)
                error = sendError;
            else if (errno == EAGAIN || errno == EWOULDBLOCK)
                error = "timed out waiting for the daemon's response";
            else
                error = std::string("recv: ") + std::strerror(errno);
            return false;
        }
        if (n == 0) {
            error = sendOk ? "daemon closed the connection mid-response"
                           : sendError;
            return false;
        }
        buffer_.append(chunk, static_cast<size_t>(n));
    }
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

} // namespace serve
} // namespace paragraph
