#include "service/net.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/sys_io.hpp"
#include "common/fault_sites.hpp"

namespace mse {

namespace {

void
setError(std::string *err, const char *what)
{
    if (err)
        *err = std::string(what) + ": " + std::strerror(errno);
}

} // namespace

int
listenTcp(uint16_t port, std::string *err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        setError(err, "socket");
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        setError(err, "bind");
        sysClose(fd);
        return -1;
    }
    // Backlog sized for connect storms (the bench opens hundreds of
    // connections at once); the kernel clamps to net.core.somaxconn.
    if (::listen(fd, 1024) != 0) {
        setError(err, "listen");
        sysClose(fd);
        return -1;
    }
    return fd;
}

uint16_t
boundPort(int listen_fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return 0;
    return ntohs(addr.sin_port);
}

int
connectTcp(const std::string &host, uint16_t port, std::string *err)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        setError(err, "socket");
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (err)
            *err = "bad address: " + host;
        sysClose(fd);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        // A signal can interrupt a blocking connect; the handshake
        // keeps going in the kernel, so finish it by waiting for
        // writability and reading the final status from SO_ERROR —
        // retrying connect() here would fail with EALREADY/EISCONN.
        if (errno == EINTR) {
            pollfd pfd{};
            pfd.fd = fd;
            pfd.events = POLLOUT;
            int so_err = 0;
            socklen_t len = sizeof(so_err);
            if (sysPoll(&pfd, 1, -1, fault_sites::kNetConnectPoll) > 0 &&
                ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err,
                             &len) == 0 &&
                so_err == 0)
                return fd;
            errno = so_err != 0 ? so_err : ECONNABORTED;
        }
        setError(err, "connect");
        sysClose(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const void *data, size_t n)
{
    return sysSendAll(fd, data, n, MSG_NOSIGNAL, fault_sites::kNetSend);
}

bool
sendLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    return sendAll(fd, framed.data(), framed.size());
}

bool
setNonBlocking(int fd)
{
    // fcntl is socket setup, not data-path I/O: no fault site, same
    // category as the socket()/setsockopt() calls above.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
setTcpNoDelay(int fd)
{
    const int one = 1;
    return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                        sizeof(one)) == 0;
}

void
closeSocket(int fd)
{
    if (fd >= 0)
        sysClose(fd);
}

LineReader::Status
LineReader::readLine(std::string *out, int timeout_ms)
{
    while (true) {
        const size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            out->assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return Status::Line;
        }
        if (buf_.size() > max_line_)
            return Status::TooLong;
        if (eof_)
            return buf_.empty() ? Status::Closed : Status::Error;

        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        const int rc = sysPoll(&pfd, 1, timeout_ms, fault_sites::kNetPoll);
        if (rc == 0)
            return Status::Timeout;
        if (rc < 0)
            return Status::Error;
        char chunk[4096];
        const ssize_t r =
            sysRecv(fd_, chunk, sizeof(chunk), 0, fault_sites::kNetRecv);
        if (r < 0)
            return Status::Error;
        if (r == 0) {
            eof_ = true;
            continue; // Flush any final unterminated partial line.
        }
        buf_.append(chunk, static_cast<size_t>(r));
    }
}

} // namespace mse
