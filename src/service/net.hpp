/**
 * @file
 * Minimal POSIX TCP helpers for the line-delimited-JSON front end.
 *
 * Everything here is loopback-oriented plumbing: bind/listen with an
 * ephemeral-port option, connect, full-buffer sends, socket options,
 * and the blocking client side's buffered line reader with a per-read
 * timeout and a hard line-length cap — the two knobs that keep a slow
 * or malicious peer from pinning a caller or ballooning memory.
 */
#pragma once

#include <cstdint>
#include <string>

namespace mse {

/**
 * Bind + listen on 127.0.0.1:port (port 0 = kernel-assigned ephemeral
 * port; read it back with boundPort). Returns the listening fd, or -1
 * with *err set.
 */
int listenTcp(uint16_t port, std::string *err);

/** Port a listening socket is actually bound to (0 on error). */
uint16_t boundPort(int listen_fd);

/** Connect to host:port. Returns the fd, or -1 with *err set. */
int connectTcp(const std::string &host, uint16_t port, std::string *err);

/** Write the whole buffer (retrying short writes); false on error. */
bool sendAll(int fd, const void *data, size_t n);

/** sendAll of line + '\n'. */
bool sendLine(int fd, const std::string &line);

/** Put fd into O_NONBLOCK mode; false on error. */
bool setNonBlocking(int fd);

/**
 * Disable Nagle's algorithm on a TCP socket, so a small reply goes out
 * at once instead of waiting for the peer's delayed ACK of the
 * previous one. False on error.
 */
bool setTcpNoDelay(int fd);

/** Close a socket fd (ignores errors). */
void closeSocket(int fd);

/** Buffered newline-delimited reader with timeout and length cap. */
class LineReader
{
  public:
    enum class Status
    {
        Line,    ///< *out holds one line (newline stripped).
        Timeout, ///< Nothing arrived within timeout_ms.
        Closed,  ///< Peer closed cleanly (EOF).
        TooLong, ///< Line exceeded max_line bytes; connection is junk.
        Error,   ///< Read error.
    };

    explicit LineReader(int fd, size_t max_line = 1 << 20)
        : fd_(fd), max_line_(max_line)
    {
    }

    /**
     * Read the next line, waiting at most timeout_ms for new bytes
     * (the timeout applies per poll, i.e. to peer silence, not to
     * total line duration).
     */
    Status readLine(std::string *out, int timeout_ms);

  private:
    int fd_;
    size_t max_line_;
    std::string buf_;
    bool eof_ = false;
};

} // namespace mse
