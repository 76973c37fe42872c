/**
 * @file
 * The daemon under test and the client that drives it: spawn mse_serve
 * on an ephemeral loopback port, then send one round of a workload's
 * requests over one TCP connection, one request at a time, recording
 * when each was sent and answered.
 */
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/** A running mse_serve child process. Stopped by the destructor. */
class Daemon
{
  public:
    /**
     * Start `binary` with kExecutors executors, kPoolThreads pool lanes
     * and the given store file, and wait until it prints its port.
     * Throws on failure.
     */
    Daemon(const std::string &binary, const std::string &store_path,
           const std::string &log_path);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    uint16_t port() const { return port_; }

    /** VmHWM of the daemon, MiB. */
    double peakRssMb() const;

    /**
     * SIGTERM and wait for the drain (SIGKILL after a grace period);
     * graceful = false kills at once (daemons started only to time
     * set-up, whose shutdown nobody measures).
     */
    void stop(bool graceful = true);

  private:
    pid_t pid_ = -1;
    int out_fd_ = -1; ///< Read end of the child's stdout.
    uint16_t port_ = 0;
};

/** A blocking loopback TCP connection (TCP_NODELAY); closed on
 *  destruction. */
class Socket
{
  public:
    explicit Socket(uint16_t port);
    ~Socket();
    Socket(Socket &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;
    Socket &operator=(Socket &&) = delete;

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

/** Send one line and wait for one reply line on a blocking socket. */
std::string roundTrip(int fd, const std::string &line);

/** One answered request. */
struct Outcome
{
    size_t index = 0;   ///< Into Plan::requests.
    double start = 0.0; ///< Sent.
    double done = 0.0;  ///< Reply read.
    bool ok = false;
    std::string reply;
};

struct TrafficResult
{
    std::vector<Outcome> outcomes; ///< In request order.
    double wall = 0.0;             ///< First send to last reply, s.
};

/** Send one round (every request of the plan, in order) to a daemon on
 *  `port`, closed loop over one connection. */
TrafficResult drive(const Plan &plan, uint16_t port);

/** Round trips (microseconds) of `count` pings on one live connection. */
std::vector<double> pingRtts(uint16_t port, size_t count);

} // namespace perfbench
