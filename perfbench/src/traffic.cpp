#include "traffic.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util.hpp"

extern char **environ;

namespace perfbench {

namespace {

std::runtime_error
sysError(const std::string &what)
{
    return std::runtime_error(what + ": " + std::strerror(errno));
}

/** Read one '\n'-terminated line from fd within timeout_s. */
std::string
readLine(int fd, double timeout_s)
{
    std::string line;
    const double deadline = now() + timeout_s;
    char c = 0;
    while (true) {
        const double left = deadline - now();
        if (left <= 0.0)
            throw std::runtime_error("timed out waiting for the daemon");
        pollfd p{fd, POLLIN, 0};
        const int r = ::poll(&p, 1, static_cast<int>(left * 1e3) + 1);
        if (r < 0 && errno == EINTR)
            continue;
        if (r < 0)
            throw sysError("poll");
        if (r == 0)
            continue;
        const ssize_t n = ::read(fd, &c, 1);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("daemon exited before it was ready");
        if (c == '\n')
            return line;
        line += c;
    }
}

} // namespace

Daemon::Daemon(const std::string &binary, const std::string &store_path,
               const std::string &log_path)
{
    // Everything the child needs is built before fork(): the parent has
    // pool threads, so the child may only make async-signal-safe calls.
    std::vector<std::string> args = {
        binary, "--port", "0", "--store", store_path, "--executors",
        std::to_string(kExecutors)};
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "MSE_", 4) != 0)
            env.emplace_back(*e);
    }
    env.push_back("MSE_THREADS=" + std::to_string(kPoolThreads));
    std::vector<char *> argv, envp;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string &e : env)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0)
        throw sysError("pipe2");
    const int log_fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                              0644);
    if (log_fd < 0) {
        ::close(pipefd[0]);
        ::close(pipefd[1]);
        throw sysError("open " + log_path);
    }
    pid_ = ::fork();
    if (pid_ == 0) {
        // Never outlive the benchmark, even if it is killed.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::dup2(pipefd[1], STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
    }
    ::close(pipefd[1]);
    ::close(log_fd);
    if (pid_ < 0) {
        ::close(pipefd[0]);
        throw sysError("fork");
    }
    out_fd_ = pipefd[0];
    try {
        const std::string line = readLine(out_fd_, 120.0);
        unsigned port = 0;
        if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1 ||
            port == 0 || port > 65535)
            throw std::runtime_error("unexpected daemon banner: " + line);
        port_ = static_cast<uint16_t>(port);
    } catch (...) {
        stop();
        throw;
    }
}

Daemon::~Daemon()
{
    stop();
}

double
Daemon::peakRssMb() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
    }
    throw std::runtime_error("no VmHWM for the daemon");
}

void
Daemon::stop(bool graceful)
{
    if (pid_ > 0) {
        ::kill(pid_, graceful ? SIGTERM : SIGKILL);
        const double deadline = now() + 60.0;
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (now() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            ::usleep(2000);
        }
        pid_ = -1;
    }
    if (out_fd_ >= 0) {
        ::close(out_fd_);
        out_fd_ = -1;
    }
}

Socket::Socket(uint16_t port)
    : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0))
{
    if (fd_ < 0)
        throw sysError("socket");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const std::runtime_error e = sysError("connect");
        ::close(fd_);
        throw e;
    }
}

Socket::~Socket()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::string
roundTrip(int fd, const std::string &line)
{
    const std::string msg = line + "\n";
    size_t off = 0;
    while (off < msg.size()) {
        const ssize_t n =
            ::send(fd, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw sysError("send");
        off += static_cast<size_t>(n);
    }
    std::string reply;
    char buf[4096];
    while (reply.empty() || reply.back() != '\n') {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("daemon closed the connection");
        reply.append(buf, static_cast<size_t>(n));
    }
    reply.pop_back();
    return reply;
}

TrafficResult
drive(const Plan &plan, uint16_t port)
{
    TrafficResult res;
    const Socket sock(port);
    const double t0 = now();
    double t = t0;
    for (size_t i = 0; i < plan.requests.size(); ++i) {
        Outcome o;
        o.index = i;
        o.start = now();
        o.reply = roundTrip(sock.fd(), plan.requests[i].line);
        t = now();
        o.done = t;
        o.ok = o.reply.compare(0, 10, "{\"ok\":true") == 0;
        res.outcomes.push_back(std::move(o));
    }
    res.wall = t - t0;
    return res;
}

std::vector<double>
pingRtts(uint16_t port, size_t count)
{
    const Socket sock(port);
    std::vector<double> us;
    for (size_t i = 0; i < count; ++i) {
        const double t = now();
        const std::string pong = roundTrip(sock.fd(), "{\"type\":\"ping\"}");
        us.push_back((now() - t) * 1e6);
        if (pong.compare(0, 10, "{\"ok\":true") != 0)
            throw std::runtime_error("ping failed: " + pong);
    }
    return us;
}

} // namespace perfbench
