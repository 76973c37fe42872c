#include "service/server.hpp"

#include <cerrno>
#include <chrono>
#include <sys/socket.h>
#include <unistd.h>

#include "common/cluster_faults.hpp"
#include "common/sys_io.hpp"
#include "service/net.hpp"
#include "service/wire.hpp"
#include "common/fault_sites.hpp"
#include "service/error_codes.hpp"

namespace mse {

namespace {

/** Upper bound on one wait, ms: a backstop for stop requests should
 *  the wake pipe ever fail; idle deadlines shorten it further. */
constexpr int kLoopTickMs = 200;

/** Backoff hint on an `unavailable` refusal of a cluster op. */
constexpr int kUnavailableRetryMs = 100;

/** Cap on records per sync reply: a rejoining daemon that missed a
 *  lot pulls in bounded rounds instead of one giant line. */
constexpr size_t kSyncMaxEntries = 512;

/** Shutdown drain budget, ms: cancelled in-flight searches stop at
 *  their next generation boundary, so this is generous. */
constexpr int64_t kDrainCapMs = 10000;

/** recv chunk size for the read loop. */
constexpr size_t kReadChunk = 16384;

int64_t
steadyMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               clock::now().time_since_epoch())
        .count();
}

} // namespace

ServiceServer::ServiceServer(MseService &service, ServerConfig cfg)
    : service_(service), cfg_(cfg)
{
}

ServiceServer::~ServiceServer()
{
    stop();
}

bool
ServiceServer::start(std::string *err)
{
    if (!poller_.init(cfg_.poller, err))
        return false;
    listen_fd_ = listenTcp(cfg_.port, err);
    if (listen_fd_ < 0)
        return false;
    if (!setNonBlocking(listen_fd_)) {
        if (err)
            *err = "cannot set listen socket non-blocking";
        closeSocket(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    port_ = boundPort(listen_fd_);

    // Self-wake pipe: completions and requestStop() poke the loop out
    // of its wait. pipe() is startup plumbing, not data-path I/O (same
    // category as socket()/bind() — see sys_io's socket-setup note).
    int fds[2];
    if (::pipe(fds) != 0) {
        if (err)
            *err = "cannot create wake pipe";
        closeSocket(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    setNonBlocking(fds[0]);
    setNonBlocking(fds[1]);
    wake_r_ = fds[0];
    wake_w_.store(fds[1]);

    poller_.add(listen_fd_, true, false);
    poller_.add(wake_r_, true, false);
    loop_thread_ = std::thread([this] { loop(); });
    return true;
}

void
ServiceServer::requestStop()
{
    stop_flag_.store(true);
    wakeLoop();
}

void
ServiceServer::wakeLoop()
{
    const int w = wake_w_.load();
    if (w < 0)
        return;
    // Raw write(2), not sysWriteAll: this path must stay
    // async-signal-safe (requestStop runs from SIGINT/SIGTERM
    // handlers) and faultCheck takes a mutex. One byte is enough;
    // EAGAIN means the pipe already holds a pending wakeup.
    // mse-lint: allow(raw-syscall) async-signal-safe wake-pipe poke
    (void)!::write(w, "w", 1);
}

void
ServiceServer::stop()
{
    stop_flag_.store(true);
    wakeLoop();
    if (loop_thread_.joinable())
        loop_thread_.join();
    // Join the executors *before* closing the wake pipe: completion
    // hooks write to it until the last in-flight request resolves.
    service_.stop(true);
    if (listen_fd_ >= 0) {
        closeSocket(listen_fd_);
        listen_fd_ = -1;
    }
    if (wake_r_ >= 0) {
        closeSocket(wake_r_);
        wake_r_ = -1;
    }
    const int w = wake_w_.exchange(-1);
    if (w >= 0)
        closeSocket(w);
}

void
ServiceServer::touch(Conn *c)
{
    c->idle_deadline_ms = steadyMs() + cfg_.io_timeout_ms;
}

int64_t
ServiceServer::nextTimeoutMs(int64_t now_ms) const
{
    int64_t timeout = kLoopTickMs;
    for (const auto &kv : conns_) {
        const Conn *c = kv.second.get();
        // A connection with requests in flight or replies pending is
        // making progress, not idling.
        if (c->dead || c->want_close || !c->slots.empty() ||
            c->out.size() > c->out_off)
            continue;
        const int64_t left = c->idle_deadline_ms - now_ms;
        timeout = left < timeout ? (left < 0 ? 0 : left) : timeout;
    }
    return timeout;
}

void
ServiceServer::loop()
{
    while (!stop_flag_.load()) {
        const int timeout =
            static_cast<int>(nextTimeoutMs(steadyMs()));
        poller_.wait(timeout, &events_);
        for (const Poller::Event &ev : events_) {
            if (ev.fd == listen_fd_) {
                acceptReady();
                continue;
            }
            if (ev.fd == wake_r_) {
                drainWake();
                continue;
            }
            const auto it = conns_.find(ev.fd);
            if (it == conns_.end())
                continue; // Destroyed earlier in this batch.
            Conn *c = it->second.get();
            if (c->dead)
                continue;
            if (ev.error) {
                destroyConn(c, true);
                continue;
            }
            if (ev.readable && !c->paused)
                readInput(c);
            if (!c->dead && ev.writable)
                pump(c);
        }
        drainCompletions();
        expireIdle(steadyMs());
        reapDead();
    }

    // Drain: stop accepting, cancel in-flight searches (they stop at
    // the next generation boundary and still produce best-so-far
    // replies), flush whatever the peers will take, then close.
    poller_.del(listen_fd_);
    std::vector<Conn *> live;
    live.reserve(conns_.size());
    for (auto &kv : conns_)
        live.push_back(kv.second.get());
    for (Conn *c : live) {
        for (auto &s : c->slots)
            if (s.cancel)
                s.cancel->requestCancel();
        c->want_close = true;
        pump(c);
    }
    reapDead();
    const int64_t drain_deadline = steadyMs() + kDrainCapMs;
    while (!conns_.empty() && steadyMs() < drain_deadline) {
        poller_.wait(50, &events_);
        for (const Poller::Event &ev : events_) {
            if (ev.fd == listen_fd_ || ev.fd == wake_r_) {
                if (ev.fd == wake_r_)
                    drainWake();
                continue;
            }
            const auto it = conns_.find(ev.fd);
            if (it == conns_.end())
                continue;
            Conn *c = it->second.get();
            if (c->dead)
                continue;
            if (ev.error)
                destroyConn(c, true);
            else if (ev.writable)
                pump(c);
        }
        drainCompletions();
        reapDead();
    }
    // Force-close stragglers past the drain budget.
    live.clear();
    for (auto &kv : conns_)
        live.push_back(kv.second.get());
    for (Conn *c : live)
        destroyConn(c, true);
    reapDead();
}

void
ServiceServer::acceptReady()
{
    while (!stop_flag_.load()) {
        const int fd = sysAccept(listen_fd_, fault_sites::kServerAccept);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return; // Backlog drained.
            if (errno == ECONNABORTED)
                continue; // Peer gave up; try the next one.
            // EMFILE or an injected fault: give up on this readiness
            // round. Level-triggered wait re-reports while the
            // backlog persists, so accepting resumes once fds free up.
            return;
        }
        setNonBlocking(fd);
        setTcpNoDelay(fd);
        if (conns_.size() >= cfg_.max_connections) {
            const std::string line =
                wireError(wire_errors::kTooManyConnections,
                          "server connection limit reached",
                          service_.config().retry_hint_ms)
                    .dump() +
                "\n";
            // Best-effort refusal: the socket's send buffer is empty,
            // so a short/failed send just means the peer is gone.
            sysSend(fd, line.data(), line.size(), MSG_NOSIGNAL,
                    fault_sites::kServerSend);
            closeSocket(fd);
            continue;
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->id = next_conn_id_++;
        touch(conn.get());
        Conn *raw = conn.get();
        by_id_[raw->id] = raw;
        conns_[fd] = std::move(conn);
        poller_.add(fd, true, false);
    }
}

void
ServiceServer::drainWake()
{
    char buf[256];
    while (true) {
        const ssize_t r =
            sysRead(wake_r_, buf, sizeof(buf), fault_sites::kServerWakeRead);
        if (r < static_cast<ssize_t>(sizeof(buf)))
            return; // Drained (or EAGAIN/injected error; either way
                    // the pending work is picked up below).
    }
}

void
ServiceServer::drainCompletions()
{
    std::vector<uint64_t> ids;
    {
        MutexLock lk(done_mu_);
        ids.swap(done_ids_);
    }
    for (const uint64_t id : ids) {
        const auto it = by_id_.find(id);
        if (it == by_id_.end())
            continue; // Connection already destroyed; reply dropped.
        pump(it->second);
    }
}

void
ServiceServer::readInput(Conn *c)
{
    // Per-round intake cap: framing needs at most one max-size line
    // plus a chunk in the buffer; level-triggered readiness re-reports
    // whatever stays in the kernel buffer.
    const size_t intake_cap = cfg_.max_line_bytes + kReadChunk;
    bool eof = false;
    while (c->in.size() < intake_cap) {
        char buf[kReadChunk];
        const ssize_t r =
            sysRecv(c->fd, buf, sizeof(buf), 0, fault_sites::kServerRecv);
        if (r < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            destroyConn(c, true);
            return;
        }
        if (r == 0) {
            eof = true;
            break;
        }
        c->in.append(buf, static_cast<size_t>(r));
        touch(c);
        if (static_cast<size_t>(r) < sizeof(buf))
            break; // Socket drained.
    }
    pump(c);
    if (eof && !c->dead) {
        // Peer is gone (or at least done sending). Complete lines
        // above were parsed and submitted; now cancel this
        // connection's in-flight searches — and only this
        // connection's — flush what the peer will still take, and
        // close.
        for (auto &s : c->slots)
            if (s.cancel)
                s.cancel->requestCancel();
        c->want_close = true;
        // Drop read interest: the fd stays readable at EOF forever
        // (level-triggered), and nothing more will be parsed.
        setPaused(c, true);
        pump(c);
    }
}

void
ServiceServer::parseLines(Conn *c)
{
    while (!c->want_close && !c->dead) {
        if (c->slots.size() >= cfg_.max_pipeline ||
            c->out.size() - c->out_off >= cfg_.max_buffered_bytes) {
            // Backpressure: stop framing (and reading) until the
            // pipeline drains. Nothing is lost — residual bytes stay
            // in c->in and the kernel buffer.
            setPaused(c, true);
            return;
        }
        const size_t nl = c->in.find('\n');
        if (nl == std::string::npos) {
            if (c->in.size() > cfg_.max_line_bytes) {
                // Oversized line still incomplete: framing is lost.
                pushDone(c,
                         wireError(wire_errors::kRequestTooLarge,
                                   "request line exceeds " +
                                       std::to_string(
                                           cfg_.max_line_bytes) +
                                       " bytes")
                             .dump());
                c->want_close = true;
                c->in.clear();
                setPaused(c, true); // stop reading the junk stream
            }
            return;
        }
        if (nl > cfg_.max_line_bytes) {
            pushDone(c,
                     wireError(wire_errors::kRequestTooLarge,
                               "request line exceeds " +
                                   std::to_string(cfg_.max_line_bytes) +
                                   " bytes")
                         .dump());
            c->want_close = true;
            c->in.clear();
            setPaused(c, true); // stop reading the junk stream
            return;
        }
        std::string line = c->in.substr(0, nl);
        c->in.erase(0, nl + 1);
        if (line.empty())
            continue;
        handleLine(c, line);
    }
}

void
ServiceServer::handleLine(Conn *c, const std::string &line)
{
    std::string code, message;
    const auto req = parseWireRequest(line, &code, &message);
    if (!req) {
        service_.metrics().onError(code.c_str());
        // Malformed input costs the line, not the session.
        pushDone(c, wireError(code, message).dump());
        return;
    }
    // Inbound partition gate: the cluster.accept site can make this
    // daemon drop (connection dies, no reply — a severed link) or
    // refuse (structured `unavailable` — an overloaded-but-alive peer)
    // daemon-to-daemon traffic, keyed per sender via MSE_FAULT_PEERS.
    // Client traffic (ping/stats/search) is never gated — that is what
    // makes a partitioned daemon different from a dead one.
    if (req->kind == WireRequest::Kind::Replicate ||
        req->kind == WireRequest::Kind::Probe ||
        req->kind == WireRequest::Kind::Sync) {
        const int err =
            clusterFaultCheck(fault_sites::kClusterAccept, req->from);
        if (err == EPIPE || err == ECONNRESET) {
            c->want_close = true;
            c->in.clear();
            setPaused(c, true);
            return;
        }
        if (err != 0) {
            pushDone(c, wireError(wire_errors::kUnavailable,
                                  "cluster op refused",
                                  kUnavailableRetryMs)
                            .dump());
            return;
        }
    }
    switch (req->kind) {
      case WireRequest::Kind::Ping:
        service_.metrics().onRequest("ping");
        pushDone(c, pingReplyJson().dump());
        break;
      case WireRequest::Kind::Stats:
        service_.metrics().onRequest("stats");
        pushDone(c, statsReplyJson(service_.statsJson()).dump());
        break;
      case WireRequest::Kind::Replicate: {
        // Merging is a handful of map updates + one append per
        // accepted record: cheap enough to run on the event loop,
        // and doing so keeps replication strictly ordered per peer
        // connection.
        service_.metrics().onRequest("replicate");
        const auto res =
            service_.applyReplication(req->replicate_entries);
        pushDone(c, replicateReplyJson(
                        res.first, res.second + req->replicate_invalid)
                        .dump());
        break;
      }
      case WireRequest::Kind::Probe:
        service_.metrics().onRequest("probe");
        pushDone(c, probeReplyJson().dump());
        break;
      case WireRequest::Kind::Sync: {
        // A digest diff over the in-memory best map: read-only and
        // bounded, fine on the event loop like replicate merges.
        service_.metrics().onRequest("sync");
        pushDone(c, syncReplyJson(service_.syncEntries(
                                      req->sync_digest, kSyncMaxEntries))
                        .dump());
        break;
      }
      case WireRequest::Kind::Search: {
        const uint64_t id = c->id;
        auto ticket = service_.submit(
            req->search, [this, id] {
                {
                    MutexLock lk(done_mu_);
                    done_ids_.push_back(id);
                }
                wakeLoop();
            });
        Slot s;
        s.fut = std::move(ticket.reply);
        s.cancel = std::move(ticket.cancel);
        c->slots.push_back(std::move(s));
        break;
      }
    }
}

void
ServiceServer::pushDone(Conn *c, std::string reply)
{
    Slot s;
    s.done = true;
    s.reply = std::move(reply);
    c->slots.push_back(std::move(s));
}

void
ServiceServer::setPaused(Conn *c, bool paused)
{
    if (c->paused == paused || c->dead)
        return;
    c->paused = paused;
    poller_.mod(c->fd, !c->paused, c->write_armed);
}

void
ServiceServer::flushOut(Conn *c)
{
    // Serialize ready replies strictly from the front of the slot
    // queue: this is the pipelining ordering guarantee. A finished
    // search behind an unfinished one waits its turn.
    while (!c->slots.empty()) {
        Slot &s = c->slots.front();
        if (!s.done) {
            if (s.fut.valid() &&
                s.fut.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                break;
            s.reply = s.fut.valid()
                ? searchReplyJson(s.fut.get()).dump()
                : wireError(wire_errors::kInternal, "lost reply future").dump();
            s.done = true;
        }
        c->out += s.reply;
        c->out += '\n';
        c->slots.pop_front();
        touch(c);
    }
    // Write until the socket refuses; never block the loop.
    while (c->out_off < c->out.size()) {
        const ssize_t w =
            sysSend(c->fd, c->out.data() + c->out_off,
                    c->out.size() - c->out_off, MSG_NOSIGNAL,
                    fault_sites::kServerSend);
        if (w < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                if (!c->write_armed) {
                    c->write_armed = true;
                    poller_.mod(c->fd, !c->paused, true);
                }
                return;
            }
            destroyConn(c, true);
            return;
        }
        c->out_off += static_cast<size_t>(w);
        touch(c);
    }
    c->out.clear();
    c->out_off = 0;
    if (c->write_armed) {
        c->write_armed = false;
        poller_.mod(c->fd, !c->paused, false);
    }
}

void
ServiceServer::pump(Conn *c)
{
    while (!c->dead) {
        parseLines(c);
        flushOut(c);
        if (c->dead)
            return;
        if (c->want_close && c->slots.empty() &&
            c->out_off >= c->out.size()) {
            destroyConn(c, false);
            return;
        }
        // Flushing may have made room below the backpressure marks:
        // resume framing the residual input.
        if (c->paused && !c->want_close &&
            c->slots.size() < cfg_.max_pipeline &&
            c->out.size() - c->out_off < cfg_.max_buffered_bytes) {
            setPaused(c, false);
            continue;
        }
        return;
    }
}

void
ServiceServer::expireIdle(int64_t now_ms)
{
    std::vector<Conn *> expired;
    for (auto &kv : conns_) {
        Conn *c = kv.second.get();
        if (c->dead || c->want_close || !c->slots.empty() ||
            c->out.size() > c->out_off)
            continue;
        if (now_ms >= c->idle_deadline_ms)
            expired.push_back(c);
    }
    for (Conn *c : expired) {
        pushDone(c, wireError(wire_errors::kIdleTimeout,
                              "no request received in time")
                        .dump());
        c->want_close = true;
        pump(c);
    }
}

void
ServiceServer::destroyConn(Conn *c, bool cancel_inflight)
{
    if (c->dead)
        return;
    c->dead = true;
    if (cancel_inflight) {
        for (auto &s : c->slots)
            if (s.cancel)
                s.cancel->requestCancel();
    }
    poller_.del(c->fd);
    by_id_.erase(c->id);
    const auto it = conns_.find(c->fd);
    if (it != conns_.end()) {
        // Keep the object (and fd) alive until reapDead so events and
        // completion ids from this batch resolve against a live map
        // miss instead of a recycled fd.
        dead_.push_back(std::move(it->second));
        conns_.erase(it);
    }
}

void
ServiceServer::reapDead()
{
    for (auto &c : dead_)
        closeSocket(c->fd);
    dead_.clear();
}

} // namespace mse
