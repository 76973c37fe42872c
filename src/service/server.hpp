/**
 * @file
 * ServiceServer: the line-delimited-JSON TCP front end over MseService.
 *
 * One loop thread multiplexes the listening socket, a self-wake pipe,
 * and every client connection (all non-blocking, level-triggered via
 * Poller). Searches never run on the loop thread: they are submitted
 * to MseService's executor workers with a completion hook that pushes
 * the connection id onto a queue and pokes the wake pipe, so the loop
 * wakes exactly when a reply becomes writable.
 *
 * Per-connection state machine (full invariants in DESIGN.md Sec. 11):
 *
 *   bytes -> in buffer -> line framing -> reply slots (FIFO) ->
 *   out buffer -> socket
 *
 *  - *Pipelining*: each parsed line appends one reply slot; slots are
 *    flushed strictly from the front, so replies leave in request
 *    order no matter which executor finishes first.
 *  - *Backpressure*: when a connection has max_pipeline in-flight
 *    slots or max_buffered_bytes pending output, the loop stops
 *    reading that socket (level-triggered readiness keeps the
 *    residual bytes claimable later); a full send buffer parks the
 *    remaining output and arms write interest. The loop itself never
 *    blocks on any one connection.
 *  - *Idle deadlines*: each connection carries an absolute
 *    steady-clock deadline, refreshed on any byte of progress; the
 *    wait timeout is the nearest deadline, so timeouts fire on time
 *    rather than in fixed ticks. A connection with requests in
 *    flight is never idle.
 *  - *Disconnect*: EOF/error cancels the connection's in-flight
 *    searches (their executor slots finish early and are dropped on
 *    the floor); other connections are untouched.
 *
 * Robustness rules, per line:
 *  - malformed JSON / bad request  -> structured error reply, keep
 *    the connection (a client bug shouldn't cost the session);
 *  - oversized line                -> structured error reply, then
 *    drop the session (framing is lost, the rest of the stream is
 *    junk);
 *  - peer silent past io_timeout   -> idle_timeout reply, then hang up
 *    (slow-loris guard).
 *
 * stop() drains: accepting stops first, in-flight requests are
 * cancelled (best-so-far replies still go out), then the service
 * queue drains.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "service/poller.hpp"
#include "service/service.hpp"

namespace mse {

/** TCP front-end configuration. */
struct ServerConfig
{
    /** Listen port on 127.0.0.1; 0 = kernel-assigned (see port()). */
    uint16_t port = 0;

    /** Close a connection whose peer stays silent this long. */
    int io_timeout_ms = 30000;

    /** Hard cap on one request line (oversized => error + close). */
    size_t max_line_bytes = 1 << 20;

    /** Connections beyond this are refused with an error reply. */
    size_t max_connections = 32;

    /** Readiness backend (Auto = epoll on Linux unless
     *  MSE_EVENT_BACKEND=poll). */
    Poller::Kind poller = Poller::Kind::Auto;

    /**
     * Pipelining cap: in-flight requests per connection before the
     * server pauses reading that socket (backpressure; nothing is
     * dropped — bytes queue in the kernel and the client blocks).
     */
    size_t max_pipeline = 64;

    /** Pending reply bytes per connection before reads pause (slow-
     *  reader guard; the loop itself never blocks on a full socket). */
    size_t max_buffered_bytes = 4u << 20;
};

/** The event-loop TCP server (see file comment). */
class ServiceServer
{
  public:
    ServiceServer(MseService &service, ServerConfig cfg = {});
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /** Bind, listen, spawn the loop thread. False + *err on failure. */
    bool start(std::string *err);

    /** Stop accepting, drain in-flight work, stop the service. */
    void stop();

    /** Actual listening port (after start; useful with cfg.port = 0). */
    uint16_t port() const { return port_; }

    /**
     * Flag the server to stop. Async-signal-safe: an atomic store plus
     * one byte written to the wake pipe.
     */
    void requestStop();

    /** True once requestStop() fired (or stop() ran). */
    bool stopRequested() const { return stop_flag_.load(); }

  private:
    /** One queued reply, kept in request order. */
    struct Slot
    {
        bool done = false;   ///< reply is final (immediate or fetched).
        std::string reply;   ///< framed JSON, no trailing newline.
        std::future<SearchReply> fut; ///< valid while a search runs.
        CancelTokenPtr cancel;        ///< cancels that search.
    };

    /** Per-connection state. */
    struct Conn
    {
        int fd = -1;
        uint64_t id = 0;       ///< monotonic; survives fd reuse.
        std::string in;        ///< unparsed request bytes.
        std::string out;       ///< unsent reply bytes.
        size_t out_off = 0;    ///< sent prefix of out.
        std::deque<Slot> slots;
        int64_t idle_deadline_ms = 0; ///< steady clock, absolute.
        bool want_close = false; ///< close after out drains.
        bool paused = false;     ///< read interest dropped (backpressure).
        bool write_armed = false;
        bool dead = false;       ///< awaiting reap (fd still open).
    };

    void loop();
    void acceptReady();
    void drainWake();
    void drainCompletions();
    /** Read until EAGAIN, parse lines, enqueue slots. */
    void readInput(Conn *c);
    /** Frame complete lines out of c->in into slots. */
    void parseLines(Conn *c);
    void handleLine(Conn *c, const std::string &line);
    /** Serialize ready head-of-line slots and write until EAGAIN. */
    void flushOut(Conn *c);
    /** parse/flush/resume fixpoint after any progress on c. */
    void pump(Conn *c);
    void pushDone(Conn *c, std::string reply);
    void setPaused(Conn *c, bool paused);
    void destroyConn(Conn *c, bool cancel_inflight);
    void expireIdle(int64_t now_ms);
    void reapDead();
    int64_t nextTimeoutMs(int64_t now_ms) const;
    void touch(Conn *c);
    /** Wake the loop from another thread (completion, stop). */
    void wakeLoop();

    MseService &service_;
    ServerConfig cfg_;
    int listen_fd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stop_flag_{false};
    int wake_r_ = -1;
    std::atomic<int> wake_w_{-1}; ///< atomic: requestStop is signal ctx.
    Poller poller_;
    std::thread loop_thread_;

    // Loop-thread-only state. conns_ is an ordered map: the loop
    // iterates it (idle scan, drain), and deterministic fd order keeps
    // those passes reproducible under MSE_FAULTS replay.
    uint64_t next_conn_id_ = 1;
    std::map<int, std::unique_ptr<Conn>> conns_; ///< by fd.
    std::unordered_map<uint64_t, Conn *> by_id_; ///< never iterated.
    std::vector<std::unique_ptr<Conn>> dead_; ///< closed at reap.
    std::vector<Poller::Event> events_;

    // Executor -> loop handoff: connection ids with a finished search.
    Mutex done_mu_;
    std::vector<uint64_t> done_ids_ GUARDED_BY(done_mu_);
};

} // namespace mse
