/**
 * @file
 * Wire protocol of the mapping-search service: one JSON object per
 * line, both directions.
 *
 * Requests:
 *
 *   {"type":"ping"}
 *   {"type":"stats"}
 *   {"type":"search",
 *    "workload": "wl1;..."                       // workload_io string
 *             | {"gemm":   {"b":16,"m":1024,"k":1024,"n":512}}
 *             | {"conv2d": {"b":16,"k":128,"c":128,
 *                           "y":28,"x":28,"r":3,"s":3}},
 *    "arch": "accel-A" | "accel-B"
 *          | {"npu": {"l2_bytes":..., "l1_bytes":...,
 *                     "num_pes":..., "alus_per_pe":...}},
 *    // all optional:
 *    "mapper":"gamma", "objective":"edp", "max_samples":2000,
 *    "seed":123, "warm_start":true, "warm_seeds":2, "sparse":false,
 *    "densities": {"Weights":0.4, "Inputs":0.5}, "deadline_ms":60000}
 *    // a densities key that names no tensor of the workload is a
 *    // bad_request
 *   {"type":"replicate","from":"host:port",
 *    "entries":[{<store record, see mapping_store.hpp>}, ...]}
 *   {"type":"probe","from":"host:port"}           // health-monitor ping
 *   {"type":"sync","from":"host:port",            // anti-entropy pull
 *    "digest":{"<store key>":<best score>, ...}}
 *
 * Unknown top-level fields are ignored on every request type (the
 * tolerant-reader rule, pinned by tests/test_wire.cpp): a newer client
 * adding a field must not break an older daemon, and vice versa.
 *
 * Replies always carry "ok". Success:
 *
 *   {"ok":true,"type":"search","mapping":"v1;...","score":...,
 *    "edp":...,"energy_uj":...,"latency_cycles":...,"samples":N,
 *    "samples_to_converge":N,"store":"cold"|"near"|"exact",
 *    "warm_distance":...,"store_improved":bool,"timed_out":bool,
 *    "cancelled":bool,"wall_ms":...,
 *    "eval_cache":{"hits":0,"misses":0}}
 *
 * Failure (parse errors, rejections, search failures alike):
 *
 *   {"ok":false,"error":{"code":"bad_request","message":"..."}}
 *
 * The codec lives apart from the TCP server so tests (and the bench)
 * can exercise request parsing and reply formatting without sockets.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "service/mapping_store.hpp"
#include "service/service.hpp"

namespace mse {

/** A decoded request line. */
struct WireRequest
{
    enum class Kind
    {
        Ping,
        Stats,
        Search,
        Replicate,
        Probe,
        Sync,
    };
    Kind kind = Kind::Ping;
    SearchRequest search; ///< Valid when kind == Search.

    /** Sender's advertised address on the daemon-to-daemon ops
     *  (replicate / probe / sync) — the inbound fault gate keys its
     *  per-peer filter on this. */
    std::string from;

    /** Replicate payload: decoded records. Entries that fail to decode
     *  are counted, not fatal — a peer running a newer build must not
     *  be able to wedge this daemon's replication stream. */
    std::vector<StoreEntry> replicate_entries;
    size_t replicate_invalid = 0;

    /** Sync payload: the caller's per-store-key best scores. The
     *  responder sends back exactly the records the caller is missing
     *  or losing on. */
    std::vector<std::pair<std::string, double>> sync_digest;
};

/**
 * Decode one request line. On failure returns nullopt and fills
 * error_code/error_message (suitable for wireError()).
 */
std::optional<WireRequest> parseWireRequest(const std::string &line,
                                            std::string *error_code,
                                            std::string *error_message);

/**
 * {"ok":false,"error":{"code":...,"message":...}}. A positive
 * retry_after_ms adds "retry_after_ms" to the error object: the
 * server-suggested client backoff for retryable codes (queue_full,
 * shutting_down, too_many_connections). The full code taxonomy is
 * documented in DESIGN.md Sec. 9.
 */
JsonValue wireError(const std::string &code, const std::string &message,
                    int retry_after_ms = 0);

/** Encode a search reply (success or structured failure). */
JsonValue searchReplyJson(const SearchReply &r);

/** {"ok":true,"type":"stats","stats":<stats>} */
JsonValue statsReplyJson(const JsonValue &stats);

/** {"ok":true,"type":"replicate","merged":N,"ignored":N} */
JsonValue replicateReplyJson(size_t merged, size_t ignored);

/** {"ok":true,"type":"ping"} */
JsonValue pingReplyJson();

/** {"ok":true,"type":"probe"} */
JsonValue probeReplyJson();

/** {"ok":true,"type":"sync","sent":N,"entries":[...]} */
JsonValue syncReplyJson(const std::vector<StoreEntry> &entries);

} // namespace mse
