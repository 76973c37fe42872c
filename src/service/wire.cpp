#include "service/wire.hpp"

#include <algorithm>
#include <cmath>

#include "workload/workload_io.hpp"
#include "service/error_codes.hpp"

namespace mse {

namespace {

bool
fail(std::string *code, std::string *msg, const char *c,
     const std::string &m)
{
    if (code)
        *code = c;
    if (msg)
        *msg = m;
    return false;
}

int64_t
requireDim(const JsonValue &o, const char *key, bool *ok)
{
    const JsonValue *v = o.find(key);
    if (!v || !v->isNumber() || v->asDouble() < 1.0 ||
        v->asDouble() != std::floor(v->asDouble())) {
        *ok = false;
        return 0;
    }
    return static_cast<int64_t>(v->asDouble());
}

bool
parseWorkloadField(const JsonValue &v, Workload *out, std::string *code,
                   std::string *msg)
{
    if (v.isString()) {
        const auto wl = parseWorkload(v.asString());
        if (!wl)
            return fail(code, msg, wire_errors::kBadWorkload,
                        "unparseable wl1 workload string");
        *out = *wl;
        return true;
    }
    if (!v.isObject())
        return fail(code, msg, wire_errors::kBadWorkload,
                    "workload must be a wl1 string or an object");
    if (const JsonValue *g = v.find("gemm")) {
        if (!g->isObject())
            return fail(code, msg, wire_errors::kBadWorkload,
                        "gemm spec must be an object");
        bool ok = true;
        const int64_t b = requireDim(*g, "b", &ok);
        const int64_t m = requireDim(*g, "m", &ok);
        const int64_t k = requireDim(*g, "k", &ok);
        const int64_t n = requireDim(*g, "n", &ok);
        if (!ok)
            return fail(code, msg, wire_errors::kBadWorkload,
                        "gemm needs positive integer b, m, k, n");
        *out = makeGemm(g->getString("name", "gemm"), b, m, k, n);
        return true;
    }
    if (const JsonValue *c = v.find("conv2d")) {
        if (!c->isObject())
            return fail(code, msg, wire_errors::kBadWorkload,
                        "conv2d spec must be an object");
        bool ok = true;
        const int64_t b = requireDim(*c, "b", &ok);
        const int64_t k = requireDim(*c, "k", &ok);
        const int64_t ch = requireDim(*c, "c", &ok);
        const int64_t y = requireDim(*c, "y", &ok);
        const int64_t x = requireDim(*c, "x", &ok);
        const int64_t r = requireDim(*c, "r", &ok);
        const int64_t s = requireDim(*c, "s", &ok);
        if (!ok)
            return fail(code, msg, wire_errors::kBadWorkload,
                        "conv2d needs positive integer "
                        "b, k, c, y, x, r, s");
        *out = makeConv2d(c->getString("name", "conv2d"), b, k, ch, y,
                          x, r, s);
        return true;
    }
    return fail(code, msg, wire_errors::kBadWorkload,
                "workload object needs a \"gemm\" or \"conv2d\" spec");
}

bool
parseArchField(const JsonValue &v, ArchConfig *out, std::string *code,
               std::string *msg)
{
    if (v.isString()) {
        const std::string name = v.asString();
        if (name == "accel-A" || name == "accel-a") {
            *out = accelA();
            return true;
        }
        if (name == "accel-B" || name == "accel-b") {
            *out = accelB();
            return true;
        }
        return fail(code, msg, wire_errors::kBadArch,
                    "unknown arch preset '" + name +
                        "' (want accel-A or accel-B)");
    }
    if (!v.isObject())
        return fail(code, msg, wire_errors::kBadArch,
                    "arch must be a preset name or an object");
    const JsonValue *n = v.find("npu");
    if (!n || !n->isObject())
        return fail(code, msg, wire_errors::kBadArch,
                    "arch object needs an \"npu\" spec");
    bool ok = true;
    const int64_t l2 = requireDim(*n, "l2_bytes", &ok);
    const int64_t l1 = requireDim(*n, "l1_bytes", &ok);
    const int64_t pes = requireDim(*n, "num_pes", &ok);
    const int64_t alus = requireDim(*n, "alus_per_pe", &ok);
    if (!ok)
        return fail(code, msg, wire_errors::kBadArch,
                    "npu needs positive integer l2_bytes, l1_bytes, "
                    "num_pes, alus_per_pe");
    *out = makeNpu(n->getString("name", "npu"), l2, l1, pes, alus);
    return true;
}

} // namespace

std::optional<WireRequest>
parseWireRequest(const std::string &line, std::string *error_code,
                 std::string *error_message)
{
    std::string parse_err;
    const auto doc = parseJson(line, &parse_err);
    if (!doc) {
        fail(error_code, error_message, wire_errors::kBadJson, parse_err);
        return std::nullopt;
    }
    if (!doc->isObject()) {
        fail(error_code, error_message, wire_errors::kBadRequest,
             "request must be a JSON object");
        return std::nullopt;
    }
    const std::string type = doc->getString("type", "");
    WireRequest req;
    if (type == "ping") {
        req.kind = WireRequest::Kind::Ping;
        return req;
    }
    if (type == "stats") {
        req.kind = WireRequest::Kind::Stats;
        return req;
    }
    if (type == "replicate") {
        req.kind = WireRequest::Kind::Replicate;
        req.from = doc->getString("from", "");
        const JsonValue *entries = doc->find("entries");
        if (!entries || !entries->isArray()) {
            fail(error_code, error_message, wire_errors::kBadRequest,
                 "replicate request needs an \"entries\" array");
            return std::nullopt;
        }
        for (const JsonValue &item : entries->items()) {
            auto e = MappingStore::decodeEntryJson(item);
            if (e)
                req.replicate_entries.push_back(std::move(*e));
            else
                ++req.replicate_invalid; // Skip, never wedge the peer.
        }
        return req;
    }
    if (type == "probe") {
        req.kind = WireRequest::Kind::Probe;
        req.from = doc->getString("from", "");
        return req;
    }
    if (type == "sync") {
        req.kind = WireRequest::Kind::Sync;
        req.from = doc->getString("from", "");
        const JsonValue *digest = doc->find("digest");
        if (!digest || !digest->isObject()) {
            fail(error_code, error_message, wire_errors::kBadRequest,
                 "sync request needs a \"digest\" object");
            return std::nullopt;
        }
        for (const auto &kv : digest->members()) {
            // Non-numeric digest values are skipped, not fatal: the
            // responder then treats the key as missing and ships the
            // record — extra data merges idempotently.
            if (kv.second.isNumber())
                req.sync_digest.emplace_back(kv.first,
                                             kv.second.asDouble());
        }
        return req;
    }
    if (type != "search") {
        fail(error_code, error_message, wire_errors::kBadRequest,
             "unknown request type '" + type +
                 "' (want ping, stats, search, replicate, probe, or "
                 "sync)");
        return std::nullopt;
    }

    req.kind = WireRequest::Kind::Search;
    SearchRequest &s = req.search;

    const JsonValue *wl = doc->find("workload");
    if (!wl) {
        fail(error_code, error_message, wire_errors::kBadWorkload,
             "search request needs a \"workload\"");
        return std::nullopt;
    }
    if (!parseWorkloadField(*wl, &s.workload, error_code,
                            error_message))
        return std::nullopt;

    const JsonValue *arch = doc->find("arch");
    if (!arch) {
        fail(error_code, error_message, wire_errors::kBadArch,
             "search request needs an \"arch\"");
        return std::nullopt;
    }
    if (!parseArchField(*arch, &s.arch, error_code, error_message))
        return std::nullopt;

    s.mapper = doc->getString("mapper", s.mapper);
    const std::string obj_name = doc->getString("objective", "edp");
    const auto obj = objectiveFromName(obj_name);
    if (!obj) {
        fail(error_code, error_message, wire_errors::kBadRequest,
             "unknown objective '" + obj_name + "'");
        return std::nullopt;
    }
    s.objective = *obj;

    const double samples = doc->getDouble("max_samples", 0.0);
    if (samples < 0.0) {
        fail(error_code, error_message, wire_errors::kBadRequest,
             "max_samples must be >= 0");
        return std::nullopt;
    }
    s.max_samples = static_cast<size_t>(samples);
    if (const JsonValue *seed = doc->find("seed")) {
        if (!seed->isNumber()) {
            fail(error_code, error_message, wire_errors::kBadRequest,
                 "seed must be a number");
            return std::nullopt;
        }
        s.seed = static_cast<uint64_t>(seed->asDouble());
        s.seed_set = true;
    }
    s.warm_start = doc->getBool("warm_start", s.warm_start);
    s.warm_seeds = static_cast<size_t>(
        doc->getDouble("warm_seeds", static_cast<double>(s.warm_seeds)));
    s.sparse = doc->getBool("sparse", s.sparse);
    if (const JsonValue *dens = doc->find("densities")) {
        if (!dens->isObject()) {
            fail(error_code, error_message, wire_errors::kBadRequest,
                 "densities must be an object of tensor -> density");
            return std::nullopt;
        }
        for (const auto &kv : dens->members()) {
            if (!kv.second.isNumber() || kv.second.asDouble() <= 0.0 ||
                kv.second.asDouble() > 1.0) {
                fail(error_code, error_message, wire_errors::kBadRequest,
                     "density of '" + kv.first +
                         "' must be in (0, 1]");
                return std::nullopt;
            }
            const auto &tensors = s.workload.tensors();
            if (std::none_of(tensors.begin(), tensors.end(),
                             [&](const TensorSpec &t) {
                                 return t.name == kv.first;
                             })) {
                fail(error_code, error_message, wire_errors::kBadRequest,
                     "densities names unknown tensor '" + kv.first + "'");
                return std::nullopt;
            }
            s.workload.setDensity(kv.first, kv.second.asDouble());
        }
    }
    const double deadline_ms = doc->getDouble("deadline_ms", 0.0);
    if (deadline_ms < 0.0) {
        fail(error_code, error_message, wire_errors::kBadRequest,
             "deadline_ms must be >= 0");
        return std::nullopt;
    }
    s.deadline_seconds = deadline_ms / 1000.0;
    return req;
}

JsonValue
wireError(const std::string &code, const std::string &message,
          int retry_after_ms)
{
    JsonValue j = JsonValue::object();
    j["ok"] = false;
    JsonValue &e = j["error"];
    e["code"] = code;
    e["message"] = message;
    if (retry_after_ms > 0)
        e["retry_after_ms"] = retry_after_ms;
    return j;
}

JsonValue
searchReplyJson(const SearchReply &r)
{
    if (!r.ok) {
        JsonValue j = wireError(r.error_code, r.error_message,
                                r.retry_after_ms);
        // wrong_shard rejections name the owning daemon so a routing
        // client can fix its ring view and retry in one hop.
        if (!r.error_owner.empty())
            j["error"]["owner"] = r.error_owner;
        return j;
    }
    JsonValue j = JsonValue::object();
    j["ok"] = true;
    j["type"] = "search";
    j["mapping"] = r.mapping;
    j["score"] = r.score;
    j["edp"] = r.edp;
    j["energy_uj"] = r.energy_uj;
    j["latency_cycles"] = r.latency_cycles;
    j["samples"] = static_cast<uint64_t>(r.samples);
    j["samples_to_converge"] =
        static_cast<uint64_t>(r.samples_to_converge);
    j["samples_to_incumbent"] =
        static_cast<uint64_t>(r.samples_to_incumbent);
    j["store"] = storeHitName(r.store_hit);
    j["warm_distance"] = r.warm_distance;
    j["store_improved"] = r.store_improved;
    j["timed_out"] = r.timed_out;
    // mse-lint: allow(dup-literal) reply-schema field, not an error code
    j["cancelled"] = r.cancelled;
    j["wall_ms"] = r.wall_seconds * 1e3;
    // Cluster observability: which daemon answered, and the store key
    // the result lives under (lets harnesses check ring placement and
    // per-key monotonicity without re-deriving signature hashes).
    if (!r.served_by.empty())
        j["served_by"] = r.served_by;
    if (!r.store_key.empty())
        j["store_key"] = r.store_key;
    JsonValue &cache = j["eval_cache"];
    cache["hits"] = static_cast<uint64_t>(r.eval_cache_hits);
    cache["misses"] = static_cast<uint64_t>(r.eval_cache_misses);
    return j;
}

JsonValue
statsReplyJson(const JsonValue &stats)
{
    JsonValue j = JsonValue::object();
    j["ok"] = true;
    j["type"] = "stats";
    j["stats"] = stats;
    return j;
}

JsonValue
replicateReplyJson(size_t merged, size_t ignored)
{
    JsonValue j = JsonValue::object();
    j["ok"] = true;
    j["type"] = "replicate";
    j["merged"] = static_cast<uint64_t>(merged);
    j["ignored"] = static_cast<uint64_t>(ignored);
    return j;
}

JsonValue
pingReplyJson()
{
    JsonValue j = JsonValue::object();
    j["ok"] = true;
    j["type"] = "ping";
    return j;
}

JsonValue
probeReplyJson()
{
    JsonValue j = JsonValue::object();
    j["ok"] = true;
    j["type"] = "probe";
    return j;
}

JsonValue
syncReplyJson(const std::vector<StoreEntry> &entries)
{
    JsonValue j = JsonValue::object();
    j["ok"] = true;
    j["type"] = "sync";
    j["sent"] = static_cast<uint64_t>(entries.size());
    JsonValue &arr = j["entries"];
    arr = JsonValue::array();
    for (const StoreEntry &e : entries)
        arr.push(MappingStore::encodeEntryJson(e));
    return j;
}

} // namespace mse
