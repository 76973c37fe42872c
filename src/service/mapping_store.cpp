#include "service/mapping_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fcntl.h>
#include <limits>

#include "common/json.hpp"
#include "common/math_util.hpp"
#include "common/sys_io.hpp"
#include "core/model_sweep.hpp"
#include "mapping/mapping_io.hpp"
#include "workload/workload_io.hpp"
#include "common/fault_sites.hpp"

namespace mse {

const char *
storeHitName(StoreHit h)
{
    switch (h) {
      case StoreHit::Miss: return "cold";
      case StoreHit::Near: return "near";
      case StoreHit::Exact: return "exact";
    }
    return "unknown";
}

MappingStore::MappingStore(std::string path, bool fsync_each)
    : path_(std::move(path)), fsync_each_(fsync_each)
{
    if (!path_.empty())
        load();
}

namespace {

std::string
keyFromParts(const std::string &wl_sig_hex, const std::string &arch_sig,
             Objective objective, bool sparse)
{
    return wl_sig_hex + "|" + arch_sig + "|" + objectiveName(objective) +
        (sparse ? "|sparse" : "|dense");
}

} // namespace

std::string
MappingStore::keyOf(const Workload &wl, const ArchConfig &arch,
                    Objective objective, bool sparse)
{
    return keyFromParts(fnv1a64Hex(wl.signature()),
                        fnv1a64Hex(arch.signature()), objective, sparse);
}

std::string
MappingStore::keyOfEntry(const StoreEntry &e)
{
    return keyFromParts(fnv1a64Hex(e.workload.signature()), e.arch_sig,
                        e.objective, e.sparse);
}

JsonValue
MappingStore::encodeEntryJson(const StoreEntry &e)
{
    JsonValue j = JsonValue::object();
    j["v"] = 1;
    j["objective"] = objectiveName(e.objective);
    j["model"] = e.sparse ? "sparse" : "dense";
    j["arch_sig"] = e.arch_sig;
    j["workload"] = serializeWorkload(e.workload);
    j["mapping"] = serializeMapping(e.mapping);
    j["score"] = e.score;
    j["energy_uj"] = e.energy_uj;
    j["latency_cycles"] = e.latency_cycles;
    j["samples"] = e.samples;
    return j;
}

std::string
MappingStore::encodeEntry(const StoreEntry &e)
{
    return encodeEntryJson(e).dump();
}

namespace {

/** doc[key] as a view if it is a string, else "" (the JSON tree owns it). */
std::string_view
stringField(const JsonValue &doc, const std::string &key)
{
    const JsonValue *v = doc.find(key);
    return v && v->isString() ? std::string_view(v->asString())
                              : std::string_view();
}

} // namespace

std::optional<StoreEntry>
MappingStore::decodeEntryJson(const JsonValue &doc)
{
    if (!doc.isObject())
        return std::nullopt;
    if (doc.getInt("v", 0) != 1)
        return std::nullopt;
    const auto objective = objectiveFromName(
        doc.getString("objective", ""));
    if (!objective)
        return std::nullopt;
    auto wl = parseWorkload(stringField(doc, "workload"));
    if (!wl)
        return std::nullopt;
    auto mapping = parseMapping(stringField(doc, "mapping"));
    if (!mapping || mapping->numDims() != wl->numDims())
        return std::nullopt;
    // A mapping must fit its own workload. Its level count belongs to
    // the architecture, which a record names only by signature, so
    // scaleFrom checks that where the record is used.
    for (int l = 0; l < mapping->numLevels(); ++l) {
        if (mapping->level(l).keep.size() >
            static_cast<size_t>(wl->numTensors()))
            return std::nullopt;
    }
    const std::string model = doc.getString("model", "dense");
    if (model != "dense" && model != "sparse")
        return std::nullopt;
    StoreEntry e;
    e.workload = std::move(*wl);
    // Constructed, not assigned from the view: assigning 16 bytes to an
    // empty string reserves 30, and every stored entry keeps one.
    e.arch_sig = std::string(stringField(doc, "arch_sig"));
    e.objective = *objective;
    e.sparse = model == "sparse";
    e.mapping = std::move(*mapping);
    e.score = doc.getDouble("score", 0.0);
    e.energy_uj = doc.getDouble("energy_uj", 0.0);
    e.latency_cycles = doc.getDouble("latency_cycles", 0.0);
    const int64_t samples = doc.getInt("samples", 0);
    e.samples = static_cast<uint64_t>(samples);
    if (e.arch_sig.size() != 16 || !(e.score > 0.0) ||
        !std::isfinite(e.score) || samples < 0)
        return std::nullopt;
    return e;
}

std::optional<StoreEntry>
MappingStore::decodeEntry(std::string_view line)
{
    const auto doc = parseJson(line);
    if (!doc)
        return std::nullopt;
    return decodeEntryJson(*doc);
}

namespace {

/** The Near index's per-dimension coordinate of wl. */
double
logBound(const Workload &wl, int d)
{
    return std::log2(static_cast<double>(wl.bound(d)));
}

} // namespace

std::string
MappingStore::bucketKey(const Workload &wl, const std::string &arch_sig,
                        Objective objective, bool sparse)
{
    std::string key = arch_sig + "|" + objectiveName(objective) +
        (sparse ? "|sparse" : "|dense");
    // Dim names are free text: length-prefix them so two different
    // name lists can never share a bucket (rows of one bucket must
    // line up dimension by dimension).
    for (const std::string &name : wl.dimNames()) {
        key += '|';
        key += std::to_string(name.size());
        key += ':';
        key += name;
    }
    return key;
}

void
MappingStore::indexLocked(const Node &node)
{
    const StoreEntry &e = node.second;
    NearBucket &b =
        near_[bucketKey(e.workload, e.arch_sig, e.objective, e.sparse)];
    b.nodes.push_back(&node);
    for (int d = 0; d < e.workload.numDims(); ++d)
        b.log_bounds.push_back(logBound(e.workload, d));
}

void
MappingStore::unindexLocked(const Node &node)
{
    const StoreEntry &e = node.second;
    NearBucket &b =
        near_.at(bucketKey(e.workload, e.arch_sig, e.objective, e.sparse));
    const size_t dims = e.workload.dimNames().size();
    const size_t row = static_cast<size_t>(
        std::find(b.nodes.begin(), b.nodes.end(), &node) -
        b.nodes.begin());
    // Swap-remove: row order within a bucket is irrelevant.
    const size_t last = b.nodes.size() - 1;
    b.nodes[row] = b.nodes[last];
    b.nodes.pop_back();
    std::copy_n(b.log_bounds.begin() + static_cast<ptrdiff_t>(last * dims),
                dims,
                b.log_bounds.begin() + static_cast<ptrdiff_t>(row * dims));
    b.log_bounds.resize(last * dims);
}

void
MappingStore::replaceLocked(Node &node, StoreEntry e)
{
    // One key is one workload signature, so the row can only go stale
    // if two signatures collide under fnv1a64: re-index it if it does.
    const Workload &old = node.second.workload;
    const bool stale = old.dimNames() != e.workload.dimNames() ||
        old.bounds() != e.workload.bounds();
    if (stale)
        unindexLocked(node);
    node.second = std::move(e);
    if (stale)
        indexLocked(node);
}

void
MappingStore::ingestLineLocked(std::string_view line)
{
    auto entry = decodeEntry(line);
    if (!entry) {
        // Torn tail or bit-rotted line: skip, keep the rest.
        ++malformed_;
        return;
    }
    const std::string key = keyOfEntry(*entry);
    ++key_appends_[key];
    const auto it = best_.find(key);
    if (it == best_.end()) {
        indexLocked(*best_.emplace(key, std::move(*entry)).first);
    } else {
        ++dead_;
        if (entry->score < it->second.score)
            replaceLocked(*it, std::move(*entry));
    }
}

size_t
MappingStore::load()
{
    MutexLock lk(mu_);
    best_.clear();
    near_.clear();
    key_appends_.clear();
    malformed_ = 0;
    dead_ = 0;
    append_failures_ = 0;
    degraded_ = false;
    tail_unterminated_ = false;
    if (path_.empty())
        return 0;
    const int fd = sysOpen(path_.c_str(), O_RDONLY, 0, fault_sites::kStoreOpen);
    if (fd < 0) {
        if (errno != ENOENT) {
            // Exists but unreadable (EIO, EACCES, ...): appending to a
            // file we cannot read risks clobbering records we never
            // saw — serve empty, read-only.
            degraded_ = true;
        }
        return 0; // Missing file = fresh store.
    }
    std::string pending; // Bytes read, not yet terminated by '\n'.
    char chunk[1 << 16];
    while (true) {
        const ssize_t r =
            sysRead(fd, chunk, sizeof(chunk), fault_sites::kStoreRead);
        if (r < 0) {
            // Mid-file read error: keep the parsed prefix, go
            // read-only (appending after an unknown suffix could
            // shadow or merge with records we never saw).
            degraded_ = true;
            pending.clear();
            break;
        }
        if (r == 0)
            break;
        pending.append(chunk, static_cast<size_t>(r));
        size_t start = 0;
        while (true) {
            const size_t nl = pending.find('\n', start);
            if (nl == std::string::npos)
                break;
            ingestLineLocked(
                std::string_view(pending).substr(start, nl - start));
            start = nl + 1;
        }
        pending.erase(0, start);
    }
    if (!pending.empty()) {
        tail_unterminated_ = true; // crash mid-append
        ingestLineLocked(pending);
    }
    sysClose(fd);
    return best_.size();
}

MappingStore::Lookup
MappingStore::lookup(const Workload &wl, const ArchConfig &arch,
                     Objective objective, bool sparse,
                     double max_distance) const
{
    // Signatures are hashed before taking the lock.
    const std::string arch_sig = fnv1a64Hex(arch.signature());
    const std::string key = keyFromParts(fnv1a64Hex(wl.signature()),
                                         arch_sig, objective, sparse);
    const std::string bucket_key =
        bucketKey(wl, arch_sig, objective, sparse);
    MutexLock lk(mu_);
    Lookup out;
    const auto it = best_.find(key);
    if (it != best_.end()) {
        out.hit = StoreHit::Exact;
        out.entry = it->second;
        out.distance = 0.0;
        return out;
    }
    // Nearest same-arch, same-objective neighbor whose mapping can seed
    // this workload's map space (BoundRatio: total |log2| bound drift).
    // Only the query's bucket can hold one (same dim names).
    const auto bucket = near_.find(bucket_key);
    if (bucket == near_.end())
        return out;
    const NearBucket &b = bucket->second;
    const size_t dims = wl.dimNames().size();
    std::vector<double> q(dims);
    for (size_t d = 0; d < dims; ++d)
        q[d] = logBound(wl, static_cast<int>(d));
    // Pass 1: the precomputed logs give the BoundRatio distance up to
    // a few ulps of rounding. Keep every row within tolerance of the
    // running minimum: that covers every row within tolerance of the
    // final one.
    const auto cutoffOf = [](double m) { return m + 1e-9 * (1.0 + m); };
    double min_row = std::numeric_limits<double>::infinity();
    std::vector<std::pair<double, const Node *>> near;
    for (size_t row = 0; row < b.nodes.size(); ++row) {
        const double *r = b.log_bounds.data() + row * dims;
        double f = 0.0;
        for (size_t d = 0; d < dims; ++d)
            f += std::fabs(q[d] - r[d]);
        if (f > cutoffOf(min_row))
            continue;
        min_row = std::min(min_row, f);
        near.emplace_back(f, b.nodes[row]);
    }
    // Pass 2: rescore the survivors near the final minimum with the
    // exact metric; the tolerance dwarfs the rounding, so the true
    // nearest rows are all among them. Min-reduction with a total
    // order (distance, then key): the choice does not depend on row
    // order.
    const double cutoff = cutoffOf(min_row);
    double best_dist = std::numeric_limits<double>::infinity();
    const Node *best = nullptr;
    for (const auto &[f, node] : near) {
        if (f > cutoff)
            continue;
        const double d = workloadDistance(SimilarityMetric::BoundRatio,
                                          wl, node->second.workload);
        if (d < best_dist ||
            (d == best_dist && best && node->first < best->first)) {
            best_dist = d;
            best = node;
        }
    }
    if (best && best_dist <= max_distance) {
        out.hit = StoreHit::Near;
        out.entry = best->second;
        out.distance = best_dist;
    }
    return out;
}

bool
MappingStore::appendLocked(const StoreEntry &e)
{
    if (path_.empty())
        return true;
    if (degraded_) {
        // Read-only mode: the disk already failed us once; do not
        // keep hammering it (or risk interleaving with whatever the
        // failure left behind). tryRecover() is the way back.
        ++append_failures_;
        return false;
    }
    const int fd = sysOpen(path_.c_str(),
                           O_WRONLY | O_APPEND | O_CREAT, 0644,
                           fault_sites::kStoreOpen);
    if (fd < 0) {
        ++append_failures_;
        degraded_ = true;
        return false;
    }
    std::string line;
    if (tail_unterminated_) {
        // Seal the torn tail so this record starts on its own line
        // (the half-line stays on disk and is skipped at load).
        line += '\n';
        tail_unterminated_ = false;
    }
    line += encodeEntry(e);
    line += '\n';
    // One write() per record: a SIGKILL between syscalls can at worst
    // truncate this record (handled at load), never merge two.
    bool ok = sysWriteAll(fd, line.data(), line.size(),
                          fault_sites::kStoreAppend);
    if (ok && fsync_each_)
        ok = sysFsync(fd, fault_sites::kStoreFsync) == 0;
    sysClose(fd);
    if (!ok) {
        // The record may be partially on disk: treat the tail as torn
        // so a same-process retry would seal it first.
        tail_unterminated_ = true;
        ++append_failures_;
        degraded_ = true;
    }
    return ok;
}

bool
MappingStore::upsertLocked(const std::string &key, const StoreEntry &e)
{
    const auto it = best_.find(key);
    if (it != best_.end() && it->second.score <= e.score)
        return false;
    if (it != best_.end()) {
        replaceLocked(*it, e);
        ++dead_;
    } else {
        indexLocked(*best_.emplace(key, e).first);
    }
    ++key_appends_[key];
    appendLocked(e);
    if (!degraded_ && dead_ > std::max<size_t>(16, best_.size()))
        compactLocked();
    return true;
}

bool
MappingStore::recordIfBetter(const Workload &wl, const ArchConfig &arch,
                             Objective objective, bool sparse,
                             const Mapping &mapping, double score,
                             double energy_uj, double latency_cycles,
                             uint64_t samples)
{
    if (!(score > 0.0) || !std::isfinite(score))
        return false;
    MutexLock lk(mu_);
    StoreEntry e;
    e.workload = wl;
    e.arch_sig = fnv1a64Hex(arch.signature());
    e.objective = objective;
    e.sparse = sparse;
    e.mapping = mapping;
    e.score = score;
    e.energy_uj = energy_uj;
    e.latency_cycles = latency_cycles;
    e.samples = samples;
    return upsertLocked(keyOf(wl, arch, objective, sparse), e);
}

bool
MappingStore::mergeEntry(const StoreEntry &e)
{
    if (e.arch_sig.size() != 16 || !(e.score > 0.0) ||
        !std::isfinite(e.score))
        return false;
    MutexLock lk(mu_);
    return upsertLocked(keyOfEntry(e), e);
}

bool
MappingStore::compactLocked()
{
    if (path_.empty()) {
        dead_ = 0;
        return true;
    }
    const std::string tmp = path_ + ".tmp";
    const int fd = sysOpen(tmp.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC, 0644,
                           fault_sites::kStoreCompact);
    if (fd < 0)
        return false;
    bool ok = true;
    // Write records in sorted key order: the compacted file's bytes
    // must not depend on hash-map iteration order, so two stores that
    // hold identical entries compact to identical files.
    std::vector<const std::string *> keys;
    keys.reserve(best_.size());
    // mse-lint: allow(unordered-iter) keys are sorted before use
    for (const auto &kv : best_)
        keys.push_back(&kv.first);
    std::sort(keys.begin(), keys.end(),
              [](const std::string *a, const std::string *b) {
                  return *a < *b;
              });
    for (const std::string *key : keys) {
        std::string line = encodeEntry(best_.at(*key));
        line += '\n';
        ok = ok && sysWriteAll(fd, line.data(), line.size(),
                               fault_sites::kStoreCompact);
    }
    // fsync before rename: the rename must never make a half-written
    // compaction the only copy of the store.
    ok = ok && sysFsync(fd, fault_sites::kStoreFsync) == 0;
    ok = sysClose(fd) == 0 && ok;
    if (!ok) {
        sysUnlink(tmp.c_str(), fault_sites::kStoreUnlink);
        return false;
    }
    if (sysRename(tmp.c_str(), path_.c_str(), fault_sites::kStoreRename) != 0) {
        sysUnlink(tmp.c_str(), fault_sites::kStoreUnlink);
        return false;
    }
    dead_ = 0;
    tail_unterminated_ = false;
    return true;
}

bool
MappingStore::compact()
{
    MutexLock lk(mu_);
    return compactLocked();
}

size_t
MappingStore::size() const
{
    MutexLock lk(mu_);
    return best_.size();
}

size_t
MappingStore::malformedLines() const
{
    MutexLock lk(mu_);
    return malformed_;
}

size_t
MappingStore::deadLines() const
{
    MutexLock lk(mu_);
    return dead_;
}

bool
MappingStore::degraded() const
{
    MutexLock lk(mu_);
    return degraded_;
}

size_t
MappingStore::appendFailures() const
{
    MutexLock lk(mu_);
    return append_failures_;
}

std::vector<std::pair<std::string, uint64_t>>
MappingStore::keyAppendCounts() const
{
    MutexLock lk(mu_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(key_appends_.size());
    // mse-lint: allow(unordered-iter) sorted before return
    for (const auto &kv : key_appends_)
        out.push_back(kv);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::string, double>>
MappingStore::bestScores() const
{
    MutexLock lk(mu_);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(best_.size());
    // mse-lint: allow(unordered-iter) sorted before return
    for (const auto &kv : best_)
        out.emplace_back(kv.first, kv.second.score);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<StoreEntry>
MappingStore::entriesBetterThan(
    const std::vector<std::pair<std::string, double>> &digest,
    size_t max_entries) const
{
    std::unordered_map<std::string, double> peer_best;
    peer_best.reserve(digest.size());
    for (const auto &kv : digest)
        peer_best[kv.first] = kv.second;
    MutexLock lk(mu_);
    std::vector<std::pair<std::string, const StoreEntry *>> picked;
    // mse-lint: allow(unordered-iter) sorted before return
    for (const auto &kv : best_) {
        const auto it = peer_best.find(kv.first);
        if (it == peer_best.end() || kv.second.score < it->second)
            picked.emplace_back(kv.first, &kv.second);
    }
    std::sort(picked.begin(), picked.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    if (max_entries > 0 && picked.size() > max_entries)
        picked.resize(max_entries);
    std::vector<StoreEntry> out;
    out.reserve(picked.size());
    for (const auto &kv : picked)
        out.push_back(*kv.second);
    return out;
}

bool
MappingStore::tryRecover()
{
    MutexLock lk(mu_);
    if (!degraded_)
        return true;
    // The in-memory live set is a superset of everything disk lost
    // (appends kept updating it while degraded), so a successful
    // atomic rewrite both repairs the file and catches it up.
    if (!compactLocked())
        return false;
    degraded_ = false;
    return true;
}

} // namespace mse
