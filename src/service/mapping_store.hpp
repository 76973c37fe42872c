/**
 * @file
 * Persistent store of best-known mappings.
 *
 * The paper's warm-start result (Sec. 5.1.3, Figs. 9-11) shows that
 * seeding a search from a previously solved similar workload is the
 * dominant lever for samples-to-quality. The MappingStore turns that
 * from a per-process trick into a cross-run, cross-client capability:
 * a database keyed by (workload signature, arch signature, objective)
 * holding the best mapping ever found for each key, loaded at service
 * startup and written back whenever a search improves on it.
 *
 * On-disk format: append-only line-delimited JSON. One record per line:
 *
 *   {"v":1,"objective":"EDP","arch_sig":"<16-hex fnv1a of
 *    ArchConfig::signature()>","workload":"wl1;...","mapping":"v1;...",
 *    "score":...,"energy_uj":...,"latency_cycles":...,"samples":N}
 *
 * Append-only makes every write crash-safe: a torn final line is
 * dropped at the next load (the valid prefix survives), and a record
 * is only ever superseded by a later, better record for the same key.
 * load() keeps the best record per key; when the file accumulates too
 * many superseded lines, compact() atomically rewrites it (temp file +
 * rename) down to the live set.
 *
 * Thread safety: every public method locks the store mutex, so
 * concurrent request handlers serialize their reads and write-backs.
 *
 * Failure behavior (see DESIGN.md Sec. 9): all disk I/O goes through
 * the sys_io seam, so ENOSPC/EIO (real or injected via MSE_FAULTS)
 * surface here instead of aborting. A failed append flips the store
 * into *degraded* read-only mode: in-memory bests keep updating and
 * lookups keep answering, but the disk is left alone until
 * tryRecover() succeeds. The service surfaces degraded() in stats.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "common/json.hpp"
#include "common/thread_annotations.hpp"
#include "core/objective.hpp"
#include "mapping/mapping.hpp"
#include "workload/workload.hpp"

namespace mse {

/** One best-known-mapping record. */
struct StoreEntry
{
    Workload workload;       ///< Source workload (scaleFrom seed).
    std::string arch_sig;    ///< fnv1a64Hex(arch.signature()).
    Objective objective = Objective::Edp;
    Mapping mapping;
    double score = 0.0;      ///< Objective score (lower is better).
    double energy_uj = 0.0;
    double latency_cycles = 0.0;
    uint64_t samples = 0;    ///< Search samples spent finding it.

    /** Scored by the sparse cost model (separate key space: dense and
     *  sparse scores are not comparable). */
    bool sparse = false;
};

/** How a store lookup was satisfied. */
enum class StoreHit
{
    Miss,  ///< Nothing usable: cold-start the search.
    Near,  ///< Similar workload on the same arch: warm via scaleFrom.
    Exact, ///< Same (workload, arch, objective): warm from the record.
};

/** Printable name ("cold" / "near" / "exact"). */
const char *storeHitName(StoreHit h);

/** Signature-keyed persistent map of best-known mappings. */
class MappingStore
{
  public:
    /**
     * Empty path = purely in-memory (tests, benches). fsync_each
     * makes every append durable against machine crash (not just
     * process death) at a large throughput cost.
     */
    explicit MappingStore(std::string path = "",
                          bool fsync_each = false);

    const std::string &path() const { return path_; }

    /**
     * Load (or re-load) the backing file, replacing in-memory contents.
     * Malformed or truncated lines are skipped and counted; for each
     * key the best-scoring record wins. Returns the number of live
     * entries (0 for a missing file — a fresh store).
     */
    size_t load() EXCLUDES(mu_);

    /** Result of a lookup: the entry plus how close it is. */
    struct Lookup
    {
        StoreHit hit = StoreHit::Miss;
        StoreEntry entry;        ///< Valid when hit != Miss.
        double distance = -1.0;  ///< Workload distance (0 for Exact).
    };

    /**
     * Best warm-start source for (wl, arch, objective, model): the
     * exact key if present, else the nearest same-arch same-objective
     * same-model entry with compatible dimensionality within
     * max_distance (BoundRatio units, i.e. total |log2| bound drift).
     * Ties go to the least store key. Cost: one bucket of the private
     * near-neighbour index, not the whole store.
     */
    Lookup lookup(const Workload &wl, const ArchConfig &arch,
                  Objective objective, bool sparse,
                  double max_distance) const EXCLUDES(mu_);

    /**
     * Record a search outcome if it beats the stored best for its key
     * (or the key is new). Appends one line to the backing file and
     * returns true when the store was updated; a worse-or-equal score
     * is a no-op. Triggers an automatic compact() when superseded
     * lines outnumber max(16, live entries).
     */
    bool recordIfBetter(const Workload &wl, const ArchConfig &arch,
                        Objective objective, bool sparse,
                        const Mapping &mapping, double score,
                        double energy_uj, double latency_cycles,
                        uint64_t samples) EXCLUDES(mu_);

    /**
     * Merge one replicated record: best-score-wins against the local
     * entry for the same key (safe because entries are monotone
     * best-score records — the merge is commutative, associative, and
     * idempotent, so replication order and duplicates cannot corrupt
     * the store). Accepted records are appended to the backing file
     * like local improvements. Returns true when the local store
     * improved; a worse-or-equal score (or invalid entry) is ignored.
     */
    bool mergeEntry(const StoreEntry &e) EXCLUDES(mu_);

    /**
     * Atomically rewrite the backing file down to the live entries
     * (write temp + rename). Returns false on I/O failure (the old
     * file is left untouched).
     */
    bool compact() EXCLUDES(mu_);

    size_t size() const EXCLUDES(mu_);

    /** Malformed lines skipped by the last load(). */
    size_t malformedLines() const EXCLUDES(mu_);

    /** Lines on disk superseded by better records since the last
     *  load/compact. */
    size_t deadLines() const EXCLUDES(mu_);

    /**
     * True when disk I/O has failed (ENOSPC/EIO/unreadable file) and
     * the store is in read-only degraded mode: lookups and in-memory
     * updates continue, appends and auto-compaction stop.
     */
    bool degraded() const EXCLUDES(mu_);

    /** Appends that failed (and were dropped from disk, not memory). */
    size_t appendFailures() const EXCLUDES(mu_);

    /**
     * Attempt to leave degraded mode by atomically rewriting the
     * backing file from the in-memory live set (which is a superset
     * of what disk lost). True = healthy again.
     */
    bool tryRecover() EXCLUDES(mu_);

    /** Stable store key of one (workload, arch, objective, model)
     *  tuple. */
    static std::string keyOf(const Workload &wl, const ArchConfig &arch,
                             Objective objective, bool sparse);

    /** The same key derived from a decoded record (which carries the
     *  arch signature hash, not the full ArchConfig). */
    static std::string keyOfEntry(const StoreEntry &e);

    /** Serialize / parse one record line (exposed for tests). */
    static std::string encodeEntry(const StoreEntry &e);
    static std::optional<StoreEntry> decodeEntry(const std::string &line);

    /** Record as a JSON object (the wire `replicate` payload unit). */
    static JsonValue encodeEntryJson(const StoreEntry &e);
    static std::optional<StoreEntry> decodeEntryJson(const JsonValue &doc);

    /**
     * Records accepted per key (live + superseded) since the last
     * load(): on-disk lines from load, plus every accepted
     * recordIfBetter/mergeEntry since. Sorted by key, so stats output
     * is deterministic.
     */
    std::vector<std::pair<std::string, uint64_t>> keyAppendCounts()
        const EXCLUDES(mu_);

    /**
     * Anti-entropy digest: best score per live store key, sorted by
     * key (deterministic wire payloads). A rejoining daemon sends this
     * to its peers to learn exactly what it missed.
     */
    std::vector<std::pair<std::string, double>> bestScores() const
        EXCLUDES(mu_);

    /**
     * Anti-entropy responder half: the live entries a peer holding
     * `digest` (its bestScores) is missing, or that strictly beat its
     * score for the same key. Sorted by key; capped at max_entries
     * (0 = unlimited). Score ties are NOT shipped — mergeEntry would
     * ignore them, so shipping them only wastes wire bytes.
     */
    std::vector<StoreEntry> entriesBetterThan(
        const std::vector<std::pair<std::string, double>> &digest,
        size_t max_entries) const EXCLUDES(mu_);

  private:
    using Node = std::pair<const std::string, StoreEntry>;

    /**
     * Near-neighbour candidates sharing one (arch, objective, model,
     * dim names) bucket: pointers to best_'s nodes plus their
     * log2(bound) rows, row-major with numDims() doubles per row.
     * Rows are appended when best_ gains a key (and moved only if a
     * replacement changes the bounds, i.e. under an fnv1a64 signature
     * collision); best_ never erases and unordered_map nodes
     * survive rehashing, so the pointers stay valid until load()
     * clears both maps together.
     */
    struct NearBucket
    {
        std::vector<const Node *> nodes;
        std::vector<double> log_bounds;
    };

    /** Index key of the bucket holding every Near candidate of wl. */
    static std::string bucketKey(const Workload &wl,
                                 const std::string &arch_sig,
                                 Objective objective, bool sparse);
    /** Append the row of a key best_ just gained. */
    void indexLocked(const Node &node) REQUIRES(mu_);
    /** Remove the row of node (only ever to re-index it). */
    void unindexLocked(const Node &node) REQUIRES(mu_);
    /** Overwrite node's entry with a better record for its key,
     *  keeping its row current. */
    void replaceLocked(Node &node, const StoreEntry &e) REQUIRES(mu_);

    void ingestLineLocked(const std::string &line) REQUIRES(mu_);
    /** Shared accept path of recordIfBetter/mergeEntry: best-score-
     *  wins upsert + append + auto-compaction. */
    bool upsertLocked(const std::string &key, const StoreEntry &e)
        REQUIRES(mu_);
    bool appendLocked(const StoreEntry &e) REQUIRES(mu_);
    bool compactLocked() REQUIRES(mu_);

    mutable Mutex mu_;
    std::string path_; ///< Immutable after construction (unguarded).
    bool fsync_each_;  ///< Immutable after construction (unguarded).
    std::unordered_map<std::string, StoreEntry> best_ GUARDED_BY(mu_);
    std::unordered_map<std::string, NearBucket> near_ GUARDED_BY(mu_);
    std::unordered_map<std::string, uint64_t> key_appends_
        GUARDED_BY(mu_);
    size_t malformed_ GUARDED_BY(mu_) = 0;
    size_t dead_ GUARDED_BY(mu_) = 0;
    bool degraded_ GUARDED_BY(mu_) = false;
    size_t append_failures_ GUARDED_BY(mu_) = 0;

    /** File ends in a torn (unterminated) line; the next append must
     *  start on a fresh line or it would merge with the torn tail. */
    bool tail_unterminated_ GUARDED_BY(mu_) = false;
};

} // namespace mse
