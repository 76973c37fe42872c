/**
 * @file
 * ShardRing: the consistent-hash ring that turns N independent
 * mse_serve daemons into one logical mapping-search service.
 *
 * The paper's warm-start result makes the MappingStore the asset that
 * must scale with users: every search that can see a previous search's
 * best mapping starts orders of magnitude closer to incumbent quality
 * (Sec. 5.1.3, reproduced at ~157x in the service bench). A single
 * daemon caps that sharing at one process. The cluster layer shards
 * the store key space across daemons; this ring is the shared routing
 * function every participant — client and server alike — evaluates
 * locally to agree on which daemon owns which key.
 *
 * Design:
 *  - Nodes are opaque address strings ("host:port"). Each node
 *    projects `vnodes` virtual points onto a 64-bit ring, hashed with
 *    FNV-1a over "node#i" and finalized with splitmix64 (mix64) —
 *    no RNG, no wall clock, so two processes given the same node set
 *    always build bit-identical rings regardless of the order the
 *    nodes were listed in. Without the finalizer, loopback addresses
 *    that differ only in the port cluster on the ring.
 *  - A key (the MappingStore key, "wlsig|archsig|objective|density")
 *    is owned by the first virtual point clockwise of its hash (same
 *    FNV-1a + mix64); its replica set is the owner plus the next R-1
 *    *distinct* nodes clockwise.
 *  - Virtual points make node add/remove move only ~1/N of the key
 *    space (the classic consistent-hashing property; pinned by
 *    tests/test_shard_ring.cpp at <= ~2/N with slack).
 *
 * Ties: two virtual points may hash identically; order then falls
 * back to the node name, keeping the ring a pure function of the node
 * set. The ring is immutable-after-build in practice (topology changes
 * mean constructing a new ring); addNode/removeNode rebuild eagerly
 * and are not thread-safe against concurrent lookups.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mse {

/** Consistent-hash ring over daemon addresses. */
class ShardRing
{
  public:
    /** Default virtual points per node: enough to keep per-node load
     *  within a few percent of 1/N at single-digit N. */
    static constexpr size_t kDefaultVnodes = 64;

    ShardRing() = default;

    /** Build from a node set (duplicates ignored, order irrelevant). */
    explicit ShardRing(const std::vector<std::string> &nodes,
                       size_t vnodes = kDefaultVnodes);

    /** Add one node (no-op if present). */
    void addNode(const std::string &node);

    /** Remove one node; false if it was not in the ring. */
    bool removeNode(const std::string &node);

    bool empty() const { return nodes_.size() == 0; }
    size_t numNodes() const { return nodes_.size(); }
    size_t vnodesPerNode() const { return vnodes_; }

    /** Sorted node set (the ring is a pure function of this). */
    const std::vector<std::string> &nodes() const { return nodes_; }

    bool contains(const std::string &node) const;

    /**
     * The node owning `key`: first virtual point clockwise of the
     * key's hash. Empty string on an empty ring.
     */
    const std::string &ownerOf(const std::string &key) const;

    /**
     * Replica set of `key`: the owner followed by the next n-1
     * distinct nodes clockwise. Fewer than n nodes => all of them.
     */
    std::vector<std::string> replicasOf(const std::string &key,
                                        size_t n) const;

    /** True if `node` is in replicasOf(key, n). */
    bool isReplica(const std::string &key, const std::string &node,
                   size_t n) const;

  private:
    void rebuild();

    /** One virtual point: position on the ring -> owning node index. */
    struct Point
    {
        uint64_t hash = 0;
        uint32_t node = 0; ///< Index into nodes_.
    };

    /** Index of the point owning `h` (points_ must be non-empty). */
    size_t pointFor(uint64_t h) const;

    std::vector<std::string> nodes_; ///< Sorted, unique.
    std::vector<Point> points_;      ///< Sorted by (hash, node name).
    size_t vnodes_ = kDefaultVnodes;
};

} // namespace mse
