/**
 * @file
 * ShardRing properties: deterministic placement (the client/server
 * agreement contract), bounded key movement on topology change (the
 * consistent-hashing property), replica-set shape, and the address
 * parsing helpers the cluster tools share.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/shard_ring.hpp"
#include "common/math_util.hpp"

namespace mse {
namespace {

std::vector<std::string>
nodes(size_t n)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back("127.0.0.1:" + std::to_string(21000 + i));
    return out;
}

/** Synthetic store-key corpus (shape mirrors keyOf: hex|hex|obj|model). */
std::vector<std::string>
keys(size_t n)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(fnv1a64Hex("wl" + std::to_string(i)) +
                      "|54c142bdce4b407c|EDP|dense");
    return out;
}

TEST(ShardRing, PlacementIsAPureFunctionOfTheNodeSet)
{
    // Same node set, any listing order, separately constructed rings:
    // identical owners for every key. This is the property that lets
    // clients route without asking the daemons.
    const auto ns = nodes(5);
    std::vector<std::string> shuffled = ns;
    std::reverse(shuffled.begin(), shuffled.end());
    std::vector<std::string> with_dup = ns;
    with_dup.push_back(ns[2]);

    const ShardRing a(ns), b(shuffled), c(with_dup);
    EXPECT_EQ(a.numNodes(), 5u);
    EXPECT_EQ(c.numNodes(), 5u);
    for (const auto &k : keys(200)) {
        EXPECT_EQ(a.ownerOf(k), b.ownerOf(k)) << k;
        EXPECT_EQ(a.ownerOf(k), c.ownerOf(k)) << k;
        EXPECT_EQ(a.replicasOf(k, 3), b.replicasOf(k, 3)) << k;
    }
}

/** Loopback daemon addresses on the given ports. */
std::vector<std::string>
loopback(const std::vector<int> &ports)
{
    std::vector<std::string> out;
    for (const int p : ports)
        out.push_back("127.0.0.1:" + std::to_string(p));
    return out;
}

TEST(ShardRing, EveryNodeOwnsASensibleShare)
{
    // 64 vnodes/node keeps per-node load within a loose band of 1/N —
    // no node starved, none doubly loaded. Daemons on one host differ
    // only in the port, so their vnode labels differ only in the last
    // bytes: the sets below pin that case, with adjacent and scattered
    // ephemeral ports. Every node must also be left out of some key's
    // 2-replica set, or a client that knows only that node can never
    // be redirected.
    std::vector<std::vector<std::string>> sets = {nodes(4)};
    for (const int base : {21000, 32768, 40000, 45001, 60997})
        sets.push_back(loopback({base, base + 1, base + 2}));
    sets.push_back(loopback({33012, 41877, 58203}));
    sets.push_back(loopback({35555, 35599, 51234, 61000}));
    const auto ks = keys(1000);
    for (const auto &ns : sets) {
        const ShardRing ring(ns);
        const size_t n = ring.numNodes();
        std::vector<size_t> count(n, 0);
        std::vector<bool> left_out(n, false);
        for (const auto &k : ks) {
            const auto &owner = ring.ownerOf(k);
            const auto it = std::find(ring.nodes().begin(),
                                      ring.nodes().end(), owner);
            ASSERT_NE(it, ring.nodes().end());
            ++count[static_cast<size_t>(it - ring.nodes().begin())];
            const auto reps = ring.replicasOf(k, 2);
            for (size_t i = 0; i < n; ++i)
                if (std::find(reps.begin(), reps.end(),
                              ring.nodes()[i]) == reps.end())
                    left_out[i] = true;
        }
        const double fair = static_cast<double>(ks.size()) / n;
        for (size_t i = 0; i < n; ++i) {
            EXPECT_GT(count[i], fair / 3.0) << ring.nodes()[i];
            EXPECT_LT(count[i], fair * 2.0) << ring.nodes()[i];
            EXPECT_TRUE(left_out[i]) << ring.nodes()[i];
        }
    }
}

TEST(ShardRing, AddingANodeMovesOnlyItsShare)
{
    // The consistent-hashing contract: growing N -> N+1 remaps ~1/(N+1)
    // of keys (all onto the new node); every moved key must land on it.
    const auto ns = nodes(4);
    ShardRing before(ns);
    ShardRing after(ns);
    const std::string newcomer = "127.0.0.1:29999";
    after.addNode(newcomer);

    const auto ks = keys(2000);
    size_t moved = 0;
    for (const auto &k : ks) {
        if (after.ownerOf(k) != before.ownerOf(k)) {
            ++moved;
            EXPECT_EQ(after.ownerOf(k), newcomer) << k;
        }
    }
    // Expected 1/5 of keys; assert <= ~2/N with slack (and nonzero).
    EXPECT_GT(moved, 0u);
    EXPECT_LE(moved, ks.size() * 2 / 5);
}

TEST(ShardRing, RemovingANodeOnlyReassignsItsKeys)
{
    const auto ns = nodes(5);
    ShardRing before(ns);
    ShardRing after(ns);
    ASSERT_TRUE(after.removeNode(ns[2]));
    EXPECT_FALSE(after.removeNode(ns[2])); // already gone
    EXPECT_FALSE(after.contains(ns[2]));

    const auto ks = keys(2000);
    for (const auto &k : ks) {
        if (before.ownerOf(k) != ns[2]) {
            // Keys the dead node did not own must not move at all.
            EXPECT_EQ(after.ownerOf(k), before.ownerOf(k)) << k;
        } else {
            EXPECT_NE(after.ownerOf(k), ns[2]) << k;
        }
    }
}

TEST(ShardRing, ReplicaSetsAreDistinctOwnerFirstAndClamped)
{
    const ShardRing ring(nodes(3));
    for (const auto &k : keys(100)) {
        const auto reps = ring.replicasOf(k, 2);
        ASSERT_EQ(reps.size(), 2u);
        EXPECT_EQ(reps[0], ring.ownerOf(k));
        EXPECT_NE(reps[0], reps[1]);
        EXPECT_TRUE(ring.isReplica(k, reps[1], 2));
        EXPECT_FALSE(ring.isReplica(k, reps[1], 1));
        // Asking for more copies than nodes yields all nodes.
        EXPECT_EQ(ring.replicasOf(k, 7).size(), 3u);
    }
}

TEST(ShardRing, EmptyAndSingleNodeEdges)
{
    const ShardRing empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.ownerOf("anything"), "");
    EXPECT_TRUE(empty.replicasOf("anything", 2).empty());

    const ShardRing one(nodes(1));
    for (const auto &k : keys(20)) {
        EXPECT_EQ(one.ownerOf(k), nodes(1)[0]);
        EXPECT_EQ(one.replicasOf(k, 3).size(), 1u);
    }
}

TEST(ClusterConfig, RingAgreesBetweenClientAndServerViews)
{
    // The daemon builds its config from --self + --peers; the client
    // from --cluster. Different orderings, same ring.
    ClusterConfig server_view;
    server_view.self = "127.0.0.1:21002";
    server_view.nodes = {"127.0.0.1:21002", "127.0.0.1:21000",
                         "127.0.0.1:21001"};
    ClusterConfig client_view;
    client_view.nodes =
        splitNodeList("127.0.0.1:21000, 127.0.0.1:21001,127.0.0.1:21002");
    const ShardRing s = server_view.ring();
    const ShardRing c = client_view.ring();
    for (const auto &k : keys(100))
        EXPECT_EQ(s.ownerOf(k), c.ownerOf(k)) << k;
}

TEST(ClusterConfig, ReplicationClampsToNodeCount)
{
    ClusterConfig cfg;
    cfg.nodes = {"a:1", "b:1"};
    cfg.replication = 5;
    EXPECT_EQ(cfg.replicationClamped(), 2u);
    cfg.replication = 0;
    EXPECT_EQ(cfg.replicationClamped(), 1u);
    cfg.nodes.clear();
    EXPECT_EQ(cfg.replicationClamped(), 0u);
}

TEST(ClusterConfig, SplitNodeListAndHostPort)
{
    const auto ns = splitNodeList(" a:1 ,, b:2,\tc:3 ,");
    ASSERT_EQ(ns.size(), 3u);
    EXPECT_EQ(ns[0], "a:1");
    EXPECT_EQ(ns[1], "b:2");
    EXPECT_EQ(ns[2], "c:3");
    EXPECT_TRUE(splitNodeList("").empty());

    std::string host;
    uint16_t port = 0;
    EXPECT_TRUE(splitHostPort("127.0.0.1:8080", &host, &port));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 8080);
    EXPECT_FALSE(splitHostPort("nohost", &host, &port));
    EXPECT_FALSE(splitHostPort(":80", &host, &port));
    EXPECT_FALSE(splitHostPort("h:", &host, &port));
    EXPECT_FALSE(splitHostPort("h:0", &host, &port));
    EXPECT_FALSE(splitHostPort("h:65536", &host, &port));
    EXPECT_FALSE(splitHostPort("h:12ab", &host, &port));
}

} // namespace
} // namespace mse
