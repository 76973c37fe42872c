#include "cluster/shard_ring.hpp"

#include <algorithm>

#include "common/math_util.hpp"

namespace mse {

namespace {

/**
 * Ring position of a vnode label or a key. Raw FNV-1a leaves labels
 * that differ only in their last bytes ("127.0.0.1:PORT#v") clustered
 * on the ring, so one node can own most of the key space; the
 * splitmix64 finalizer spreads them.
 */
uint64_t
pointHash(const std::string &s)
{
    return mix64(fnv1a64(s));
}

} // namespace

ShardRing::ShardRing(const std::vector<std::string> &nodes,
                     size_t vnodes)
    : vnodes_(vnodes > 0 ? vnodes : 1)
{
    nodes_ = nodes;
    std::sort(nodes_.begin(), nodes_.end());
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()),
                 nodes_.end());
    rebuild();
}

void
ShardRing::addNode(const std::string &node)
{
    const auto it =
        std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it != nodes_.end() && *it == node)
        return;
    nodes_.insert(it, node);
    rebuild();
}

bool
ShardRing::removeNode(const std::string &node)
{
    const auto it =
        std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it == nodes_.end() || *it != node)
        return false;
    nodes_.erase(it);
    rebuild();
    return true;
}

bool
ShardRing::contains(const std::string &node) const
{
    return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

void
ShardRing::rebuild()
{
    points_.clear();
    points_.reserve(nodes_.size() * vnodes_);
    for (uint32_t ni = 0; ni < nodes_.size(); ++ni) {
        for (size_t v = 0; v < vnodes_; ++v) {
            Point p;
            p.hash = pointHash(nodes_[ni] + "#" + std::to_string(v));
            p.node = ni;
            points_.push_back(p);
        }
    }
    // Hash ties (astronomically rare, but the ring must stay a pure
    // function of the node set) break on the node name.
    std::sort(points_.begin(), points_.end(),
              [this](const Point &a, const Point &b) {
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  return nodes_[a.node] < nodes_[b.node];
              });
}

size_t
ShardRing::pointFor(uint64_t h) const
{
    // First point strictly clockwise of h (wrapping): the canonical
    // consistent-hashing successor rule.
    size_t lo = 0, hi = points_.size();
    while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (points_[mid].hash <= h)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo == points_.size() ? 0 : lo;
}

const std::string &
ShardRing::ownerOf(const std::string &key) const
{
    static const std::string kEmpty;
    if (points_.empty())
        return kEmpty;
    return nodes_[points_[pointFor(pointHash(key))].node];
}

std::vector<std::string>
ShardRing::replicasOf(const std::string &key, size_t n) const
{
    std::vector<std::string> out;
    if (points_.empty() || n == 0)
        return out;
    const size_t want = std::min(n, nodes_.size());
    out.reserve(want);
    size_t idx = pointFor(pointHash(key));
    for (size_t step = 0; step < points_.size() && out.size() < want;
         ++step) {
        const std::string &node =
            nodes_[points_[(idx + step) % points_.size()].node];
        if (std::find(out.begin(), out.end(), node) == out.end())
            out.push_back(node);
    }
    return out;
}

bool
ShardRing::isReplica(const std::string &key, const std::string &node,
                     size_t n) const
{
    const auto reps = replicasOf(key, n);
    return std::find(reps.begin(), reps.end(), node) != reps.end();
}

} // namespace mse
