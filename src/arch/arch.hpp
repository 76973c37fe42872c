/**
 * @file
 * NPU hardware configuration (Sec. 2.2 of the paper).
 *
 * A canonical NPU is a spatial array of PEs, each with ALUs and a private
 * L1 scratchpad, fed by a shared L2 buffer which in turn is filled from
 * DRAM. We describe this as an ordered list of storage levels from
 * innermost (L1) to outermost (DRAM). Each storage level owns a *fanout*:
 * the number of spatial instances of the hierarchy below it (L1's fanout
 * is the ALUs per PE; L2's fanout is the PE count).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mse {

/** On-chip network topology distributing data below a storage level. */
enum class NocTopology
{
    Bus,  ///< Single shared medium: one hop regardless of fanout.
    Tree, ///< Fat-tree/H-tree: ~log2(fanout) hops.
    Mesh, ///< 2-D mesh: ~sqrt(fanout) hops average.
};

/** Printable name of a topology. */
const char *nocTopologyName(NocTopology t);

/**
 * Average hops a word travels to reach one of `fanout` children under a
 * topology (>= 1).
 */
double nocHops(NocTopology t, int64_t fanout);

/** One storage level of the accelerator hierarchy. */
struct BufferLevel
{
    std::string name;

    /**
     * Capacity in words per instance of this buffer; 0 means unbounded
     * (DRAM). A mapping is illegal if the tiles it keeps resident at this
     * level exceed the capacity.
     */
    int64_t capacity_words = 0;

    /** Read bandwidth toward the child level, words/cycle per instance. */
    double bandwidth_words_per_cycle = 1e30;

    /** Energy per word read / written, picojoules. */
    double read_energy_pj = 0.0;
    double write_energy_pj = 0.0;

    /**
     * Spatial instances of the child hierarchy fed by one instance of
     * this buffer. Mapping spatial factors at this level must multiply to
     * at most this fanout.
     */
    int64_t fanout = 1;

    /**
     * True if the network below this level can multicast one word to
     * many child instances (so spatially-shared data is read only once).
     */
    bool multicast = true;

    /** Topology of the network distributing data below this level. */
    NocTopology noc = NocTopology::Tree;

    /**
     * Energy per word per hop on that network, picojoules. 0 (default)
     * models free interconnect; set it to study NoC topology trade-offs
     * (see bench_ext_noc_topologies).
     */
    double noc_hop_energy_pj = 0.0;
};

/** A complete accelerator configuration. */
struct ArchConfig
{
    /** Deepest hierarchy the cost model plans for (EvalPlan::build). */
    static constexpr int kMaxLevels = 32;

    std::string name;

    /** Storage levels, index 0 = innermost (L1), back() = DRAM. */
    std::vector<BufferLevel> levels;

    /** Energy of one multiply-accumulate, picojoules. */
    double mac_energy_pj = 1.0;

    int numLevels() const { return static_cast<int>(levels.size()); }

    /** Total parallel ALUs = product of all fanouts. */
    int64_t
    totalComputeUnits() const
    {
        int64_t p = 1;
        for (const auto &l : levels)
            p *= l.fanout;
        return p;
    }

    /**
     * Canonical structural signature: every level parameter the cost
     * model and legality checks read, plus the MAC energy. The config
     * *name* is excluded so two identically-parameterized presets
     * compare equal. Combined with Workload::signature() it identifies
     * a layer-search job for sweep-level deduplication.
     */
    std::string signature() const;

    /**
     * Number of instances of level `lvl` in the whole machine: the
     * product of the fanouts of all levels above it.
     */
    int64_t
    instancesOfLevel(int lvl) const
    {
        int64_t p = 1;
        for (int l = lvl + 1; l < numLevels(); ++l)
            p *= levels[l].fanout;
        return p;
    }
};

/**
 * Table 1 Accel-A: 512 KB shared L2, 64 KB private L1 per PE, 256 PEs,
 * 1 ALU per PE (2-byte words).
 */
ArchConfig accelA();

/**
 * Table 1 Accel-B: 64 KB shared L2, 256 B private L1 per PE, 256 PEs,
 * 4 ALUs per PE (2-byte words).
 */
ArchConfig accelB();

/**
 * A parameterized three-level NPU, used by tests and design sweeps.
 * Buffer sizes are in bytes with 2-byte words.
 */
ArchConfig makeNpu(const std::string &name, int64_t l2_bytes,
                   int64_t l1_bytes, int64_t num_pes, int64_t alus_per_pe);

/**
 * A four-level NPU (DRAM / L2 / L1 / per-ALU register file) exercising
 * deeper hierarchies: each PE's ALUs get a small private register file
 * of reg_bytes. The cost model is level-count-agnostic; this preset
 * demonstrates it.
 */
ArchConfig makeDeepNpu(const std::string &name, int64_t l2_bytes,
                       int64_t l1_bytes, int64_t reg_bytes,
                       int64_t num_pes, int64_t alus_per_pe);

} // namespace mse
