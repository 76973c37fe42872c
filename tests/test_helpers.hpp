/**
 * @file
 * Shared fixtures for the test suite: small hand-checkable workloads and
 * architectures plus common assertion helpers.
 */
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "arch/arch.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "mapping/map_space.hpp"
#include "model/cost_model.hpp"
#include "workload/model_zoo.hpp"
#include "workload/workload.hpp"

namespace mse::test {

/**
 * Path of a scratch file `name` in a directory under
 * testing::TempDir() that belongs to this process alone: the pid is
 * part of the directory name, so two build trees running ctest at the
 * same time never share a file. The directory starts empty (a leftover
 * of an earlier process with the same pid is wiped) and is removed with
 * everything in it — store companions, hint files — when the process
 * exits normally.
 */
inline std::string
tempPath(const std::string &name)
{
    struct ProcessDir
    {
        std::string path;
        ProcessDir()
            : path(testing::TempDir() + "/mse_test_" +
                   std::to_string(::getpid()))
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
            std::filesystem::create_directories(path, ec);
        }
        ~ProcessDir()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const ProcessDir dir;
    return dir.path + "/" + name;
}

/** Exact decimal rendering that round-trips IEEE-754 doubles. */
inline std::string
g17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Render every field of a CostResult for bitwise comparison. */
inline std::string
render(const CostResult &c)
{
    std::string s;
    s += c.valid ? "valid" : "invalid";
    s += " err=" + std::to_string(static_cast<int>(c.error));
    s += " lat=" + g17(c.latency_cycles);
    s += " e=" + g17(c.energy_uj);
    s += " edp=" + g17(c.edp);
    s += " cc=" + g17(c.compute_cycles);
    s += " util=" + g17(c.utilization);
    s += " macs=" + g17(c.macs);
    s += " le=[";
    for (double v : c.level_energy_uj)
        s += g17(v) + ",";
    s += "] lc=[";
    for (double v : c.level_cycles)
        s += g17(v) + ",";
    s += "]";
    return s;
}

/**
 * A randomized population that exercises every validation stage:
 * mostly space-legal mappings, spiced with corrupted ones (bad factor
 * products, zero factors, broken permutations, dropped DRAM
 * residency) so the error paths differ too.
 */
inline std::vector<Mapping>
randomizedPopulation(const MapSpace &space, size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Mapping> pop;
    pop.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        Mapping m = space.randomMapping(rng);
        const int L = m.numLevels();
        const int D = m.numDims();
        switch (i % 17) {
        case 3: // break the per-dimension factor product
            m.level(static_cast<int>(rng.index(L)))
                .temporal[rng.index(D)] += 1;
            break;
        case 5: // zero factor (factors-below-one error)
            m.level(static_cast<int>(rng.index(L)))
                .spatial[rng.index(D)] = 0;
            break;
        case 7: { // duplicate order entry (broken permutation)
            const auto ord = m.level(static_cast<int>(rng.index(L))).order;
            ord[0] = ord[D - 1];
            break;
        }
        case 11: // out-of-range order entry
            m.level(static_cast<int>(rng.index(L))).order[0] = D + 3;
            break;
        case 13: // DRAM must keep every tensor
            if (!m.level(L - 1).keep.empty()) {
                m.setKeep(L - 1, 0, false,
                          static_cast<int>(m.level(L - 1).keep.size()));
            }
            break;
        default:
            break; // space-legal (may still exceed capacity/fanout)
        }
        pop.push_back(std::move(m));
    }
    return pop;
}

/**
 * Dotted-path lookup into a stats document, for schema tests driven
 * by the metric_names registry. A `*` segment matches any one child
 * (the object must be non-empty); the first child is descended into.
 * Returns nullptr when any segment is missing.
 */
inline const JsonValue *
findMetricPath(const JsonValue &root, const std::string &dotted)
{
    const JsonValue *node = &root;
    size_t start = 0;
    while (start <= dotted.size()) {
        const size_t dot = dotted.find('.', start);
        const std::string seg =
            dotted.substr(start, dot == std::string::npos
                                     ? std::string::npos
                                     : dot - start);
        if (seg == "*") {
            if (!node->isObject() || node->members().empty())
                return nullptr;
            node = &node->members().front().second;
        } else {
            const JsonValue *next = node->find(seg);
            if (!next)
                return nullptr;
            node = next;
        }
        if (dot == std::string::npos)
            break;
        start = dot + 1;
    }
    return node;
}

/** A 2x2x2 GEMM: small enough to verify traffic counts by hand. */
inline Workload
tinyGemm()
{
    return makeGemm("tiny_gemm", 1, 2, 2, 2);
}

/** A small CONV2D with a real sliding window. */
inline Workload
tinyConv()
{
    return makeConv2d("tiny_conv", 1, 2, 2, 4, 4, 3, 3);
}

/** Two-level hierarchy (L1 + DRAM), no spatial fanout. */
inline ArchConfig
flatArch(int64_t l1_words = 1 << 20)
{
    ArchConfig cfg;
    cfg.name = "flat";
    BufferLevel l1;
    l1.name = "L1";
    l1.capacity_words = l1_words;
    l1.bandwidth_words_per_cycle = 4.0;
    l1.read_energy_pj = 1.0;
    l1.write_energy_pj = 1.0;
    l1.fanout = 1;
    BufferLevel dram;
    dram.name = "DRAM";
    dram.capacity_words = 0;
    dram.bandwidth_words_per_cycle = 16.0;
    dram.read_energy_pj = 100.0;
    dram.write_energy_pj = 100.0;
    dram.fanout = 1;
    cfg.levels = {l1, dram};
    cfg.mac_energy_pj = 1.0;
    return cfg;
}

/** A small 3-level NPU with 4x2 spatial fanout and tight L1. */
inline ArchConfig
miniNpu()
{
    return makeNpu("mini-npu", 8 * 1024, 128, 4, 2);
}

/** Mapping with every loop at DRAM (trivial inner levels). */
inline Mapping
allAtTop(const Workload &wl, const ArchConfig &arch)
{
    Mapping m(arch.numLevels(), wl.numDims());
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(arch.numLevels() - 1).temporal[d] = wl.bound(d);
    return m;
}

} // namespace mse::test
