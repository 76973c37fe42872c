#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

#include "common/math_util.hpp"
#include "core/mse_engine.hpp"
#include "mapping/mapping_io.hpp"
#include "service/mapping_store.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"
#include "util.hpp"
#include "workload/model_zoo.hpp"
#include "workload/workload_io.hpp"

namespace perfbench {

namespace {

using mse::ArchConfig;
using mse::Workload;

/** cold_search blocks (88 searches each, one batch size per block) in
 *  a round: four, so the seed moves samples_to_incumbent_mean by well
 *  under its bound (one block spread 0.16 over ten seeds). */
constexpr size_t kColdBlocks = 4;

/** Search samples of one warm_near request (the "short budget"). */
constexpr size_t kWarmSamples = 600;

/** Filler entries of the warm_near store: far from every request, so
 *  they never answer a lookup but every lookup scans them. */
constexpr size_t kWarmFillers = 6000;

struct ArchChoice
{
    const char *wire; ///< Preset name on the wire.
    ArchConfig arch;
};

std::vector<ArchChoice>
archs()
{
    return {{"accel-A", mse::accelA()}, {"accel-B", mse::accelB()}};
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/** A request seed that survives the wire's double round trip. */
uint64_t
requestSeed(Stream &s)
{
    return s.next() >> 12;
}

std::string
searchLine(const std::string &workload_json, const char *arch,
           const std::string &mapper, size_t samples, uint64_t seed,
           bool warm_start, const std::string &densities = "")
{
    std::string l = "{\"type\":\"search\",\"workload\":" + workload_json +
        ",\"arch\":\"" + arch + "\",\"mapper\":\"" + mapper +
        "\",\"max_samples\":" + std::to_string(samples) +
        ",\"seed\":" + std::to_string(seed) +
        ",\"warm_start\":" + (warm_start ? "true" : "false");
    if (!densities.empty())
        l += ",\"sparse\":true,\"densities\":" + densities;
    return l + "}";
}

std::string
gemmJson(int64_t b, int64_t m, int64_t k, int64_t n)
{
    return "{\"gemm\":{\"b\":" + std::to_string(b) +
        ",\"m\":" + std::to_string(m) + ",\"k\":" + std::to_string(k) +
        ",\"n\":" + std::to_string(n) + "}}";
}

std::string
densityText(double d)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.2f", d);
    return buf;
}

void
appendStoreLine(std::ofstream &out, const Workload &wl,
                const ArchConfig &arch, const mse::Mapping &m,
                uint64_t samples)
{
    const mse::CostResult c = mse::CostModel::evaluate(wl, arch, m);
    if (!c.valid)
        throw std::logic_error("store generator produced an illegal mapping");
    mse::StoreEntry e;
    e.workload = wl;
    e.arch_sig = mse::fnv1a64Hex(arch.signature());
    e.objective = mse::Objective::Edp;
    e.mapping = m;
    e.score = c.edp;
    e.energy_uj = c.energy_uj;
    e.latency_cycles = c.latency_cycles;
    e.samples = samples;
    out << mse::MappingStore::encodeEntry(e) << '\n';
}

// --- cold_search -------------------------------------------------------

/**
 * Every distinct model-zoo layer on both accelerators, once per block;
 * block k uses the k-th batch size, so every request is a new store key.
 * Per block, a fixed share of requests goes to each mapper and to the
 * sparse model; the seed picks the order, the densities and the search
 * seeds.
 */
Plan
coldSearch(uint64_t seed)
{
    Plan p;
    p.name = "cold_search";

    Stream s(seed ^ 0xc01dULL);
    const auto arch_list = archs();
    const int64_t batches[kColdBlocks] = {16, 8, 32, 4};
    for (size_t block = 0; block < kColdBlocks; ++block) {
        const int64_t b = batches[block];
        std::vector<Workload> layers;
        std::set<std::string> seen;
        for (auto *zoo : {&mse::resnet18Layers, &mse::vgg16Layers,
                          &mse::mobilenetV2Layers, &mse::bertLargeLayers}) {
            for (Workload &wl : (*zoo)(b)) {
                if (seen.insert(wl.signature()).second)
                    layers.push_back(std::move(wl));
            }
        }
        // Shares per ten requests: 7 gamma, 1 standard-ga,
        // 1 random-pruned, 1 sparse gamma. Which (layer, arch) gets which
        // is fixed, so answer quality depends on the seed only through
        // the search seeds and densities.
        struct Item
        {
            size_t layer;
            size_t arch;
            int config;
        };
        std::vector<Item> items;
        for (size_t l = 0; l < layers.size(); ++l)
            for (size_t a = 0; a < arch_list.size(); ++a)
                items.push_back(
                    {l, a, static_cast<int>((items.size() + block) % 10)});
        s.shuffle(items);

        for (size_t i = 0; i < items.size(); ++i) {
            const Workload &wl = layers[items[i].layer];
            const ArchChoice &ac = arch_list[items[i].arch];
            const int c = items[i].config;
            const std::string mapper = c == 7 ? "standard-ga"
                : c == 8                      ? "random-pruned"
                                              : "gamma";
            std::string dens;
            if (c == 9) {
                const double w = 0.2 + 0.1 * static_cast<double>(s.below(3));
                const double a = 0.5 + 0.1 * static_cast<double>(s.below(3));
                dens = "{\"Weights\":" + densityText(w) +
                    ",\"Inputs\":" + densityText(a) + "}";
            }
            Request r;
            r.sparse = c == 9;
            r.line = searchLine(quoted(mse::serializeWorkload(wl)),
                                ac.wire, mapper, 2000, requestSeed(s),
                                false, dens);
            p.requests.push_back(std::move(r));
        }
    }
    return p;
}

// --- warm_near ---------------------------------------------------------

/**
 * Store: 684 "active" GEMMs at B=16 and B=256 on a lattice in (log2 M,
 * log2 K, log2 N) whose points are >= 4 apart in BoundRatio distance,
 * each with the mapping of a short search; plus kWarmFillers random GEMMs
 * at B=1 with random legal mappings. B=1 puts every filler >= 4 away
 * from every request, so fillers only cost scan time.
 *
 * Requests: every active once, a quarter of them exactly (Exact hits),
 * the rest perturbed by x2 or /2 in one dimension (distance 1, so the
 * active base is the unique nearest entry even after other requests'
 * write-backs, which sit >= 2 away).
 */
Plan
warmNear(uint64_t seed, const std::string &dir)
{
    Plan p;
    p.name = "warm_near";

    Stream s(seed ^ 0x3a7eULL);
    const auto arch_list = archs();
    p.store_file = dir + "/store.jsonl";
    std::ofstream out(p.store_file, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write " + p.store_file);

    struct Base
    {
        int64_t b, m, k, n;
        size_t arch;
    };
    std::vector<Base> bases;
    const int lattice[] = {2, 4, 6, 8, 10, 12, 14};
    for (size_t a = 0; a < arch_list.size(); ++a)
        for (const int64_t batch : {16, 256})
            for (const int cm : lattice)
                for (const int ck : lattice)
                    for (const int cn : lattice)
                        if ((cm + ck + cn) % 4 == 0)
                            bases.push_back({batch, int64_t{1} << cm,
                                             int64_t{1} << ck,
                                             int64_t{1} << cn, a});

    // Stored mappings of the actives: a short gamma search each.
    for (Base &b : bases) {
        const ArchChoice &ac = arch_list[b.arch];
        const Workload wl = mse::makeGemm("gemm", b.b, b.m, b.k, b.n);
        mse::MseEngine engine(ac.arch);
        mse::MseOptions opts;
        opts.budget.max_samples = 200;
        opts.update_replay = false;
        mse::Rng rng(requestSeed(s));
        const auto mapper = mse::makeMapperFactory("gamma")();
        const mse::MseOutcome o = engine.optimize(wl, *mapper, opts, rng);
        appendStoreLine(out, wl, ac.arch, o.search.best_mapping, 200);
    }
    // Fillers: distinct B=1 GEMMs with random legal mappings.
    std::set<std::string> filler_keys;
    while (filler_keys.size() < kWarmFillers) {
        const ArchChoice &ac = arch_list[filler_keys.size() % 2];
        const auto dim = [&] {
            return static_cast<int64_t>(
                std::exp2(4.0 + 8.0 * s.unit()));
        };
        const Workload wl = mse::makeGemm("gemm", 1, dim(), dim(), dim());
        if (!filler_keys
                 .insert(mse::MappingStore::keyOf(wl, ac.arch,
                                                  mse::Objective::Edp,
                                                  false))
                 .second)
            continue;
        const mse::MapSpace space(wl, ac.arch);
        mse::Rng rng(requestSeed(s));
        mse::Mapping m = space.randomMapping(rng);
        while (!mse::CostModel::evaluate(wl, ac.arch, m).valid)
            m = space.randomMapping(rng);
        appendStoreLine(out, wl, ac.arch, m, 0);
    }
    out.close();
    p.store_entries = bases.size() + kWarmFillers;

    // Every active once, in seed order: each fourth asks exactly, the
    // others cycle over the six (dimension, direction) perturbations.
    std::vector<size_t> order(bases.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    s.shuffle(order);
    for (size_t i = 0; i < order.size(); ++i) {
        const Base &b = bases[order[i]];
        int64_t d[3] = {b.m, b.k, b.n};
        if (i % 4 != 0) {
            const size_t near_before = i - i / 4 - 1;
            const size_t pert = near_before % 6;
            int64_t &v = d[pert / 2];
            v = pert % 2 ? v * 2 : v / 2;
        }
        Request r;
        r.line = searchLine(gemmJson(b.b, d[0], d[1], d[2]),
                            arch_list[b.arch].wire, "gamma", kWarmSamples,
                            requestSeed(s), true);
        p.requests.push_back(std::move(r));
    }
    return p;
}

} // namespace

mse::SearchRequest
searchOf(const std::string &line)
{
    std::string code, msg;
    const auto w = mse::parseWireRequest(line, &code, &msg);
    if (!w)
        throw std::logic_error("generated request does not parse: " + msg);
    return w->search;
}

Plan
makePlan(const std::string &workload, uint64_t seed, const std::string &dir)
{
    if (workload == "cold_search")
        return coldSearch(seed);
    if (workload == "warm_near")
        return warmNear(seed, dir);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

} // namespace perfbench
