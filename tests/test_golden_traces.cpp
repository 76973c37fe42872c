/**
 * @file
 * Golden-trace regression test for the analytical cost model.
 *
 * tests/data/golden_cost_traces.txt pins the exact energy, latency, EDP,
 * and per-level/per-tensor access counts of ten fixed (workload, arch,
 * mapping) triples. The mappings themselves are stored in the fixture
 * (mapping_io v1 lines), so the test is immune to changes in random
 * mapping generation: any numeric difference is a real cost-model
 * behavior change. Values are compared through their %.17g rendering,
 * which round-trips IEEE doubles exactly — a drift of one ULP fails
 * with a readable diff of expected vs. actual.
 *
 * Intentional model changes regenerate the fixture:
 *
 *   MSE_REGEN_GOLDEN=1 ./build/tests/test_golden_traces
 *
 * then re-run the suite and commit the new file alongside the change
 * that justifies it.
 *
 * tests/data/golden_search_traces.txt pins whole searches: for every
 * mapper (Gamma cold and warm-started through scaleFrom, StandardGA,
 * Random-Pruned, annealing, hill climbing, and sparse Gamma) on two zoo
 * layers x Accel-A/B at fixed seeds, the best mapping, the best EDP at
 * %.17g and a hash of the per-sample convergence curve; plus the first
 * 64 values of every Rng sampler for three seeds. Any change to an RNG
 * draw, a repair or a mapper's control flow moves these lines, so a
 * change that claims to keep every draw is checked here. The same
 * MSE_REGEN_GOLDEN=1 run regenerates this fixture too.
 *
 * tests/data/golden_text_formats.txt pins the text forms of every zoo
 * layer: Workload::signature() and serializeWorkload() at five tensor
 * densities, and serializeMapping() of a fixed mapping per layer. Store
 * keys, ShardRing placement and ModelSweep seeds hash these strings, so
 * a change to a formatter must leave every byte of them as it is.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/mse_engine.hpp"
#include "mappers/gamma.hpp"
#include "mapping/mapping_io.hpp"
#include "model/cost_model.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"
#include "workload/workload_io.hpp"

namespace mse {
namespace {

std::string
fixturePath()
{
    return std::string(MSE_TEST_DATA_DIR) + "/golden_cost_traces.txt";
}

std::string
searchFixturePath()
{
    return std::string(MSE_TEST_DATA_DIR) + "/golden_search_traces.txt";
}

std::string
textFixturePath()
{
    return std::string(MSE_TEST_DATA_DIR) + "/golden_text_formats.txt";
}

/** Exact decimal rendering that round-trips IEEE-754 doubles. */
std::string
g17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct GoldenCase
{
    std::string name;
    Workload wl;
    ArchConfig arch;
    /** Seed used only at regeneration time to draw the mapping. */
    uint64_t seed = 0;
};

/** The ten pinned triples: every workload family x both Table-1
 *  accelerators plus the deep and flat test hierarchies. */
std::vector<GoldenCase>
goldenCases()
{
    return {
        {"resnet_conv3_accelA", resnetConv3(), accelA(), 11},
        {"resnet_conv3_accelB", resnetConv3(), accelB(), 12},
        {"resnet_conv4_accelA", resnetConv4(), accelA(), 13},
        {"inception_conv2_accelB", inceptionConv2(), accelB(), 14},
        {"bert_kqv_accelA", bertKqv(), accelA(), 15},
        {"bert_attn_accelB", bertAttn(), accelB(), 16},
        {"bert_fc_accelA", bertFc(), accelA(), 17},
        {"depthwise_mini",
         makeDepthwiseConv2d("dw", 4, 32, 14, 14, 3, 3), test::miniNpu(),
         18},
        {"conv4_deep_hierarchy", resnetConv4(),
         makeDeepNpu("deep", 64 * 1024, 2048, 64, 64, 4), 19},
        {"tiny_conv_flat", test::tinyConv(), test::flatArch(), 20},
    };
}

/** Draw the case's pinned-at-regen-time mapping. */
Mapping
drawMapping(const GoldenCase &c)
{
    MapSpace space(c.wl, c.arch);
    Rng rng(c.seed);
    return space.randomMapping(rng);
}

void
regenerate()
{
    std::ofstream out(fixturePath());
    ASSERT_TRUE(out.good()) << "cannot write " << fixturePath();
    out << "# Golden cost-model traces (v1). Regenerate with\n"
           "#   MSE_REGEN_GOLDEN=1 ./build/tests/test_golden_traces\n"
           "# Lines: case/mapping/energy_uj/latency_cycles/edp/\n"
           "#        access <level> <tensor> <reads> <writes>/end\n";
    for (const auto &c : goldenCases()) {
        const Mapping m = drawMapping(c);
        const CostResult r = CostModel::evaluate(c.wl, c.arch, m);
        ASSERT_TRUE(r.valid) << c.name;
        const AccessCounts counts =
            computeAccessCounts(c.wl, c.arch, m);
        out << "case " << c.name << "\n";
        out << "mapping " << serializeMapping(m) << "\n";
        out << "energy_uj " << g17(r.energy_uj) << "\n";
        out << "latency_cycles " << g17(r.latency_cycles) << "\n";
        out << "edp " << g17(r.edp) << "\n";
        for (size_t l = 0; l < counts.access.size(); ++l) {
            for (size_t t = 0; t < counts.access[l].size(); ++t) {
                out << "access " << l << " " << t << " "
                    << g17(counts.access[l][t].reads) << " "
                    << g17(counts.access[l][t].writes) << "\n";
            }
        }
        out << "end\n";
    }
}

/** Parsed expectation block for one case. */
struct GoldenExpect
{
    std::string mapping_line;
    std::string energy, latency, edp;
    std::vector<std::string> access; // "level tensor reads writes"
};

std::map<std::string, GoldenExpect>
loadFixture()
{
    std::map<std::string, GoldenExpect> cases;
    std::ifstream in(fixturePath());
    EXPECT_TRUE(in.good()) << "missing fixture " << fixturePath();
    std::string line, current;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string key;
        is >> key;
        std::string rest = line.substr(
            std::min(line.size(), key.size() + 1));
        if (key == "case") {
            current = rest;
        } else if (key == "mapping") {
            cases[current].mapping_line = rest;
        } else if (key == "energy_uj") {
            cases[current].energy = rest;
        } else if (key == "latency_cycles") {
            cases[current].latency = rest;
        } else if (key == "edp") {
            cases[current].edp = rest;
        } else if (key == "access") {
            cases[current].access.push_back(rest);
        }
    }
    return cases;
}

TEST(GoldenTraces, CostModelMatchesPinnedFixture)
{
    if (std::getenv("MSE_REGEN_GOLDEN")) {
        regenerate();
        GTEST_SKIP() << "fixture regenerated at " << fixturePath();
    }
    const auto expected = loadFixture();
    ASSERT_EQ(expected.size(), goldenCases().size());

    for (const auto &c : goldenCases()) {
        const auto it = expected.find(c.name);
        ASSERT_NE(it, expected.end()) << "fixture missing " << c.name;
        const GoldenExpect &exp = it->second;

        const auto parsed = parseMapping(exp.mapping_line);
        ASSERT_TRUE(parsed.has_value()) << c.name;
        const Mapping &m = *parsed;
        ASSERT_EQ(validateMapping(c.wl, c.arch, m), MappingError::Ok)
            << c.name;

        const CostResult r = CostModel::evaluate(c.wl, c.arch, m);
        ASSERT_TRUE(r.valid) << c.name;
        EXPECT_EQ(g17(r.energy_uj), exp.energy) << c.name;
        EXPECT_EQ(g17(r.latency_cycles), exp.latency) << c.name;
        EXPECT_EQ(g17(r.edp), exp.edp) << c.name;

        const AccessCounts counts =
            computeAccessCounts(c.wl, c.arch, m);
        std::vector<std::string> actual;
        for (size_t l = 0; l < counts.access.size(); ++l) {
            for (size_t t = 0; t < counts.access[l].size(); ++t) {
                actual.push_back(std::to_string(l) + " " +
                                 std::to_string(t) + " " +
                                 g17(counts.access[l][t].reads) + " " +
                                 g17(counts.access[l][t].writes));
            }
        }
        EXPECT_EQ(actual, exp.access) << c.name;
    }
}

TEST(GoldenTraces, FixtureMappingsStayPinnedToGenerationSeeds)
{
    // Documents (non-fatally for the golden contract) that the stored
    // mappings came from the seeds above: if random generation changes,
    // this canary flags that a regen would alter the *mappings*, while
    // the golden test keeps guarding the cost model itself.
    if (std::getenv("MSE_REGEN_GOLDEN"))
        GTEST_SKIP();
    const auto expected = loadFixture();
    size_t matching = 0;
    for (const auto &c : goldenCases()) {
        const auto it = expected.find(c.name);
        if (it != expected.end() &&
            serializeMapping(drawMapping(c)) == it->second.mapping_line)
            ++matching;
    }
    EXPECT_EQ(matching, goldenCases().size())
        << "random mapping generation drifted; golden mappings remain "
           "valid but no longer match their generation seeds";
}

/** FNV-1a over the bit patterns of a curve's doubles, as 16 hex digits. */
std::string
curveHash(const std::vector<double> &curve)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (double v : curve) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** The three lines a search contributes to the search fixture. */
std::vector<std::string>
searchLines(const std::string &name, const SearchResult &r)
{
    return {"search " + name,
            "mapping " + serializeMapping(r.best_mapping),
            "edp " + g17(r.best_cost.edp),
            "curve " + curveHash(r.log.best_edp_per_sample) + " " +
                std::to_string(r.log.best_edp_per_sample.size())};
}

/** Every pinned search, rendered as fixture lines. */
std::vector<std::string>
renderSearchTraces()
{
    struct Layer
    {
        std::string name;
        Workload wl;
        Workload warm_source; ///< Replay entry the warm run scales from.
    };
    const std::vector<Layer> layers = {
        {"resnet_conv4", resnetConv4(), resnetConv3()},
        {"bert_kqv", bertKqv(), bertFc()},
    };
    const std::vector<std::pair<std::string, ArchConfig>> archs = {
        {"accelA", accelA()}, {"accelB", accelB()}};
    const std::vector<std::string> mappers = {
        "gamma", "standard-ga", "random-pruned", "annealing", "hill-climb"};

    std::vector<std::string> lines;
    const auto add = [&](const std::string &name, const SearchResult &r) {
        for (auto &line : searchLines(name, r))
            lines.push_back(std::move(line));
    };
    uint64_t seed = 100;
    for (const auto &layer : layers) {
        for (const auto &[arch_name, arch] : archs) {
            const std::string where = layer.name + "_" + arch_name;
            MseOptions opts;
            opts.budget.max_samples = 600;
            opts.update_replay = false;
            for (const auto &mapper_name : mappers) {
                MseEngine engine(arch);
                const auto mapper = makeMapperFactory(mapper_name)();
                Rng rng(++seed);
                add(where + "_" + mapper_name,
                    engine.optimize(layer.wl, *mapper, opts, rng).search);
            }
            {
                // Warm start: optimize the source layer into the replay
                // buffer, then seed the target search from it (scaleFrom).
                MseEngine engine(arch);
                GammaMapper cold, warm;
                Rng rng(++seed);
                MseOptions src_opts = opts;
                src_opts.update_replay = true;
                engine.optimize(layer.warm_source, cold, src_opts, rng);
                MseOptions warm_opts = opts;
                warm_opts.warm_start = WarmStartStrategy::BySimilarity;
                add(where + "_gamma-warm",
                    engine.optimize(layer.wl, warm, warm_opts, rng).search);
            }
            {
                MseEngine engine(arch);
                GammaMapper gamma;
                Workload sparse_wl = layer.wl;
                applyDensities(sparse_wl, 0.1, 0.5);
                MseOptions sparse_opts = opts;
                sparse_opts.sparse = true;
                Rng rng(++seed);
                add(where + "_gamma-sparse",
                    engine.optimize(sparse_wl, gamma, sparse_opts, rng)
                        .search);
            }
        }
    }

    // The first 64 values of every sampler, for three seeds.
    const auto row = [&](uint64_t s, const std::string &sampler,
                         const auto &draw) {
        Rng rng(s);
        std::string line = "rng " + std::to_string(s) + " " + sampler;
        for (int i = 0; i < 64; ++i)
            line.append(" ").append(draw(rng));
        lines.push_back(line);
    };
    const auto i64 = [](int64_t v) { return std::to_string(v); };
    for (uint64_t s : {uint64_t{1}, uint64_t{0x5eed}, uint64_t{1} << 40}) {
        row(s, "uniformInt(0,1)",
            [&](Rng &r) { return i64(r.uniformInt(0, 1)); });
        row(s, "uniformInt(-7,1000)",
            [&](Rng &r) { return i64(r.uniformInt(-7, 1000)); });
        row(s, "uniformInt(min,max)", [&](Rng &r) {
            return i64(r.uniformInt(std::numeric_limits<int64_t>::min(),
                                    std::numeric_limits<int64_t>::max()));
        });
        row(s, "index(7)",
            [&](Rng &r) { return std::to_string(r.index(7)); });
        row(s, "index(2^62+1)", [&](Rng &r) {
            return std::to_string(r.index((size_t{1} << 62) + 1));
        });
        row(s, "uniformReal(0,1)",
            [&](Rng &r) { return g17(r.uniformReal()); });
        row(s, "uniformReal(-2.5,7)",
            [&](Rng &r) { return g17(r.uniformReal(-2.5, 7.0)); });
        row(s, "chance(0.3)",
            [&](Rng &r) { return std::string(r.chance(0.3) ? "1" : "0"); });
        row(s, "gaussian(2,3)",
            [&](Rng &r) { return g17(r.gaussian(2.0, 3.0)); });
    }
    return lines;
}

TEST(GoldenTraces, SearchesMatchPinnedFixture)
{
    const std::vector<std::string> actual = renderSearchTraces();
    if (std::getenv("MSE_REGEN_GOLDEN")) {
        std::ofstream out(searchFixturePath());
        ASSERT_TRUE(out.good()) << "cannot write " << searchFixturePath();
        out << "# Golden search traces (v1). Regenerate with\n"
               "#   MSE_REGEN_GOLDEN=1 ./build/tests/test_golden_traces\n"
               "# Lines: search/mapping/edp/curve <fnv1a> <samples>;\n"
               "#        rng <seed> <sampler> <first 64 values>\n";
        for (const auto &line : actual)
            out << line << "\n";
        GTEST_SKIP() << "fixture regenerated at " << searchFixturePath();
    }
    std::ifstream in(searchFixturePath());
    ASSERT_TRUE(in.good()) << "missing fixture " << searchFixturePath();
    std::vector<std::string> expected;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            expected.push_back(line);
    }
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]) << "fixture line " << i;
}

/**
 * Every zoo layer once (the Table-1 layers and the five model tables),
 * in table order; a shape that repeats under the same name is kept once.
 */
std::vector<Workload>
zooLayers()
{
    std::vector<Workload> all = {resnetConv3(), resnetConv4(),
                                 inceptionConv2(), bertKqv(), bertAttn(),
                                 bertFc()};
    for (auto *table : {&vgg16Layers, &resnet18Layers, &mobilenetV2Layers,
                        &mnasnetLayers, &bertLargeLayers}) {
        for (Workload &wl : (*table)(16))
            all.push_back(std::move(wl));
    }
    std::vector<Workload> out;
    std::vector<std::string> seen;
    for (Workload &wl : all) {
        const std::string text = serializeWorkload(wl);
        if (std::find(seen.begin(), seen.end(), text) != seen.end())
            continue;
        seen.push_back(text);
        out.push_back(std::move(wl));
    }
    return out;
}

/**
 * A fixed three-level mapping of wl, built without the RNG so the pin
 * does not move with mapping generation: factors taken from the bounds,
 * rotated orders, a bypass mask on level 1 and an explicit all-keep
 * mask on level 2. It need not be legal on any architecture.
 */
Mapping
pinnedMapping(const Workload &wl)
{
    const int dims = wl.numDims();
    Mapping m(3, dims);
    for (int l = 0; l < 3; ++l) {
        const auto lvl = m.level(l);
        for (int d = 0; d < dims; ++d) {
            const int64_t b = wl.bound(d);
            lvl.temporal[d] = l == 2 ? b : 1 + (b >> (3 * l)) % 7;
            lvl.spatial[d] = l == 1 && b % 4 == 0 ? 4 : 1;
            lvl.order[d] = (d + l) % dims;
        }
    }
    std::vector<uint8_t> bypass(static_cast<size_t>(wl.numTensors()), 1);
    bypass[0] = 0;
    m.setKeepMask(1, bypass);
    m.setKeepMask(2, std::vector<uint8_t>(bypass.size(), 1));
    return m;
}

/** Every pinned text form, rendered as fixture lines. */
std::vector<std::string>
renderTextFormats()
{
    std::vector<std::string> lines;
    for (const Workload &layer : zooLayers()) {
        for (const double density : {1.0, 0.5, 0.05, 1e-05, 0.333333333}) {
            Workload wl = layer;
            for (const TensorSpec &t : layer.tensors())
                wl.setDensity(t.name, density);
            lines.push_back("sig " + wl.signature());
            lines.push_back("wl " + serializeWorkload(wl));
        }
        lines.push_back("map " + serializeMapping(pinnedMapping(layer)));
    }
    return lines;
}

TEST(GoldenTraces, TextFormatsMatchPinnedFixture)
{
    const std::vector<std::string> actual = renderTextFormats();
    if (std::getenv("MSE_REGEN_GOLDEN")) {
        std::ofstream out(textFixturePath());
        ASSERT_TRUE(out.good()) << "cannot write " << textFixturePath();
        out << "# Golden text formats (v1). Regenerate with\n"
               "#   MSE_REGEN_GOLDEN=1 ./build/tests/test_golden_traces\n"
               "# Lines: sig <Workload::signature()>, wl <serializeWorkload>"
               " per layer x density; map <serializeMapping> per layer\n";
        for (const auto &line : actual)
            out << line << "\n";
        GTEST_SKIP() << "fixture regenerated at " << textFixturePath();
    }
    std::ifstream in(textFixturePath());
    ASSERT_TRUE(in.good()) << "missing fixture " << textFixturePath();
    std::vector<std::string> expected;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            expected.push_back(line);
    }
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]) << "fixture line " << i;
}

TEST(GoldenTraces, PinnedTextFormatsParseBackUnchanged)
{
    // Every pinned serializer line is accepted by its parser and
    // re-serializes to the same bytes.
    for (const std::string &line : renderTextFormats()) {
        if (line.rfind("wl ", 0) == 0) {
            const auto wl = parseWorkload(line.substr(3));
            ASSERT_TRUE(wl.has_value()) << line;
            EXPECT_EQ("wl " + serializeWorkload(*wl), line);
        } else if (line.rfind("map ", 0) == 0) {
            const auto m = parseMapping(line.substr(4));
            ASSERT_TRUE(m.has_value()) << line;
            EXPECT_EQ("map " + serializeMapping(*m), line);
        }
    }
}

} // namespace
} // namespace mse
