/**
 * @file
 * Seeded mutation fuzzing of the record decoders: MappingStore's
 * decodeEntry, parseWorkload and parseMapping.
 *
 * The seed corpus, tests/data/decoder_fuzz_corpus.jsonl, holds store
 * records (MappingStore::encodeEntry lines) of zoo layers on Accel-A
 * and Accel-B with drawn mappings, some with bypass masks and sparse
 * densities. Each test mutates corpus entries a fixed number of times
 * with a fixed seed (byte edits, span copies and cuts, splices between
 * entries, numbers swapped for edge values) and holds every mutant to
 * these invariants:
 *
 *  - the decoder neither crashes nor lets an exception escape (the
 *    sanitizer build runs this binary under ASan/UBSan);
 *  - whatever it accepts re-serializes to a fixed point: serializing
 *    the decoded value, decoding that and serializing again gives the
 *    same bytes;
 *  - an accepted record's mapping fits its workload (dim count, keep
 *    mask no longer than the tensor list);
 *  - every accepted density is finite and in (0, 1].
 *
 * Regenerate the corpus (only when the record format changes) with
 *
 *   MSE_REGEN_GOLDEN=1 ./build/tests/test_decoder_fuzz
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "mapping/map_space.hpp"
#include "mapping/mapping_io.hpp"
#include "service/mapping_store.hpp"
#include "workload/model_zoo.hpp"
#include "workload/workload_io.hpp"

namespace mse {
namespace {

/** Mutants per test: enough to reach every grammar branch, and fast
 *  enough under the sanitizers. */
constexpr int kIterations = 100000;

std::string
corpusPath()
{
    return std::string(MSE_TEST_DATA_DIR) + "/decoder_fuzz_corpus.jsonl";
}

/** The corpus records, built from the zoo (regeneration only). */
std::vector<std::string>
buildCorpus()
{
    std::vector<Workload> layers = {resnetConv3(), resnetConv4(),
                                    inceptionConv2(), bertKqv(),
                                    bertAttn(), bertFc()};
    for (auto *table : {&vgg16Layers, &resnet18Layers, &mobilenetV2Layers,
                        &mnasnetLayers, &bertLargeLayers}) {
        const std::vector<Workload> t = (*table)(16);
        for (size_t i = 0; i < t.size(); i += 4)
            layers.push_back(t[i]);
    }
    const ArchConfig archs[] = {accelA(), accelB()};
    const double densities[] = {1.0, 0.5, 1e-05, 0.333333333};
    const Objective objectives[] = {Objective::Edp, Objective::Latency,
                                    Objective::Energy};
    std::vector<std::string> lines;
    Rng rng(2024);
    for (size_t i = 0; i < layers.size(); ++i) {
        const ArchConfig &arch = archs[i % 2];
        StoreEntry e;
        e.workload = layers[i];
        e.workload.setDensity("Weights", densities[i % 4]);
        e.arch_sig = fnv1a64Hex(arch.signature());
        e.objective = objectives[i % 3];
        e.sparse = densities[i % 4] < 1.0;
        MapSpace space(e.workload, arch);
        e.mapping = space.randomMapping(rng);
        if (i % 3 == 0)
            e.mapping.setKeep(0, 0, false, e.workload.numTensors());
        e.score = 1e9 + 12345.678 * static_cast<double>(i);
        e.energy_uj = 10.5 + static_cast<double>(i);
        e.latency_cycles = 1e6 * static_cast<double>(i + 1);
        e.samples = 600 + i;
        lines.push_back(MappingStore::encodeEntry(e));
    }
    return lines;
}

std::vector<std::string>
loadCorpus()
{
    if (std::getenv("MSE_REGEN_GOLDEN")) {
        std::ofstream out(corpusPath());
        for (const std::string &line : buildCorpus())
            out << line << "\n";
    }
    std::ifstream in(corpusPath());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

/** The named string field of every corpus record. */
std::vector<std::string>
fieldOfCorpus(const char *key)
{
    std::vector<std::string> out;
    for (const std::string &line : loadCorpus()) {
        const auto doc = parseJson(line);
        if (doc)
            out.push_back(doc->getString(key, ""));
    }
    return out;
}

/** Mutates corpus entries; every choice comes from one seeded Rng. */
class Mutator
{
  public:
    Mutator(std::vector<std::string> corpus, uint64_t seed)
        : corpus_(std::move(corpus)), rng_(seed)
    {
    }

    /** A corpus entry with one to four mutations applied. */
    std::string
    next()
    {
        std::string s = corpus_[rng_.index(corpus_.size())];
        const int edits = static_cast<int>(rng_.uniformInt(1, 4));
        for (int i = 0; i < edits; ++i)
            mutate(s);
        return s;
    }

  private:
    char
    byte()
    {
        // Mostly the grammars' own bytes, sometimes any byte at all.
        static const std::string alphabet =
            "0123456789;:,|+*=- tsokx.eE\"\\{}nafi";
        return rng_.chance(0.9)
            ? alphabet[rng_.index(alphabet.size())]
            : static_cast<char>(rng_.uniformInt(0, 255));
    }

    void
    mutate(std::string &s)
    {
        static const char *const edge_numbers[] = {
            "0", "-1", "-0", "+1", " 1", "1 ", "2147483648", "4294967297",
            "9223372036854775808", "99999999999999999999", "nan", "inf",
            "-inf", "1e-400", "4.9e-324", "1e308", "0x1p-2", "0.0", "1.0",
            "1e-05", "01", ""};
        const size_t pos = rng_.index(s.size() + 1);
        switch (rng_.index(9)) {
          case 0: // overwrite one byte
            if (pos < s.size())
                s[pos] = byte();
            break;
          case 1: // insert one byte
            s.insert(s.begin() + static_cast<ptrdiff_t>(pos), byte());
            break;
          case 2: // delete one byte
            if (pos < s.size())
                s.erase(pos, 1);
            break;
          case 3: { // delete a span
            const size_t n = rng_.index(16) + 1;
            if (pos < s.size())
                s.erase(pos, n);
            break;
          }
          case 4: { // duplicate a span in place
            const size_t n = std::min(rng_.index(24) + 1, s.size() - pos);
            s.insert(pos, s.substr(pos, n));
            break;
          }
          case 5: { // splice a span of another entry
            const std::string &other = corpus_[rng_.index(corpus_.size())];
            const size_t at = rng_.index(other.size());
            const size_t n = std::min(rng_.index(40) + 1, other.size() - at);
            s.insert(pos, other.substr(at, n));
            break;
          }
          case 6: // truncate
            s.resize(pos);
            break;
          case 7: { // change the next digit from pos
            size_t d = pos;
            while (d < s.size() &&
                   !std::isdigit(static_cast<unsigned char>(s[d])))
                ++d;
            if (d < s.size())
                s[d] = static_cast<char>('0' + rng_.index(10));
            break;
          }
          default: { // swap the next number from pos for an edge value
            size_t b = pos;
            while (b < s.size() &&
                   !std::isdigit(static_cast<unsigned char>(s[b])))
                ++b;
            while (b > 0 && std::isdigit(static_cast<unsigned char>(s[b - 1])))
                --b;
            size_t e = b;
            while (e < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[e])))
                ++e;
            const char *v =
                edge_numbers[rng_.index(std::size(edge_numbers))];
            s.replace(b, e - b, v);
            break;
          }
        }
    }

    std::vector<std::string> corpus_;
    Rng rng_;
};

/** Densities of an accepted workload are finite and in (0, 1]. */
void
expectDensitiesInRange(const Workload &wl, const std::string &input)
{
    for (const TensorSpec &t : wl.tensors()) {
        EXPECT_TRUE(std::isfinite(t.density) && t.density > 0.0 &&
                    t.density <= 1.0)
            << t.density << " from " << input;
    }
}

TEST(DecoderFuzz, CorpusDecodes)
{
    // The corpus itself must be valid, or mutants would start nowhere.
    const std::vector<std::string> corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 20u) << "missing corpus " << corpusPath();
    for (const std::string &line : corpus) {
        const auto e = MappingStore::decodeEntry(line);
        ASSERT_TRUE(e.has_value()) << line;
        EXPECT_EQ(MappingStore::encodeEntry(*e), line);
    }
}

TEST(DecoderFuzz, WorkloadDecoderHoldsInvariants)
{
    Mutator mutator(fieldOfCorpus("workload"), 1);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string input = mutator.next();
        try {
            const auto wl = parseWorkload(input);
            if (!wl)
                continue;
            ++accepted;
            expectDensitiesInRange(*wl, input);
            const std::string once = serializeWorkload(*wl);
            const auto again = parseWorkload(once);
            ASSERT_TRUE(again.has_value()) << input << " -> " << once;
            ASSERT_EQ(serializeWorkload(*again), once) << input;
            EXPECT_EQ(again->signature(), wl->signature()) << input;
        } catch (const std::exception &ex) {
            FAIL() << "exception " << ex.what() << " on " << input;
        }
    }
    // Mutants that stay valid exercise the fixed-point check; a
    // mutator that never produced one would check nothing.
    EXPECT_GT(accepted, kIterations / 100);
}

TEST(DecoderFuzz, MappingDecoderHoldsInvariants)
{
    Mutator mutator(fieldOfCorpus("mapping"), 2);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string input = mutator.next();
        try {
            const auto m = parseMapping(input);
            if (!m)
                continue;
            ++accepted;
            const std::string once = serializeMapping(*m);
            const auto again = parseMapping(once);
            ASSERT_TRUE(again.has_value()) << input << " -> " << once;
            ASSERT_EQ(serializeMapping(*again), once) << input;
        } catch (const std::exception &ex) {
            FAIL() << "exception " << ex.what() << " on " << input;
        }
    }
    EXPECT_GT(accepted, kIterations / 100);
}

TEST(DecoderFuzz, StoreRecordDecoderHoldsInvariants)
{
    Mutator mutator(loadCorpus(), 3);
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string input = mutator.next();
        try {
            const auto e = MappingStore::decodeEntry(input);
            if (!e)
                continue;
            ++accepted;
            expectDensitiesInRange(e->workload, input);
            ASSERT_EQ(e->mapping.numDims(), e->workload.numDims()) << input;
            for (int l = 0; l < e->mapping.numLevels(); ++l) {
                ASSERT_LE(e->mapping.level(l).keep.size(),
                          static_cast<size_t>(e->workload.numTensors()))
                    << input;
            }
            const std::string once = MappingStore::encodeEntry(*e);
            const auto again = MappingStore::decodeEntry(once);
            ASSERT_TRUE(again.has_value()) << input << " -> " << once;
            ASSERT_EQ(MappingStore::encodeEntry(*again), once) << input;
            EXPECT_EQ(MappingStore::keyOfEntry(*again),
                      MappingStore::keyOfEntry(*e))
                << input;
        } catch (const std::exception &ex) {
            FAIL() << "exception " << ex.what() << " on " << input;
        }
    }
    EXPECT_GT(accepted, kIterations / 100);
}

} // namespace
} // namespace mse
