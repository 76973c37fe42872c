#include <gtest/gtest.h>

#include "mapping/mapping_io.hpp"
#include "model/cost_model.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

TEST(MappingIo, RoundTripRandomMappings)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        const Mapping m = space.randomMapping(rng);
        const auto parsed = parseMapping(serializeMapping(m));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(serializeMapping(*parsed), serializeMapping(m));
        EXPECT_EQ(validateMapping(wl, arch, *parsed), MappingError::Ok);
        // Cost is identical after a round trip.
        EXPECT_DOUBLE_EQ(CostModel::evaluate(wl, arch, *parsed).edp,
                         CostModel::evaluate(wl, arch, m).edp);
    }
}

TEST(MappingIo, RoundTripPreservesBypass)
{
    const Workload wl = test::tinyGemm();
    Mapping m(2, wl.numDims());
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(1).temporal[d] = wl.bound(d);
    m.setKeep(0, 1, false, wl.numTensors());
    const auto parsed = parseMapping(serializeMapping(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->keeps(0, 1));
    EXPECT_TRUE(parsed->keeps(0, 0));
}

TEST(MappingIo, FormatIsStable)
{
    Mapping m(2, 2);
    m.level(0).temporal = {2, 1};
    m.level(1).temporal = {3, 4};
    m.level(0).order = {1, 0};
    EXPECT_EQ(serializeMapping(m),
              "v1;L=2;D=2;lvl t2,1 s1,1 o1,0;lvl t3,4 s1,1 o0,1");
}

TEST(MappingIo, ParsesKnownGoodString)
{
    const auto m =
        parseMapping("v1;L=2;D=2;lvl t2,1 s1,1 o1,0;lvl t3,4 s1,1 o0,1");
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->numLevels(), 2);
    EXPECT_EQ(m->numDims(), 2);
    EXPECT_EQ(m->level(0).temporal[0], 2);
    EXPECT_EQ(m->level(1).temporal[1], 4);
    EXPECT_EQ(m->level(0).order, (std::vector<int>{1, 0}));
}

TEST(MappingIo, ExplicitKeepAllMaskIsPrintedAndKept)
{
    // An explicit all-ones mask is not the same text as no mask, even
    // though the two mappings compare equal.
    Mapping m(2, 1);
    m.setKeep(0, 1, false, 3);
    m.setKeep(0, 1, true, 3);
    const std::string text = serializeMapping(m);
    EXPECT_EQ(text, "v1;L=2;D=1;lvl t1 s1 o0 k1,1,1;lvl t1 s1 o0");
    const auto parsed = parseMapping(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(serializeMapping(*parsed), text);
    EXPECT_TRUE(*parsed == Mapping(2, 1));
}

struct BadInput
{
    const char *text;
    const char *why;
};

// Name each case by its reason, so test names do not carry the
// addresses of the string literals (which change from run to run).
void PrintTo(const BadInput &p, std::ostream *os)
{
    *os << p.why;
}

class MappingIoRejectsP : public ::testing::TestWithParam<BadInput>
{
};

TEST_P(MappingIoRejectsP, MalformedInput)
{
    EXPECT_FALSE(parseMapping(GetParam().text).has_value())
        << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MappingIoRejectsP,
    ::testing::Values(
        BadInput{"", "empty"},
        BadInput{"v2;L=1;D=1;lvl t1 s1 o0", "wrong version"},
        BadInput{"v1;L=2;D=2;lvl t2,1 s1,1 o1,0", "missing level"},
        BadInput{"v1;L=1;D=2;lvl t2 s1,1 o1,0", "short factor list"},
        BadInput{"v1;L=1;D=2;lvl t2,1 s1,1 o1,1", "not a permutation"},
        BadInput{"v1;L=1;D=2;lvl t0,1 s1,1 o0,1", "zero factor"},
        BadInput{"v1;L=1;D=2;lvl t2,x s1,1 o0,1", "non-numeric"},
        BadInput{"v1;L=1;D=2;lvl s1,1 o0,1", "missing temporal"},
        BadInput{"v1;L=1;D=2;lvl t1,1 s1,1 o0,1 k2,0,1", "bad keep bit"},
        BadInput{"v1;L=0;D=2", "no levels"},
        BadInput{"v1;L=33;D=1;lvl t1 s1 o0", "33 levels"},
        BadInput{"v1;L=1;D=33;lvl t1 s1 o0", "33 dims"},
        BadInput{"v1;L=2000000000;D=1", "two billion levels"},
        BadInput{"v1;L=3x;D=1;lvl t1 s1 o0", "trailing garbage in L"}));

TEST(MappingIo, ExtraLevelRejected)
{
    EXPECT_FALSE(parseMapping("v1;L=1;D=1;lvl t1 s1 o0;lvl t1 s1 o0")
                     .has_value());
}

} // namespace
} // namespace mse
