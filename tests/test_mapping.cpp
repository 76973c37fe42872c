#include <gtest/gtest.h>

#include "mapping/mapping.hpp"
#include "test_helpers.hpp"

namespace mse {
namespace {

using test::allAtTop;
using test::flatArch;
using test::tinyConv;
using test::tinyGemm;

TEST(Mapping, SkeletonIsAllOnesIdentity)
{
    const Mapping m(3, 4);
    EXPECT_EQ(m.numLevels(), 3);
    EXPECT_EQ(m.numDims(), 4);
    for (int l = 0; l < 3; ++l) {
        for (int d = 0; d < 4; ++d) {
            EXPECT_EQ(m.level(l).temporal[d], 1);
            EXPECT_EQ(m.level(l).spatial[d], 1);
        }
        EXPECT_EQ(m.level(l).order, (std::vector<int>{0, 1, 2, 3}));
    }
}

TEST(Mapping, CumulativeAndTotalFactors)
{
    Mapping m(3, 2);
    m.level(0).temporal[0] = 2;
    m.level(1).spatial[0] = 3;
    m.level(2).temporal[0] = 5;
    EXPECT_EQ(m.cumulativeFactor(0, 0), 2);
    EXPECT_EQ(m.cumulativeFactor(1, 0), 6);
    EXPECT_EQ(m.totalFactor(0), 30);
    EXPECT_EQ(m.totalFactor(1), 1);
}

TEST(Mapping, FactorColumnRoundTrip)
{
    Mapping m(2, 3);
    m.level(0).temporal[1] = 4;
    m.level(1).spatial[1] = 2;
    m.level(0).temporal[2] = 5; // another column: must not travel
    Mapping m2(2, 3);
    m2.copyFactorColumn(1, m);
    EXPECT_EQ(m2.level(0).temporal[1], 4);
    EXPECT_EQ(m2.level(0).spatial[1], 1);
    EXPECT_EQ(m2.level(1).temporal[1], 1);
    EXPECT_EQ(m2.level(1).spatial[1], 2);
    EXPECT_EQ(m2.level(0).temporal[2], 1);
    EXPECT_EQ(m2.totalFactor(1), m.totalFactor(1));
}

TEST(Mapping, RowAssignmentCopiesElements)
{
    Mapping a(2, 3), b(2, 3);
    b.level(1).order = {2, 0, 1};
    a.level(1).order = b.level(1).order;
    b.level(1).order[0] = 1; // must not show through a
    EXPECT_EQ(a.level(1).order, (std::vector<int>{2, 0, 1}));
    EXPECT_EQ(b.level(1).order, (std::vector<int>{1, 0, 1}));

    const Mapping c = a; // copies own their buffer
    a.level(1).order[0] = 0;
    EXPECT_EQ(c.level(1).order, (std::vector<int>{2, 0, 1}));

    EXPECT_THROW(a.level(0).order = (std::vector<int>{0, 1}),
                 std::length_error);
}

TEST(Mapping, KeepMaskPresenceIsCopied)
{
    Mapping a(2, 2), b(2, 2);
    b.setKeep(0, 1, false, 3);
    a.level(0).keep = b.level(0).keep;
    EXPECT_EQ(a.level(0).keep.size(), 3u);
    EXPECT_FALSE(a.keeps(0, 1));
    EXPECT_TRUE(a.keeps(0, 2));
    a.level(0).keep = b.level(1).keep; // copying "no mask" clears it
    EXPECT_TRUE(a.level(0).keep.empty());
    EXPECT_THROW(a.setKeep(0, 0, false, Mapping::kMaxKeepTensors + 1),
                 std::invalid_argument);
}

TEST(Mapping, MovedFromIsEmpty)
{
    Mapping a(2, 3);
    a.level(1).temporal = {2, 3, 4};
    const Mapping copy = a;
    Mapping b(std::move(a));
    EXPECT_EQ(b, copy);
    EXPECT_EQ(a.numLevels(), 0);
    EXPECT_EQ(a.numDims(), 0);
    EXPECT_EQ(a, Mapping());
    Mapping c(1, 1);
    c = std::move(b);
    EXPECT_EQ(c, copy);
    EXPECT_EQ(b.numLevels(), 0);
    EXPECT_EQ(b, Mapping());
}

TEST(Mapping, SpatialProduct)
{
    Mapping m(2, 3);
    m.level(0).spatial = {2, 3, 1};
    EXPECT_EQ(m.spatialProduct(0), 6);
    EXPECT_EQ(m.spatialProduct(1), 1);
}

TEST(Validate, AcceptsTrivialLegalMapping)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    const Mapping m = allAtTop(wl, arch);
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::Ok);
}

TEST(Validate, DetectsBadShape)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping m(1, wl.numDims()); // wrong level count
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::BadShape);
}

TEST(Validate, DetectsBadFactorProduct)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping m = allAtTop(wl, arch);
    m.level(1).temporal[1] = 1; // M product now 1 != 2
    EXPECT_EQ(validateMapping(wl, arch, m),
              MappingError::BadFactorProduct);
}

TEST(Validate, DetectsBadOrder)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping m = allAtTop(wl, arch);
    m.level(0).order = {0, 0, 1, 2};
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::BadOrder);
}

TEST(Validate, DetectsFanoutExceeded)
{
    const Workload wl = tinyGemm();
    ArchConfig arch = flatArch();
    Mapping m = allAtTop(wl, arch);
    m.level(1).temporal[1] = 1;
    m.level(0).spatial[1] = 2; // fanout of flat arch L1 is 1
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::FanoutExceeded);
}

TEST(Validate, DetectsCapacityExceeded)
{
    const Workload wl = tinyConv();
    const ArchConfig arch = test::flatArch(/*l1_words=*/4);
    Mapping m(arch.numLevels(), wl.numDims());
    // Put everything at L1: tiles exceed the 4-word budget.
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(0).temporal[d] = wl.bound(d);
    EXPECT_EQ(validateMapping(wl, arch, m),
              MappingError::CapacityExceeded);
}

TEST(Validate, SparseTensorsShrinkResidency)
{
    // A tile that overflows dense fits once the tensors are compressed.
    Workload wl = tinyConv();
    const int64_t dense_words = static_cast<int64_t>(
        wl.tensorVolume(0) + wl.tensorVolume(1) + wl.tensorVolume(2));
    const ArchConfig arch = test::flatArch(dense_words / 2);
    Mapping m(arch.numLevels(), wl.numDims());
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(0).temporal[d] = wl.bound(d);
    EXPECT_EQ(validateMapping(wl, arch, m),
              MappingError::CapacityExceeded);
    wl.setDensity("Weights", 0.1);
    wl.setDensity("Inputs", 0.1);
    wl.setDensity("Outputs", 0.1);
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::Ok);
}

TEST(TileFootprint, SlidingWindowHalo)
{
    const Workload wl = tinyConv(); // Y=X=4, R=S=3
    const ArchConfig arch = flatArch();
    Mapping m = allAtTop(wl, arch);
    // Full problem at DRAM: input footprint is (Y+R-1)(X+S-1) = 6*6.
    EXPECT_DOUBLE_EQ(tileFootprint(wl, m, 1, 1), 1.0 * 2 * 6 * 6);
    // At L1 everything is a single element.
    EXPECT_DOUBLE_EQ(tileFootprint(wl, m, 1, 0), 1.0);
}

TEST(TileFootprint, GrowsWithCumulativeFactors)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping m = allAtTop(wl, arch);
    m.level(1).temporal[1] = 1;
    m.level(0).temporal[1] = 2; // M at L1
    // A tile [B=1, M=2, K=1] -> 2 words.
    EXPECT_DOUBLE_EQ(tileFootprint(wl, m, 0, 0), 2.0);
}

TEST(CanonicalKey, UnitLoopsOrderInsensitive)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping a = allAtTop(wl, arch);
    Mapping b = a;
    // At level 0 all temporal factors are 1: any order is equivalent.
    a.level(0).order = {0, 1, 2, 3};
    b.level(0).order = {3, 2, 1, 0};
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

TEST(CanonicalKey, NonUnitLoopsOrderSensitive)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping a = allAtTop(wl, arch);
    Mapping b = a;
    // At DRAM, M/K/N have factor 2: order matters there.
    a.level(1).order = {0, 1, 2, 3};
    b.level(1).order = {0, 3, 2, 1};
    EXPECT_NE(a.canonicalKey(), b.canonicalKey());
}

TEST(CanonicalKey, PinnedBytes)
{
    Mapping m(2, 3);
    m.level(0).temporal = {1, 12, 1};
    m.level(0).spatial = {2, 1, 1};
    m.level(1).temporal = {3, 1, 1};
    m.level(0).order = {2, 1, 0}; // unit run {2} | 1 | {0} stays put
    m.level(1).order = {2, 1, 0}; // dims 1, 2 unit: run sorts to 1, 2
    m.setKeep(0, 1, false, 3);
    EXPECT_EQ(m.canonicalKey(),
              "1.2,12.1,1.1,2;1;0;k101|3.1,1.1,1.1,1;2;0;|");
}

TEST(CanonicalKey, DifferentTilesDifferentKeys)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping a = allAtTop(wl, arch);
    Mapping b = a;
    b.level(1).temporal[1] = 1;
    b.level(0).temporal[1] = 2;
    EXPECT_NE(a.canonicalKey(), b.canonicalKey());
}

TEST(MappingErrorName, AllNamed)
{
    EXPECT_STREQ(mappingErrorName(MappingError::Ok), "Ok");
    EXPECT_STREQ(mappingErrorName(MappingError::CapacityExceeded),
                 "CapacityExceeded");
}

/** 2-level, 4-dim mapping with two adjacent unit loops at level 0. */
Mapping
baseMapping()
{
    Mapping m(2, 4);
    // Dims 0 and 1 are unit at level 0; dims 2 and 3 carry factor 2.
    m.level(0).temporal = {1, 1, 2, 2};
    m.level(1).temporal = {1, 2, 1, 1};
    m.level(0).order = {0, 1, 2, 3};
    m.level(1).order = {3, 2, 1, 0};
    return m;
}

TEST(MappingHash, EqualCanonicalMappingsCollide)
{
    const Mapping a = baseMapping();
    Mapping b = baseMapping();
    // Dims 0 and 1 are an adjacent run of unit loops at level 0:
    // permuting them does not change the canonical mapping.
    b.level(0).order = {1, 0, 2, 3};
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

TEST(MappingHash, PerturbedFactorsDoNotCollide)
{
    const Mapping a = baseMapping();
    Mapping b = baseMapping();
    // Migrate dim 2's tile factor outward: same total factor product,
    // different mapping.
    b.level(0).temporal[2] = 1;
    b.level(1).temporal[2] = 2;
    EXPECT_FALSE(a == b);
    EXPECT_TRUE(a != b);
}

TEST(MappingHash, NonUnitOrderSwapDoesNotCollide)
{
    const Mapping a = baseMapping();
    Mapping b = baseMapping();
    // Swapping the two non-unit loops at level 0 reorders real loops:
    // canonically distinct.
    b.level(0).order = {0, 1, 3, 2};
    EXPECT_FALSE(a == b);
}

TEST(MappingHash, UnitSwapAcrossNonUnitLoopDoesNotCollide)
{
    Mapping a = baseMapping();
    a.level(0).order = {0, 2, 1, 3}; // unit loops 0 and 1 split by 2
    Mapping b = a;
    b.level(0).order = {1, 2, 0, 3};
    EXPECT_FALSE(a == b);
}

TEST(MappingHash, ExplicitKeepAllMatchesEmptyMask)
{
    const Mapping a = baseMapping();
    Mapping b = baseMapping();
    // setKeep materializes an all-ones mask; flipping the bit back
    // leaves an explicit keep-everything mask, semantically identical
    // to the default empty one.
    b.setKeep(0, 1, false, 3);
    b.setKeep(0, 1, true, 3);
    EXPECT_TRUE(a == b);

    Mapping c = baseMapping();
    c.setKeep(0, 1, false, 3); // a real bypass must not collide
    EXPECT_FALSE(a == c);
}

} // namespace
} // namespace mse
