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
    const auto col = m.factorColumn(1);
    EXPECT_EQ(col, (std::vector<int64_t>{4, 1, 1, 2}));
    Mapping m2(2, 3);
    m2.setFactorColumn(1, col);
    EXPECT_EQ(m2.factorColumn(1), col);
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
