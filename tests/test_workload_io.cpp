#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "workload/model_zoo.hpp"
#include "workload/text_codec.hpp"
#include "workload/workload_io.hpp"

namespace mse {
namespace {

class WorkloadIoRoundTripP : public ::testing::TestWithParam<int>
{
  protected:
    static Workload
    workloadFor(int i)
    {
        switch (i) {
          case 0: return resnetConv4();
          case 1: return bertKqv();
          case 2: return inceptionConv2();
          case 3:
            return makeDepthwiseConv2d("dw", 4, 32, 14, 14, 3, 3);
          default: {
            Workload wl = resnetConv3();
            wl.setDensity("Weights", 0.25);
            wl.setDensity("Inputs", 0.5);
            return wl;
          }
        }
    }
};

TEST_P(WorkloadIoRoundTripP, PreservesEverything)
{
    const Workload wl = workloadFor(GetParam());
    const auto parsed = parseWorkload(serializeWorkload(wl));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->name(), wl.name());
    EXPECT_EQ(parsed->dimNames(), wl.dimNames());
    EXPECT_EQ(parsed->bounds(), wl.bounds());
    ASSERT_EQ(parsed->numTensors(), wl.numTensors());
    for (int t = 0; t < wl.numTensors(); ++t) {
        EXPECT_EQ(parsed->tensor(t).name, wl.tensor(t).name);
        EXPECT_EQ(parsed->tensor(t).kind == TensorKind::Output,
                  wl.tensor(t).kind == TensorKind::Output);
        EXPECT_DOUBLE_EQ(parsed->tensor(t).density,
                         wl.tensor(t).density);
        EXPECT_DOUBLE_EQ(parsed->tensorVolume(t), wl.tensorVolume(t));
        for (int d = 0; d < wl.numDims(); ++d)
            EXPECT_EQ(parsed->isRelevant(t, d), wl.isRelevant(t, d));
    }
    EXPECT_EQ(parsed->reductionDims(), wl.reductionDims());
    // Second round trip is byte-identical (canonical form).
    EXPECT_EQ(serializeWorkload(*parsed), serializeWorkload(wl));
}

INSTANTIATE_TEST_SUITE_P(Zoo, WorkloadIoRoundTripP,
                         ::testing::Range(0, 5));

struct BadWorkload
{
    const char *text;
    const char *why;
};

// Name each case by its reason, so test names do not carry the
// addresses of the string literals (which change from run to run).
void PrintTo(const BadWorkload &p, std::ostream *os)
{
    *os << p.why;
}

class WorkloadIoRejectsP : public ::testing::TestWithParam<BadWorkload>
{
};

TEST_P(WorkloadIoRejectsP, MalformedInput)
{
    EXPECT_FALSE(parseWorkload(GetParam().text).has_value())
        << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WorkloadIoRejectsP,
    ::testing::Values(
        BadWorkload{"", "empty"},
        BadWorkload{"wl2;x;dims A=1;tensor T:out:1:1*0", "bad version"},
        BadWorkload{"wl1;x;dims A=0;tensor T:out:1:1*0", "zero bound"},
        BadWorkload{"wl1;x;dims A1;tensor T:out:1:1*0", "missing ="},
        BadWorkload{"wl1;x;dims A=2;tensor T:mid:1:1*0", "bad kind"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:2.0:1*0",
                    "density > 1"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:1*5",
                    "dim out of range"},
        BadWorkload{"wl1;x;dims A=2;tensor T:in:1:1*0",
                    "no output tensor"},
        BadWorkload{"wl1;x;dims A=2", "no tensors"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:nan:1*0", "nan density"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:inf:1*0", "inf density"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:0x1p-1:1*0",
                    "hex-float density"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out: 1:1*0",
                    "leading space in density"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:+1:1*0",
                    "leading plus in density"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:0.5x:1*0",
                    "trailing garbage in density"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1e:1*0",
                    "density without exponent digits"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1e999:1*0",
                    "overflowing density"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1e-999:1*0",
                    "underflowing density"},
        BadWorkload{"wl1;x;dims A=16junk;tensor T:out:1:1*0",
                    "trailing garbage in bound"},
        BadWorkload{"wl1;x;dims A= 2;tensor T:out:1:1*0",
                    "leading space in bound"},
        BadWorkload{"wl1;x;dims A=+2;tensor T:out:1:1*0",
                    "leading plus in bound"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:1x*0",
                    "trailing garbage in coefficient"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:1*0zz",
                    "trailing garbage in dim index"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:+1*0",
                    "leading plus in coefficient"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:1* 0",
                    "leading space in dim index"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:1*0;",
                    "trailing empty section"},
        BadWorkload{"wl1;x;dims A=2,;tensor T:out:1:1*0",
                    "trailing empty dim"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:1*0||1*0",
                    "empty rank"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:1*0+",
                    "empty term"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:", "empty projection"},
        BadWorkload{"wl1;x;dims A=2;tensor T:out:1:1*0:", "fifth field"}));

TEST(WorkloadIo, ExponentDensitiesRoundTrip)
{
    // %g switches to exponent form below 1e-4; the parser must take
    // back everything the serializer writes.
    for (const double d : {1e-05, 1.5e-07, 0.0001, 0.333333333, 1.0}) {
        Workload wl = makeGemm("g", 2, 3, 4, 5);
        wl.setDensity("Weights", d);
        const std::string text = serializeWorkload(wl);
        const auto parsed = parseWorkload(text);
        ASSERT_TRUE(parsed.has_value()) << text;
        EXPECT_EQ(serializeWorkload(*parsed), text);
    }
    EXPECT_TRUE(
        parseWorkload("wl1;x;dims A=2;tensor T:out:1e-05:1*0").has_value());
}

TEST(WorkloadIo, DensityTextIsPrintfG)
{
    // Densities are written as printf("%g"); that must be
    // byte-identical to ostream's default rendering, which older stores
    // and signatures were written with, and must parse back.
    Rng rng(11);
    for (int i = 0; i < 20000; ++i) {
        const double v =
            rng.uniformReal() * std::pow(10.0, -rng.uniformInt(0, 12));
        std::string ours;
        text::appendG(ours, v);
        double back = 0.0;
        ASSERT_TRUE(text::parseDouble(ours, back)) << ours;
        std::ostringstream os;
        os << v;
        ASSERT_EQ(ours, os.str()) << i;
    }
}

} // namespace
} // namespace mse
