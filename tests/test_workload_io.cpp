#include <gtest/gtest.h>

#include "workload/model_zoo.hpp"
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
        BadWorkload{"wl1;x;dims A=2", "no tensors"}));

} // namespace
} // namespace mse
