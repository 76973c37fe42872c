#include "calibrate.hpp"

#include "util.hpp"

namespace perfbench {

namespace {

constexpr uint32_t kCycle = 1u << 19; ///< Entries of the walk (2 MiB).
constexpr int kSteps = 200000;        ///< Walk steps per pass.
constexpr int kChain = 20;            ///< Floating-point ops per step.

} // namespace

HostSpeed::HostSpeed() : next_(kCycle)
{
    // One random cycle through every entry, from a fixed seed.
    std::vector<uint32_t> order(kCycle);
    for (uint32_t i = 0; i < kCycle; ++i)
        order[i] = i;
    Stream s(7);
    s.shuffle(order);
    for (uint32_t i = 0; i < kCycle; ++i)
        next_[order[i]] = order[(i + 1) % kCycle];
}

double
HostSpeed::pass()
{
    const double t0 = now();
    uint32_t p = 0;
    double x = 1.0;
    for (int step = 0; step < kSteps; ++step) {
        p = next_[p];
        for (int k = 0; k < kChain; ++k)
            x = x * 1.0000001 + 1e-9 * k;
    }
    // Keep the work observable so it is not optimised away.
    volatile double sink = x + p;
    (void)sink;
    return (now() - t0) * 1e3;
}

void
HostSpeed::sample(int passes)
{
    for (int i = 0; i < passes; ++i)
        ms_.push_back(pass());
}

double
HostSpeed::medianMs() const
{
    return median(ms_);
}

} // namespace perfbench
