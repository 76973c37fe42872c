#include "common/rng.hpp"

namespace mse {

void
Mt19937_64::twist()
{
    constexpr int kM = 156;
    constexpr uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
    constexpr uint64_t kUpper = ~uint64_t{0} << 31;
    constexpr uint64_t kLower = ~kUpper;
    // (0 - (y & 1)) & kMatrix is libstdc++'s (y & 1) ? kMatrix : 0
    // without a branch that mispredicts half the time.
    const auto mix = [](uint64_t hi, uint64_t lo, uint64_t far) {
        const uint64_t y = (hi & kUpper) | (lo & kLower);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
    };
    int k = 0;
    for (; k < kN - kM; ++k)
        x_[k] = mix(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k)
        x_[k] = mix(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = mix(x_[kN - 1], x_[0], x_[kM - 1]);
    pos_ = 0;
}

} // namespace mse
