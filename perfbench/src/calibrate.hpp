/**
 * @file
 * Host-speed reference. On a shared virtual machine the same code runs
 * up to 2x slower for minutes at a time (see NOTES.md, "Host-speed
 * normalization"). The benchmark times a fixed computation between its
 * rounds and reports its timings scaled to the speed at which that
 * computation takes kReferenceMs. The computation calls no project code,
 * so no change to the program under test moves it.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed
{
  public:
    /** What one reference pass takes on the host at reference speed. */
    static constexpr double kReferenceMs = 10.0;

    HostSpeed();

    /** Time `passes` reference passes. */
    void sample(int passes);

    /** Median pass time over every sample so far, ms. */
    double medianMs() const;

    /** How much slower than reference speed the host ran: the median
     *  pass time over kReferenceMs. Divide a duration by it (multiply a
     *  rate) to get the value at reference speed. */
    double slowdown() const { return medianMs() / kReferenceMs; }

  private:
    /** One pass: a dependent walk through a 2 MiB random cycle (cache
     *  and memory latency) interleaved with a dependent floating-point
     *  chain (core speed), the two costs the cost model and the mapping
     *  store pay. */
    double pass();

    std::vector<uint32_t> next_;
    std::vector<double> ms_;
};

} // namespace perfbench
