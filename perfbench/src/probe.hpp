// Host speed probe: a fixed piece of benchmark-own work, run after every
// tenth of a second of a timed round, so the round's host time can be read
// at a reference host speed.
//
// The benchmark runs on a few virtual CPUs of a shared host. Other tenants
// slow it in phases lasting seconds, by up to a third; CPU time tracks wall
// time through them, so the slowdown is contention for the core's caches,
// not preemption. Work whose data lives in the core's L2 is hit hardest
// (register-only and DRAM-bound loops barely move), which is also where the
// workloads' hot data lives. The probe is a dependent chain of random
// read-modify-writes over a table the size of one core's L2 (2 MiB on the
// 4-vCPU Xeon the bounds were set on), so it slows with the round, and
// reading a stretch's host time as
//     elapsed * probe rate / kNominalOpsPerS
// cancels the slowdown. The program never runs the probe: a change to the
// program moves the rounds and not the probe.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// Operations per run: about 8 ms on the host above.
  static constexpr std::uint32_t kOps = 1u << 18;
  /// The reference host speed the calibrated rates are read at, close to
  /// the probe's own uncontended rate on the host above.
  static constexpr double kNominalOpsPerS = 3.0e7;

  HostProbe();

  /// Run the fixed work once; returns its rate in operations per second.
  double run();

 private:
  std::vector<std::uint64_t> table_;
  std::uint64_t state_ = 0x243f6a8885a308d3ULL;
};

}  // namespace perfbench
