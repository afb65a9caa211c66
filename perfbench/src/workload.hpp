// The benchmark's workloads: closed loops of simulated activities resolving
// through one ResolverClient, with an answer oracle judging every result,
// an optional rebind writer and an optional membership churn script.
//
// A run has three parts (README.md):
//   set-up    fabric + queries + cluster + warm-up rounds, repeated five
//             times; the median is `setup_s`;
//   window    a fixed number of rounds whose simulated statistics and
//             counter deltas are the run's exact, seed-determined figures;
//   timed     further rounds until `seconds` of host time have passed.
// Host throughput is the median over window + timed rounds of each round's
// rate calibrated by the host probe run right after it (probe.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "coherence/coherence.hpp"
#include "fabric.hpp"
#include "ns/membership.hpp"
#include "ns/name_service.hpp"
#include "report.hpp"

namespace perfbench {

using namecoh::SimDuration;
using namecoh::SimTime;

/// Judges answers against the binding history. An answer is *fresh* when
/// it is the query's current binding, *stale* when it is a superseded
/// binding whose supersession lies at most `bound` ticks back, and *wrong*
/// otherwise (including errors).
class Oracle {
 public:
  enum class Verdict { kFresh, kStale, kWrong };

  Oracle(const std::vector<Query>& queries, SimDuration bound);

  /// Log a rebind of (leaf, atom) to `new_target` at tick `at`; every
  /// query ending at that binding follows it. The binding's version
  /// history is the rebind log the verdicts are judged against.
  void rebind(EntityId leaf, Name atom, EntityId new_target, SimTime at);

  /// Verdict for `answer` (nullptr = the resolution failed) to `query`,
  /// settled at tick `at`. For stale answers `*age` receives the ticks
  /// since the binding was superseded.
  Verdict judge(std::size_t query, const EntityId* answer, SimTime at,
                std::uint64_t* age) const;

  /// The binding `query` currently denotes.
  [[nodiscard]] EntityId current(std::size_t query) const;
  [[nodiscard]] SimDuration bound() const { return bound_; }

 private:
  struct Version {
    EntityId entity;
    SimTime from;
  };
  static std::uint64_t key(EntityId leaf, Name atom);

  SimDuration bound_;
  std::vector<EntityId> expected_;
  std::vector<std::int64_t> history_of_;  ///< per query; -1 = no key
  std::vector<std::vector<Version>> history_;
  std::unordered_map<std::uint64_t, std::size_t> keys_;
};

enum class Placement {
  kRoundRobin,    ///< contexts at level 2 dealt across shards
  kHashChildren,  ///< the root's children placed by the shard ring
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  FabricSpec fabric;
  QuerySpec queries;
  Placement placement = Placement::kRoundRobin;
  std::size_t shards = 16;

  std::size_t activities = 256;
  SimDuration think_time = 0;
  namecoh::ResolverClientConfig client;
  SimDuration lease_term = 0;  ///< 0 = servers grant no leases

  /// Attach a membership directory and run the churn script. The oracle's
  /// bound is then the policy's partitioned bound: churn tears servers
  /// down and voids the leases they granted.
  bool churn = false;

  SimDuration rebind_every = 0;  ///< 0 = no rebind writer
  namecoh::CachePolicy policy = namecoh::CachePolicy::kTtlOnly;

  std::size_t round_resolutions = 10000;
  /// Resolutions between host probe runs in a timed round (probe.hpp):
  /// about a tenth of a second of host time.
  std::size_t probe_every = 10000;
  std::size_t warm_rounds = 4;
  std::size_t window_rounds = 20;
  std::size_t min_rounds = 40;  ///< window + timed rounds, at least
};

/// The workloads by name; throws std::invalid_argument for unknown ones.
WorkloadSpec workload_spec(std::string_view name);
std::vector<std::string> workload_names();

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span files into ("" = none).
  std::string trace_dir;
  /// Test hook: replace the n-th answer judged after set-up (1-based) by
  /// a wrong entity. 0 = off.
  std::uint64_t inject_wrong_at = 0;
};

struct WorkloadResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet end_to_end;
  MetricSet per_layer;
  /// The window's simulated statistics and counts, full precision, one per
  /// line: equal strings for equal seeds is the determinism contract.
  std::string digest;
  std::vector<double> round_rates;  ///< host rates, uncalibrated
  std::vector<double> setup_samples;
  std::vector<double> setup_probe_rates;  ///< the probe after each set-up
  JsonObject detail;
};

WorkloadResult run_workload(const WorkloadSpec& spec, const RunConfig& config);

}  // namespace perfbench
