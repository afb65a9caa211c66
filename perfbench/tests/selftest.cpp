// The benchmark's own tests: the answer oracle's verdicts, an injected
// wrong answer failing a run, and the determinism contract (same seed,
// byte-identical simulated metrics and counts; another seed, another query
// stream, still no failures). Workloads run here at reduced size.
//
//   perfbench_selftest        (exit 0 = all passed)
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "workload.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "  FAILED: " << what << "\n";
  }
}

/// The workload's own shape, scaled down to run in well under a second.
WorkloadSpec small(const std::string& name) {
  WorkloadSpec s = workload_spec(name);
  s.fabric.fanout = 6;
  s.fabric.depth = s.placement == Placement::kHashChildren ? 4 : 3;
  s.fabric.data_per_leaf = 2;
  s.fabric.data_pool = 64;
  s.queries.count = 512;
  s.shards = std::min<std::size_t>(s.shards, 4);
  s.activities = 32;
  s.round_resolutions = 500;
  s.warm_rounds = 2;
  s.window_rounds = s.churn ? 20 : 6;
  return s;
}

RunConfig quick(std::uint64_t seed) {
  RunConfig c;
  c.seed = seed;
  c.seconds = 0.01;  // the min_rounds floor decides
  return c;
}

void oracle_verdicts() {
  FabricSpec fspec{4, 3, 2, 16, 4};
  auto fabric = build_fabric(fspec);
  QuerySpec qspec{64, 1, 8};
  const std::vector<Query> queries = make_queries(*fabric, fspec, qspec, 5);
  Oracle oracle(queries, /*bound=*/50);
  const Query& data = queries[1];  // odd ranks end at a data binding
  expect(data.leaf.valid(), "rank 1 is a data query");

  std::uint64_t age = 0;
  expect(oracle.judge(1, &data.expected, 10, &age) == Oracle::Verdict::kFresh,
         "set-up answer is fresh");
  expect(oracle.judge(1, nullptr, 10, &age) == Oracle::Verdict::kWrong,
         "an error is wrong");
  const EntityId other = fabric->versions[0];
  expect(oracle.judge(1, &other, 10, &age) == Oracle::Verdict::kWrong,
         "another entity is wrong");

  oracle.rebind(data.leaf, data.atom, other, 1000);
  expect(oracle.judge(1, &other, 1001, &age) == Oracle::Verdict::kFresh,
         "new binding is fresh after the rebind");
  expect(oracle.judge(1, &data.expected, 1040, &age) ==
                 Oracle::Verdict::kStale &&
             age == 40,
         "superseded binding inside the bound is stale, age 40");
  expect(oracle.judge(1, &data.expected, 1051, &age) == Oracle::Verdict::kWrong,
         "superseded binding past the bound is wrong");
  expect(oracle.judge(0, &queries[0].expected, 5000, &age) ==
             Oracle::Verdict::kFresh,
         "queries off the rebound binding are untouched");
}

void injected_wrong_answer() {
  RunConfig c = quick(3);
  c.inject_wrong_at = 100;
  const WorkloadResult r = run_workload(small("remote-miss"), c);
  expect(!r.correct, "an injected wrong answer makes the run incorrect");
  expect(r.failed == 1, "exactly the injected answer is counted failed");
}

void determinism(const std::string& name) {
  const WorkloadSpec spec = small(name);
  const WorkloadResult a = run_workload(spec, quick(11));
  const WorkloadResult b = run_workload(spec, quick(11));
  const WorkloadResult c = run_workload(spec, quick(12));
  expect(a.correct && b.correct && c.correct, name + ": every answer correct");
  expect(a.failed == 0 && c.failed == 0, name + ": failed_frac is 0");
  expect(!a.digest.empty() && a.digest == b.digest,
         name + ": same seed, byte-identical simulated metrics and counts");
  expect(a.digest != c.digest, name + ": another seed changes the figures");
  if (a.digest != b.digest) std::cerr << a.digest << "---\n" << b.digest;
  for (const WorkloadResult* r : {&a, &c}) {
    if (!r->correct) std::cerr << "  " << r->detail.str() << "\n";
  }
}

}  // namespace

int main() {
  const std::vector<std::pair<std::string, std::function<void()>>> tests = {
      {"oracle_verdicts", oracle_verdicts},
      {"injected_wrong_answer", injected_wrong_answer},
      {"determinism_remote_miss", [] { determinism("remote-miss"); }},
      {"determinism_cache_rebind", [] { determinism("cache-rebind"); }},
      {"determinism_churn_heal", [] { determinism("churn-heal"); }},
  };
  for (const auto& [name, test] : tests) {
    const int before = g_failures;
    try {
      test();
    } catch (const std::exception& e) {
      ++g_failures;
      std::cerr << "  FAILED: exception: " << e.what() << "\n";
    }
    std::cout << (g_failures == before ? "[ OK ] " : "[FAIL] ") << name
              << std::endl;
  }
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
