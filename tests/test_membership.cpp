// Dynamic membership tests (docs/MEMBERSHIP.md): the MembershipDirectory
// lifecycle state machine, graceful leave with live subtree handoff (zero
// lost lookups under closed-loop load), rejoin handback via ring
// stability, crash-leave re-delegation, the §6 regression — machine
// renumbering must not break partially-qualified (name-closed) resolution
// while it visibly kills fully-qualified pids — rename-tombstone windows,
// and same-seed determinism of a full churn scenario. Clusters are wired
// through ScenarioBuilder, which these tests double as coverage for.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/graph_ops.hpp"
#include "ns/membership.hpp"
#include "ns/name_service.hpp"
#include "workload/parallel.hpp"
#include "workload/scenario.hpp"

namespace namecoh {
namespace {

/// A root whose children c0..c{fanout-1} are delegable subtrees; built
/// once per test. Small enough that handoffs finish in a few thousand
/// ticks with the fast options below.
struct Fabric {
  NamingGraph graph;
  EntityId root;
  TreeBuildResult tree;
  std::vector<EntityId> subtrees;
  EntityId leaf;  ///< data object at c0/c0/f

  explicit Fabric(std::size_t fanout = 4, std::size_t depth = 3) {
    root = graph.add_context_object("root");
    tree = build_context_tree(graph, root, fanout, depth);
    subtrees = tree.levels[1];
    leaf = graph.add_data_object("leaf");
    EXPECT_TRUE(graph.bind(tree.levels[2][0], Name("f"), leaf).is_ok());
  }
};

MembershipOptions fast_membership() {
  MembershipOptions options;
  options.handoff.copy_batch = 4;
  options.handoff.copy_interval = 10;
  options.handoff.settle_delay = 50;
  options.handoff.forward_window = 500;
  options.rename_window = 10000;
  return options;
}

std::unique_ptr<Cluster> make_cluster(const Fabric& fabric,
                                      std::size_t shards,
                                      ResolverClientConfig cfg = {}) {
  cfg.shard_routing = true;
  return ScenarioBuilder(fabric.graph)
      .shards(shards)
      .delegate_children_by_hash(fabric.root)
      .delegate(fabric.root, 0)
      .with_membership(fast_membership())
      .client_config(cfg)
      .client_label("t")
      .build();
}

// --- Lifecycle state machine -------------------------------------------------

TEST(MembershipLifecycle, TracksStatesAndIncarnations) {
  Fabric fabric;
  auto cluster = make_cluster(fabric, 2);
  MembershipDirectory& members = *cluster->membership();
  const MachineId m0 = cluster->machine(0);

  // The builder announced every machine: shard servers and the client.
  EXPECT_EQ(members.state(m0), MemberState::kUp);
  EXPECT_EQ(members.incarnation(m0), 1u);
  EXPECT_EQ(members.shard_of(m0), ShardId{0});
  EXPECT_EQ(members.state(cluster->client_machine()), MemberState::kUp);
  EXPECT_EQ(members.up_count(), 3u);  // 2 shards + 1 client machine

  // Transitions that make no sense are refused without side effects.
  EXPECT_FALSE(members.announce(m0).is_ok());
  EXPECT_FALSE(members.rejoin(m0).is_ok());
  EXPECT_FALSE(members.graceful_leave(MachineId::invalid()).is_ok());

  bool down = false;
  ASSERT_TRUE(members.graceful_leave(m0, [&] { down = true; }).is_ok());
  members.run_handoffs_to_completion();
  EXPECT_TRUE(down);
  EXPECT_EQ(members.state(m0), MemberState::kDown);
  EXPECT_EQ(members.up_count(), 2u);
  EXPECT_FALSE(members.graceful_leave(m0).is_ok());
  EXPECT_FALSE(members.rename(m0).is_ok());  // rename needs a live member

  ASSERT_TRUE(members.rejoin(m0).is_ok());
  members.run_handoffs_to_completion();
  EXPECT_EQ(members.state(m0), MemberState::kUp);
  EXPECT_EQ(members.incarnation(m0), 2u);  // bumped by the rejoin
}

// --- Graceful leave ----------------------------------------------------------

TEST(MembershipHandoff, GracefulLeaveMigratesSubtreesLive) {
  Fabric fabric;
  auto cluster = make_cluster(fabric, 3);
  MembershipDirectory& members = *cluster->membership();
  // Machine 1 leaves: only ring-managed subtrees are handed off, and the
  // explicitly delegated root region stays pinned to shard 0 — so the
  // leaver must not be shard 0's only machine or root-start resolution
  // would have no server.
  const MachineId leaver = cluster->machine(1);

  std::vector<EntityId> owned;
  for (EntityId t : fabric.subtrees) {
    if (cluster->homes().shard_of(t) == ShardId{1}) owned.push_back(t);
  }
  ASSERT_FALSE(owned.empty());

  ASSERT_TRUE(members.graceful_leave(leaver).is_ok());
  members.run_handoffs_to_completion();

  // Every subtree the leaver's shard owned moved to a survivor — through
  // the driver (live), not by direct cutover — and its server is gone.
  for (EntityId t : owned) {
    EXPECT_NE(cluster->homes().shard_of(t), ShardId{1});
  }
  EXPECT_GE(members.handoffs().size(), owned.size());
  for (const HandoffRecord& record : members.handoffs()) {
    EXPECT_TRUE(record.live);
    EXPECT_EQ(record.from, ShardId{1});
  }
  EXPECT_FALSE(cluster->service().server_on(leaver).is_ok());

  // Resolution through the moved subtrees keeps working.
  Result<EntityId> hit =
      cluster->client().resolve(fabric.root, CompoundName::relative("c0/c0/f"));
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit.value(), fabric.leaf);
}

TEST(MembershipHandoff, GracefulLeaveLosesNoLookupsUnderLoad) {
  Fabric fabric;
  ResolverClientConfig cfg;
  cfg.cache_ttl = 0;  // every lookup pays the wire mid-handoff
  cfg.retry.retries = 2;
  cfg.retry.request_timeout = 5000;
  auto cluster = make_cluster(fabric, 3, cfg);
  MembershipDirectory& members = *cluster->membership();

  std::vector<ParallelQuery> queries;
  for (EntityId t : fabric.subtrees) {
    queries.push_back(ParallelQuery{t, CompoundName::relative("c0/c1")});
    queries.push_back(ParallelQuery{t, CompoundName::relative("c1/c0")});
  }
  // One machine leaves and later rejoins while the load runs; the script
  // only schedules, run_parallel drives.
  RollingRestart restart(cluster->sim(), members,
                         {cluster->machine(1)},
                         RollingRestartSpec{/*start=*/200, /*downtime=*/1500,
                                            /*gap=*/300});
  restart.start();

  ParallelSpec spec;
  spec.activities = 16;
  spec.total_resolutions = 600;
  spec.seed = 5;
  ParallelOutcome out =
      run_parallel(cluster->sim(), cluster->client(), queries, spec);
  cluster->sim().run_while([&] { return !restart.done(); });

  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_TRUE(restart.done());
  EXPECT_EQ(members.state(cluster->machine(1)), MemberState::kUp);
}

TEST(MembershipHandoff, RejoinTakesItsRingShareBack) {
  Fabric fabric;
  auto cluster = make_cluster(fabric, 3);
  MembershipDirectory& members = *cluster->membership();

  std::vector<ShardId> before;
  for (EntityId t : fabric.subtrees) {
    before.push_back(cluster->homes().shard_of(t));
  }
  ASSERT_TRUE(members.graceful_leave(cluster->machine(1)).is_ok());
  members.run_handoffs_to_completion();
  ASSERT_TRUE(members.rejoin(cluster->machine(1)).is_ok());
  members.run_handoffs_to_completion();

  // Ring stability: the rejoined shard gets exactly its old subtrees back,
  // so the placement returns to the pre-leave assignment.
  for (std::size_t i = 0; i < fabric.subtrees.size(); ++i) {
    EXPECT_EQ(cluster->homes().shard_of(fabric.subtrees[i]), before[i]);
  }
}

TEST(MembershipHandoff, SecondCycleRecopiesOnlyReboundContexts) {
  Fabric fabric;
  auto cluster = make_cluster(fabric, 3);
  MembershipDirectory& members = *cluster->membership();
  const MachineId cycler = cluster->machine(1);
  auto pushed = [&] {
    return cluster->metrics().counter_value("ns.rebalance.snapshots_pushed");
  };
  auto cycle = [&](const std::function<void()>& while_down) {
    ASSERT_TRUE(members.graceful_leave(cycler).is_ok());
    members.run_handoffs_to_completion();
    while_down();
    ASSERT_TRUE(members.rejoin(cycler).is_ok());
    members.run_handoffs_to_completion();
  };

  // Shard 1's share, as the rebinds below need contexts that move.
  std::vector<EntityId> share;
  for (EntityId t : fabric.subtrees) {
    if (cluster->homes().shard_of(t) == ShardId{1}) share.push_back(t);
  }
  ASSERT_FALSE(share.empty());

  // First cycle: every store involved starts empty, so both directions
  // copy the whole share.
  cycle([] {});
  const std::uint64_t first = pushed();
  ASSERT_GT(first, 0u);

  // Second cycle: the survivors still hold the handed-off contexts and the
  // rejoiner still holds its handed-back ones. Only contexts rebound while
  // the machine is down are behind on its store.
  std::size_t rebound = 0;
  cycle([&] {
    for (EntityId t : share) {
      const EntityId extra = fabric.graph.add_data_object("extra");
      ASSERT_TRUE(fabric.graph.bind(t, Name("extra"), extra).is_ok());
      ++rebound;
    }
  });
  const std::uint64_t second = pushed() - first;
  EXPECT_LE(second, rebound);
  EXPECT_LT(second, first);
  EXPECT_GT(
      cluster->metrics().counter_value("ns.rebalance.snapshots_skipped"), 0u);

  // The handback still ran live, and the rebound bindings answer.
  for (EntityId t : share) {
    EXPECT_EQ(cluster->homes().shard_of(t), ShardId{1});
    EXPECT_TRUE(
        cluster->client().resolve(t, CompoundName::relative("extra")).is_ok());
  }
}

// --- Crash-leave -------------------------------------------------------------

TEST(MembershipCrash, CrashLeaveRedelegatesOrphanedSubtrees) {
  Fabric fabric;
  auto cluster = make_cluster(fabric, 3);
  MembershipDirectory& members = *cluster->membership();
  const MachineId victim = cluster->machine(2);

  std::vector<EntityId> owned;
  for (EntityId t : fabric.subtrees) {
    if (cluster->homes().shard_of(t) == ShardId{2}) owned.push_back(t);
  }
  ASSERT_FALSE(owned.empty());

  ASSERT_TRUE(members.crash_leave(victim).is_ok());
  EXPECT_EQ(members.state(victim), MemberState::kDown);
  EXPECT_FALSE(members.crash_leave(victim).is_ok());  // already down

  // Orphaned subtrees were re-delegated by direct cutover — no copy, no
  // forwarding; there is nobody left to copy from.
  for (EntityId t : owned) {
    EXPECT_NE(cluster->homes().shard_of(t), ShardId{2});
  }
  const StatsSnapshot stats = members.snapshot();
  EXPECT_EQ(stats["crashes"], 1u);
  EXPECT_EQ(stats["redelegations"], owned.size());
  for (const HandoffRecord& record : members.handoffs()) {
    EXPECT_FALSE(record.live);
  }

  // Resolution of names under the re-delegated subtrees succeeds against
  // the survivors' primaries (the graph is shared; no copy was needed).
  for (EntityId t : owned) {
    Result<EntityId> hit =
        cluster->client().resolve(t, CompoundName::relative("c0/c1"));
    EXPECT_TRUE(hit.is_ok());
  }

  // And a rejoin restarts the crashed machine.
  ASSERT_TRUE(members.rejoin(victim).is_ok());
  members.run_handoffs_to_completion();
  EXPECT_EQ(members.state(victim), MemberState::kUp);
}

// --- Renumbering (§6 regression) ---------------------------------------------

TEST(MembershipRename, PreservesNameResolutionWhileBreakingAddresses) {
  Fabric fabric;
  ResolverClientConfig cfg;
  cfg.cache_ttl = 0;
  auto cluster = make_cluster(fabric, 2, cfg);
  MembershipDirectory& members = *cluster->membership();

  // Find the subtree owned by shard 1 and warm the client's glue route to
  // its machine; capture the machine's fully-qualified server address. The
  // warm-up starts at the ROOT so the referral's glue teaches the client
  // shard 1's route — a stored route that goes stale on rename, unlike the
  // fresh candidates a target-start resolve derives from the authority map.
  EntityId target;
  std::string target_name;
  for (std::size_t i = 0; i < fabric.subtrees.size(); ++i) {
    if (cluster->homes().shard_of(fabric.subtrees[i]) == ShardId{1}) {
      target = fabric.subtrees[i];
      target_name = "c" + std::to_string(i);
    }
  }
  ASSERT_TRUE(target.valid());
  const MachineId m1 = cluster->machine(1);
  ASSERT_TRUE(cluster->client()
                  .resolve(fabric.root,
                           CompoundName::relative(target_name + "/c0/c1"))
                  .is_ok());
  auto server = cluster->service().server_on(m1);
  ASSERT_TRUE(server.is_ok());
  const Pid stale_fq =
      Pid::fully_qualified(cluster->net().location_of(server.value()).value());
  EndpointId probe =
      cluster->net().add_endpoint(cluster->client_machine(), "probe");

  ASSERT_TRUE(members.rename(m1).is_ok());
  EXPECT_EQ(members.incarnation(m1), 2u);

  // The fully-qualified pid died with the address...
  auto fq = cluster->transport().resolve_pid(probe, stale_fq);
  EXPECT_FALSE(fq.is_ok() && fq.value() == server.value());

  // ...but the partially-qualified closure — the name, closed over its
  // subtree root — still resolves: the client heals its stale route
  // against the directory's incarnation bump instead of timing out.
  Result<EntityId> hit =
      cluster->client().resolve(target, CompoundName::relative("c0/c1"));
  ASSERT_TRUE(hit.is_ok());
  EXPECT_GT(cluster->metrics().counter_value("ns.member.routes_healed"), 0u);
}

TEST(MembershipRename, TombstoneMapsOldAddressInsideWindowOnly) {
  Fabric fabric;
  auto cluster = make_cluster(fabric, 2);
  MembershipDirectory& members = *cluster->membership();
  const MachineId m0 = cluster->machine(0);

  auto server = cluster->service().server_on(m0);
  ASSERT_TRUE(server.is_ok());
  const Location old_address =
      cluster->net().location_of(server.value()).value();
  ASSERT_TRUE(members.rename(m0).is_ok());

  auto healed = members.renamed_machine_at(old_address);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(*healed, m0);

  // After rename_window ticks the tombstone expires: the old address is
  // meaningless again, exactly like a lapsed forwarding window.
  cluster->sim().run_until(cluster->sim().now() +
                           fast_membership().rename_window + 1);
  EXPECT_FALSE(members.renamed_machine_at(old_address).has_value());
}

// --- Determinism -------------------------------------------------------------

struct ChurnDigest {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t routes_healed = 0;
  std::uint64_t handoffs_live = 0;
  std::uint64_t renames = 0;
  SimTime end_time = 0;
  bool operator==(const ChurnDigest&) const = default;
};

/// A full churn scenario — restart script + rename script under
/// closed-loop load — reduced to a digest. Two runs with the same seed
/// must agree event-for-event.
ChurnDigest run_churn_scenario(std::uint64_t seed) {
  Fabric fabric;
  ResolverClientConfig cfg;
  cfg.cache_ttl = 0;
  cfg.retry.retries = 2;
  cfg.retry.request_timeout = 5000;
  auto cluster = make_cluster(fabric, 3, cfg);
  MembershipDirectory& members = *cluster->membership();

  std::vector<ParallelQuery> queries;
  for (EntityId t : fabric.subtrees) {
    queries.push_back(ParallelQuery{t, CompoundName::relative("c0/c1")});
    queries.push_back(ParallelQuery{t, CompoundName::relative("c1/c1")});
  }
  RollingRestart restart(cluster->sim(), members, {cluster->machine(0)},
                         RollingRestartSpec{200, 1500, 300});
  RollingRenumber renumber(cluster->sim(), members,
                           {cluster->machine(1), cluster->machine(2)},
                           RollingRenumberSpec{400, 900, 1});
  restart.start();
  renumber.start();

  ParallelSpec spec;
  spec.activities = 8;
  spec.total_resolutions = 400;
  spec.seed = seed;
  ParallelOutcome out =
      run_parallel(cluster->sim(), cluster->client(), queries, spec);
  cluster->sim().run_while(
      [&] { return !restart.done() || !renumber.done(); });

  ChurnDigest digest;
  digest.completed = out.completed;
  digest.failed = out.failed;
  digest.routes_healed =
      cluster->metrics().counter_value("ns.member.routes_healed");
  digest.handoffs_live =
      cluster->metrics().counter_value("ns.membership.handoffs_live");
  digest.renames = cluster->metrics().counter_value("ns.membership.renames");
  digest.end_time = cluster->sim().now();
  return digest;
}

TEST(MembershipDeterminism, SameSeedSameChurnDigest) {
  const ChurnDigest first = run_churn_scenario(21);
  const ChurnDigest second = run_churn_scenario(21);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(first.renames, 2u);
  EXPECT_GT(first.handoffs_live, 0u);
}

}  // namespace
}  // namespace namecoh
