#include "workload.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "ladder.hpp"
#include "obs/trace_export.hpp"
#include "probe.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

using namecoh::CachePolicy;
using namecoh::Cluster;
using namecoh::MachineId;
using namecoh::MembershipDirectory;
using namecoh::Result;
using namecoh::Rng;
using namecoh::ScenarioBuilder;
using namecoh::Simulator;

// --- Oracle ------------------------------------------------------------------

std::uint64_t Oracle::key(EntityId leaf, Name atom) {
  return (leaf.value() << 32) ^ atom.id();
}

Oracle::Oracle(const std::vector<Query>& queries, SimDuration bound)
    : bound_(bound) {
  expected_.reserve(queries.size());
  history_of_.reserve(queries.size());
  for (const Query& q : queries) {
    expected_.push_back(q.expected);
    if (!q.leaf.valid()) {
      history_of_.push_back(-1);
      continue;
    }
    auto [it, inserted] = keys_.try_emplace(key(q.leaf, q.atom),
                                            history_.size());
    if (inserted) history_.push_back({Version{q.expected, 0}});
    history_of_.push_back(static_cast<std::int64_t>(it->second));
  }
}

void Oracle::rebind(EntityId leaf, Name atom, EntityId new_target,
                    SimTime at) {
  auto it = keys_.find(key(leaf, atom));
  if (it == keys_.end()) {
    throw std::logic_error("rebind of a binding no query reaches");
  }
  history_[it->second].push_back(Version{new_target, at});
}

EntityId Oracle::current(std::size_t query) const {
  const std::int64_t h = history_of_[query];
  return h < 0 ? expected_[query]
               : history_[static_cast<std::size_t>(h)].back().entity;
}

Oracle::Verdict Oracle::judge(std::size_t query, const EntityId* answer,
                              SimTime at, std::uint64_t* age) const {
  if (answer == nullptr) return Verdict::kWrong;
  const std::int64_t h = history_of_[query];
  if (h < 0) {
    return *answer == expected_[query] ? Verdict::kFresh : Verdict::kWrong;
  }
  const std::vector<Version>& versions = history_[static_cast<std::size_t>(h)];
  if (*answer == versions.back().entity) return Verdict::kFresh;
  // The newest earlier version with this entity: the answer was true until
  // the version after it took over.
  for (std::size_t i = versions.size() - 1; i-- > 0;) {
    if (versions[i].entity != *answer) continue;
    const SimTime superseded = versions[i + 1].from;
    const std::uint64_t stale_for = at >= superseded ? at - superseded : 0;
    if (stale_for > bound_) return Verdict::kWrong;
    if (age != nullptr) *age = stale_for;
    return Verdict::kStale;
  }
  return Verdict::kWrong;
}

// --- Workload catalogue --------------------------------------------------------

namespace {

/// Per-request service time of every server machine (the X8 fabric's).
constexpr SimDuration kServiceTime = 50;

namecoh::ResolverClientConfig base_client(std::size_t activities) {
  namecoh::ResolverClientConfig cfg;
  cfg.shard_routing = true;
  cfg.retry.retries = 0;
  // A closed-loop queue can back a request up behind every activity; the
  // deadline sits above that, not above one round trip (bench_x7_shard).
  cfg.retry.request_timeout =
      static_cast<SimDuration>(activities) * kServiceTime * 4 + 100000;
  cfg.retry.max_timeout = cfg.retry.request_timeout;
  return cfg;
}

WorkloadSpec remote_miss() {
  WorkloadSpec s;
  s.name = "remote-miss";
  s.why = "uncached lookups over a 1.1M-context, 16-shard fabric: every "
          "resolution pays client, wire, transport, simulator and server walk";
  // 1 + 16 + 256 + 4,096 + 65,536 + 1,048,576 = 1,118,481 contexts, plus
  // nine data bindings per leaf: 10,555,664 bindings (bench_x7_shard).
  s.fabric = FabricSpec{16, 5, 9, 4096, 0};
  s.queries = QuerySpec{8192, 2, 8};
  s.placement = Placement::kRoundRobin;
  s.shards = 16;
  s.activities = 256;
  s.client = base_client(s.activities);
  s.client.cache_ttl = 0;
  s.policy = CachePolicy::kTtlOnly;
  s.round_resolutions = 10000;
  s.warm_rounds = 2;
  s.window_rounds = 10;
  s.min_rounds = 20;
  return s;
}

WorkloadSpec cache_rebind() {
  WorkloadSpec s;
  s.name = "cache-rebind";
  s.why = "cached lookups under lease-push coherence while a writer rebinds "
          "hot leaf bindings: cache, lease and invalidation paths at work";
  // 69,905 contexts, 589,824 leaf data bindings; 16,384 distinct queries
  // against a 2,048-entry cache: the Zipf head fits, the tail evicts.
  s.fabric = FabricSpec{16, 4, 9, 4096, 64};
  s.queries = QuerySpec{16384, 2, 8};
  s.placement = Placement::kRoundRobin;
  s.shards = 16;
  s.activities = 256;
  s.think_time = 20;
  s.client = base_client(s.activities);
  s.client.cache_ttl = 4000;
  s.client.cache_capacity = 2048;
  s.client.epoch_invalidation = true;
  s.client.lease_coherence = true;
  // Lease term = TTL: an entry never outlives its promise, so it never
  // degrades to plain TTL and the lease-push bound applies throughout.
  s.lease_term = 4000;
  s.rebind_every = 100;
  s.policy = CachePolicy::kLeasePush;
  s.round_resolutions = 10000;
  s.warm_rounds = 4;
  s.window_rounds = 20;
  s.min_rounds = 40;
  return s;
}

WorkloadSpec churn_heal() {
  WorkloadSpec s;
  s.name = "churn-heal";
  s.why = "cached lookups and rebinds through rolling restarts and rolling "
          "renumbers: membership, handoff, forwarding and route healing";
  // Ten hash-placed subtrees of 11,111 contexts (111,111 in all) on four
  // shards; each graceful leave hands two or three of them over live.
  s.fabric = FabricSpec{10, 5, 2, 1024, 64};
  // Every query starts at a subtree root, as in bench_x9_churn: the root
  // region is not a managed subtree, so while shard 0's only machine is
  // down nothing answers for it and from-root lookups fail.
  s.queries = QuerySpec{8192, 1, 0};
  s.placement = Placement::kHashChildren;
  s.shards = 4;
  // 128 activities keep the four servers below saturation: at 256 the
  // median settle time sat on the steep edge of the queueing delay and
  // moved 15% from seed to seed.
  s.activities = 128;
  s.think_time = 20;
  s.client = base_client(s.activities);
  s.client.cache_ttl = 4000;
  s.client.cache_capacity = 2048;
  s.client.epoch_invalidation = true;
  s.client.lease_coherence = true;
  // Churn drops in-flight messages; retries carry those lookups
  // (bench_x9_churn).
  s.client.retry.retries = 3;
  s.client.retry.request_timeout = 20000;
  s.client.retry.max_timeout = 80000;
  s.lease_term = 4000;
  s.churn = true;
  s.rebind_every = 200;
  s.policy = CachePolicy::kLeasePush;
  s.round_resolutions = 10000;
  // Rounds take over a second here; the probe samples the host every tenth.
  s.probe_every = 1000;
  s.warm_rounds = 4;
  s.window_rounds = 8;
  s.min_rounds = 12;
  return s;
}

}  // namespace

WorkloadSpec workload_spec(std::string_view name) {
  if (name == "remote-miss") return remote_miss();
  if (name == "cache-rebind") return cache_rebind();
  if (name == "churn-heal") return churn_heal();
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

std::vector<std::string> workload_names() {
  return {"remote-miss", "cache-rebind", "churn-heal"};
}

// --- Running -----------------------------------------------------------------

namespace {

/// What the window records, besides counter deltas.
struct Window {
  std::uint64_t answers = 0;
  std::uint64_t fresh = 0;
  std::uint64_t stale = 0;
  std::uint64_t wrong = 0;
  std::uint64_t steps = 0;
  std::size_t pending_hwm = 0;
  std::vector<std::uint32_t> latencies;
  std::vector<std::uint32_t> stale_ages;
};

/// The closed loop: each activity resolves, waits `think_time`, resolves
/// again. Every answer goes through the oracle.
class Loop {
 public:
  Loop(Simulator& sim, namecoh::ResolverClient& client,
       const std::vector<Query>& queries, const Oracle& oracle,
       const WorkloadSpec& spec, std::uint64_t seed)
      : sim_(sim),
        client_(client),
        queries_(queries),
        oracle_(oracle),
        spec_(spec),
        rng_(Rng(seed).child(1)) {}

  void start() {
    for (std::size_t i = 0; i < spec_.activities; ++i) issue();
  }
  /// Ignore every later completion (the cluster is being torn down).
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t wrong() const { return wrong_total_; }
  [[nodiscard]] const std::string& first_wrong() const { return first_wrong_; }
  Window& window() { return window_; }
  void record(bool on) { recording_ = on; }

  SpanLog* spans = nullptr;
  std::uint64_t inject_wrong_at = 0;

 private:
  /// Skew of the query picks over the hottest-first query list.
  static constexpr double kZipfS = 0.9;

  void issue() {
    if (stopped_) return;
    const std::size_t q = rng_.zipf(queries_.size(), kZipfS);
    const SimTime issued = sim_.now();
    const Query& query = queries_[q];
    ScopedSpan span(spans, "ns.client.resolve_async", ++issued_);
    client_.resolve_async(query.start, query.name,
                          [this, q, issued](const Result<EntityId>& r) {
                            done(q, issued, r);
                          });
  }

  void done(std::size_t q, SimTime issued, const Result<EntityId>& r) {
    if (stopped_) return;
    ++completed_;
    EntityId answer = r.is_ok() ? r.value() : EntityId();
    if (inject_wrong_at != 0 && completed_ == inject_wrong_at) {
      answer = EntityId(answer.value() + 1);  // any other entity is wrong
    }
    const SimTime now = sim_.now();
    std::uint64_t age = 0;
    const Oracle::Verdict verdict =
        oracle_.judge(q, r.is_ok() ? &answer : nullptr, now, &age);
    if (verdict == Oracle::Verdict::kWrong && ++wrong_total_ == 1) {
      std::ostringstream why;
      why << "query " << q << " settled at tick " << now << ": "
          << (r.is_ok() ? "entity " + std::to_string(answer.value())
                        : "error " + r.status().to_string())
          << ", current binding " << oracle_.current(q).value();
      first_wrong_ = why.str();
    }
    if (recording_) {
      Window& w = window_;
      ++w.answers;
      w.steps += queries_[q].steps;
      w.latencies.push_back(static_cast<std::uint32_t>(now - issued));
      w.pending_hwm = std::max(w.pending_hwm, sim_.pending());
      switch (verdict) {
        case Oracle::Verdict::kFresh: ++w.fresh; break;
        case Oracle::Verdict::kStale:
          ++w.stale;
          w.stale_ages.push_back(static_cast<std::uint32_t>(age));
          break;
        case Oracle::Verdict::kWrong: ++w.wrong; break;
      }
    }
    // Re-issue through the scheduler: a run of cache hits settles
    // synchronously and would otherwise recurse.
    sim_.schedule_in(spec_.think_time, [this] { issue(); });
  }

  Simulator& sim_;
  namecoh::ResolverClient& client_;
  const std::vector<Query>& queries_;
  const Oracle& oracle_;
  const WorkloadSpec& spec_;
  Rng rng_;
  bool stopped_ = false;
  bool recording_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t wrong_total_ = 0;
  std::string first_wrong_;
  Window window_;
};

/// Rebinds a hot leaf data binding every `rebind_every` ticks and tells the
/// service (lease holders get kInvalidate) and the oracle.
class RebindWriter {
 public:
  RebindWriter(Simulator& sim, Fabric& fabric, namecoh::NameService& service,
               Oracle& oracle, const std::vector<Query>& queries,
               const WorkloadSpec& spec, std::uint64_t seed)
      : sim_(sim),
        fabric_(fabric),
        service_(service),
        oracle_(oracle),
        queries_(queries),
        every_(spec.rebind_every),
        rng_(Rng(seed).child(2)) {
    for (std::size_t q = 0; q < queries.size() && q < kHot; ++q) {
      if (queries[q].leaf.valid()) hot_.push_back(q);
    }
  }

  void start() {
    if (every_ == 0 || hot_.empty()) return;
    sim_.schedule_in(every_, [this] { fire(); });
  }
  void stop() { stopped_ = true; }
  [[nodiscard]] std::uint64_t rebinds() const { return rebinds_; }

  SpanLog* spans = nullptr;

 private:
  /// Rebinds pick among the data queries of this many hottest ranks.
  static constexpr std::size_t kHot = 512;

  void fire() {
    if (stopped_) return;
    const std::size_t index = hot_[rng_.next_below(hot_.size())];
    const Query& q = queries_[index];
    const EntityId old_target = oracle_.current(index);
    EntityId new_target = fabric_.versions[next_++ % fabric_.versions.size()];
    if (new_target == old_target) {
      new_target = fabric_.versions[next_++ % fabric_.versions.size()];
    }
    {
      ScopedSpan span(spans, "graph.rebind");
      namecoh::NamingGraph& graph = fabric_.graph;
      if (!graph.unbind(q.leaf, q.atom).is_ok() ||
          !graph.bind(q.leaf, q.atom, new_target).is_ok()) {
        throw std::runtime_error("rebind failed");
      }
      service_.publish_update(q.leaf);
    }
    oracle_.rebind(q.leaf, q.atom, new_target, sim_.now());
    ++rebinds_;
    sim_.schedule_in(every_, [this] { fire(); });
  }

  Simulator& sim_;
  Fabric& fabric_;
  namecoh::NameService& service_;
  Oracle& oracle_;
  const std::vector<Query>& queries_;
  SimDuration every_;
  Rng rng_;
  std::vector<std::size_t> hot_;
  std::size_t next_ = 0;
  std::uint64_t rebinds_ = 0;
  bool stopped_ = false;
};

/// Rolling restart (graceful leave -> downtime -> rejoin -> handback
/// settles), then a rolling renumber, machine by machine, over and over
/// until stopped. The same steps as workload/scenario.hpp's scripts,
/// driven from here so every call into the membership layer gets a span
/// and every leave its host and simulated drain time.
class ChurnScript {
 public:
  ChurnScript(Simulator& sim, MembershipDirectory& members,
              std::vector<MachineId> machines)
      : sim_(sim), members_(members), machines_(std::move(machines)) {}

  /// The directory's handoff pacing and windows.
  static namecoh::MembershipOptions options() {
    namecoh::MembershipOptions o;
    o.handoff.copy_batch = 1024;
    o.handoff.copy_interval = 5;
    o.handoff.settle_delay = 100;
    o.handoff.forward_window = 5000;
    o.rename_window = 60000;
    return o;
  }

  void start() {
    sim_.schedule_in(kSettleGap, [this] { leave_next(); });
  }
  void stop() { stopped_ = true; }
  void record(bool on) { recording_ = on; }

  [[nodiscard]] const std::vector<double>& leave_host_ms() const {
    return leave_host_ms_;
  }
  [[nodiscard]] const std::vector<double>& handoff_ticks() const {
    return handoff_ticks_;
  }

  SpanLog* spans = nullptr;

 private:
  static constexpr SimDuration kDowntime = 3000;
  static constexpr SimDuration kSettleGap = 1000;
  static constexpr SimDuration kRenameInterval = 2000;

  void leave_next() {
    if (stopped_) return;
    const MachineId machine = machines_[index_];
    const double host_start = host_now();
    const SimTime sim_start = sim_.now();
    namecoh::Status left;
    {
      ScopedSpan span(spans, "ns.member.graceful_leave", machine.value());
      left = members_.graceful_leave(machine, [this, machine, host_start,
                                               sim_start] {
        if (stopped_) return;
        leave_host_ms_.push_back((host_now() - host_start) * 1e3);
        if (recording_) {
          handoff_ticks_.push_back(static_cast<double>(sim_.now() - sim_start));
        }
        sim_.schedule_in(kDowntime, [this, machine] { rejoin(machine); });
      });
    }
    if (!left.is_ok()) throw std::runtime_error("graceful leave refused");
  }

  void rejoin(MachineId machine) {
    if (stopped_) return;
    ScopedSpan span(spans, "ns.member.rejoin", machine.value());
    if (!members_.rejoin(machine).is_ok()) {
      throw std::runtime_error("rejoin refused");
    }
    await_settle();
  }

  void await_settle() {
    if (stopped_) return;
    if (members_.handoff_active()) {
      sim_.schedule_in(kSettleGap, [this] { await_settle(); });
      return;
    }
    if (++index_ < machines_.size()) {
      sim_.schedule_in(kSettleGap, [this] { leave_next(); });
      return;
    }
    index_ = 0;
    sim_.schedule_in(kRenameInterval, [this] { rename_next(); });
  }

  void rename_next() {
    if (stopped_) return;
    {
      ScopedSpan span(spans, "ns.member.rename", machines_[index_].value());
      if (!members_.rename(machines_[index_]).is_ok()) {
        throw std::runtime_error("rename refused");
      }
    }
    if (++index_ < machines_.size()) {
      sim_.schedule_in(kRenameInterval, [this] { rename_next(); });
      return;
    }
    index_ = 0;
    sim_.schedule_in(kSettleGap, [this] { leave_next(); });
  }

  Simulator& sim_;
  MembershipDirectory& members_;
  std::vector<MachineId> machines_;
  std::size_t index_ = 0;
  bool stopped_ = false;
  bool recording_ = false;
  std::vector<double> leave_host_ms_;
  std::vector<double> handoff_ticks_;
};

/// One set-up: everything a run owns. Members are destroyed in reverse
/// order, so the cluster (and with it every pending callback) goes first,
/// after the loop, writer and script have been told to ignore them.
struct Instance {
  std::unique_ptr<Fabric> fabric;
  std::vector<Query> queries;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<Loop> loop;
  std::unique_ptr<RebindWriter> writer;
  std::unique_ptr<ChurnScript> churn;
  std::unique_ptr<Cluster> cluster;

  ~Instance() {
    if (loop) loop->stop();
    if (writer) writer->stop();
    if (churn) churn->stop();
  }
};

struct SetupTimes {
  double graph = 0.0;
  double cluster = 0.0;
  double warm = 0.0;
  [[nodiscard]] double total() const { return graph + cluster + warm; }
};

/// One round's host rates (resolutions per second): as timed, and with
/// each chunk's host time read at the probe's reference speed.
struct RoundRates {
  double wall = 0.0;
  double calibrated = 0.0;
};

/// Drive the simulator until `n` more resolutions settle, in chunks of
/// `chunk` resolutions. With a probe, every chunk is followed by one probe
/// run, which calibrates that chunk's host time.
RoundRates run_round(Instance& inst, std::size_t n, std::size_t chunk,
                     HostProbe* probe, SpanLog* spans) {
  Loop& loop = *inst.loop;
  const std::uint64_t before = loop.completed();
  const std::uint64_t target = before + n;
  double wall = 0.0;
  double calibrated = 0.0;
  while (loop.completed() < target) {
    const std::uint64_t until =
        std::min<std::uint64_t>(target, loop.completed() + chunk);
    const double start = host_now();
    {
      ScopedSpan span(spans, "sim.run_while");
      inst.cluster->sim().run_while(
          [&loop, until] { return loop.completed() < until; });
    }
    const double elapsed = host_now() - start;
    if (loop.completed() < until) {
      throw std::runtime_error("closed loop stalled: event queue drained");
    }
    wall += elapsed;
    if (probe != nullptr) {
      calibrated += elapsed * probe->run() / HostProbe::kNominalOpsPerS;
    }
  }
  const double done = static_cast<double>(loop.completed() - before);
  return RoundRates{done / wall, calibrated > 0.0 ? done / calibrated : 0.0};
}

std::unique_ptr<Instance> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                                 SetupTimes* times) {
  auto inst = std::make_unique<Instance>();
  double t0 = host_now();
  inst->fabric = build_fabric(spec.fabric);
  inst->queries = make_queries(*inst->fabric, spec.fabric, spec.queries, seed);
  namecoh::CacheCoherenceParams params;
  params.ttl = spec.client.cache_ttl;
  params.push_latency = namecoh::TransportConfig{}.intra_network_latency;
  params.partitioned = spec.churn;
  inst->oracle = std::make_unique<Oracle>(
      inst->queries, namecoh::staleness_bound(spec.policy, params));
  double t1 = host_now();
  times->graph = t1 - t0;

  const Fabric& fabric = *inst->fabric;
  ScenarioBuilder builder(fabric.graph);
  builder.shards(spec.shards)
      .service_time(kServiceTime)
      .client_config(spec.client)
      .client_label(spec.name);
  if (spec.lease_term > 0) {
    constexpr std::size_t kLeaseCapacity = 65536;  // leases per server
    builder.lease_policy(spec.lease_term, kLeaseCapacity);
  }
  if (spec.placement == Placement::kRoundRobin) {
    constexpr std::size_t kDelegationLevel = 2;  // 256 subtrees at fanout 16
    const auto& level = fabric.tree.levels.at(kDelegationLevel);
    for (std::size_t i = 0; i < level.size(); ++i) {
      builder.delegate(level[i], static_cast<namecoh::ShardId>(i % spec.shards));
    }
  } else {
    builder.delegate_children_by_hash(fabric.root);
  }
  builder.delegate(fabric.root, 0);
  if (spec.churn) builder.with_membership(ChurnScript::options());
  inst->cluster = builder.build();
  Cluster& cluster = *inst->cluster;
  inst->loop = std::make_unique<Loop>(cluster.sim(), cluster.client(),
                                      inst->queries, *inst->oracle, spec, seed);
  if (spec.rebind_every > 0) {
    inst->writer = std::make_unique<RebindWriter>(
        cluster.sim(), *inst->fabric, cluster.service(), *inst->oracle,
        inst->queries, spec, seed);
  }
  if (spec.churn) {
    inst->churn = std::make_unique<ChurnScript>(
        cluster.sim(), *cluster.membership(), cluster.machines());
  }
  double t2 = host_now();
  times->cluster = t2 - t1;

  inst->loop->start();
  for (std::size_t r = 0; r < spec.warm_rounds; ++r) {
    (void)run_round(*inst, spec.round_resolutions, spec.round_resolutions,
                    nullptr, nullptr);
  }
  times->warm = host_now() - t2;
  return inst;
}

using Counters = std::map<std::string, std::uint64_t>;

Counters snapshot(const namecoh::MetricsRegistry& metrics) {
  Counters out;
  for (const auto& [name, counter] : metrics.counters()) {
    out.emplace(name, counter.value());
  }
  return out;
}

std::uint64_t get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Everything the window measured, simulated or counted: exact for a seed.
struct WindowFigures {
  MetricSet sim_e2e;  ///< the simulated end-to-end metrics
  MetricSet layers;   ///< counts and ratios per layer
};

WindowFigures window_figures(Instance& inst,
                             const Counters& begin, const Counters& end,
                             std::uint64_t events, SimDuration ticks,
                             std::uint64_t rebinds) {
  Window& w = inst.loop->window();
  auto d = [&](const std::string& name) {
    return static_cast<double>(get(end, name) - get(begin, name));
  };
  const std::string client = "ns.client." +
                             std::to_string(inst.cluster->client().endpoint().value()) +
                             ".";
  const double answers = static_cast<double>(w.answers);

  WindowFigures f;
  f.sim_e2e.add("fresh_frac", ratio(static_cast<double>(w.fresh), answers),
                "ratio");
  f.sim_e2e.add("sim_p50_ticks", nearest_rank(w.latencies, 0.50), "ticks");
  f.sim_e2e.add("sim_p99_ticks", nearest_rank(w.latencies, 0.99), "ticks");
  f.sim_e2e.add("sim_res_per_ktick",
                ratio(1000.0 * answers, static_cast<double>(ticks)), "1/ktick");
  f.sim_e2e.add("msgs_per_res", ratio(d("transport.sent"), answers), "msgs");

  MetricSet& m = f.layers;
  m.add("failed_frac", ratio(static_cast<double>(w.wrong), answers), "ratio");
  m.add("stale_frac", ratio(static_cast<double>(w.stale), answers), "ratio");
  m.add("sim.latency_samples", answers, "count");
  m.add("core.steps_per_res", ratio(static_cast<double>(w.steps), answers),
        "steps");
  m.add("sim.events_per_res", ratio(static_cast<double>(events), answers),
        "events");
  m.add("sim.pending_hwm", static_cast<double>(w.pending_hwm), "events");
  m.add("net.bytes_per_msg",
        ratio(d("transport.bytes_sent"), d("transport.sent")), "bytes");
  m.add("net.pids_remapped_per_res", ratio(d("transport.pids_remapped"), answers),
        "pids");
  const double hits = d(client + "cache_hits");
  const double misses = d(client + "cache_misses");
  m.add("ns.client.hit_ratio", ratio(hits, hits + misses), "ratio");
  m.add("ns.client.coalesced_frac",
        ratio(d(client + "coalesced"), d(client + "resolutions")), "ratio");
  m.add("ns.client.timeouts", d(client + "timeouts"), "count");
  m.add("ns.client.failovers", d(client + "failovers"), "count");

  const double requests = d("ns.server.requests");
  m.add("ns.server.requests_per_res", ratio(requests, answers), "requests");
  m.add("ns.server.referral_frac", ratio(d("ns.server.referrals"), requests),
        "ratio");
  double served = 0.0, waited = 0.0, busiest = 0.0;
  for (const auto& [name, value] : end) {
    if (!name.starts_with("ns.server.m")) continue;
    if (name.ends_with(".served")) {
      const double v = d(name);
      served += v;
      busiest = std::max(busiest, v);
    } else if (name.ends_with(".wait_ticks")) {
      waited += d(name);
    }
  }
  m.add("ns.server.wait_ticks_per_req", ratio(waited, served), "ticks");
  m.add("ns.server.busiest_share", ratio(busiest, served), "ratio");
  m.add("ns.server.leases_granted_per_res",
        ratio(d("ns.server.leases_granted"), answers), "leases");
  m.add("ns.server.invalidates_per_rebind",
        ratio(d("ns.server.invalidates_pushed"), static_cast<double>(rebinds)),
        "msgs");
  m.add("ns.shard.glue_hits_per_res", ratio(d("ns.shard.glue_hits"), answers),
        "hits");
  m.add("ns.shard.cross_shard_hops_per_res",
        ratio(d("ns.shard.cross_shard_hops"), answers), "hops");
  m.add("ns.shard.route_reuses_per_res",
        ratio(d("ns.shard.route_reuses"), answers), "reuses");
  m.add("ns.member.routes_healed", d("ns.member.routes_healed"), "count");
  m.add("ns.member.dead_route_skips", d("ns.member.dead_route_skips"), "count");
  m.add("ns.membership.handoffs_live", d("ns.membership.handoffs_live"),
        "count");
  m.add("ns.membership.handoffs_forced", d("ns.membership.handoffs_forced"),
        "count");
  m.add("ns.server.forwarded", d("ns.server.forwarded"), "count");
  m.add("ns.rebalance.snapshots_pushed", d("ns.rebalance.snapshots_pushed"),
        "count");
  const std::vector<double> handoffs =
      inst.churn ? inst.churn->handoff_ticks() : std::vector<double>{};
  m.add("ns.rebalance.handoff_ticks", median(handoffs), "ticks");
  const std::vector<std::uint32_t>& ages = w.stale_ages;
  const double worst =
      ages.empty() ? 0.0
                   : static_cast<double>(*std::max_element(ages.begin(),
                                                           ages.end()));
  m.add("coherence.rebinds", static_cast<double>(rebinds), "count");
  m.add("coherence.stale_window_p99_ticks", nearest_rank(ages, 0.99), "ticks");
  m.add("coherence.bound_margin_ticks",
        static_cast<double>(inst.oracle->bound()) - worst, "ticks");
  return f;
}

std::string digest_of(const WindowFigures& f) {
  std::ostringstream out;
  for (const MetricSet* set : {&f.sim_e2e, &f.layers}) {
    for (const Metric& m : set->all()) {
      out << m.name << '=' << json_number(m.value) << '\n';
    }
  }
  return out.str();
}

}  // namespace

WorkloadResult run_workload(const WorkloadSpec& spec, const RunConfig& config) {
  WorkloadResult result;
  std::vector<double> graph_s, cluster_s, warm_s;
  HostProbe probe;
  auto timed_set_up = [&] {
    SetupTimes times;
    std::unique_ptr<Instance> made = set_up(spec, config.seed, &times);
    result.setup_samples.push_back(times.total());
    result.setup_probe_rates.push_back(probe.run());
    graph_s.push_back(times.graph);
    cluster_s.push_back(times.cluster);
    warm_s.push_back(times.warm);
    return made;
  };
  // The measured instance is always the process's first, so the host
  // rates never depend on how many set-ups built and freed a fabric first.
  std::unique_ptr<Instance> inst = timed_set_up();
  Instance& in = *inst;
  Simulator& sim = in.cluster->sim();
  if (config.inject_wrong_at > 0) {
    in.loop->inject_wrong_at = in.loop->completed() + config.inject_wrong_at;
  }

  // Window: churn and rebinds start with it, so every run's window covers
  // the same simulated history.
  if (in.writer) in.writer->start();
  if (in.churn) {
    in.churn->record(true);
    in.churn->start();
  }
  in.loop->record(true);
  const Counters begin = snapshot(in.cluster->metrics());
  const std::uint64_t events0 = sim.events_processed();
  const SimTime tick0 = sim.now();
  const std::uint64_t rebinds0 = in.writer ? in.writer->rebinds() : 0;
  std::vector<double> calibrated;
  auto timed_round = [&](SpanLog* spans, std::vector<double>& rates,
                         std::vector<double>& calibrated_rates) {
    const RoundRates r = run_round(in, spec.round_resolutions,
                                   spec.probe_every, &probe, spans);
    rates.push_back(r.wall);
    calibrated_rates.push_back(r.calibrated);
  };
  const double timed_start = host_now();
  for (std::size_t r = 0; r < spec.window_rounds; ++r) {
    timed_round(nullptr, result.round_rates, calibrated);
  }
  in.loop->record(false);
  if (in.churn) in.churn->record(false);
  const Counters end = snapshot(in.cluster->metrics());
  const WindowFigures figures = window_figures(
      in, begin, end, sim.events_processed() - events0, sim.now() - tick0,
      (in.writer ? in.writer->rebinds() : 0) - rebinds0);

  // Timed rounds, by host time.
  const double budget = config.trace ? config.seconds / 2.0 : config.seconds;
  while (result.round_rates.size() < spec.min_rounds ||
         host_now() - timed_start < budget) {
    timed_round(nullptr, result.round_rates, calibrated);
  }
  const double untraced = median(calibrated);

  // Traced rerun: the same cluster continues with the program's tracer on
  // and a benchmark-side span around every call into a layer.
  double traced = 0.0;
  SpanLog spans(50000);
  if (config.trace) {
    namecoh::Tracer& tracer = in.cluster->transport().tracer();
    tracer.set_enabled(true);
    in.loop->spans = &spans;
    if (in.writer) in.writer->spans = &spans;
    if (in.churn) in.churn->spans = &spans;
    std::vector<double> rates, traced_rates;
    const double traced_start = host_now();
    while (rates.size() < 10 || host_now() - traced_start < budget) {
      timed_round(&spans, rates, traced_rates);
    }
    traced = median(traced_rates);
    in.loop->spans = nullptr;
    if (in.writer) in.writer->spans = nullptr;
    if (in.churn) in.churn->spans = nullptr;
    if (!config.trace_dir.empty()) {
      std::filesystem::create_directories(config.trace_dir);
      const std::string stem = config.trace_dir + "/" + spec.name + "-seed" +
                               std::to_string(config.seed);
      if (!spans.write_chrome(stem + "-host-spans.json") ||
          !namecoh::write_chrome_trace(tracer, stem + "-sim-trace.json")
               .is_ok()) {
        throw std::runtime_error("could not write trace files");
      }
    }
    tracer.set_enabled(false);
  }

  result.attempted = in.loop->completed();
  result.failed = in.loop->wrong();
  result.correct = result.failed == 0;
  if (!result.correct) result.detail.add("first_wrong", in.loop->first_wrong());
  result.detail.add("rebinds_logged", in.writer ? in.writer->rebinds() : 0);
  result.detail.add("staleness_bound_ticks",
                    static_cast<std::uint64_t>(in.oracle->bound()));
  const std::vector<double> leaves =
      in.churn ? in.churn->leave_host_ms() : std::vector<double>{};
  inst.reset();

  // The remaining set-ups, for the set-up time only.
  constexpr std::size_t kSetups = 5;
  if (!config.trace) {
    for (std::size_t i = 1; i < kSetups; ++i) (void)timed_set_up();
  }

  result.end_to_end.add("calib_res_per_s", untraced, "1/s");
  result.end_to_end.add("setup_s", median(result.setup_samples), "s");
  result.end_to_end.add("peak_rss_mb", peak_rss_mb(), "MiB");
  for (const Metric& m : figures.sim_e2e.all()) {
    result.end_to_end.add(m.name, m.value, m.unit);
  }
  result.digest = digest_of(figures);

  if (config.trace) {
    for (const Metric& m : figures.layers.all()) {
      result.per_layer.add(m.name, m.value, m.unit);
    }
    result.per_layer.add("ns.rebalance.leave_host_ms", median(leaves), "ms");
    result.per_layer.add("workload.graph_build_s", median(graph_s), "s");
    result.per_layer.add("workload.cluster_build_s", median(cluster_s), "s");
    result.per_layer.add("workload.warm_s", median(warm_s), "s");
    result.per_layer.add("obs.trace_overhead_frac",
                         traced > 0.0 ? untraced / traced - 1.0 : 0.0, "ratio");
    JsonObject span_totals;
    for (const SpanLog::Totals& t : spans.totals()) {
      JsonObject entry;
      entry.add("calls", t.calls).add("total_s", t.total_s).add("self_s",
                                                                 t.self_s);
      span_totals.add(t.name, entry);
    }
    result.detail.add("host_spans", span_totals);
    const MetricSet ladder = run_ladder();
    for (const Metric& m : ladder.all()) {
      result.per_layer.add(m.name, m.value, m.unit);
    }
  }

  auto with_quartiles = [](JsonObject& out, const std::vector<double>& v) {
    const Quartiles q = quartiles(v);
    out.add("q1", q.q1).add("median", q.median).add("q3", q.q3).add("values",
                                                                     v);
  };
  // The probe's mean speed over each round, as the calibration saw it.
  std::vector<double> probe_speeds;
  for (std::size_t i = 0; i < calibrated.size(); ++i) {
    probe_speeds.push_back(HostProbe::kNominalOpsPerS * result.round_rates[i] /
                           calibrated[i]);
  }
  JsonObject rounds, wall, probe_rates, calibrated_rates;
  with_quartiles(wall, result.round_rates);
  with_quartiles(probe_rates, probe_speeds);
  with_quartiles(calibrated_rates, calibrated);
  rounds.add("count", static_cast<std::uint64_t>(result.round_rates.size()))
      .add("resolutions_per_round",
           static_cast<std::uint64_t>(spec.round_resolutions))
      .add("wall_res_per_s", wall)
      .add("probe_ops_per_s", probe_rates)
      .add("calib_res_per_s", calibrated_rates);
  result.detail.add("rounds", rounds);
  result.detail.add("setup_samples_s", result.setup_samples);
  result.detail.add("setup_probe_ops_per_s", result.setup_probe_rates);
  result.detail.add("window_resolutions",
                    static_cast<std::uint64_t>(figures.layers.value(
                        "sim.latency_samples")));
  return result;
}

}  // namespace perfbench
