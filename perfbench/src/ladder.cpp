#include "ladder.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "core/graph_ops.hpp"
#include "core/resolve.hpp"
#include "exec/batch.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

using namespace namecoh;

namespace {

/// Keeps a computed value alive so the timed call is not optimized away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over `reps` batches of `iters` calls of the per-call time in ns.
template <typename F>
double time_ns(std::size_t iters, std::size_t reps, F&& call) {
  std::vector<double> samples;
  for (std::size_t r = 0; r < reps; ++r) {
    const double start = host_now();
    for (std::size_t i = 0; i < iters; ++i) call(i);
    samples.push_back((host_now() - start) * 1e9 / static_cast<double>(iters));
  }
  return median(samples);
}

/// Heap allocations per call over `iters` calls.
template <typename F>
double allocs_per_call(std::size_t iters, F&& call) {
  alloc_count_begin();
  for (std::size_t i = 0; i < iters; ++i) call(i);
  return static_cast<double>(alloc_count_end()) / static_cast<double>(iters);
}

std::string leaf_path(Rng& rng, std::size_t fanout, std::size_t depth) {
  std::string path;
  for (std::size_t d = 0; d < depth; ++d) {
    if (d > 0) path += '/';
    path += 'c';
    path += std::to_string(rng.next_below(fanout));
  }
  return path;
}

constexpr std::size_t kReps = 9;

void core_and_exec(MetricSet& out) {
  // Depth-8 names over a fanout-4 tree: 87,381 contexts, a working set
  // larger than one core's L2 (bench_core_resolution's fixture shape).
  NamingGraph graph;
  const EntityId root = graph.add_context_object("ladder-root");
  (void)build_context_tree(graph, root, 4, 8);
  Rng rng(17);
  std::vector<std::string> paths;
  std::vector<CompoundName> names;
  for (std::size_t i = 0; i < 4096; ++i) {
    paths.push_back(leaf_path(rng, 4, 8));
    names.push_back(CompoundName::relative(paths.back()));
  }

  out.add("core.parse_ns", time_ns(20000, kReps, [&](std::size_t i) {
            auto parsed = CompoundName::parse_relative(paths[i % paths.size()]);
            keep(parsed);
          }),
          "ns");
  out.add("core.resolve_ns", time_ns(20000, kReps, [&](std::size_t i) {
            Resolution r = resolve_from(graph, root, names[i % names.size()]);
            if (!r.ok()) throw std::runtime_error("ladder resolve failed");
            keep(r);
          }),
          "ns");

  std::vector<exec::BatchQuery> batch;
  for (const CompoundName& n : names) batch.push_back({root, n});
  const std::span<const exec::BatchQuery> all(batch);
  const std::span<const exec::BatchQuery> one(batch.data(), 1);
  WorkerPool pool(2);
  const exec::ParPolicy par2{&pool, 2};
  auto check = [&](const exec::BatchOutcome& o, std::size_t n) {
    if (o.ok != n) throw std::runtime_error("ladder batch failed");
    keep(o);
  };
  const double seq = time_ns(4, kReps, [&](std::size_t) {
                       check(exec::resolve_batch(exec::SeqPolicy{}, graph, all),
                             all.size());
                     }) /
                     static_cast<double>(all.size());
  const double par = time_ns(4, kReps, [&](std::size_t) {
                       check(exec::resolve_batch(par2, graph, all), all.size());
                     }) /
                     static_cast<double>(all.size());
  out.add("exec.seq_ns_per_res", seq, "ns");
  out.add("exec.par2_ns_per_res", par, "ns");
  out.add("exec.par2_speedup", par > 0.0 ? seq / par : 0.0, "x");
  out.add("exec.batch_fixed_us", time_ns(2000, kReps, [&](std::size_t) {
            check(exec::resolve_batch(par2, graph, one), 1);
          }) / 1e3,
          "us");
  out.add("exec.allocs_per_batch", allocs_per_call(4, [&](std::size_t) {
            check(exec::resolve_batch(par2, graph, all), all.size());
          }),
          "allocs");
}

void sim_layer(MetricSet& out) {
  Simulator sim;
  std::uint64_t fired = 0;
  auto schedule_fire = [&](std::size_t) {
    sim.schedule_in(1, [&fired] { ++fired; });
    sim.run(1);
  };
  out.add("sim.host_ns_per_event", time_ns(100000, kReps, schedule_fire), "ns");
  out.add("sim.allocs_per_event", allocs_per_call(10000, schedule_fire),
          "allocs");
  keep(fired);
}

/// A resolve-request-shaped message: [corr, ctx, path, flags].
Message request_like(const std::string& path) {
  Message msg;
  msg.type = 1;
  msg.payload.add_u64(12345).add_u64(42).add_name(path).add_u64(0);
  return msg;
}

/// Returns the send -> delivered cost, for the remote-resolve remainder.
double net_layer(MetricSet& out) {
  Simulator sim;
  Internetwork net;
  const NetworkId lan = net.add_network("lan");
  const MachineId m1 = net.add_machine(lan, "m1");
  const MachineId m2 = net.add_machine(lan, "m2");
  const EndpointId a = net.add_endpoint(m1, "a");
  const EndpointId b = net.add_endpoint(m2, "b");
  Transport transport(sim, net);
  std::uint64_t delivered = 0;
  transport.set_handler(b, [&](EndpointId, const Message&) { ++delivered; });
  const Pid to_b = relativize(net.location_of(b).value(),
                              net.location_of(a).value());
  const Message proto = request_like("c1/c2/c3");
  const std::vector<std::uint8_t> bytes = proto.payload.encode();

  out.add("net.encode_ns", time_ns(50000, kReps, [&](std::size_t) {
            keep(proto.payload.encode());
          }),
          "ns");
  out.add("net.decode_ns", time_ns(50000, kReps, [&](std::size_t) {
            keep(Payload::decode(bytes));
          }),
          "ns");
  auto deliver = [&](std::size_t) {
    if (!transport.send(a, to_b, proto).is_ok()) {
      throw std::runtime_error("ladder send failed");
    }
    sim.run();
  };
  const double deliver_ns = time_ns(20000, kReps, deliver);
  out.add("net.deliver_ns", deliver_ns, "ns");
  out.add("net.allocs_per_msg", allocs_per_call(2000, deliver), "allocs");
  keep(delivered);
  return deliver_ns;
}

void ns_layer(MetricSet& out, double deliver_ns) {
  // One shard server holding a small tree; one client on another machine
  // of the same LAN. After the first lookup the client's learned shard
  // route sends every uncached resolve straight to the owner: one
  // request, one reply, one server answer.
  NamingGraph graph;
  const EntityId root = graph.add_context_object("ladder-root");
  (void)build_context_tree(graph, root, 4, 3);
  std::vector<std::string> paths;
  std::vector<CompoundName> names;
  Rng rng(23);
  for (std::size_t i = 0; i < 64; ++i) {
    paths.push_back(leaf_path(rng, 4, 3));
    names.push_back(CompoundName::relative(paths.back()));
  }
  ResolverClientConfig cfg;
  cfg.shard_routing = true;
  cfg.cache_ttl = 0;
  auto cluster = ScenarioBuilder(graph)
                     .shards(1)
                     .delegate(root, 0)
                     .client_config(cfg)
                     .client_label("ladder")
                     .build();
  ResolverClient& miss_client = cluster->client(0);
  auto miss = [&](std::size_t i) {
    auto r = miss_client.resolve(root, names[i % names.size()]);
    if (!r.is_ok()) throw std::runtime_error("ladder remote resolve failed");
  };
  for (std::size_t i = 0; i < names.size(); ++i) miss(i);  // learn routes

  // One server answer: a bare endpoint on the client's machine sends the
  // request a routed client sends (fresh correlation id, start context,
  // path, glue flag) to the server endpoint, and the simulator runs until
  // the reply is delivered. Less the two messages' send -> delivered cost,
  // that is the server's request decoding, walk and reply building.
  Internetwork& net = cluster->net();
  Transport& transport = cluster->transport();
  const EndpointId bare = net.add_endpoint(cluster->client_machine(), "bare");
  std::uint64_t replies = 0;
  transport.set_handler(bare, [&replies](EndpointId, const Message& m) {
    if (m.type == NsWire::kResolveReply) ++replies;
  });
  const auto server = cluster->service().server_on(cluster->machine(0));
  if (!server.is_ok()) throw std::runtime_error("ladder server missing");
  const Pid to_server = relativize(net.location_of(server.value()).value(),
                                   net.location_of(bare).value());
  std::uint64_t corr = std::uint64_t{1} << 48;
  std::uint64_t asked = 0;
  auto answer = [&](std::size_t i) {
    Message request;
    request.type = NsWire::kResolveRequest;
    request.payload.add_u64(++corr)
        .add_u64(root.value())
        .add_name(paths[i % paths.size()])
        .add_u64(NsWire::kFlagShardGlue);
    if (!transport.send(bare, to_server, request).is_ok()) {
      throw std::runtime_error("ladder request send failed");
    }
    cluster->sim().run();
    ++asked;
  };
  // Misses and server answers are timed in alternating batches, so both
  // see the same host speed; the remainder is the median of the batches'.
  constexpr std::size_t kBatch = 2000;
  constexpr std::size_t kPairs = 15;
  const std::uint64_t sent0 =
      cluster->metrics().counter_value("transport.sent");
  std::vector<double> misses, answers, remainders;
  double msgs_per_miss = 0.0;
  for (std::size_t r = 0; r < kPairs; ++r) {
    const double miss_ns = time_ns(kBatch, 1, miss);
    if (r == 0) {
      msgs_per_miss = static_cast<double>(
                          cluster->metrics().counter_value("transport.sent") -
                          sent0) /
                      static_cast<double>(kBatch);
    }
    const double answer_ns = time_ns(kBatch, 1, answer) - 2.0 * deliver_ns;
    // What the timed parts do not explain: the client state machine, event
    // closures, reply decoding into client structures, metric lookups.
    const double parts = msgs_per_miss * deliver_ns + answer_ns;
    misses.push_back(miss_ns);
    answers.push_back(answer_ns);
    remainders.push_back((miss_ns - parts) / miss_ns);
  }
  if (replies != asked) throw std::runtime_error("ladder server did not answer");
  out.add("ns.client.miss_ns", median(misses), "ns");
  out.add("ns.client.allocs_per_res", allocs_per_call(1000, miss), "allocs");
  out.add("ns.client.msgs_per_miss", msgs_per_miss, "msgs");
  out.add("ns.server.answer_ns", median(answers), "ns");
  out.add("ns.client.remainder_frac", median(remainders), "ratio");

  // Hits: a second client with its own cache, primed once.
  ResolverClientConfig cached = cfg;
  cached.cache_ttl = SimDuration{1} << 40;
  cached.cache_capacity = 0;
  ResolverClient hit_client(graph, cluster->net(), cluster->transport(),
                            cluster->sim(), cluster->service(),
                            cluster->client_machine(), "ladder-hit", cached);
  auto hit = [&](std::size_t i) {
    auto r = hit_client.resolve(root, names[i % names.size()]);
    if (!r.is_ok()) throw std::runtime_error("ladder cached resolve failed");
  };
  for (std::size_t i = 0; i < names.size(); ++i) hit(i);
  out.add("ns.client.hit_ns", time_ns(50000, kReps, hit), "ns");
}

}  // namespace

MetricSet run_ladder() {
  MetricSet out;
  core_and_exec(out);
  sim_layer(out);
  const double deliver_ns = net_layer(out);
  ns_layer(out, deliver_ns);
  return out;
}

}  // namespace perfbench
