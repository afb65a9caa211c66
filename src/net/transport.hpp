// Message transport over the simulated internetwork.
//
// One-way datagram messaging with:
//   * pid-based addressing: the destination pid is resolved in the *sender's*
//     context (its current location), per §6 Example 1;
//   * embedded-pid remapping at delivery (the R(sender) rule): every kPid
//     field in the payload is rebased from the sender's context to the
//     receiver's. The remap can be disabled to reproduce the incoherence the
//     paper warns about;
//   * full wire round-trip: payloads are encoded and decoded on every hop so
//     the codec is exercised by every integration test and experiment;
//   * latency by locality (intra-machine / intra-network / inter-network)
//     and optional drop probability, all on the deterministic simulator.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/topology.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/tracer.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace namecoh {

/// An application message. `reply_to` is filled in by the transport at
/// delivery: it is the sender's pid *relative to the receiver*, so the
/// receiver can always answer (the client/server pattern of §4 case 2).
/// `trace_corr` is out-of-band observability metadata (like `type`, it is
/// carried alongside the encoded frame, never inside it): protocols that
/// already use correlation ids stamp it so the transport's send / drop /
/// deliver events attach to the owning resolution span.
struct Message {
  std::uint32_t type = 0;
  std::uint64_t trace_corr = 0;
  Pid reply_to;
  Payload payload;
};

struct TransportConfig {
  SimDuration intra_machine_latency = 5;
  SimDuration intra_network_latency = 50;
  SimDuration inter_network_latency = 500;
  /// Apply the R(sender) remap to embedded pids at delivery. Disabling it
  /// reproduces the paper's incoherence for exchanged pids.
  bool remap_embedded_pids = true;
  double drop_probability = 0.0;
};

class Transport {
 public:
  /// `metrics` attaches the transport to a shared registry ("transport.*"
  /// names); by default it owns a private one. Either way metrics() is the
  /// central registry for everything layered on this transport (name
  /// service, churn workload, …).
  Transport(Simulator& sim, Internetwork& net, TransportConfig config = {},
            std::uint64_t seed = 1, MetricsRegistry* metrics = nullptr);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Receives each delivered message by value: a handler that keeps the
  /// message (say, to serve it later) moves it instead of copying it.
  /// Handlers taking `const Message&` fit too.
  using Handler = std::function<void(EndpointId self, Message message)>;

  /// Install the receive handler for an endpoint. Messages to endpoints
  /// without a handler are counted as delivered and discarded.
  void set_handler(EndpointId endpoint, Handler handler);
  void clear_handler(EndpointId endpoint);

  /// Resolve a destination pid in the context of `holder` (its current
  /// location) to the endpoint currently at that address.
  [[nodiscard]] Result<EndpointId> resolve_pid(EndpointId holder,
                                               const Pid& pid) const;

  /// Send `message` from `from` to the process denoted by `to` *in the
  /// sender's context*. Returns an error only for immediately detectable
  /// failures (dead sender, malformed pid, unresolvable address); delivery
  /// itself happens later on the simulator.
  Status send(EndpointId from, const Pid& to, Message message);

  /// Point-in-time copy of the transport's counters ("transport.*");
  /// index by bare field name, e.g. snapshot()["delivered"].
  [[nodiscard]] StatsSnapshot snapshot() const {
    return StatsSnapshot(*metrics_, "transport.");
  }

  /// Messages sent and not yet delivered or dropped at delivery.
  [[nodiscard]] std::size_t in_flight() const {
    if (sim_.resets() != sim_resets_seen_) return 0;  // all dropped unfired
    return inflight_.size() - free_inflight_.size();
  }
  /// Size of the in-flight slot table: the most messages ever in flight
  /// at once (slots are recycled, never returned).
  [[nodiscard]] std::size_t in_flight_slots() const {
    return inflight_.size();
  }

  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  [[nodiscard]] MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return *metrics_; }
  [[nodiscard]] const TransportConfig& config() const { return config_; }
  void set_remap_embedded_pids(bool enabled) {
    config_.remap_embedded_pids = enabled;
  }
  /// Tests use this to stage deterministic loss patterns mid-run (e.g.
  /// "first attempt lost, retry delivered").
  void set_drop_probability(double p) { config_.drop_probability = p; }

  /// Subject this transport to scripted faults (sim/faults.hpp). Fault
  /// keys are MachineId values. Once attached:
  ///   * a message from a crashed machine is dropped at send;
  ///   * a message to a machine that is crashed at delivery time is
  ///     dropped there (in-flight messages die with the receiver);
  ///   * a message whose (sender, receiver) machine edge is partitioned
  ///     at send time is dropped at send (one-way);
  ///   * inside a reorder window, delivery gains the window's extra delay.
  /// All four show up as "transport.fault.*" counters and kFault* trace
  /// events; injector state transitions (crash/restart/partition/heal)
  /// are traced through the observer this call installs. Pass nullptr to
  /// detach.
  void attach_faults(FaultInjector* faults);
  [[nodiscard]] FaultInjector* faults() const { return faults_; }

 private:
  /// One message on the wire. Kept in a recycled slot so the delivery
  /// event captures only (this, slot) and fits std::function's inline
  /// buffer; `frame` keeps its capacity from one message to the next.
  struct InFlight {
    EndpointId intended;
    Location target;          ///< destination address, re-resolved at delivery
    Location sender_at_send;  ///< R(sender)'s context
    std::uint32_t type = 0;
    std::uint64_t trace_corr = 0;
    std::vector<std::uint8_t> frame;
  };

  SimDuration latency_between(const Location& a, const Location& b) const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void deliver(std::uint32_t slot);
  /// Everything delivery does short of calling the handler: re-resolve the
  /// address, apply receive-side faults, decode and remap. False when the
  /// message dies here.
  bool receive(const InFlight& flight, EndpointId& receiver,
               Message& message);

  Simulator& sim_;
  Internetwork& net_;
  TransportConfig config_;
  Rng rng_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  ///< when none was shared
  MetricsRegistry* metrics_;                        ///< never null
  Counter* sent_;
  Counter* delivered_;
  Counter* dropped_;
  Counter* unreachable_;
  Counter* misdelivered_;
  Counter* pids_remapped_;
  Counter* remap_failures_;
  Counter* bytes_sent_;
  Counter* fault_crash_drops_;
  Counter* fault_partition_drops_;
  Counter* fault_delays_;
  Tracer tracer_;
  FaultInjector* faults_ = nullptr;
  std::unordered_map<EndpointId, Handler> handlers_;
  std::vector<InFlight> inflight_;
  std::vector<std::uint32_t> free_inflight_;
  /// Simulator::resets() when the slot table was last known to match the
  /// simulator's queue; a reset drops delivery events unfired, and their
  /// slots are reclaimed at the next send.
  std::uint64_t sim_resets_seen_ = 0;
};

}  // namespace namecoh
