// Tests for the transport: delivery, latency, pid remapping (R(sender)),
// reply_to, drops, unreachable/misdelivery, renumbering in flight.
#include <gtest/gtest.h>

#include "net/transport.hpp"

namespace namecoh {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    n1_ = net_.add_network("n1");
    n2_ = net_.add_network("n2");
    m1_ = net_.add_machine(n1_, "m1");
    m2_ = net_.add_machine(n1_, "m2");
    m3_ = net_.add_machine(n2_, "m3");
    a_ = net_.add_endpoint(m1_, "a");
    b_ = net_.add_endpoint(m1_, "b");
    c_ = net_.add_endpoint(m2_, "c");
    d_ = net_.add_endpoint(m3_, "d");
  }

  Pid pid_for(EndpointId target, EndpointId holder) {
    return relativize(net_.location_of(target).value(),
                      net_.location_of(holder).value());
  }

  Simulator sim_;
  Internetwork net_;
  NetworkId n1_, n2_;
  MachineId m1_, m2_, m3_;
  EndpointId a_, b_, c_, d_;
};

TEST_F(TransportTest, DeliversToHandler) {
  Transport tp(sim_, net_);
  int received = 0;
  tp.set_handler(b_, [&](EndpointId self, const Message& m) {
    EXPECT_EQ(self, b_);
    EXPECT_EQ(m.type, 7u);
    ASSERT_EQ(m.payload.size(), 1u);
    EXPECT_EQ(m.payload.u64_at(0), 99u);
    ++received;
  });
  Message msg;
  msg.type = 7;
  msg.payload.add_u64(99);
  ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), std::move(msg)).is_ok());
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(tp.snapshot()["sent"], 1u);
  EXPECT_EQ(tp.snapshot()["delivered"], 1u);
  EXPECT_GT(tp.snapshot()["bytes_sent"], 0u);
}

TEST_F(TransportTest, LatencyByLocality) {
  Transport tp(sim_, net_);
  SimTime t_machine = 0, t_network = 0, t_internet = 0;
  tp.set_handler(b_, [&](EndpointId, const Message&) { t_machine = sim_.now(); });
  tp.set_handler(c_, [&](EndpointId, const Message&) { t_network = sim_.now(); });
  tp.set_handler(d_, [&](EndpointId, const Message&) { t_internet = sim_.now(); });
  ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  ASSERT_TRUE(tp.send(a_, pid_for(c_, a_), Message{}).is_ok());
  ASSERT_TRUE(tp.send(a_, pid_for(d_, a_), Message{}).is_ok());
  sim_.run();
  EXPECT_EQ(t_machine, tp.config().intra_machine_latency);
  EXPECT_EQ(t_network, tp.config().intra_network_latency);
  EXPECT_EQ(t_internet, tp.config().inter_network_latency);
}

TEST_F(TransportTest, ReplyToLetsReceiverAnswer) {
  Transport tp(sim_, net_);
  bool replied = false;
  tp.set_handler(d_, [&](EndpointId self, const Message& m) {
    // Reply using reply_to verbatim.
    Message reply;
    reply.type = 2;
    EXPECT_TRUE(tp.send(self, m.reply_to, std::move(reply)).is_ok());
  });
  tp.set_handler(a_, [&](EndpointId, const Message& m) {
    EXPECT_EQ(m.type, 2u);
    replied = true;
  });
  Message msg;
  msg.type = 1;
  ASSERT_TRUE(tp.send(a_, pid_for(d_, a_), std::move(msg)).is_ok());
  sim_.run();
  EXPECT_TRUE(replied);
}

TEST_F(TransportTest, EmbeddedPidRemappedAcrossMachines) {
  // a (on m1) sends b's pid — (0,0,l) in a's context — to c on m2.
  // With remapping, c receives a pid that denotes b in *c's* context.
  Transport tp(sim_, net_);
  Pid received_pid;
  tp.set_handler(c_, [&](EndpointId, const Message& m) {
    received_pid = m.payload.pid_at(0);
  });
  Pid b_in_a = pid_for(b_, a_);
  EXPECT_EQ(b_in_a.qualification_level(), 1);  // same machine: (0,0,l)
  Message msg;
  msg.payload.add_pid(b_in_a);
  ASSERT_TRUE(tp.send(a_, pid_for(c_, a_), std::move(msg)).is_ok());
  sim_.run();
  EXPECT_EQ(tp.snapshot()["pids_remapped"], 1u);
  auto denoted = qualify(received_pid, net_.location_of(c_).value());
  ASSERT_TRUE(denoted.is_ok());
  EXPECT_EQ(net_.endpoint_at(denoted.value()).value(), b_);
}

TEST_F(TransportTest, WithoutRemapEmbeddedPidArrivesVerbatimAndLies) {
  TransportConfig config;
  config.remap_embedded_pids = false;
  Transport tp(sim_, net_, config);
  Pid received_pid;
  tp.set_handler(c_, [&](EndpointId, const Message& m) {
    received_pid = m.payload.pid_at(0);
  });
  Pid b_in_a = pid_for(b_, a_);  // (0,0,l_b): means b only on m1
  Message msg;
  msg.payload.add_pid(b_in_a);
  ASSERT_TRUE(tp.send(a_, pid_for(c_, a_), std::move(msg)).is_ok());
  sim_.run();
  EXPECT_EQ(tp.snapshot()["pids_remapped"], 0u);
  EXPECT_EQ(received_pid, b_in_a);
  // In c's context the verbatim pid denotes a process on *m2* (or nothing)
  // — not b. This is the §6 incoherence.
  auto denoted = qualify(received_pid, net_.location_of(c_).value());
  ASSERT_TRUE(denoted.is_ok());
  auto who = net_.endpoint_at(denoted.value());
  EXPECT_TRUE(!who.is_ok() || who.value() != b_);
}

TEST_F(TransportTest, ResolvePidInHolderContext) {
  Transport tp(sim_, net_);
  EXPECT_EQ(tp.resolve_pid(a_, pid_for(b_, a_)).value(), b_);
  EXPECT_EQ(tp.resolve_pid(a_, Pid::self()).value(), a_);
  EXPECT_EQ(tp.resolve_pid(c_, pid_for(d_, c_)).value(), d_);
  EXPECT_FALSE(tp.resolve_pid(a_, Pid{0, 0, 77}).is_ok());
  EXPECT_FALSE(tp.resolve_pid(a_, Pid{9, 0, 1}).is_ok());  // malformed
}

TEST_F(TransportTest, UnreachableDestinationCountsAndFails) {
  Transport tp(sim_, net_);
  Status s = tp.send(a_, Pid{0, 0, 77}, Message{});
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(tp.snapshot()["unreachable"], 1u);
  EXPECT_EQ(tp.snapshot()["sent"], 0u);
}

TEST_F(TransportTest, SendFromDeadEndpointFails) {
  Transport tp(sim_, net_);
  ASSERT_TRUE(net_.remove_endpoint(a_).is_ok());
  EXPECT_FALSE(tp.send(a_, Pid{0, 0, 1}, Message{}).is_ok());
}

TEST_F(TransportTest, RenumberInFlightOrphansTheMessage) {
  Transport tp(sim_, net_);
  int received = 0;
  tp.set_handler(c_, [&](EndpointId, const Message&) { ++received; });
  ASSERT_TRUE(tp.send(a_, pid_for(c_, a_), Message{}).is_ok());
  // Renumber c's machine before delivery: the address no longer exists.
  ASSERT_TRUE(net_.renumber_machine(m2_).is_ok());
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(tp.snapshot()["unreachable"], 1u);
  EXPECT_EQ(tp.snapshot()["delivered"], 0u);
}

TEST_F(TransportTest, ReuseInFlightMisdelivers) {
  net_.set_address_reuse(true);
  Transport tp(sim_, net_);
  int to_imposter = 0;
  ASSERT_TRUE(tp.send(a_, pid_for(c_, a_), Message{}).is_ok());
  Location old_c = net_.location_of(c_).value();
  ASSERT_TRUE(net_.renumber_machine(m2_).is_ok());
  MachineId imposter_machine = net_.add_machine(n1_, "imposter-m");
  ASSERT_EQ(net_.maddr_of(imposter_machine).value(), old_c.maddr);
  EndpointId imposter = net_.add_endpoint(imposter_machine, "imposter");
  tp.set_handler(imposter, [&](EndpointId, const Message&) { ++to_imposter; });
  sim_.run();
  EXPECT_EQ(to_imposter, 1);
  EXPECT_EQ(tp.snapshot()["misdelivered"], 1u);
}

TEST_F(TransportTest, DropsAreCountedNotDelivered) {
  TransportConfig config;
  config.drop_probability = 1.0;
  Transport tp(sim_, net_, config);
  int received = 0;
  tp.set_handler(b_, [&](EndpointId, const Message&) { ++received; });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  }
  sim_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(tp.snapshot()["dropped"], 5u);
  EXPECT_EQ(tp.snapshot()["delivered"], 0u);
}

TEST_F(TransportTest, NoHandlerStillCountsDelivered) {
  Transport tp(sim_, net_);
  ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  sim_.run();
  EXPECT_EQ(tp.snapshot()["delivered"], 1u);
}

TEST_F(TransportTest, ClearHandlerStopsCallbacks) {
  Transport tp(sim_, net_);
  int received = 0;
  tp.set_handler(b_, [&](EndpointId, const Message&) { ++received; });
  tp.clear_handler(b_);
  ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  sim_.run();
  EXPECT_EQ(received, 0);
}

TEST_F(TransportTest, PayloadSurvivesWireRoundTrip) {
  Transport tp(sim_, net_);
  Payload got;
  tp.set_handler(d_, [&](EndpointId, const Message& m) { got = m.payload; });
  Message msg;
  msg.payload.add_u64(123).add_string("across the internet")
      .add_name("/shared/file");
  Payload sent = msg.payload;
  ASSERT_TRUE(tp.send(a_, pid_for(d_, a_), std::move(msg)).is_ok());
  sim_.run();
  EXPECT_EQ(got, sent);
}

TEST_F(TransportTest, TracerRecordsDeliveriesWhenEnabled) {
  Transport tp(sim_, net_);
  tp.tracer().set_enabled(true);
  ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  ASSERT_TRUE(tp.send(a_, pid_for(c_, a_), Message{}).is_ok());
  sim_.run();
  EXPECT_EQ(tp.tracer().count(EventKind::kSend), 2u);
  EXPECT_EQ(tp.tracer().count(EventKind::kDeliver), 2u);
  // Unreachable sends are traced too.
  (void)tp.send(a_, Pid{0, 0, 99}, Message{});
  EXPECT_EQ(tp.tracer().count(EventKind::kUnreachable), 1u);
}

TEST_F(TransportTest, TracerDisabledByDefaultRecordsNothing) {
  Transport tp(sim_, net_);
  ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  sim_.run();
  EXPECT_FALSE(tp.tracer().enabled());
  EXPECT_EQ(tp.tracer().size(), 0u);
  EXPECT_EQ(tp.snapshot()["delivered"], 1u);  // metrics still count
}

// snapshot() must agree with the registry it captures from.
TEST_F(TransportTest, SnapshotMatchesRegistryCounters) {
  TransportConfig config;
  config.drop_probability = 1.0;
  Transport tp(sim_, net_, config);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  }
  tp.set_drop_probability(0.0);
  ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  sim_.run();
  const MetricsRegistry& metrics = tp.metrics();
  const StatsSnapshot snap = tp.snapshot();
  EXPECT_EQ(snap["sent"], metrics.counter_value("transport.sent"));
  EXPECT_EQ(snap["dropped"], metrics.counter_value("transport.dropped"));
  EXPECT_EQ(snap["delivered"], metrics.counter_value("transport.delivered"));
  EXPECT_EQ(snap["bytes_sent"],
            metrics.counter_value("transport.bytes_sent"));
  EXPECT_EQ(snap["sent"], 4u);
  EXPECT_EQ(snap["dropped"], 3u);
  EXPECT_EQ(snap["delivered"], 1u);
}

TEST_F(TransportTest, SharedRegistryAcrossTransports) {
  MetricsRegistry shared;
  Transport tp1(sim_, net_, {}, 1, &shared);
  Transport tp2(sim_, net_, {}, 2, &shared);
  ASSERT_TRUE(tp1.send(a_, pid_for(b_, a_), Message{}).is_ok());
  ASSERT_TRUE(tp2.send(a_, pid_for(b_, a_), Message{}).is_ok());
  EXPECT_EQ(shared.counter_value("transport.sent"), 2u);
  EXPECT_EQ(&tp1.metrics(), &shared);
}

TEST_F(TransportTest, DropSeedDeterminism) {
  // Two transports with the same seed drop the same messages.
  auto run = [&](std::uint64_t seed) {
    Simulator sim;
    Internetwork net;
    NetworkId n = net.add_network("n");
    MachineId m = net.add_machine(n, "m");
    EndpointId x = net.add_endpoint(m, "x");
    EndpointId y = net.add_endpoint(m, "y");
    TransportConfig config;
    config.drop_probability = 0.5;
    Transport tp(sim, net, config, seed);
    int received = 0;
    tp.set_handler(y, [&](EndpointId, const Message&) { ++received; });
    Location x_loc = net.location_of(x).value();
    Location y_loc = net.location_of(y).value();
    for (int i = 0; i < 40; ++i) {
      (void)tp.send(x, relativize(y_loc, x_loc), Message{});
    }
    sim.run();
    return received;
  };
  EXPECT_EQ(run(7), run(7));
}

// Every way a message can die returns its in-flight slot: 10,000 sends
// per way never grow the slot table past the one slot a message needs.
TEST_F(TransportTest, DroppedMessagesReturnTheirInFlightSlot) {
  constexpr int kSends = 10'000;
  FaultInjector faults(sim_);
  Transport tp(sim_, net_);
  tp.attach_faults(&faults);
  int received = 0;
  tp.set_handler(c_, [&](EndpointId, const Message&) { ++received; });
  auto send_to_c = [&] {
    Message msg;
    msg.payload.add_name("c1/c2/c3").add_pid(Pid::self());
    ASSERT_TRUE(tp.send(a_, pid_for(c_, a_), std::move(msg)).is_ok());
  };
  auto expect_reclaimed = [&](const char* how) {
    EXPECT_EQ(tp.in_flight(), 0u) << how;
    EXPECT_EQ(tp.in_flight_slots(), 1u) << how;
  };

  tp.set_drop_probability(1.0);
  for (int i = 0; i < kSends; ++i) {
    send_to_c();
    sim_.run();
  }
  tp.set_drop_probability(0.0);
  expect_reclaimed("random loss");

  faults.crash(m1_.value());
  for (int i = 0; i < kSends; ++i) {
    send_to_c();
    sim_.run();
  }
  faults.restart(m1_.value());
  expect_reclaimed("crashed sender");

  for (int i = 0; i < kSends; ++i) {
    send_to_c();
    faults.crash(m2_.value());  // down when the message lands
    sim_.run();
    faults.restart(m2_.value());
  }
  expect_reclaimed("crashed receiver");

  faults.partition_one_way(m1_.value(), m2_.value());
  for (int i = 0; i < kSends; ++i) {
    send_to_c();
    sim_.run();
  }
  faults.heal_one_way(m1_.value(), m2_.value());
  expect_reclaimed("partition");

  for (int i = 0; i < kSends; ++i) {
    send_to_c();
    ASSERT_TRUE(net_.renumber_machine(m2_).is_ok());  // orphaned in flight
    sim_.run();
  }
  expect_reclaimed("undeliverable");

  EXPECT_EQ(received, 0);
  EXPECT_EQ(tp.snapshot()["dropped"], 4u * kSends);
  EXPECT_EQ(tp.snapshot()["unreachable"], std::uint64_t{kSends});
  send_to_c();
  sim_.run();
  EXPECT_EQ(received, 1);
  expect_reclaimed("delivered");
}

TEST_F(TransportTest, SimulatorResetReclaimsInFlightSlots) {
  Transport tp(sim_, net_);
  int received = 0;
  tp.set_handler(b_, [&](EndpointId, const Message&) { ++received; });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  }
  EXPECT_EQ(tp.in_flight(), 3u);
  sim_.reset();  // drops the three deliveries unfired
  EXPECT_EQ(tp.in_flight(), 0u);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
    }
    sim_.reset();
  }
  EXPECT_EQ(tp.in_flight_slots(), 3u);
  ASSERT_TRUE(tp.send(a_, pid_for(b_, a_), Message{}).is_ok());
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(tp.in_flight(), 0u);
}

TEST_F(TransportTest, HandlerMayKeepTheMessage) {
  Transport tp(sim_, net_);
  std::vector<Message> kept;
  tp.set_handler(c_, [&](EndpointId, Message m) { kept.push_back(std::move(m)); });
  Message msg;
  msg.type = 9;
  msg.payload.add_string(std::string(100, 'k'));
  ASSERT_TRUE(tp.send(a_, pid_for(c_, a_), std::move(msg)).is_ok());
  sim_.run();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].type, 9u);
  EXPECT_EQ(kept[0].payload.string_at(0), std::string(100, 'k'));
}

TEST_F(TransportTest, SelfPidInPayloadDenotesSenderAfterRemap) {
  Transport tp(sim_, net_);
  Pid received_pid;
  tp.set_handler(c_, [&](EndpointId, const Message& m) {
    received_pid = m.payload.pid_at(0);
  });
  Message msg;
  msg.payload.add_pid(Pid::self());  // "myself" in a's context
  ASSERT_TRUE(tp.send(a_, pid_for(c_, a_), std::move(msg)).is_ok());
  sim_.run();
  auto denoted = qualify(received_pid, net_.location_of(c_).value());
  ASSERT_TRUE(denoted.is_ok());
  EXPECT_EQ(net_.endpoint_at(denoted.value()).value(), a_);
}

}  // namespace
}  // namespace namecoh
