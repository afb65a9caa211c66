// Tests for the name service's wire codec (src/ns/ns_wire.*): round trips
// of all four frames, strict-shape rejection, and a seeded mutation test —
// bit flips, truncation at every byte, inflated counts and lengths, swapped
// tags — run through Payload::decode and every frame decoder. Each mutant
// must be rejected, or decode to a frame whose re-encoding decodes to the
// same frame. Run under ASan/UBSan by scripts/run_sanitizers.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "ns/ns_wire.hpp"
#include "util/rng.hpp"

namespace namecoh {
namespace {

ResolveRequest sample_request() {
  return ResolveRequest{7, EntityId(42), "usr/bin/cc",
                        NsWire::kFlagLeaseRequested | NsWire::kFlagShardGlue};
}

ResolveReply sample_referral() {
  ResolveReply reply;
  reply.corr = 9;
  reply.disposition = NsWire::kReferral;
  reply.entity = EntityId(100);
  reply.remaining = "c0/c1/f";
  reply.authority = EntityId(100);
  reply.epoch = 5;
  reply.replicas = {WireServer{Pid{0, 2, 1}, MachineId(2)},
                    WireServer{Pid{1, 3, 1}, MachineId(3)}};
  for (std::uint64_t g = 0; g < 3; ++g) {
    ResolveReply::Glue glue{EntityId(200 + g), g, {}};
    for (std::uint64_t s = 0; s <= g; ++s) {
      glue.servers.push_back(
          WireServer{Pid{0, static_cast<Addr>(4 + s), 1}, MachineId(4 + s)});
    }
    reply.glue.push_back(std::move(glue));
  }
  return reply;
}

ResolveReply sample_error() {
  // Nothing stamped: no entity, no authority (~0 on the wire), no replicas.
  ResolveReply reply;
  reply.corr = 10;
  reply.disposition = NsWire::kError;
  reply.error = "NOT_FOUND: no binding for 'x'";
  return reply;
}

UpdatePush sample_push() {
  return UpdatePush{EntityId(3), 12,
                    {Binding{Name("a"), EntityId(4)},
                     Binding{Name("bee"), EntityId(5)},
                     Binding{Name("."), EntityId(3)}}};
}

Invalidate sample_invalidate() { return Invalidate{77, EntityId(3), 13, 400}; }

template <typename Frame>
void expect_round_trip(const Frame& frame) {
  const Payload payload = frame.encode();
  const auto bytes = payload.encode();
  auto wire = Payload::decode(bytes);
  ASSERT_TRUE(wire.is_ok());
  const auto back = Frame::decode(wire.value());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, frame);
  EXPECT_EQ(back->encode(), payload);
}

// --- Round trips -------------------------------------------------------------

TEST(NsWireRoundTrip, Request) {
  expect_round_trip(sample_request());
  expect_round_trip(ResolveRequest{1, EntityId::invalid(), "", 0});
}

TEST(NsWireRoundTrip, ReplyWithReplicasAndGlue) {
  expect_round_trip(sample_referral());
}

TEST(NsWireRoundTrip, ReplyWithNothingStamped) {
  const ResolveReply reply = sample_error();
  expect_round_trip(reply);
  EXPECT_EQ(reply.encode().u64_at(2), ~0ULL);  // no entity
  EXPECT_EQ(reply.encode().u64_at(5), ~0ULL);  // no authority
  expect_round_trip(ResolveReply{});  // empty strings, zero counts
}

TEST(NsWireRoundTrip, AnswerWithLease) {
  ResolveReply reply;
  reply.disposition = NsWire::kAnswer;
  reply.entity = EntityId(8);
  reply.authority = EntityId(3);
  reply.epoch = 2;
  reply.replicas = {WireServer{Pid::self(), MachineId(0)}};
  reply.lease_duration = 5000;
  reply.lease_id = 1;
  expect_round_trip(reply);
}

TEST(NsWireRoundTrip, UpdatePushAndInvalidate) {
  expect_round_trip(sample_push());
  expect_round_trip(UpdatePush{EntityId(3), 0, {}});
  expect_round_trip(sample_invalidate());
  expect_round_trip(Invalidate{~0ULL, EntityId::invalid(), ~0ULL, ~0ULL});
}

TEST(NsWireRoundTrip, ReplyLayoutIsTheDocumentedOne) {
  // [corr, disposition, entity, remaining, error, authority, epoch, n,
  //  (pid, machine) × n, lease-duration, lease-id, g, glue × g]
  ResolveReply reply = sample_referral();
  reply.glue.clear();
  const Payload p = reply.encode();
  ASSERT_EQ(p.size(), 11u + 2 * 2);
  EXPECT_EQ(p.type_at(3), FieldType::kName);
  EXPECT_EQ(p.type_at(4), FieldType::kString);
  EXPECT_EQ(p.u64_at(7), 2u);
  EXPECT_EQ(p.type_at(8), FieldType::kPid);
  EXPECT_EQ(p.u64_at(9), 2u);  // first replica's machine: the primary
  EXPECT_EQ(p.u64_at(12), 0u);  // lease pair always present
  EXPECT_EQ(p.u64_at(13), 0u);
  EXPECT_EQ(p.u64_at(14), 0u);  // glue count always present
}

// --- Strict shape ------------------------------------------------------------

/// `out` with fields [from, to) of `p` appended.
Payload copy_fields(const Payload& p, std::size_t from, std::size_t to,
                    Payload out = {}) {
  for (std::size_t i = from; i < to; ++i) {
    const Field& f = p.at(i);
    switch (f.type) {
      case FieldType::kU64:
        out.add_u64(std::get<std::uint64_t>(f.value));
        break;
      case FieldType::kString:
        out.add_string(std::get<std::string>(f.value));
        break;
      case FieldType::kPid:
        out.add_pid(std::get<Pid>(f.value));
        break;
      case FieldType::kName:
        out.add_name(std::get<std::string>(f.value));
        break;
    }
  }
  return out;
}

/// `p` with the field at `index` dropped.
Payload without(const Payload& p, std::size_t index) {
  return copy_fields(p, index + 1, p.size(), copy_fields(p, 0, index));
}

/// `p` with one more u64 field at the end.
Payload with_trailing(Payload p) {
  p.add_u64(0);
  return p;
}

/// `p` with the u64 field at `index` replaced by `value`.
Payload with_u64(const Payload& p, std::size_t index, std::uint64_t value) {
  Payload out = copy_fields(p, 0, index);
  out.add_u64(value);
  return copy_fields(p, index + 1, p.size(), std::move(out));
}

TEST(NsWireStrict, ThreeFieldRequestIsRejected) {
  const Payload full = sample_request().encode();
  EXPECT_FALSE(ResolveRequest::decode(without(full, 3)).has_value());
  EXPECT_FALSE(ResolveRequest::decode(with_trailing(full)).has_value());
}

TEST(NsWireStrict, ReplyWithoutTheLeasePairIsRejected) {
  ResolveReply reply = sample_referral();
  reply.glue.clear();
  const Payload full = reply.encode();
  const std::size_t lease_at = 8 + 2 * reply.replicas.size();
  EXPECT_FALSE(
      ResolveReply::decode(without(without(full, lease_at), lease_at))
          .has_value());
  // Nor without the glue count.
  EXPECT_FALSE(ResolveReply::decode(without(full, full.size() - 1)).has_value());
}

TEST(NsWireStrict, TrailingFieldIsRejectedForEveryFrame) {
  EXPECT_FALSE(
      ResolveReply::decode(with_trailing(sample_referral().encode())).has_value());
  EXPECT_FALSE(
      UpdatePush::decode(with_trailing(sample_push().encode())).has_value());
  EXPECT_FALSE(
      Invalidate::decode(with_trailing(sample_invalidate().encode()))
          .has_value());
}

TEST(NsWireStrict, OverrunningCountsAreRejected) {
  const ResolveReply reply = sample_referral();
  const Payload full = reply.encode();
  // The replica count, claiming more servers than the frame holds.
  EXPECT_FALSE(ResolveReply::decode(with_u64(full, 7, 3)).has_value());
  EXPECT_FALSE(ResolveReply::decode(with_u64(full, 7, ~0ULL)).has_value());
  // The glue count.
  const std::size_t glue_at = 8 + 2 * reply.replicas.size() + 2;
  ASSERT_EQ(full.u64_at(glue_at), reply.glue.size());
  EXPECT_FALSE(
      ResolveReply::decode(with_u64(full, glue_at, reply.glue.size() + 1))
          .has_value());
  EXPECT_FALSE(
      ResolveReply::decode(with_u64(full, glue_at, ~0ULL / 2)).has_value());
  // A glue record's server count.
  EXPECT_FALSE(
      ResolveReply::decode(with_u64(full, glue_at + 3, 5)).has_value());
  // An update push's binding count.
  EXPECT_FALSE(
      UpdatePush::decode(with_u64(sample_push().encode(), 2, 4)).has_value());
  EXPECT_FALSE(UpdatePush::decode_header(with_u64(sample_push().encode(), 2, 4))
                   .has_value());
}

TEST(NsWireStrict, MachineAllOnesIsRejected) {
  const Payload full = sample_referral().encode();
  // First replica's machine, then the first glue server's machine.
  EXPECT_FALSE(ResolveReply::decode(with_u64(full, 9, ~0ULL)).has_value());
  const std::size_t glue_server_machine = 8 + 2 * 2 + 3 + 4;
  EXPECT_FALSE(
      ResolveReply::decode(with_u64(full, glue_server_machine, ~0ULL))
          .has_value());
  EXPECT_TRUE(
      ResolveReply::decode(with_u64(full, glue_server_machine, 1)).has_value());
}

TEST(NsWireStrict, WrongTagsAreRejected) {
  Payload request;
  request.add_u64(1).add_u64(2).add_string("a/b").add_u64(0);  // not a name
  EXPECT_FALSE(ResolveRequest::decode(request).has_value());
  Payload push;
  push.add_u64(3).add_u64(1).add_u64(1).add_name("bad/name").add_u64(4);
  EXPECT_FALSE(UpdatePush::decode(push).has_value());  // not a valid name
  Payload invalidate;
  invalidate.add_u64(1).add_pid(Pid::self()).add_u64(2).add_u64(3);
  EXPECT_FALSE(Invalidate::decode(invalidate).has_value());
}

// --- Seeded mutation test ----------------------------------------------------

std::vector<Payload> corpus() {
  ResolveReply answer;
  answer.disposition = NsWire::kAnswer;
  answer.entity = EntityId(8);
  answer.authority = EntityId(3);
  answer.replicas = {WireServer{Pid{0, 2, 1}, MachineId(2)}};
  answer.lease_duration = 5000;
  answer.lease_id = 3;
  return {sample_request().encode(),
          ResolveRequest{1, EntityId::invalid(), "", 0}.encode(),
          sample_referral().encode(),
          sample_error().encode(),
          answer.encode(),
          sample_push().encode(),
          sample_invalidate().encode()};
}

/// The mutant must be rejected, or decode to a frame whose re-encoding
/// decodes to the same frame. True when it was accepted.
template <typename Frame>
bool check_frame(const Payload& payload) {
  const auto frame = Frame::decode(payload);
  if (!frame) return false;
  const Payload again = frame->encode();
  const auto bytes = again.encode();
  auto wire = Payload::decode(bytes);
  EXPECT_TRUE(wire.is_ok());
  if (!wire.is_ok()) return true;
  const auto back = Frame::decode(wire.value());
  EXPECT_TRUE(back.has_value() && *back == *frame);
  return true;
}

/// How many of the four frame decoders accepted `payload`.
int check_payload(const Payload& payload) {
  // A snapshot that decodes has a header that decodes to the same
  // context and epoch.
  if (const auto push = UpdatePush::decode(payload)) {
    const auto header = UpdatePush::decode_header(payload);
    EXPECT_TRUE(header && header->ctx == push->ctx &&
                header->epoch == push->epoch && header->bindings.empty());
  }
  return check_frame<ResolveRequest>(payload) +
         check_frame<ResolveReply>(payload) +
         check_frame<UpdatePush>(payload) + check_frame<Invalidate>(payload);
}

int check_bytes(std::span<const std::uint8_t> bytes) {
  auto payload = Payload::decode(bytes);
  return payload.is_ok() ? check_payload(payload.value()) : 0;
}

/// Mutants accepted and rejected, so a test can show it tried both.
struct Tally {
  int accepted = 0;
  int rejected = 0;
  void add(int decoded) { (decoded > 0 ? accepted : rejected) += 1; }
};

TEST(NsWireMutation, TruncationAtEveryByte) {
  for (const Payload& frame : corpus()) {
    const auto bytes = frame.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      // A strict prefix of a frame is never a whole frame.
      EXPECT_EQ(check_bytes(std::span<const std::uint8_t>(bytes.data(), len)),
                0);
    }
  }
}

TEST(NsWireMutation, SeededByteMutations) {
  const std::vector<Payload> frames = corpus();
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    auto bytes = frames[rng.next_below(frames.size())].encode();
    const std::uint64_t edits = 1 + rng.next_below(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t at = rng.next_below(bytes.size());
      switch (rng.next_below(4)) {
        case 0:  // bit flip
          bytes[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
          break;
        case 1:  // inflate a count or length byte (varint continuation)
          bytes[at] = rng.bernoulli(0.5) ? 0xff : 0x7f;
          break;
        case 2:  // overwrite with a field tag
          bytes[at] = static_cast<std::uint8_t>(1 + rng.next_below(4));
          break;
        default:  // truncate
          bytes.resize(at);
          break;
      }
      if (bytes.empty()) break;
    }
    tally.add(check_bytes(bytes));
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(NsWireMutation, SeededFieldMutations) {
  const std::vector<Payload> frames = corpus();
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    const Payload& base = frames[rng.next_below(frames.size())];
    const std::size_t at = rng.next_below(base.size());
    Payload mutant;
    switch (rng.next_below(5)) {
      case 0: {  // inflate a count (or any u64): +1, +k, huge, all-ones
        if (base.type_at(at) != FieldType::kU64) continue;
        const std::uint64_t v = base.u64_at(at);
        const std::uint64_t inflated[] = {v + 1, v + 1 + rng.next_below(64),
                                          std::uint64_t{1} << 40, ~0ULL};
        mutant = with_u64(base, at, inflated[rng.next_below(4)]);
        break;
      }
      case 1: {  // swap the field's tag for another type
        mutant = copy_fields(base, 0, at);
        switch (rng.next_below(4)) {
          case 0: mutant.add_u64(base.size()); break;
          case 1: mutant.add_string("x"); break;
          case 2: mutant.add_pid(Pid{1, 1, 1}); break;
          default: mutant.add_name("x"); break;
        }
        mutant = copy_fields(base, at + 1, base.size(), std::move(mutant));
        break;
      }
      case 2: {  // swap two adjacent fields
        if (at + 1 >= base.size()) continue;
        mutant = copy_fields(base, 0, at);
        mutant = copy_fields(base, at + 1, at + 2, std::move(mutant));
        mutant = copy_fields(base, at, at + 1, std::move(mutant));
        mutant = copy_fields(base, at + 2, base.size(), std::move(mutant));
        break;
      }
      case 3:  // drop a field
        mutant = without(base, at);
        break;
      default: {  // duplicate a field
        mutant = copy_fields(base, 0, at + 1);
        mutant = copy_fields(base, at, base.size(), std::move(mutant));
        break;
      }
    }
    tally.add(check_payload(mutant));
    EXPECT_EQ(check_bytes(mutant.encode()), check_payload(mutant));
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

}  // namespace
}  // namespace namecoh
