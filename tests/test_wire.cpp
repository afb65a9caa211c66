// Tests for the wire codec: varints, byte strings, pids, typed payloads.
#include <gtest/gtest.h>

#include "net/wire.hpp"

namespace namecoh {
namespace {

TEST(Varint, RoundTripBoundaries) {
  for (std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xFFFFFFFFULL,
        0xFFFFFFFFFFFFFFFFULL}) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    std::span<const std::uint8_t> in(buf);
    auto back = get_varint(in);
    ASSERT_TRUE(back.is_ok()) << v;
    EXPECT_EQ(back.value(), v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(Varint, EncodingSizes) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  put_varint(buf, ~0ULL);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(Varint, TruncatedFails) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 300);
  buf.pop_back();
  std::span<const std::uint8_t> in(buf);
  EXPECT_FALSE(get_varint(in).is_ok());
}

TEST(Varint, OverlongFails) {
  // 11 continuation bytes exceed 64 bits.
  std::vector<std::uint8_t> buf(11, 0x80);
  buf.push_back(0x01);
  std::span<const std::uint8_t> in(buf);
  EXPECT_FALSE(get_varint(in).is_ok());
}

TEST(Bytes, RoundTrip) {
  for (std::string s : {std::string(""), std::string("hello"),
                        std::string(1000, 'x'), std::string("\0\x01\xff", 3)}) {
    std::vector<std::uint8_t> buf;
    put_bytes(buf, s);
    std::span<const std::uint8_t> in(buf);
    auto back = get_bytes(in);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), s);
    EXPECT_TRUE(in.empty());
  }
}

TEST(Bytes, TruncatedPayloadFails) {
  std::vector<std::uint8_t> buf;
  put_bytes(buf, "hello");
  buf.resize(buf.size() - 2);
  std::span<const std::uint8_t> in(buf);
  EXPECT_FALSE(get_bytes(in).is_ok());
}

TEST(WirePid, RoundTrip) {
  for (Pid pid : {Pid::self(), Pid{0, 0, 5}, Pid{0, 300, 5},
                  Pid{70000, 300, 5}}) {
    std::vector<std::uint8_t> buf;
    put_pid(buf, pid);
    std::span<const std::uint8_t> in(buf);
    auto back = get_pid(in);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), pid);
  }
}

TEST(WirePid, FieldOutOfRangeFails) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 0x1FFFFFFFFULL);  // > 32-bit addr
  put_varint(buf, 1);
  put_varint(buf, 1);
  std::span<const std::uint8_t> in(buf);
  EXPECT_FALSE(get_pid(in).is_ok());
}

TEST(Payload, BuildAndAccess) {
  Payload p;
  p.add_u64(42).add_string("hi").add_pid(Pid{1, 2, 3}).add_name("/a/b");
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.type_at(0), FieldType::kU64);
  EXPECT_EQ(p.u64_at(0), 42u);
  EXPECT_EQ(p.string_at(1), "hi");
  EXPECT_EQ(p.pid_at(2), (Pid{1, 2, 3}));
  EXPECT_EQ(p.name_at(3), "/a/b");
}

TEST(Payload, TypeMismatchThrows) {
  Payload p;
  p.add_u64(1);
  EXPECT_THROW((void)p.string_at(0), PreconditionError);
  EXPECT_THROW((void)p.pid_at(0), PreconditionError);
  EXPECT_THROW((void)p.u64_at(1), std::out_of_range);
}

TEST(Payload, PidAndNameIndices) {
  Payload p;
  p.add_pid(Pid{0, 0, 1}).add_u64(9).add_pid(Pid{0, 0, 2}).add_name("/x");
  EXPECT_EQ(p.pid_indices(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(p.name_indices(), (std::vector<std::size_t>{3}));
  p.set_pid(2, Pid{5, 5, 5});
  EXPECT_EQ(p.pid_at(2), (Pid{5, 5, 5}));
  p.set_name(3, "/y");
  EXPECT_EQ(p.name_at(3), "/y");
  EXPECT_THROW(p.set_pid(1, Pid{}), PreconditionError);
}

TEST(Payload, NameSliceTravelsAsTextAndReinterns) {
  const CompoundName sent = CompoundName::parse_relative("proj/src/main").value();
  Payload p;
  p.add_name(NameSlice{sent});
  EXPECT_EQ(p.name_at(0), "proj/src/main");

  auto back = Payload::decode(p.encode());
  ASSERT_TRUE(back.is_ok());
  auto compound = back.value().compound_at(0);
  ASSERT_TRUE(compound.is_ok());
  EXPECT_EQ(compound.value(), sent);

  Payload bad;
  bad.add_name("a//b");
  EXPECT_FALSE(bad.compound_at(0).is_ok());
}

TEST(Payload, EncodeDecodeRoundTrip) {
  Payload p;
  p.add_u64(0).add_u64(~0ULL).add_string("").add_string("data")
      .add_pid(Pid::self()).add_pid(Pid{9, 8, 7}).add_name("/vice/usr");
  auto bytes = p.encode();
  auto back = Payload::decode(bytes);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), p);
}

TEST(Payload, EmptyRoundTrip) {
  Payload p;
  auto back = Payload::decode(p.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().size(), 0u);
}

TEST(Payload, DecodeRejectsGarbage) {
  // Unknown field type.
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1);
  buf.push_back(0x7E);  // bogus type tag
  EXPECT_FALSE(Payload::decode(buf).is_ok());
}

TEST(Payload, DecodeRejectsTruncation) {
  Payload p;
  p.add_string("hello world");
  auto bytes = p.encode();
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> prefix(bytes.data(), bytes.size() - cut);
    EXPECT_FALSE(Payload::decode(prefix).is_ok()) << "cut=" << cut;
  }
}

TEST(Payload, DecodeRejectsTrailingBytes) {
  Payload p;
  p.add_u64(1);
  auto bytes = p.encode();
  bytes.push_back(0x00);
  EXPECT_FALSE(Payload::decode(bytes).is_ok());
}

// Field-by-field encoding with the public primitives: the reference the
// single-allocation encoder must reproduce byte for byte.
std::vector<std::uint8_t> reference_encode(const Payload& p) {
  std::vector<std::uint8_t> out;
  put_varint(out, p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    out.push_back(static_cast<std::uint8_t>(p.type_at(i)));
    switch (p.type_at(i)) {
      case FieldType::kU64: put_varint(out, p.u64_at(i)); break;
      case FieldType::kString: put_bytes(out, p.string_at(i)); break;
      case FieldType::kName: put_bytes(out, p.name_at(i)); break;
      case FieldType::kPid: put_pid(out, p.pid_at(i)); break;
    }
  }
  return out;
}

TEST(Payload, EncodeIntoReusedBufferMatchesEncode) {
  const Addr kMaxAddr = ~Addr{0};
  std::vector<Payload> payloads(6);
  payloads[0].add_string(std::string(70'000, 'x'))  // long, 3-byte length
      .add_name(std::string(200, 'n'));
  payloads[1].add_u64(0).add_u64(127).add_u64(128).add_u64(~0ULL);
  payloads[2].add_string("").add_name("").add_string("short");
  payloads[3].add_pid(Pid{0, 0, 0}).add_pid(Pid{kMaxAddr, kMaxAddr, kMaxAddr});
  // payloads[4] stays empty.
  payloads[5]
      .add_name("c1/c2/c3")
      .add_pid(Pid{1, 200, 70'000})
      .add_string(std::string(128, 's'))
      .add_u64(16384);
  std::vector<std::uint8_t> buffer;
  // Large first, then small: the reused buffer must shrink to each frame.
  for (int round = 0; round < 2; ++round) {
    for (const Payload& p : payloads) {
      const std::vector<std::uint8_t> expected = reference_encode(p);
      p.encode_into(buffer);
      EXPECT_EQ(buffer, expected);
      EXPECT_EQ(p.encode(), expected);
      auto back = Payload::decode(buffer);
      ASSERT_TRUE(back.is_ok());
      EXPECT_EQ(back.value(), p);
    }
  }
}

TEST(Payload, HostileFieldCountFailsWithoutLargeReservation) {
  // The count claims ~2^62 fields; three bytes follow. Reserving the
  // claimed count would throw or exhaust memory (and trip ASan's
  // allocation-size check); the decoder must only reject the frame.
  std::vector<std::uint8_t> frame;
  put_varint(frame, std::uint64_t{1} << 62);
  frame.push_back(static_cast<std::uint8_t>(FieldType::kU64));
  frame.push_back(0x05);
  frame.push_back(static_cast<std::uint8_t>(FieldType::kU64));
  auto decoded = Payload::decode(frame);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
}

// Property sweep: random payloads round-trip bit-exactly.
class PayloadRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PayloadRoundTrip, Random) {
  std::uint64_t x = static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL + 1;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  Payload p;
  int fields = 1 + static_cast<int>(next() % 12);
  for (int i = 0; i < fields; ++i) {
    switch (next() % 4) {
      case 0:
        p.add_u64(next());
        break;
      case 1:
        p.add_string(std::string(next() % 40, static_cast<char>('a' + next() % 26)));
        break;
      case 2:
        p.add_pid(Pid{static_cast<Addr>(next() % 100),
                      static_cast<Addr>(next() % 100),
                      static_cast<Addr>(next() % 100)});
        break;
      case 3:
        p.add_name("/p" + std::to_string(next() % 1000));
        break;
    }
  }
  EXPECT_EQ(p.encode(), reference_encode(p));
  auto back = Payload::decode(p.encode());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadRoundTrip, ::testing::Range(1, 33));

}  // namespace
}  // namespace namecoh
