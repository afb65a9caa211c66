// The name service's wire frames: one layout per message type, encoded and
// decoded only here (docs/PROTOCOLS.md has the tables). Decoding is strict:
// the exact field count, every field's type tag, every count bounded by the
// fields that remain, no machine id equal to ~0. A frame that fails any
// check is rejected whole (nullopt), never half-trusted. Pids are written
// relative to the sender; the transport rebases them in flight (R(sender),
// §6), so a decoded frame's pids are already the receiver's.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/context.hpp"
#include "core/entity.hpp"
#include "net/address.hpp"
#include "net/topology.hpp"
#include "net/wire.hpp"

namespace namecoh {

/// Message types (Transport Message::type) and field conventions.
struct NsWire {
  static constexpr std::uint32_t kResolveRequest = 100;
  static constexpr std::uint32_t kResolveReply = 101;
  /// Primary → secondary snapshot of one context's bindings (UpdatePush).
  static constexpr std::uint32_t kUpdatePush = 102;
  /// Server → client lease callback (Invalidate, docs/COHERENCE.md).
  static constexpr std::uint32_t kInvalidate = 103;
  // Reply dispositions.
  static constexpr std::uint64_t kAnswer = 0;
  static constexpr std::uint64_t kReferral = 1;
  static constexpr std::uint64_t kError = 2;
  /// Request flags, client policy rather than protocol versions: ask for a
  /// lease on the answer (docs/COHERENCE.md); ask for glue on referrals
  /// into a delegated shard (docs/SHARDING.md).
  static constexpr std::uint64_t kFlagLeaseRequested = 1;
  static constexpr std::uint64_t kFlagShardGlue = 2;
  /// Sentinel for "shard unknown" in u64 shard fields.
  static constexpr std::uint64_t kNoShard = ~0ULL;
};

/// One name server as a frame names it: its pid, and the machine it serves
/// for (always a real machine — decode rejects ~0).
struct WireServer {
  Pid pid{};
  MachineId machine{};
  bool operator==(const WireServer&) const = default;
};

/// kResolveRequest: [corr, start, path, flags].
struct ResolveRequest {
  std::uint64_t corr = 0;
  EntityId start{};
  /// '/'-joined bare components. A decoded view points into the payload.
  std::string_view path{};
  std::uint64_t flags = 0;

  [[nodiscard]] Payload encode() const;
  [[nodiscard]] static std::optional<ResolveRequest> decode(const Payload& p);
  bool operator==(const ResolveRequest&) const = default;
};

/// kResolveReply: [corr, disposition, entity, remaining, error, authority,
/// epoch, n, (pid, machine) × n, lease-duration, lease-id, g, glue × g],
/// where one glue record is [ctx, shard, r, (pid, machine) × r].
struct ResolveReply {
  /// "Context `ctx` is delegated to shard `shard`, served by `servers`",
  /// learned in the same round trip as the referral that crosses into it.
  struct Glue {
    EntityId ctx{};
    std::uint64_t shard = NsWire::kNoShard;
    std::vector<WireServer> servers{};
    bool operator==(const Glue&) const = default;
  };

  std::uint64_t corr = 0;
  std::uint64_t disposition = NsWire::kError;
  EntityId entity{};
  /// Referrals: the unresolved path. Decoded views point into the payload.
  std::string_view remaining{};
  std::string_view error{};
  /// The context whose bindings the reply depends on, and its rebind epoch
  /// at the server (the snapshot's epoch when a secondary answered).
  EntityId authority{};
  std::uint64_t epoch = 0;
  /// The authority's live replica servers, primary first — a referral's
  /// target is replicas[0].
  std::vector<WireServer> replicas{};
  /// Lease granted on the answer; both 0 when none was asked or granted.
  std::uint64_t lease_duration = 0;
  std::uint64_t lease_id = 0;
  /// Empty unless the request set kFlagShardGlue and the referral crosses
  /// into a shard.
  std::vector<Glue> glue{};

  [[nodiscard]] Payload encode() const;
  [[nodiscard]] static std::optional<ResolveReply> decode(const Payload& p);
  bool operator==(const ResolveReply&) const = default;
};

/// kUpdatePush: [ctx, epoch, n, (name, entity) × n] — a full snapshot of
/// one context's bindings. Decoding interns each name; an invalid one
/// rejects the frame.
struct UpdatePush {
  EntityId ctx{};
  std::uint64_t epoch = 0;
  std::vector<Binding> bindings{};

  [[nodiscard]] Payload encode() const {
    return encode(ctx, epoch, bindings);
  }
  /// Encode straight from a context's live bindings, without copying them
  /// into a frame first.
  [[nodiscard]] static Payload encode(EntityId ctx, std::uint64_t epoch,
                                      std::span<const Binding> bindings);
  [[nodiscard]] static std::optional<UpdatePush> decode(const Payload& p);
  /// The context and epoch alone (bindings left empty) of a frame whose
  /// size matches its binding count: a receiver drops a stale or stray
  /// snapshot before interning any name. decode() checks the rest.
  [[nodiscard]] static std::optional<UpdatePush> decode_header(
      const Payload& p);
  bool operator==(const UpdatePush&) const = default;
};

/// kInvalidate: [lease-id, ctx, epoch, rebound-at] — a granted lease is
/// void: `ctx` rebound at tick `rebound_at` and is now at `epoch`.
struct Invalidate {
  std::uint64_t lease_id = 0;
  EntityId ctx{};
  std::uint64_t epoch = 0;
  std::uint64_t rebound_at = 0;

  [[nodiscard]] Payload encode() const;
  [[nodiscard]] static std::optional<Invalidate> decode(const Payload& p);
  bool operator==(const Invalidate&) const = default;
};

}  // namespace namecoh
