#include "ns/ns_wire.hpp"

namespace namecoh {

namespace {

/// Strict field cursor over one payload. Each read checks the field's type
/// tag before touching its value and fails once the fields run out; a
/// frame decodes only when every read succeeded and done() holds.
class Reader {
 public:
  explicit Reader(const Payload& payload, std::size_t at = 0)
      : p_(payload), at_(at) {}

  [[nodiscard]] std::size_t left() const { return p_.size() - at_; }
  [[nodiscard]] bool done() const { return at_ == p_.size(); }

  /// A kU64 field into a u64 or an id type (~0 is the id's invalid()).
  template <typename T>
  bool u64(T* out) {
    if (!next_is(FieldType::kU64)) return false;
    *out = T(p_.u64_at(at_++));
    return true;
  }
  /// A kName or kString field, viewed in place (no copy).
  bool text(FieldType type, std::string_view* out) {
    if (!next_is(type)) return false;
    *out = type == FieldType::kName ? p_.name_at(at_) : p_.string_at(at_);
    ++at_;
    return true;
  }
  /// [r, (pid, machine) × r], with r bounded by the fields that remain.
  bool servers(std::vector<WireServer>* out) {
    std::uint64_t count = 0;
    if (!u64(&count) || count > left() / 2) return false;
    out->reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!next_is(FieldType::kPid)) return false;
      WireServer server{p_.pid_at(at_++), MachineId()};
      if (!u64(&server.machine) || !server.machine.valid()) return false;
      out->push_back(server);
    }
    return true;
  }

 private:
  bool next_is(FieldType type) const {
    return at_ < p_.size() && p_.type_at(at_) == type;
  }

  const Payload& p_;
  std::size_t at_;
};

void add_servers(Payload& payload, const std::vector<WireServer>& servers) {
  payload.add_u64(servers.size());
  for (const WireServer& server : servers) {
    payload.add_pid(server.pid);
    payload.add_u64(server.machine.value());
  }
}

}  // namespace

Payload ResolveRequest::encode() const {
  Payload payload;
  payload.reserve(4)
      .add_u64(corr)
      .add_u64(start.value())
      .add_name(std::string(path))
      .add_u64(flags);
  return payload;
}

std::optional<ResolveRequest> ResolveRequest::decode(const Payload& p) {
  ResolveRequest out;
  Reader in(p);
  if (!in.u64(&out.corr) || !in.u64(&out.start) ||
      !in.text(FieldType::kName, &out.path) || !in.u64(&out.flags) ||
      !in.done()) {
    return std::nullopt;
  }
  return out;
}

Payload ResolveReply::encode() const {
  // Sized once: the eleven fixed fields, two per replica, three per glue
  // record plus two per glue server.
  std::size_t fields = 11 + 2 * replicas.size();
  for (const Glue& record : glue) fields += 3 + 2 * record.servers.size();
  Payload payload;
  payload.reserve(fields)
      .add_u64(corr)
      .add_u64(disposition)
      .add_u64(entity.value())
      .add_name(std::string(remaining))
      .add_string(std::string(error))
      .add_u64(authority.value())
      .add_u64(epoch);
  add_servers(payload, replicas);
  payload.add_u64(lease_duration).add_u64(lease_id).add_u64(glue.size());
  for (const Glue& record : glue) {
    payload.add_u64(record.ctx.value()).add_u64(record.shard);
    add_servers(payload, record.servers);
  }
  return payload;
}

std::optional<ResolveReply> ResolveReply::decode(const Payload& p) {
  ResolveReply out;
  Reader in(p);
  std::uint64_t glue_count = 0;
  if (!in.u64(&out.corr) || !in.u64(&out.disposition) ||
      !in.u64(&out.entity) || !in.text(FieldType::kName, &out.remaining) ||
      !in.text(FieldType::kString, &out.error) || !in.u64(&out.authority) ||
      !in.u64(&out.epoch) || !in.servers(&out.replicas) ||
      !in.u64(&out.lease_duration) || !in.u64(&out.lease_id) ||
      !in.u64(&glue_count) || glue_count > in.left() / 3) {
    return std::nullopt;
  }
  out.glue.reserve(static_cast<std::size_t>(glue_count));
  for (std::uint64_t i = 0; i < glue_count; ++i) {
    Glue record;
    if (!in.u64(&record.ctx) || !in.u64(&record.shard) ||
        !in.servers(&record.servers)) {
      return std::nullopt;
    }
    out.glue.push_back(std::move(record));
  }
  if (!in.done()) return std::nullopt;
  return out;
}

Payload UpdatePush::encode(EntityId ctx, std::uint64_t epoch,
                           std::span<const Binding> bindings) {
  Payload payload;
  payload.reserve(3 + 2 * bindings.size())
      .add_u64(ctx.value())
      .add_u64(epoch)
      .add_u64(bindings.size());
  for (const Binding& b : bindings) {
    payload.add_name(b.name.text()).add_u64(b.entity.value());
  }
  return payload;
}

std::optional<UpdatePush> UpdatePush::decode_header(const Payload& p) {
  UpdatePush out;
  Reader in(p);
  std::uint64_t count = 0;
  if (!in.u64(&out.ctx) || !in.u64(&out.epoch) || !in.u64(&count) ||
      count > in.left() / 2 || in.left() != 2 * count) {
    return std::nullopt;
  }
  return out;
}

std::optional<UpdatePush> UpdatePush::decode(const Payload& p) {
  auto out = decode_header(p);
  if (!out) return std::nullopt;
  Reader in(p, 3);  // the bindings, exactly as many as the header claims
  out->bindings.reserve(in.left() / 2);
  while (!in.done()) {
    std::string_view text;
    EntityId entity;
    if (!in.text(FieldType::kName, &text) || !in.u64(&entity)) {
      return std::nullopt;
    }
    auto name = Name::make(text);
    if (!name.is_ok()) return std::nullopt;
    out->bindings.push_back(Binding{name.value(), entity});
  }
  return out;
}

Payload Invalidate::encode() const {
  Payload payload;
  payload.reserve(4)
      .add_u64(lease_id)
      .add_u64(ctx.value())
      .add_u64(epoch)
      .add_u64(rebound_at);
  return payload;
}

std::optional<Invalidate> Invalidate::decode(const Payload& p) {
  Invalidate out;
  Reader in(p);
  if (!in.u64(&out.lease_id) || !in.u64(&out.ctx) || !in.u64(&out.epoch) ||
      !in.u64(&out.rebound_at) || !in.done()) {
    return std::nullopt;
  }
  return out;
}

}  // namespace namecoh
