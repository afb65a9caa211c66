#include "ns/name_service.hpp"

#include <algorithm>
#include <utility>

#include "ns/membership.hpp"
#include "util/strings.hpp"

namespace namecoh {

std::optional<NameSlice> referral_suffix(NameSlice sent,
                                         std::string_view remaining) {
  if (remaining.empty()) return sent.subslice(sent.size());
  // Count components first so the candidate suffix is known before any
  // text is compared.
  std::size_t count = 1;
  for (char c : remaining) {
    if (c == '/') ++count;
  }
  if (count > sent.size()) return std::nullopt;
  const NameSlice candidate = sent.subslice(sent.size() - count);
  std::size_t start = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slash = remaining.find('/', start);
    const std::string_view piece =
        slash == std::string_view::npos
            ? remaining.substr(start)
            : remaining.substr(start, slash - start);
    if (piece != candidate[i].text()) return std::nullopt;
    start = slash + 1;
  }
  return candidate;
}

ReplyTail parse_reply_tail(const Payload& payload, std::size_t offset,
                           bool expect_lease, bool expect_glue) {
  ReplyTail tail;
  const std::size_t fields = payload.size();
  std::size_t cursor = offset;
  // A v2 peer stops at the fixed fields: no tail is a valid (empty) tail.
  if (cursor >= fields) {
    tail.valid = true;
    return tail;
  }
  auto u64_field = [&](std::uint64_t* out) {
    if (cursor >= fields || payload.type_at(cursor) != FieldType::kU64) {
      return false;
    }
    *out = payload.u64_at(cursor++);
    return true;
  };
  auto server_list = [&](std::uint64_t count,
                         std::vector<ReplyTail::Server>* out) {
    if (count > (fields - cursor) / 2) return false;  // would overrun
    for (std::uint64_t j = 0; j < count; ++j) {
      if (payload.type_at(cursor) != FieldType::kPid ||
          payload.type_at(cursor + 1) != FieldType::kU64) {
        return false;
      }
      ReplyTail::Server server;
      server.pid = payload.pid_at(cursor);
      server.machine = payload.u64_at(cursor + 1);
      out->push_back(std::move(server));
      cursor += 2;
    }
    return true;
  };
  // Replica tail (v3): [n, (pid, machine) × n].
  std::uint64_t n = 0;
  if (!u64_field(&n) || !server_list(n, &tail.replicas)) return tail;
  // Lease tail (v4): [duration, id] — optional even when negotiated, so a
  // v3 server's replies still parse. Consumed greedily; a tail that was
  // really something else fails the exact-consumption check below and the
  // whole parse is discarded, never half-trusted.
  if (expect_lease && fields - cursor >= 2 &&
      payload.type_at(cursor) == FieldType::kU64 &&
      payload.type_at(cursor + 1) == FieldType::kU64) {
    tail.lease_duration = payload.u64_at(cursor);
    tail.lease_id = payload.u64_at(cursor + 1);
    cursor += 2;
  }
  // Glue tail (v5): [g, (ctx, shard, r, (pid, machine) × r) × g] —
  // likewise optional when negotiated (pre-v5 servers send none).
  if (expect_glue && cursor < fields) {
    std::uint64_t g = 0;
    if (!u64_field(&g)) return tail;
    for (std::uint64_t j = 0; j < g; ++j) {
      ReplyTail::Glue glue;
      std::uint64_t r = 0;
      if (!u64_field(&glue.ctx) || !u64_field(&glue.shard) ||
          !u64_field(&r) || !server_list(r, &glue.servers)) {
        tail = ReplyTail();  // discard everything, not half a tail
        return tail;
      }
      tail.glue.push_back(std::move(glue));
    }
  }
  // Strict: every remaining field must have been consumed. Leftovers mean
  // a layout this parser does not understand — ignore the whole tail, the
  // same posture every earlier protocol rev took toward newer tails.
  if (cursor != fields) {
    tail = ReplyTail();
    return tail;
  }
  tail.valid = true;
  return tail;
}

void AuthorityMap::set_home(EntityId ctx, MachineId machine) {
  NAMECOH_CHECK(ctx.valid() && machine.valid(), "invalid home assignment");
  homes_[ctx] = {machine};
}

void AuthorityMap::set_replicas(EntityId ctx,
                                std::vector<MachineId> replicas) {
  NAMECOH_CHECK(ctx.valid() && !replicas.empty(),
                "invalid replica assignment");
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    NAMECOH_CHECK(replicas[i].valid(), "invalid replica machine");
    for (std::size_t j = i + 1; j < replicas.size(); ++j) {
      NAMECOH_CHECK(replicas[i] != replicas[j], "duplicate replica machine");
    }
  }
  homes_[ctx] = std::move(replicas);
}

void AuthorityMap::set_home_subtree(const NamingGraph& graph, EntityId root,
                                    MachineId machine) {
  set_replicas_subtree(graph, root, {machine});
}

void AuthorityMap::set_replicas_subtree(const NamingGraph& graph,
                                        EntityId root,
                                        std::vector<MachineId> replicas) {
  NAMECOH_CHECK(graph.is_context_object(root),
                "set_replicas_subtree: root is not a context object");
  NAMECOH_CHECK(!replicas.empty(), "empty replica set");
  // The root is always re-assigned, per the contract; a silent no-op when
  // it already belonged to another authority would leave the caller with a
  // partitioned map and no error. Descendants with a foreign authority are
  // left alone (shared subtrees keep their own).
  homes_.insert_or_assign(root, replicas);
  std::deque<EntityId> frontier{root};
  while (!frontier.empty()) {
    EntityId ctx = frontier.front();
    frontier.pop_front();
    if (homes_.at(ctx) != replicas) continue;  // foreign authority: stop
    for (const auto& [name, target] : graph.context(ctx).bindings()) {
      if (name.is_cwd() || name.is_parent()) continue;
      if (!graph.is_context_object(target)) continue;
      // Shard-owned descendants keep their shard, symmetric with
      // install_delegation stopping at explicit homes.
      if (shard_of(target) != kNoShard) continue;
      if (homes_.try_emplace(target, replicas).second) {
        frontier.push_back(target);
      }
    }
  }
}

ShardId AuthorityMap::add_shard(std::vector<MachineId> replicas) {
  NAMECOH_CHECK(!replicas.empty(), "empty shard replica set");
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    NAMECOH_CHECK(replicas[i].valid(), "invalid shard replica machine");
    for (std::size_t j = i + 1; j < replicas.size(); ++j) {
      NAMECOH_CHECK(replicas[i] != replicas[j],
                    "duplicate shard replica machine");
    }
  }
  shards_.push_back(std::move(replicas));
  delegates_of_.emplace_back();
  return static_cast<ShardId>(shards_.size() - 1);
}

std::span<const MachineId> AuthorityMap::shard_replicas(ShardId shard) const {
  if (shard >= shards_.size()) return {};
  return shards_[shard];
}

ShardId AuthorityMap::shard_of(EntityId ctx) const {
  if (!ctx.valid() || ctx.value() >= shard_of_.size()) return kNoShard;
  return shard_of_[ctx.value()];
}

void AuthorityMap::assign_shard(EntityId ctx, ShardId shard) {
  if (ctx.value() >= shard_of_.size()) {
    shard_of_.resize(ctx.value() + 1, kNoShard);
  }
  shard_of_[ctx.value()] = shard;
}

bool AuthorityMap::delegation_reaches(ShardId from, ShardId to) const {
  if (from == to) return true;
  std::vector<bool> visited(shards_.size(), false);
  std::vector<ShardId> stack{from};
  visited[from] = true;
  while (!stack.empty()) {
    const ShardId s = stack.back();
    stack.pop_back();
    for (ShardId d : delegates_of_[s]) {
      if (d == to) return true;
      if (!visited[d]) {
        visited[d] = true;
        stack.push_back(d);
      }
    }
  }
  return false;
}

Status AuthorityMap::install_delegation(const NamingGraph& graph,
                                        EntityId root, ShardId shard) {
  if (shard >= shards_.size()) {
    return invalid_argument_error("install_delegation: unknown shard");
  }
  if (!graph.is_context_object(root)) {
    return invalid_argument_error(
        "install_delegation: root is not a context object");
  }
  const ShardId owner = shard_of(root);
  if (owner == shard) {
    return invalid_argument_error(
        "install_delegation: shard already owns the root (self-delegation)");
  }
  // Cycle refusal: a client chasing glue through a delegation chain that
  // re-enters an earlier shard would never terminate. If the new delegate
  // already reaches the owner through recorded edges, owner → delegate
  // would close the loop.
  if (owner != kNoShard && delegation_reaches(shard, owner)) {
    return invalid_argument_error(
        "install_delegation: delegation would close a cycle");
  }
  if (owner != kNoShard) {
    auto& edges = delegates_of_[owner];
    if (std::find(edges.begin(), edges.end(), shard) == edges.end()) {
      edges.push_back(shard);
    }
  }
  // Same walk contract as set_replicas_subtree: the root is always
  // re-assigned; descendants are claimed only while unowned (no shard and
  // no explicit home), so foreign regions keep their authority.
  assign_shard(root, shard);
  std::deque<EntityId> frontier{root};
  while (!frontier.empty()) {
    EntityId ctx = frontier.front();
    frontier.pop_front();
    if (shard_of(ctx) != shard) continue;
    for (const auto& [name, target] : graph.context(ctx).bindings()) {
      if (name.is_cwd() || name.is_parent()) continue;
      if (!graph.is_context_object(target)) continue;
      if (shard_of(target) != kNoShard || homes_.contains(target)) continue;
      assign_shard(target, shard);
      frontier.push_back(target);
    }
  }
  return Status::ok();
}

Status AuthorityMap::delegate_children_by_hash(const NamingGraph& graph,
                                               EntityId parent,
                                               const ShardRing& ring,
                                               std::vector<EntityId>* moved) {
  if (!graph.is_context_object(parent)) {
    return invalid_argument_error(
        "delegate_children_by_hash: parent is not a context object");
  }
  for (const auto& [name, target] : graph.context(parent).bindings()) {
    if (name.is_cwd() || name.is_parent()) continue;
    if (!graph.is_context_object(target)) continue;
    const ShardId shard = ring.shard_for(target);
    const ShardId owner = shard_of(target);
    if (owner == shard) continue;  // idempotent re-run: already placed
    if (owner != kNoShard || homes_.contains(target)) {
      // Already owned, but the ring now says elsewhere: a re-run must not
      // silently re-claim live ownership — that is a migration
      // (docs/REBALANCING.md). Report it and leave the map untouched.
      if (moved != nullptr) moved->push_back(target);
      continue;
    }
    Status placed = install_delegation(graph, target, shard);
    if (!placed.is_ok()) return placed;
  }
  return Status::ok();
}

std::vector<EntityId> AuthorityMap::shard_subtree(const NamingGraph& graph,
                                                  EntityId root) const {
  std::vector<EntityId> out;
  const ShardId owner = shard_of(root);
  if (owner == kNoShard || !graph.is_context_object(root)) return out;
  // The same walk shape as install_delegation, read-only: collect every
  // context the owning shard holds under `root`, stopping at foreign
  // authorities (another shard, or an explicit per-context home).
  std::unordered_set<EntityId> seen{root};
  out.push_back(root);
  std::deque<EntityId> frontier{root};
  while (!frontier.empty()) {
    EntityId ctx = frontier.front();
    frontier.pop_front();
    for (const auto& [name, target] : graph.context(ctx).bindings()) {
      if (name.is_cwd() || name.is_parent()) continue;
      if (!graph.is_context_object(target)) continue;
      if (shard_of(target) != owner || homes_.contains(target)) continue;
      if (!seen.insert(target).second) continue;
      out.push_back(target);
      frontier.push_back(target);
    }
  }
  return out;
}

Result<std::size_t> AuthorityMap::migrate_subtree(const NamingGraph& graph,
                                                  EntityId root, ShardId to) {
  if (to >= shards_.size()) {
    return invalid_argument_error("migrate_subtree: unknown target shard");
  }
  if (!graph.is_context_object(root)) {
    return invalid_argument_error(
        "migrate_subtree: root is not a context object");
  }
  const ShardId from = shard_of(root);
  if (from == kNoShard) {
    return invalid_argument_error("migrate_subtree: root is not shard-owned");
  }
  if (from == to) {
    return invalid_argument_error(
        "migrate_subtree: root already lives on the target shard");
  }
  const std::vector<EntityId> ctxs = shard_subtree(graph, root);
  for (EntityId ctx : ctxs) assign_shard(ctx, to);
  return ctxs.size();
}

Result<MachineId> AuthorityMap::home_of(EntityId ctx) const {
  auto it = homes_.find(ctx);
  if (it != homes_.end()) return it->second.front();
  const ShardId shard = shard_of(ctx);
  if (shard != kNoShard) return shards_[shard].front();
  return not_found_error("context has no authoritative home");
}

std::span<const MachineId> AuthorityMap::replicas_of(EntityId ctx) const {
  auto it = homes_.find(ctx);
  if (it != homes_.end()) return it->second;
  const ShardId shard = shard_of(ctx);
  if (shard != kNoShard) return shards_[shard];
  return {};
}

bool AuthorityMap::has_home(EntityId ctx) const {
  return homes_.contains(ctx) || shard_of(ctx) != kNoShard;
}

bool AuthorityMap::is_replica(EntityId ctx, MachineId machine) const {
  auto replicas = replicas_of(ctx);
  return std::find(replicas.begin(), replicas.end(), machine) !=
         replicas.end();
}

bool AuthorityMap::is_primary(EntityId ctx, MachineId machine) const {
  auto replicas = replicas_of(ctx);
  return !replicas.empty() && replicas.front() == machine;
}

std::vector<EntityId> AuthorityMap::replicated_contexts() const {
  std::vector<EntityId> out;
  for (const auto& [ctx, replicas] : homes_) {
    if (replicas.size() >= 2) out.push_back(ctx);
  }
  return out;
}

NameService::NameService(const NamingGraph& graph, Internetwork& net,
                         Transport& transport, const AuthorityMap& homes)
    : graph_(graph), net_(net), transport_(transport), homes_(homes) {
  MetricsRegistry& metrics = transport_.metrics();
  requests_ = &metrics.counter("ns.server.requests");
  answers_ = &metrics.counter("ns.server.answers");
  referrals_ = &metrics.counter("ns.server.referrals");
  failures_ = &metrics.counter("ns.server.failures");
  duplicates_ = &metrics.counter("ns.server.duplicates");
  update_pushes_ = &metrics.counter("ns.server.update_pushes");
  pushes_suppressed_ = &metrics.counter("ns.server.pushes_suppressed");
  updates_applied_ = &metrics.counter("ns.server.updates_applied");
  updates_stale_ = &metrics.counter("ns.server.updates_stale");
  store_answers_ = &metrics.counter("ns.server.store_answers");
  leases_granted_ = &metrics.counter("ns.server.leases_granted");
  lease_renewals_ = &metrics.counter("ns.server.lease_renewals");
  invalidates_pushed_ = &metrics.counter("ns.server.invalidates_pushed");
  lease_table_full_ = &metrics.counter("ns.server.lease_table_full");
  forwarded_ = &metrics.counter("ns.server.forwarded");
  migration_pushes_ = &metrics.counter("ns.server.migration_pushes");
}

StatsSnapshot NameService::snapshot() const {
  return StatsSnapshot(transport_.metrics(), "ns.server.");
}

void NameService::set_lease_policy(SimDuration duration,
                                   std::size_t capacity) {
  lease_duration_ = duration;
  lease_capacity_ = capacity;
}

std::size_t NameService::lease_count(MachineId machine) const {
  auto it = leases_.find(machine);
  return it == leases_.end() ? 0 : it->second.by_id.size();
}

void NameService::erase_lease(LeaseTable& table, std::uint64_t id) {
  auto it = table.by_id.find(id);
  if (it == table.by_id.end()) return;
  auto ctx_it = table.by_ctx.find(it->second.ctx);
  if (ctx_it != table.by_ctx.end()) {
    auto& ids = ctx_it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) table.by_ctx.erase(ctx_it);
  }
  table.by_id.erase(it);
}

std::pair<std::uint64_t, std::uint64_t> NameService::grant_lease(
    MachineId machine, EntityId ctx, const Pid& holder, std::uint64_t epoch,
    std::uint64_t corr) {
  if (lease_duration_ == 0) return {0, 0};
  const SimTime now = transport_.simulator().now();
  LeaseTable& table = leases_[machine];
  // Renewal: the holder already has a promise on this context — refresh
  // its term under the same id instead of stacking a second record.
  auto ctx_it = table.by_ctx.find(ctx);
  if (ctx_it != table.by_ctx.end()) {
    for (std::uint64_t id : ctx_it->second) {
      LeaseRecord& record = table.by_id.at(id);
      if (record.holder == holder) {
        record.expires = now + lease_duration_;
        record.epoch = epoch;
        lease_renewals_->inc();
        transport_.tracer().record(now, EventKind::kLeaseGrant, corr,
                                   ctx.value(), id);
        return {lease_duration_, id};
      }
    }
  }
  if (lease_capacity_ > 0 && table.by_id.size() >= lease_capacity_) {
    // Purge lapsed promises first; a table genuinely full of *unexpired*
    // leases grants nothing — breaking an outstanding promise silently
    // would forfeit the coherence the lease bought.
    std::vector<std::uint64_t> lapsed;
    for (const auto& [id, record] : table.by_id) {
      if (record.expires <= now) lapsed.push_back(id);
    }
    for (std::uint64_t id : lapsed) erase_lease(table, id);
    if (table.by_id.size() >= lease_capacity_) {
      lease_table_full_->inc();
      return {0, 0};
    }
  }
  const std::uint64_t id = next_lease_id_++;
  LeaseRecord record;
  record.id = id;
  record.ctx = ctx;
  record.holder = holder;
  record.expires = now + lease_duration_;
  record.epoch = epoch;
  table.by_id.emplace(id, record);
  table.by_ctx[ctx].push_back(id);
  leases_granted_->inc();
  transport_.tracer().record(now, EventKind::kLeaseGrant, corr, ctx.value(),
                             id);
  return {lease_duration_, id};
}

void NameService::push_invalidations(MachineId machine, EntityId ctx) {
  auto lease_it = leases_.find(machine);
  if (lease_it == leases_.end()) return;
  LeaseTable& table = lease_it->second;
  auto ctx_it = table.by_ctx.find(ctx);
  if (ctx_it == table.by_ctx.end()) return;
  auto server = servers_.find(machine);
  if (server == servers_.end()) return;
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  const SimTime now = transport_.simulator().now();
  Tracer& tracer = transport_.tracer();
  std::vector<std::uint64_t> voided;
  for (std::uint64_t id : ctx_it->second) {
    const LeaseRecord& record = table.by_id.at(id);
    // Promises answered under the current epoch are still good (e.g. an
    // anti-entropy sweep with no rebind since the grant).
    if (record.epoch >= epoch) continue;
    voided.push_back(id);
    if (record.expires <= now) continue;  // lapsed on its own: no push owed
    // Callback push: [lease id, ctx, epoch now in force, rebind time]. The
    // rebind time lets the holder measure the staleness window this push
    // closed. Subject to loss/partition like all traffic — the lease term
    // itself is the holder's fallback bound.
    Message push;
    push.type = NsWire::kInvalidate;
    push.payload.reserve(4);
    push.payload.add_u64(id);
    push.payload.add_u64(ctx.value());
    push.payload.add_u64(epoch);
    push.payload.add_u64(now);
    invalidates_pushed_->inc();
    tracer.record(now, EventKind::kInvalidate, 0, ctx.value(), epoch);
    (void)transport_.send(server->second, record.holder, std::move(push));
  }
  for (std::uint64_t id : voided) erase_lease(table, id);
}

void NameService::drop_leases(MachineId machine, EntityId ctx) {
  auto lease_it = leases_.find(machine);
  if (lease_it == leases_.end()) return;
  LeaseTable& table = lease_it->second;
  auto ctx_it = table.by_ctx.find(ctx);
  if (ctx_it == table.by_ctx.end()) return;
  std::vector<std::uint64_t> ids = ctx_it->second;
  for (std::uint64_t id : ids) erase_lease(table, id);
}

void NameService::open_migration_intake(MachineId target,
                                        const std::vector<EntityId>& ctxs) {
  auto& allowed = intake_[target];
  allowed.insert(ctxs.begin(), ctxs.end());
}

void NameService::close_migration_intake(MachineId target) {
  intake_.erase(target);
}

bool NameService::push_snapshot(EntityId ctx, MachineId to) {
  if (!graph_.is_context_object(ctx)) return false;
  auto replicas = homes_.replicas_of(ctx);
  if (replicas.empty()) return false;
  auto origin = servers_.find(replicas.front());
  if (origin == servers_.end()) return false;
  auto origin_loc = net_.location_of(origin->second);
  if (!origin_loc.is_ok()) return false;
  auto target = servers_.find(to);
  if (target == servers_.end()) return false;
  auto target_loc = net_.location_of(target->second);
  if (!target_loc.is_ok()) return false;
  // Same full-snapshot layout as publish_update — the receiver cannot
  // tell a migration copy from a replication push, which is the point:
  // apply-if-newer makes loss and reordering harmless either way.
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  const auto bindings = graph_.context(ctx).bindings();
  Message push;
  push.type = NsWire::kUpdatePush;
  push.payload.reserve(3 + 2 * bindings.size());
  push.payload.add_u64(ctx.value());
  push.payload.add_u64(epoch);
  push.payload.add_u64(bindings.size());
  for (const Binding& b : bindings) {
    push.payload.add_name(b.name.text());
    push.payload.add_u64(b.entity.value());
  }
  migration_pushes_->inc();
  transport_.tracer().record(transport_.simulator().now(),
                             EventKind::kUpdatePush, 0, ctx.value(), epoch);
  return transport_
      .send(origin->second,
            relativize(target_loc.value(), origin_loc.value()),
            std::move(push))
      .is_ok();
}

void NameService::install_forwarding(ShardId from_shard,
                                     const std::vector<EntityId>& ctxs,
                                     SimTime expires) {
  auto machines = homes_.shard_replicas(from_shard);
  if (machines.empty() || ctxs.empty()) return;
  for (MachineId m : machines) {
    auto& slots = forwarding_[m];
    for (EntityId ctx : ctxs) {
      SimTime& slot = slots[ctx];
      slot = std::max(slot, expires);
    }
  }
  transport_.simulator().schedule_at(expires, [this] { purge_forwarding(); });
}

void NameService::purge_forwarding() {
  const SimTime now = transport_.simulator().now();
  for (auto it = forwarding_.begin(); it != forwarding_.end();) {
    auto& slots = it->second;
    for (auto slot = slots.begin(); slot != slots.end();) {
      slot = slot->second <= now ? slots.erase(slot) : std::next(slot);
    }
    it = slots.empty() ? forwarding_.erase(it) : std::next(it);
  }
}

std::size_t NameService::forwarding_count(MachineId machine) const {
  auto it = forwarding_.find(machine);
  if (it == forwarding_.end()) return 0;
  const SimTime now = transport_.simulator().now();
  std::size_t live = 0;
  for (const auto& [ctx, expires] : it->second) {
    if (expires > now) ++live;
  }
  return live;
}

void NameService::track_subtree_loads(const NamingGraph& graph,
                                      const std::vector<EntityId>& roots) {
  MetricsRegistry& metrics = transport_.metrics();
  for (EntityId root : roots) {
    if (!graph.is_context_object(root)) continue;
    const auto slot = static_cast<std::uint32_t>(subtree_hits_.size());
    subtree_hits_.push_back(&metrics.counter(
        "ns.server.subtree." + std::to_string(root.value()) + ".hits"));
    // Claim the subtree for this slot; first registration wins, so
    // overlapping roots attribute shared contexts to the earlier one.
    std::deque<EntityId> frontier{root};
    auto claim = [&](EntityId ctx) {
      if (ctx.value() >= subtree_slot_.size()) {
        subtree_slot_.resize(ctx.value() + 1, kNoSlot);
      }
      if (subtree_slot_[ctx.value()] != kNoSlot) return false;
      subtree_slot_[ctx.value()] = slot;
      return true;
    };
    if (!claim(root)) continue;
    while (!frontier.empty()) {
      EntityId ctx = frontier.front();
      frontier.pop_front();
      for (const auto& [name, target] : graph.context(ctx).bindings()) {
        if (name.is_cwd() || name.is_parent()) continue;
        if (!graph.is_context_object(target)) continue;
        if (claim(target)) frontier.push_back(target);
      }
    }
  }
}

EndpointId NameService::add_server(MachineId machine) {
  NAMECOH_CHECK(!servers_.contains(machine),
                "machine already has a name server");
  EndpointId server = net_.add_endpoint(machine, "nameserver");
  servers_[machine] = server;
  // Per-machine load signals for the rebalance planner: requests served
  // and FIFO queue-wait ticks (docs/REBALANCING.md, "Planner signals").
  MetricsRegistry& metrics = transport_.metrics();
  const std::string mprefix =
      "ns.server.m" + std::to_string(machine.value()) + ".";
  load_[machine] = MachineLoad{&metrics.counter(mprefix + "served"),
                               &metrics.counter(mprefix + "wait_ticks")};
  transport_.set_handler(
      server, [this, machine](EndpointId self, Message message) {
        if (message.type == NsWire::kUpdatePush) {
          handle_update(self, message);
          return;
        }
        const MachineLoad& load = load_.at(machine);
        if (service_time_ == 0) {
          load.served->inc();
          handle_request(self, message);
          return;
        }
        // Service-time model: one FIFO server per machine. The request
        // waits behind everything already queued, occupies the server for
        // service_time_ ticks, and replies at completion — so a hot
        // authority's latency grows with its queue and sharding the
        // namespace buys real throughput.
        Simulator& sim = transport_.simulator();
        SimTime& busy = busy_until_[machine];
        const SimTime begin = std::max(busy, sim.now());
        busy = begin + service_time_;
        load.served->inc();
        load.wait_ticks->inc(begin - sim.now());
        sim.schedule_in(busy - sim.now(),
                        [this, self, message = std::move(message)] {
                          handle_request(self, message);
                        });
      });
  return server;
}

void NameService::remove_server(MachineId machine) {
  auto it = servers_.find(machine);
  if (it == servers_.end()) return;
  transport_.clear_handler(it->second);
  // not_found only if the endpoint was removed behind the service's back;
  // the server's own state below is dropped either way.
  (void)net_.remove_endpoint(it->second);
  servers_.erase(it);
  // The departed server can honor no promise and answer no straggler:
  // its lease table and forwarding tombstones go with it. busy_until_ is
  // reset so a re-added server starts with an empty FIFO.
  leases_.erase(machine);
  forwarding_.erase(machine);
  busy_until_.erase(machine);
}

void NameService::set_service_time(SimDuration per_request) {
  service_time_ = per_request;
}

Result<EndpointId> NameService::server_on(MachineId machine) const {
  auto it = servers_.find(machine);
  if (it == servers_.end()) {
    return unreachable_error("no name server on machine");
  }
  return it->second;
}

void NameService::publish_update(EntityId ctx) {
  if (!graph_.is_context_object(ctx)) return;
  auto replicas = homes_.replicas_of(ctx);
  if (replicas.empty()) return;
  // Callback promises void first. Invalidations go out from *every*
  // machine holding promises on this context, not just the current
  // primary: after a delegation migrates the context to another shard,
  // the old authority still owes kInvalidate pushes for the leases it
  // granted — routing only through the new primary would strand them.
  // Collect holders first; delivery is scheduled, so no table mutates
  // under this iteration.
  std::vector<MachineId> holders;
  for (const auto& [machine, table] : leases_) {
    if (table.by_ctx.contains(ctx)) holders.push_back(machine);
  }
  for (MachineId machine : holders) push_invalidations(machine, ctx);
  if (replicas.size() < 2) return;
  auto primary = servers_.find(replicas.front());
  if (primary == servers_.end() || !net_.location_of(primary->second).is_ok()) {
    // The publish was owed but cannot go out; remember the debt so a
    // later anti-entropy round retries once the primary is back.
    ae_dirty_.insert(ctx);
    return;
  }
  auto primary_loc = net_.location_of(primary->second);
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  const auto bindings = graph_.context(ctx).bindings();
  Tracer& tracer = transport_.tracer();
  bool lagging = false;
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    // Epoch gate (the snapshot-storm fix): a secondary whose applied
    // epoch already matches the primary's has the current snapshot —
    // re-pushing it is pure waste, O(contexts × replicas × bindings) of
    // it under the old per-tick full sweep.
    auto applied = replica_epoch(replicas[i], ctx);
    if (applied && *applied >= epoch) {
      pushes_suppressed_->inc();
      continue;
    }
    lagging = true;
    auto secondary = servers_.find(replicas[i]);
    if (secondary == servers_.end()) continue;
    auto secondary_loc = net_.location_of(secondary->second);
    if (!secondary_loc.is_ok()) continue;
    // Full-snapshot push: [ctx, epoch, n, (name, target) × n]. Snapshots
    // rather than deltas keep the apply idempotent — any newer snapshot
    // supersedes the store wholesale, so loss and reordering can delay
    // convergence but never corrupt it.
    Message push;
    push.type = NsWire::kUpdatePush;
    push.payload.reserve(3 + 2 * bindings.size());
    push.payload.add_u64(ctx.value());
    push.payload.add_u64(epoch);
    push.payload.add_u64(bindings.size());
    for (const Binding& b : bindings) {
      push.payload.add_name(b.name.text());
      push.payload.add_u64(b.entity.value());
    }
    update_pushes_->inc();
    tracer.record(transport_.simulator().now(), EventKind::kUpdatePush, 0,
                  ctx.value(), epoch);
    (void)transport_.send(
        primary->second,
        relativize(secondary_loc.value(), primary_loc.value()),
        std::move(push));
  }
  // Dirty while any secondary lags (it may need a re-push: the snapshot
  // just sent rides the same lossy network as everything else); clean the
  // moment every secondary is current, so quiescent contexts cost
  // anti-entropy nothing.
  if (lagging) {
    ae_dirty_.insert(ctx);
  } else {
    ae_dirty_.erase(ctx);
  }
}

void NameService::start_anti_entropy(SimDuration interval) {
  NAMECOH_CHECK(interval > 0, "anti-entropy interval must be positive");
  anti_entropy_interval_ = interval;
  // One full sweep per (re)start seeds the dirty set with rebinds that
  // predate it (e.g. everything that happened before anti-entropy was
  // switched on); later rounds iterate only the dirty set.
  ae_sweep_pending_ = true;
  // Generation-stamp the scheduled round: bumping the generation orphans
  // any round already in the queue, so a restart re-times the next round
  // to the *new* interval now instead of after one more old-interval
  // round.
  const std::uint64_t gen = ++ae_gen_;
  transport_.simulator().schedule_in(interval,
                                     [this, gen] { anti_entropy_tick(gen); });
}

void NameService::stop_anti_entropy() {
  anti_entropy_interval_ = 0;
  ++ae_gen_;
}

void NameService::anti_entropy_tick(std::uint64_t gen) {
  if (gen != ae_gen_ || anti_entropy_interval_ == 0) return;  // stale round
  if (ae_sweep_pending_) {
    ae_sweep_pending_ = false;
    for (EntityId ctx : homes_.replicated_contexts()) publish_update(ctx);
  } else {
    // publish_update inserts into and erases from ae_dirty_; iterate a
    // copy so the round sees a stable set.
    const std::vector<EntityId> dirty(ae_dirty_.begin(), ae_dirty_.end());
    for (EntityId ctx : dirty) publish_update(ctx);
  }
  transport_.simulator().schedule_in(anti_entropy_interval_,
                                     [this, gen] { anti_entropy_tick(gen); });
}

void NameService::maybe_clean(EntityId ctx) {
  if (!ae_dirty_.contains(ctx)) return;
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  auto replicas = homes_.replicas_of(ctx);
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    auto applied = replica_epoch(replicas[i], ctx);
    if (!applied || *applied < epoch) return;
  }
  ae_dirty_.erase(ctx);
}

std::optional<std::uint64_t> NameService::replica_epoch(MachineId machine,
                                                        EntityId ctx) const {
  auto store = stores_.find(machine);
  if (store == stores_.end()) return std::nullopt;
  auto it = store->second.find(ctx);
  if (it == store->second.end()) return std::nullopt;
  return it->second.epoch;
}

bool NameService::note_duplicate(std::uint64_t corr) {
  if (!recent_corr_.insert(corr).second) return true;
  recent_corr_order_.push_back(corr);
  if (recent_corr_order_.size() > kDuplicateWindow) {
    recent_corr_.erase(recent_corr_order_.front());
    recent_corr_order_.pop_front();
  }
  return false;
}

void NameService::handle_update(EndpointId self, const Message& message) {
  const Payload& p = message.payload;
  if (p.size() < 3 || p.type_at(0) != FieldType::kU64 ||
      p.type_at(1) != FieldType::kU64 || p.type_at(2) != FieldType::kU64) {
    return;  // malformed
  }
  EntityId ctx(p.u64_at(0));
  const std::uint64_t epoch = p.u64_at(1);
  const std::uint64_t n = p.u64_at(2);
  if (n > (p.size() - 3) / 2 || p.size() != 3 + 2 * n) return;
  auto my_machine = net_.machine_of(self);
  if (!my_machine.is_ok()) return;
  // Only a secondary for this context applies pushes — or a migration
  // target with an open intake for it (the copy phase fills the store
  // *before* the cutover makes the machine authoritative;
  // docs/REBALANCING.md). Anything else — e.g. a push delayed across a
  // replica-set change — is a stray.
  const bool secondary = homes_.is_replica(ctx, my_machine.value()) &&
                         !homes_.is_primary(ctx, my_machine.value());
  if (!secondary) {
    auto open = intake_.find(my_machine.value());
    if (open == intake_.end() || !open->second.contains(ctx)) return;
  }
  Tracer& tracer = transport_.tracer();
  const SimTime now = transport_.simulator().now();
  auto& store = stores_[my_machine.value()];
  auto it = store.find(ctx);
  if (it != store.end() && epoch <= it->second.epoch) {
    // Apply-if-newer: re-deliveries and reordered pushes of an older
    // snapshot must never roll the store backwards.
    updates_stale_->inc();
    tracer.record(now, EventKind::kUpdateStale, 0, ctx.value(), epoch);
    return;
  }
  ReplicaState state;
  state.epoch = epoch;
  state.bindings.reserve(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    if (p.type_at(3 + 2 * j) != FieldType::kName ||
        p.type_at(4 + 2 * j) != FieldType::kU64) {
      return;  // malformed: apply nothing rather than half a snapshot
    }
    auto name = Name::make(p.name_at(3 + 2 * j));
    if (!name.is_ok()) return;
    state.bindings.push_back(
        Binding{name.value(), EntityId(p.u64_at(4 + 2 * j))});
  }
  store[ctx] = std::move(state);
  updates_applied_->inc();
  tracer.record(now, EventKind::kUpdateApply, 0, ctx.value(), epoch);
  // A secondary's lease state (if it ever granted any) is superseded by
  // the snapshot: the primary owns invalidation, so stale local promises
  // are dropped rather than pushed.
  drop_leases(my_machine.value(), ctx);
  // This apply may have been the last laggard; keep the dirty set tight.
  maybe_clean(ctx);
}

void NameService::handle_request(EndpointId self, const Message& message) {
  if (message.type != NsWire::kResolveRequest ||
      message.payload.size() < 3 ||
      message.payload.type_at(0) != FieldType::kU64 ||
      message.payload.type_at(1) != FieldType::kU64 ||
      message.payload.type_at(2) != FieldType::kName) {
    return;  // not ours / malformed
  }
  const std::uint64_t corr = message.payload.u64_at(0);
  EntityId ctx(message.payload.u64_at(1));
  const std::string& path = message.payload.name_at(2);
  // Optional request flags (protocol v4). A v3 request stops at field 2;
  // an unrecognised extra field is ignored, not rejected.
  std::uint64_t flags = 0;
  if (message.payload.size() > 3 &&
      message.payload.type_at(3) == FieldType::kU64) {
    flags = message.payload.u64_at(3);
  }

  Tracer& tracer = transport_.tracer();
  const SimTime now = transport_.simulator().now();

  // At-most-once accounting: a retransmission (same correlation id within
  // the window) is still answered — the original reply may have been lost —
  // but must not count as a second resolution in the stats.
  const bool duplicate = note_duplicate(corr);
  if (duplicate) {
    duplicates_->inc();
    tracer.record(now, EventKind::kServerDuplicate, corr, self.value());
  } else {
    requests_->inc();
  }
  tracer.record(now, EventKind::kServerHandle, corr, self.value(),
                ctx.value());
  auto count = [&](Counter* counter) {
    if (!duplicate) counter->inc();
  };

  auto my_machine = net_.machine_of(self);
  if (!my_machine.is_ok()) return;
  auto my_loc = net_.location_of(self);
  if (!my_loc.is_ok()) return;

  // Subtree load attribution (track_subtree_loads): charge the request to
  // the registered subtree its *start* context belongs to, before the walk
  // advances `ctx`.
  if (!duplicate && ctx.valid() && ctx.value() < subtree_slot_.size()) {
    const std::uint32_t slot = subtree_slot_[ctx.value()];
    if (slot != kNoSlot) subtree_hits_[slot]->inc();
  }

  // Reply layout (protocol v3): the fixed v2 prefix [corr, disposition,
  // entity, remaining, error, next-server pid, authority-ctx, epoch]
  // followed by the authority's replica list [n, (server pid, machine) × n]
  // so clients can fail over without out-of-band topology knowledge. All
  // pids are in *this server's* context; the transport rebases them into
  // the receiver's context in flight (R(sender)). `authority` is the
  // context whose bindings the reply depends on; the epoch stamped is the
  // graph's current rebind epoch, or — when a secondary answered from its
  // replica store — the *snapshot's* epoch, so staleness is visible.
  auto send_reply = [&](std::uint64_t disposition, EntityId entity,
                        std::string remaining, std::string error,
                        Pid next_server, EntityId authority,
                        std::optional<std::uint64_t> epoch_override =
                            std::nullopt) {
    const EventKind kind = disposition == NsWire::kAnswer
                               ? EventKind::kServerAnswer
                               : disposition == NsWire::kReferral
                                     ? EventKind::kServerReferral
                                     : EventKind::kServerError;
    tracer.record(transport_.simulator().now(), kind, corr, self.value(),
                  entity.valid() ? entity.value() : 0);
    const bool stamp =
        authority.valid() && graph_.is_context_object(authority);
    std::vector<std::pair<Pid, std::uint64_t>> tail;
    if (stamp) {
      for (MachineId m : homes_.replicas_of(authority)) {
        auto sit = servers_.find(m);
        if (sit == servers_.end()) continue;
        auto loc = net_.location_of(sit->second);
        if (!loc.is_ok()) continue;
        tail.emplace_back(relativize(loc.value(), my_loc.value()),
                          m.value());
      }
    }
    Message reply;
    reply.type = NsWire::kResolveReply;
    reply.trace_corr = corr;
    // Nine fixed fields, the replica tail, the lease pair and the glue
    // flag: one allocation for every reply but a glue-carrying referral.
    reply.payload.reserve(9 + 2 * tail.size() + 3);
    reply.payload.add_u64(corr);
    reply.payload.add_u64(disposition);
    reply.payload.add_u64(entity.valid() ? entity.value() : NsWire::kNoEntity);
    reply.payload.add_name(std::move(remaining));
    reply.payload.add_string(std::move(error));
    reply.payload.add_pid(next_server);
    reply.payload.add_u64(stamp ? authority.value() : NsWire::kNoEntity);
    reply.payload.add_u64(stamp ? (epoch_override
                                       ? *epoch_override
                                       : graph_.rebind_epoch(authority))
                                : 0);
    reply.payload.add_u64(tail.size());
    for (auto& [pid, machine] : tail) {
      reply.payload.add_pid(pid);
      reply.payload.add_u64(machine);
    }
    // Protocol v4 lease tail, appended only when the client asked for a
    // lease (a v3 client's replies stay byte-identical). Only the primary
    // grants — it is where invalidations originate, so a secondary's
    // promise could never be kept. Referrals carry no binding to promise
    // about; they (and non-grants) ship the [0, 0] sentinel.
    if ((flags & NsWire::kFlagLeaseRequested) != 0) {
      std::uint64_t lease_duration = 0;
      std::uint64_t lease_id = 0;
      if (stamp && disposition != NsWire::kReferral &&
          homes_.is_primary(authority, my_machine.value())) {
        const auto granted = grant_lease(
            my_machine.value(), authority, message.reply_to,
            epoch_override ? *epoch_override : graph_.rebind_epoch(authority),
            corr);
        lease_duration = granted.first;
        lease_id = granted.second;
      }
      reply.payload.add_u64(lease_duration);
      reply.payload.add_u64(lease_id);
    }
    // Protocol v5 glue tail (docs/SHARDING.md), appended only when the
    // client negotiated it: [g, (ctx, shard, r, (pid, machine) × r) × g].
    // A referral that crosses into a delegated shard carries the
    // delegate's replica set, so the client reaches the owning shard in
    // the next hop without a second round trip for topology.
    if ((flags & NsWire::kFlagShardGlue) != 0) {
      std::vector<std::pair<Pid, std::uint64_t>> glue_servers;
      ShardId glue_shard = AuthorityMap::kNoShard;
      if (disposition == NsWire::kReferral && stamp) {
        glue_shard = homes_.shard_of(authority);
        if (glue_shard != AuthorityMap::kNoShard) {
          for (MachineId m : homes_.shard_replicas(glue_shard)) {
            auto sit = servers_.find(m);
            if (sit == servers_.end()) continue;
            auto loc = net_.location_of(sit->second);
            if (!loc.is_ok()) continue;
            glue_servers.emplace_back(
                relativize(loc.value(), my_loc.value()), m.value());
          }
        }
      }
      const bool have_glue =
          glue_shard != AuthorityMap::kNoShard && !glue_servers.empty();
      reply.payload.add_u64(have_glue ? 1 : 0);
      if (have_glue) {
        reply.payload.add_u64(authority.value());
        reply.payload.add_u64(glue_shard);
        reply.payload.add_u64(glue_servers.size());
        for (auto& [pid, machine] : glue_servers) {
          reply.payload.add_pid(pid);
          reply.payload.add_u64(machine);
        }
      }
    }
    (void)transport_.send(self, message.reply_to, std::move(reply));
  };
  auto send_error = [&](std::string error, EntityId authority = {},
                        std::optional<std::uint64_t> epoch_override =
                            std::nullopt) {
    count(failures_);
    send_reply(NsWire::kError, {}, "", std::move(error), Pid::self(),
               authority, epoch_override);
  };

  std::optional<CompoundName> parsed;
  NameSlice components;
  if (!path.empty()) {
    // Decode = intern: the text entered this node here; from now on the
    // walk is all atom compares.
    auto result = message.payload.compound_at(2);
    if (!result.is_ok()) {
      send_error(result.status().to_string());
      return;
    }
    parsed = std::move(result).value();
    components = parsed->slice();
  }

  // Zero components resolve to the start entity itself (the identity
  // resolution). This case must answer explicitly: falling through the
  // walk loop without a reply would strand the client through every retry
  // and surface as a bogus "message lost" error.
  if (components.empty()) {
    if (!graph_.contains(ctx)) {
      send_error("unknown start entity in empty-path request");
      return;
    }
    count(answers_);
    send_reply(NsWire::kAnswer, ctx, "", "", Pid::self(), ctx);
    return;
  }

  // Refer the client to the primary for `ctx` at component `i`.
  auto refer_to_primary = [&](MachineId primary, std::size_t i) {
    auto next_server = server_on(primary);
    if (!next_server.is_ok()) {
      send_error("authoritative machine has no name server");
      return;
    }
    auto next_loc = net_.location_of(next_server.value());
    if (!next_loc.is_ok()) {
      send_error("authoritative server endpoint is dead");
      return;
    }
    count(referrals_);
    send_reply(NsWire::kReferral, ctx, components.subslice(i).joined(), "",
               relativize(next_loc.value(), my_loc.value()), ctx);
  };

  // Walk while the current context is replicated here; refer onward
  // otherwise. The primary serves straight from the naming graph; a
  // secondary serves from the last snapshot it applied (stamping the
  // snapshot's epoch), or refers to the primary if it never synced.
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (!graph_.is_context_object(ctx)) {
      send_error("NOT_A_CONTEXT at '" + components[i].text() + "'");
      return;
    }
    auto replicas = homes_.replicas_of(ctx);
    if (replicas.empty()) {
      send_error("context has no authoritative home");
      return;
    }
    if (!homes_.is_replica(ctx, my_machine.value())) {
      // Forwarding window (docs/REBALANCING.md): this server owned `ctx`
      // until a recent cutover. The referral below already points at the
      // new owner (the shared authority map was rewritten at cutover, and
      // v5 glue rides along) — the tombstone just makes the window
      // observable and bounded.
      auto held = forwarding_.find(my_machine.value());
      if (held != forwarding_.end()) {
        auto slot = held->second.find(ctx);
        if (slot != held->second.end()) {
          if (slot->second > now) {
            count(forwarded_);
            const ShardId owner = homes_.shard_of(ctx);
            tracer.record(transport_.simulator().now(), EventKind::kForwarded,
                          corr, ctx.value(),
                          owner == AuthorityMap::kNoShard ? 0 : owner);
          } else {
            held->second.erase(slot);  // lazy purge: the window closed
          }
        }
      }
      refer_to_primary(replicas.front(), i);
      return;
    }
    Result<EntityId> next = not_found_error("unresolved");
    std::optional<std::uint64_t> store_epoch;
    if (homes_.is_primary(ctx, my_machine.value())) {
      next = graph_.lookup(ctx, components[i]);
    } else {
      const ReplicaState* state = nullptr;
      auto sit = stores_.find(my_machine.value());
      if (sit != stores_.end()) {
        auto cit = sit->second.find(ctx);
        if (cit != sit->second.end()) state = &cit->second;
      }
      if (state == nullptr) {
        // Never synced: answering from nothing would turn "no snapshot
        // yet" into a spurious NOT_FOUND. Refer to the primary instead.
        refer_to_primary(replicas.front(), i);
        return;
      }
      store_epoch = state->epoch;
      next = not_found_error("NOT_FOUND: no binding for '" +
                             components[i].text() + "'");
      for (const Binding& b : state->bindings) {
        if (b.name == components[i]) {
          next = b.entity;
          break;
        }
      }
    }
    if (!next.is_ok()) {
      if (store_epoch) {
        count(store_answers_);
        tracer.record(transport_.simulator().now(), EventKind::kStoreAnswer,
                      corr, ctx.value(), *store_epoch);
      }
      // Stamp the context where the lookup failed so negative cache
      // entries are invalidated when it is rebound.
      send_error(next.status().to_string(), ctx, store_epoch);
      return;
    }
    if (i + 1 == components.size()) {
      count(answers_);
      if (store_epoch) {
        count(store_answers_);
        tracer.record(transport_.simulator().now(), EventKind::kStoreAnswer,
                      corr, ctx.value(), *store_epoch);
      }
      send_reply(NsWire::kAnswer, next.value(), "", "", Pid::self(), ctx,
                 store_epoch);
      return;
    }
    ctx = next.value();
  }
  // Defensive: every branch above replies. Never exit silently — silence
  // costs the client its full retry budget.
  send_error("internal: request fell through the resolution walk");
}

ResolverClient::ResolverClient(const NamingGraph& graph, Internetwork& net,
                               Transport& transport, Simulator& sim,
                               const NameService& service, MachineId machine,
                               std::string label,
                               ResolverClientConfig config)
    : graph_(graph),
      net_(net),
      transport_(transport),
      sim_(sim),
      service_(service),
      endpoint_(net.add_endpoint(machine, std::move(label))),
      config_(config),
      client_machine_(machine) {
  // Per-client counter names: several clients can share one transport (and
  // hence one registry), so the endpoint id keeps their metrics apart.
  MetricsRegistry& metrics = transport_.metrics();
  metrics_prefix_ = "ns.client." + std::to_string(endpoint_.value()) + ".";
  const std::string& prefix = metrics_prefix_;
  resolutions_ = &metrics.counter(prefix + "resolutions");
  messages_sent_ = &metrics.counter(prefix + "messages_sent");
  referrals_followed_ = &metrics.counter(prefix + "referrals_followed");
  cache_hits_ = &metrics.counter(prefix + "cache_hits");
  cache_misses_ = &metrics.counter(prefix + "cache_misses");
  failures_ = &metrics.counter(prefix + "failures");
  evictions_ = &metrics.counter(prefix + "evictions");
  negative_hits_ = &metrics.counter(prefix + "negative_hits");
  stale_epoch_drops_ = &metrics.counter(prefix + "stale_epoch_drops");
  timeouts_ = &metrics.counter(prefix + "timeouts");
  backoff_retries_ = &metrics.counter(prefix + "backoff_retries");
  stale_replies_dropped_ = &metrics.counter(prefix + "stale_replies_dropped");
  failovers_ = &metrics.counter(prefix + "failovers");
  coalesced_ = &metrics.counter(prefix + "coalesced");
  coalesce_rejected_ = &metrics.counter(prefix + "coalesce_rejected");
  invalidates_received_ = &metrics.counter(prefix + "invalidates_received");
  lease_renewals_ = &metrics.counter(prefix + "lease_renewals");
  lease_degrades_ = &metrics.counter(prefix + "lease_degrades");
  // Sharding counters are registry-wide ("ns.shard.*"), not per-client:
  // "how much referral traffic crossed shards" is a fabric question, and
  // thousands of bench clients sharing three counters beats thousands of
  // prefixed triples.
  delegations_chased_ = &metrics.counter("ns.shard.delegations_chased");
  glue_hits_ = &metrics.counter("ns.shard.glue_hits");
  cross_shard_hops_ = &metrics.counter("ns.shard.cross_shard_hops");
  route_reuses_ = &metrics.counter("ns.shard.route_reuses");
  // Membership counters are registry-wide too (docs/MEMBERSHIP.md).
  routes_healed_ = &metrics.counter("ns.member.routes_healed");
  dead_route_skips_ = &metrics.counter("ns.member.dead_route_skips");
  epochs_tracked_ = &metrics.gauge(prefix + "epochs_tracked");
  // Ticks from a hop's first send to its first reply, recorded only when
  // the hop failed over; buckets sized for timeout-dominated latencies.
  failover_latency_ = &metrics.histogram(
      prefix + "failover_latency",
      {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000});
  // Rebind → invalidate-processed windows; buckets sized for one-way
  // network latencies (the push transit time dominates when healthy).
  stale_window_ = &metrics.histogram(
      prefix + "stale_window",
      {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000});
  // Correlation ids are unique per client *and* per attempt: the endpoint
  // id seeds the high bits so two clients never share an id space (the
  // server's duplicate window is keyed by raw correlation id).
  next_corr_ = ((endpoint_.value() + 1) << 32) | 1;
  transport_.set_handler(endpoint_,
                         [this](EndpointId, const Message& message) {
                           if (message.type == NsWire::kInvalidate) {
                             handle_invalidate(message);
                           } else {
                             handle_reply(message);
                           }
                         });
}

ResolverClient::~ResolverClient() {
  transport_.clear_handler(endpoint_);
  (void)net_.remove_endpoint(endpoint_);
  // Settle anything still in flight: continuations scheduled on the
  // simulator capture `this` by id and must never fire after destruction,
  // and waiters holding a handle deserve an answer, not a hang.
  auto requests = std::move(requests_);
  requests_.clear();
  inflight_.clear();
  corr_to_request_.clear();
  for (auto& [id, record] : requests) {
    if (record->timeout_event.valid()) sim_.cancel(record->timeout_event);
    std::vector<Waiter> waiters = std::move(record->waiters);
    for (Waiter& waiter : waiters) {
      settle_waiter(waiter,
                    unreachable_error(
                        "resolver client destroyed with the resolution "
                        "in flight"));
    }
  }
}

StatsSnapshot ResolverClient::snapshot() const {
  return StatsSnapshot(transport_.metrics(), metrics_prefix_);
}

const ResolverClient::CacheEntry* ResolverClient::cache_lookup(
    const CacheKey& key, std::uint64_t span) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  CacheEntry& entry = it->second;
  // Expiry at the exact boundary counts: an entry stamped `expires == now`
  // has lived its full TTL.
  if (entry.expires <= sim_.now()) {
    lru_.erase(entry.lru);
    cache_.erase(it);
    return nullptr;
  }
  if (config_.epoch_invalidation && entry.authority.valid()) {
    auto seen = epochs_seen_.find(entry.authority);
    if (seen != epochs_seen_.end() && seen->second.epoch > entry.epoch) {
      stale_epoch_drops_->inc();
      transport_.tracer().record_in_span(span, sim_.now(),
                                         EventKind::kStaleEpochDrop,
                                         entry.authority.value(), entry.epoch);
      lru_.erase(entry.lru);
      cache_.erase(it);
      return nullptr;
    }
  }
  if (entry.lease_id != 0 && entry.lease_expires <= sim_.now()) {
    // The promise lapsed unrenewed (authority unreachable, or the renewal
    // lost): degrade to riding out the plain TTL — the pre-lease bound —
    // rather than trusting a promise nobody is keeping anymore.
    lease_degrades_->inc();
    transport_.tracer().record_in_span(span, sim_.now(),
                                       EventKind::kLeaseDegrade,
                                       key.start.value(),
                                       entry.authority.valid()
                                           ? entry.authority.value()
                                           : 0);
    entry.lease_id = 0;
    entry.lease_expires = 0;
  }
  lru_.splice(lru_.begin(), lru_, entry.lru);  // touch
  return &entry;
}

void ResolverClient::cache_insert(const CacheKey& key, CacheEntry entry) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    entry.lru = it->second.lru;
    lru_.splice(lru_.begin(), lru_, entry.lru);
    it->second = std::move(entry);
    return;
  }
  lru_.push_front(key);
  entry.lru = lru_.begin();
  cache_.emplace(key, std::move(entry));
  if (config_.cache_capacity > 0 && cache_.size() > config_.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    evictions_->inc();
  }
}

void ResolverClient::note_epoch(EntityId authority, std::uint64_t epoch) {
  if (!authority.valid()) return;
  auto it = epochs_seen_.find(authority);
  if (it != epochs_seen_.end()) {
    if (it->second.epoch < epoch) it->second.epoch = epoch;
    epoch_lru_.splice(epoch_lru_.begin(), epoch_lru_, it->second.lru);
    return;
  }
  epoch_lru_.push_front(authority);
  epochs_seen_.emplace(authority, EpochRecord{epoch, epoch_lru_.begin()});
  if (config_.epoch_table_capacity > 0 &&
      epochs_seen_.size() > config_.epoch_table_capacity) {
    // Forget the least recently touched authority. Safe in the failure
    // direction: a forgotten high-water mark only means its entries live
    // out their TTL instead of dying early.
    epochs_seen_.erase(epoch_lru_.back());
    epoch_lru_.pop_back();
  }
  epochs_tracked_->set(static_cast<double>(epochs_seen_.size()));
}

bool ResolverClient::is_suspect(MachineId machine) const {
  if (!machine.valid()) return false;
  auto it = suspect_until_.find(machine);
  return it != suspect_until_.end() && it->second > sim_.now();
}

std::uint64_t ResolverClient::member_incarnation(MachineId machine) const {
  return membership_ == nullptr ? 0 : membership_->incarnation(machine);
}

std::vector<ResolverClient::ReplicaRef> ResolverClient::candidates_for(
    EntityId ctx, const ReplicaRef& via) const {
  auto my_loc = net_.location_of(endpoint_);
  if (!my_loc.is_ok()) return {via};
  std::vector<ReplicaRef> authoritative;
  for (MachineId m : service_.authorities().replicas_of(ctx)) {
    if (via.machine.valid() && m == via.machine) continue;
    auto server = service_.server_on(m);
    if (!server.is_ok()) continue;
    auto loc = net_.location_of(server.value());
    if (!loc.is_ok()) continue;
    authoritative.push_back(ReplicaRef{relativize(loc.value(), my_loc.value()),
                                       m, member_incarnation(m)});
  }
  if (config_.shard_routing && !authoritative.empty() &&
      !service_.authorities().is_replica(ctx, via.machine)) {
    // Shard-aware first hop: go straight to the owning shard's servers
    // and keep the non-authoritative local server only as a last resort —
    // funnelling every lookup through one front door is exactly the
    // bottleneck sharding exists to remove.
    authoritative.push_back(via);
    return authoritative;
  }
  std::vector<ReplicaRef> out{via};
  out.insert(out.end(), authoritative.begin(), authoritative.end());
  return out;
}

void ResolverClient::purge_routes(MachineId machine) {
  for (auto it = shard_routes_.begin(); it != shard_routes_.end();) {
    auto& route = it->second;
    route.erase(std::remove_if(route.begin(), route.end(),
                               [machine](const ReplicaRef& ref) {
                                 return ref.machine == machine;
                               }),
                route.end());
    // An emptied route is forgotten outright, so later lookups fall back
    // to the authority map instead of a dead shortcut.
    it = route.empty() ? shard_routes_.erase(it) : std::next(it);
  }
}

void ResolverClient::refresh_routes(MachineId machine, const Pid& pid,
                                    std::uint64_t incarnation) {
  for (auto& [shard, route] : shard_routes_) {
    for (ReplicaRef& ref : route) {
      if (ref.machine == machine) {
        ref.pid = pid;
        ref.incarnation = incarnation;
      }
    }
  }
}

void ResolverClient::reroute_hop(PendingResolve& p) {
  auto local_server = service_.server_on(client_machine_);
  auto my_loc = net_.location_of(endpoint_);
  if (!local_server.is_ok() || !my_loc.is_ok()) {
    complete(p, unreachable_error("no local server to reroute through"));
    return;
  }
  auto server_loc = net_.location_of(local_server.value());
  if (!server_loc.is_ok()) {
    complete(p, unreachable_error("local server endpoint is dead"));
    return;
  }
  p.candidates = candidates_for(
      p.current, ReplicaRef{relativize(server_loc.value(), my_loc.value()),
                            client_machine_,
                            member_incarnation(client_machine_)});
  start_hop(p);
}

bool ResolverClient::heal_target(PendingResolve& p) {
  if (membership_ == nullptr) return false;
  ReplicaRef& target = p.candidates[p.order[p.candidate]];
  auto my_loc = net_.location_of(endpoint_);
  if (!my_loc.is_ok()) return false;
  if (!target.machine.valid()) {
    // A machine-less route (a v2 referral target): the pid may be the old
    // address of a renamed machine — consult the rename tombstones while
    // their window is open.
    auto addressed = qualify(target.pid, my_loc.value());
    if (addressed.is_ok()) {
      if (auto renamed = membership_->renamed_machine_at(addressed.value())) {
        target.machine = *renamed;  // falls through to the rename check
      }
    }
  }
  if (!target.machine.valid()) return false;
  const MemberState state = membership_->state(target.machine);
  if (state == MemberState::kDown) {
    // The machine left the fabric: skip it without burning the timeout
    // budget, forget routes through it, and give the hop one restart
    // with candidates re-derived from the (post-handoff) authority map.
    purge_routes(target.machine);
    dead_route_skips_->inc();
    if (!p.rerouted) {
      p.rerouted = true;
      reroute_hop(p);
      return true;
    }
    fail_candidate(p, unreachable_error("routed machine left the fabric"));
    return true;
  }
  if (state == MemberState::kUnknown) return false;
  const std::uint64_t current = membership_->incarnation(target.machine);
  if (current == target.incarnation) return false;
  // The machine renamed (or rejoined) since this route was minted: every
  // address in the route predates the event. Re-derive the pid from the
  // machine's *current* server address before wasting a send on it.
  auto server = service_.server_on(target.machine);
  if (server.is_ok()) {
    if (auto loc = net_.location_of(server.value()); loc.is_ok()) {
      Pid fresh = relativize(loc.value(), my_loc.value());
      if (fresh != target.pid) {
        target.pid = fresh;
        routes_healed_->inc();
        transport_.tracer().record_in_span(p.owner_span, sim_.now(),
                                           EventKind::kRouteHealed,
                                           target.machine.value(), current);
        refresh_routes(target.machine, fresh, current);
      }
    }
  }
  target.incarnation = current;
  return false;
}

void ResolverClient::settle_waiter(Waiter& waiter,
                                   const Result<EntityId>& result) {
  if (!result.is_ok()) failures_->inc();
  if (waiter.state->span != 0) {
    transport_.tracer().close_span(waiter.state->span, sim_.now(),
                                   result.is_ok());
  }
  waiter.state->result = result;
  waiter.state->done = true;
  if (waiter.callback) waiter.callback(waiter.state->result);
}

void ResolverClient::complete(PendingResolve& p,
                              const Result<EntityId>& result) {
  if (p.timeout_event.valid()) {
    sim_.cancel(p.timeout_event);
    p.timeout_event = EventId();
  }
  if (p.expected_corr != 0) {
    corr_to_request_.erase(p.expected_corr);
    p.expected_corr = 0;
  }
  if (auto in = inflight_.find(p.key); in != inflight_.end()) {
    auto& live = in->second;
    live.erase(std::remove(live.begin(), live.end(), &p), live.end());
    if (live.empty()) inflight_.erase(in);
  }
  if (p.refresh && !result.is_ok()) {
    // A failed background renewal: stop pretending the promise holds.
    // The entry keeps serving until its plain TTL runs out (the lease-off
    // bound), and clearing the lease state stops a renewal storm against
    // an unreachable authority.
    auto cit = cache_.find(p.key);
    if (cit != cache_.end() && cit->second.lease_id != 0) {
      lease_degrades_->inc();
      transport_.tracer().record(sim_.now(), EventKind::kLeaseDegrade, 0,
                                 p.key.start.value(),
                                 cit->second.authority.valid()
                                     ? cit->second.authority.value()
                                     : 0);
      cit->second.lease_id = 0;
      cit->second.lease_expires = 0;
    }
  }
  // Extract before settling: the record must outlive this call (we are
  // running inside one of its continuations), and a callback is free to
  // submit new resolutions — including one with this very key — without
  // colliding with a half-dead entry.
  auto node = requests_.extract(p.id);
  std::vector<Waiter> waiters = std::move(p.waiters);
  for (Waiter& waiter : waiters) settle_waiter(waiter, result);
}

void ResolverClient::start_hop(PendingResolve& p) {
  // Preference order: live replicas first (stable within each class), then
  // quarantined ones as a last resort — a suspect replica is still better
  // than failing the hop outright.
  p.order.clear();
  p.order.reserve(p.candidates.size());
  for (std::size_t i = 0; i < p.candidates.size(); ++i) {
    if (!is_suspect(p.candidates[i].machine)) p.order.push_back(i);
  }
  for (std::size_t i = 0; i < p.candidates.size(); ++i) {
    if (is_suspect(p.candidates[i].machine)) p.order.push_back(i);
  }
  p.candidate = 0;
  p.hop_begin = sim_.now();
  p.failed_over = false;
  if (p.order.empty()) {
    // Built only here: every hop that has a candidate overwrites
    // last_error (fail_candidate) before anything reads it.
    p.last_error = unreachable_error("no reachable replica for this hop");
    complete(p, p.last_error);
    return;
  }
  begin_candidate(p);
}

void ResolverClient::begin_candidate(PendingResolve& p) {
  // Each candidate starts from the base timeout again.
  p.attempt = 0;
  p.timeout = std::max<SimDuration>(1, config_.retry.request_timeout);
  send_attempt(p);
}

void ResolverClient::send_attempt(PendingResolve& p) {
  // Membership-aware rerouting: heal or skip a stale target first. A
  // `true` return means the healing path took over (hop restarted,
  // failed over, or completed) — `p` may even be dead.
  if (heal_target(p)) return;
  Tracer& tracer = transport_.tracer();
  const ReplicaRef& target = p.candidates[p.order[p.candidate]];
  Message request;
  request.type = NsWire::kResolveRequest;
  p.expected_corr = next_corr_++;
  // Each attempt gets a fresh correlation id; bind it to the owning span
  // before the request leaves so the transport's send/drop/deliver events
  // — and the server's handling of this very id — attach to this
  // resolution.
  tracer.bind_corr(p.owner_span, p.expected_corr);
  request.trace_corr = p.expected_corr;
  if (p.attempt > 0) {
    backoff_retries_->inc();
    tracer.record_in_span(p.owner_span, sim_.now(), EventKind::kBackoffRetry,
                          p.attempt, p.timeout);
  }
  request.payload.reserve(4);
  request.payload.add_u64(p.expected_corr);
  request.payload.add_u64(p.current.value());
  request.payload.add_name(p.hop_text);
  // Protocol v4/v5 flags field, only when some extension is on — a
  // plain client's requests stay byte-identical to v3.
  std::uint64_t flags = 0;
  if (config_.lease_coherence) flags |= NsWire::kFlagLeaseRequested;
  if (config_.shard_routing) flags |= NsWire::kFlagShardGlue;
  if (flags != 0) request.payload.add_u64(flags);
  corr_to_request_[p.expected_corr] = p.id;
  messages_sent_->inc();
  Status sent = transport_.send(endpoint_, target.pid, std::move(request));
  if (!sent.is_ok()) {
    // Hard failure (dead sender, unresolvable address): no point retrying
    // this candidate at all.
    corr_to_request_.erase(p.expected_corr);
    p.expected_corr = 0;
    fail_candidate(p, std::move(sent));
    return;
  }
  const std::uint64_t id = p.id;
  p.timeout_deferred = false;
  p.timeout_event =
      sim_.schedule_in(p.timeout, [this, id] { on_timeout(id); });
}

void ResolverClient::on_timeout(std::uint64_t id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return;  // settled at this very tick
  PendingResolve& p = *it->second;
  // Deadline ties go to the reply: the blocking resolver drained every
  // event with timestamp <= deadline before declaring the attempt lost, so
  // a reply landing exactly at the deadline won. Reproduce that by
  // deferring once behind everything already queued at this tick — if one
  // of those events is our reply, it cancels the deferred timeout. Once
  // only: two requests expiring on the same tick would otherwise defer
  // behind each other forever, and a reply can never be *generated* at the
  // tick it is sent (the transport's minimum latency is positive).
  auto next = sim_.next_event_time();
  if (!p.timeout_deferred && next && *next == sim_.now()) {
    p.timeout_deferred = true;
    p.timeout_event = sim_.schedule_in(0, [this, id] { on_timeout(id); });
    return;
  }
  p.timeout_event = EventId();
  corr_to_request_.erase(p.expected_corr);
  timeouts_->inc();
  transport_.tracer().record_in_span(p.owner_span, sim_.now(),
                                     EventKind::kTimeout, p.expected_corr,
                                     p.timeout);
  p.expected_corr = 0;
  if (p.attempt < config_.retry.retries) {
    // Silence: the request or the reply was lost (or is slower than the
    // timeout). Back off and resend.
    auto scaled = static_cast<SimDuration>(
        static_cast<double>(p.timeout) *
        std::max(1.0, config_.retry.backoff_multiplier));
    p.timeout = config_.retry.max_timeout > 0 ? std::min(scaled, config_.retry.max_timeout)
                                        : scaled;
    ++p.attempt;
    send_attempt(p);
    return;
  }
  fail_candidate(p, unreachable_error(
                        "no reply from name server after " +
                        std::to_string(config_.retry.retries + 1) +
                        " attempt(s) (message lost or too slow)"));
}

void ResolverClient::fail_candidate(PendingResolve& p, Status error) {
  const ReplicaRef& prev = p.candidates[p.order[p.candidate]];
  if (prev.machine.valid()) {
    suspect_until_[prev.machine] = sim_.now() + config_.replica_quarantine;
  }
  p.last_error = std::move(error);
  if (p.candidate + 1 < p.order.size()) {
    // The candidate exhausted its whole backoff budget: fail over.
    ++p.candidate;
    p.failed_over = true;
    failovers_->inc();
    const ReplicaRef& next = p.candidates[p.order[p.candidate]];
    transport_.tracer().record_in_span(
        p.owner_span, sim_.now(), EventKind::kFailover,
        prev.machine.valid() ? prev.machine.value() : 0,
        next.machine.valid() ? next.machine.value() : 0);
    begin_candidate(p);
    return;
  }
  complete(p, p.last_error);
}

void ResolverClient::handle_reply(const Message& message) {
  const Payload& payload = message.payload;
  if (message.type != NsWire::kResolveReply || payload.size() < 8 ||
      payload.type_at(0) != FieldType::kU64 ||
      payload.type_at(1) != FieldType::kU64 ||
      payload.type_at(2) != FieldType::kU64 ||
      payload.type_at(3) != FieldType::kName ||
      payload.type_at(4) != FieldType::kString ||
      payload.type_at(5) != FieldType::kPid ||
      payload.type_at(6) != FieldType::kU64 ||
      payload.type_at(7) != FieldType::kU64) {
    return;
  }
  const std::uint64_t corr = payload.u64_at(0);
  auto route = corr_to_request_.find(corr);
  if (route == corr_to_request_.end()) {
    // A delayed duplicate from an earlier attempt or referral hop (or a
    // reply when nothing is outstanding). Accepting it would resolve the
    // wrong question — possibly someone else's.
    stale_replies_dropped_->inc();
    transport_.tracer().record(sim_.now(), EventKind::kStaleReplyDropped,
                               corr, endpoint_.value());
    return;
  }
  auto it = requests_.find(route->second);
  NAMECOH_CHECK(it != requests_.end(),
                "correlation id routed to a settled request");
  PendingResolve& p = *it->second;
  corr_to_request_.erase(route);
  p.expected_corr = 0;
  if (p.timeout_event.valid()) {
    sim_.cancel(p.timeout_event);
    p.timeout_event = EventId();
  }
  Reply reply;
  reply.disposition = payload.u64_at(1);
  std::uint64_t raw = payload.u64_at(2);
  reply.entity =
      raw == NsWire::kNoEntity ? EntityId::invalid() : EntityId(raw);
  reply.remaining = payload.name_at(3);
  reply.error = payload.string_at(4);
  reply.next_server = payload.pid_at(5);
  std::uint64_t auth = payload.u64_at(6);
  reply.authority =
      auth == NsWire::kNoEntity ? EntityId::invalid() : EntityId(auth);
  reply.epoch = payload.u64_at(7);
  // Protocol v3/v4/v5 tails: replica set, lease pair, glue records — in
  // that order, each present only as negotiated. A v2 peer stops at field
  // 8; a malformed tail is ignored wholesale rather than trusted.
  const ReplyTail tail = parse_reply_tail(payload, 8, config_.lease_coherence,
                                          config_.shard_routing);
  if (tail.valid) {
    reply.replicas.reserve(tail.replicas.size());
    for (const ReplyTail::Server& server : tail.replicas) {
      const MachineId machine = server.machine == NsWire::kNoMachine
                                    ? MachineId::invalid()
                                    : MachineId(server.machine);
      reply.replicas.push_back(
          ReplicaRef{server.pid, machine, member_incarnation(machine)});
    }
    reply.lease_duration = tail.lease_duration;
    reply.lease_id = tail.lease_id;
    reply.glue = tail.glue;
  }
  on_reply(p, reply);
}

void ResolverClient::handle_invalidate(const Message& message) {
  const Payload& payload = message.payload;
  if (payload.size() != 4 || payload.type_at(0) != FieldType::kU64 ||
      payload.type_at(1) != FieldType::kU64 ||
      payload.type_at(2) != FieldType::kU64 ||
      payload.type_at(3) != FieldType::kU64) {
    return;  // malformed
  }
  const std::uint64_t lease_id = payload.u64_at(0);
  EntityId ctx(payload.u64_at(1));
  const std::uint64_t epoch = payload.u64_at(2);
  const SimTime rebound_at = payload.u64_at(3);
  invalidates_received_->inc();
  transport_.tracer().record(sim_.now(), EventKind::kInvalidate, 0,
                             ctx.value(), epoch);
  // The push is an authoritative epoch announcement: raise the high-water
  // mark (covers entries the lease didn't name) and drop everything the
  // rebind superseded *now* — the whole point of the callback is closing
  // the window without waiting for the next lookup.
  note_epoch(ctx, epoch);
  for (auto it = cache_.begin(); it != cache_.end();) {
    CacheEntry& entry = it->second;
    if (entry.authority == ctx && entry.epoch < epoch) {
      stale_epoch_drops_->inc();
      lru_.erase(entry.lru);
      it = cache_.erase(it);
      continue;
    }
    // A concurrent refresh may already have cached the post-rebind answer
    // under a *new* lease; only the voided lease's state is cleared.
    if (entry.lease_id == lease_id) {
      entry.lease_id = 0;
      entry.lease_expires = 0;
    }
    ++it;
  }
  // Staleness window this push closed: rebind → the client acting on it.
  // Recorded per push (whether or not entries were still cached) — it is
  // the lease-mode analogue of "how long could I have served stale".
  if (rebound_at <= sim_.now()) {
    stale_window_->add(static_cast<double>(sim_.now() - rebound_at));
  }
}

void ResolverClient::on_reply(PendingResolve& p, const Reply& reply) {
  Tracer& tracer = transport_.tracer();
  const ReplicaRef& target = p.candidates[p.order[p.candidate]];
  if (target.machine.valid()) suspect_until_.erase(target.machine);
  if (p.failed_over) {
    failover_latency_->add(static_cast<double>(sim_.now() - p.hop_begin));
  }
  // Every reply carries the authoritative context's rebind epoch; track
  // the high-water mark so superseded cache entries die on next lookup.
  note_epoch(reply.authority, reply.epoch);
  ++p.hops_done;
  switch (reply.disposition) {
    case NsWire::kAnswer:
      if (config_.cache_ttl > 0) {
        CacheEntry entry{reply.entity, sim_.now() + config_.cache_ttl,
                         reply.authority, reply.epoch,
                         /*negative=*/false, ""};
        if (reply.lease_id != 0) {
          entry.lease_id = reply.lease_id;
          entry.lease_duration = reply.lease_duration;
          entry.lease_expires = sim_.now() + reply.lease_duration;
        }
        cache_insert(p.key, std::move(entry));
      }
      complete(p, reply.entity);
      return;
    case NsWire::kError:
      if (config_.negative_cache_ttl > 0) {
        CacheEntry entry{EntityId::invalid(),
                         sim_.now() + config_.negative_cache_ttl,
                         reply.authority, reply.epoch,
                         /*negative=*/true, reply.error};
        if (reply.lease_id != 0) {
          entry.lease_id = reply.lease_id;
          entry.lease_duration = reply.lease_duration;
          entry.lease_expires = sim_.now() + reply.lease_duration;
        }
        cache_insert(p.key, std::move(entry));
      }
      complete(p, not_found_error(reply.error));
      return;
    case NsWire::kReferral: {
      auto suffix = referral_suffix(p.remaining, reply.remaining);
      if (!suffix) {
        // The server handed back a remaining path that is not a suffix of
        // what we asked it to resolve. Forwarding it would resolve a name
        // the caller never named; fail instead.
        complete(p, internal_error("referral remaining path '" +
                                   reply.remaining +
                                   "' is not a suffix of the request"));
        return;
      }
      referrals_followed_->inc();
      tracer.record_in_span(p.owner_span, sim_.now(),
                            EventKind::kReferralFollowed,
                            reply.entity.valid() ? reply.entity.value() : 0);
      // Glue records (protocol v5): learn every delegation boundary and
      // delegate replica set the server volunteered — the chase's next
      // hop, and every later lookup into the same shard, starts with the
      // owning shard's servers instead of a blind referral target.
      if (!reply.glue.empty()) {
        delegations_chased_->inc();
        for (const ReplyTail::Glue& glue : reply.glue) {
          tracer.record_in_span(p.owner_span, sim_.now(),
                                EventKind::kDelegationChase, glue.ctx,
                                glue.shard);
          if (glue.ctx != NsWire::kNoEntity) {
            ctx_shards_[EntityId(glue.ctx)] = glue.shard;
          }
          if (glue.shard == NsWire::kNoShard || glue.servers.empty()) {
            continue;
          }
          auto& route = shard_routes_[glue.shard];
          route.clear();
          for (const ReplyTail::Server& server : glue.servers) {
            const MachineId m = server.machine == NsWire::kNoMachine
                                    ? MachineId::invalid()
                                    : MachineId(server.machine);
            route.push_back(
                ReplicaRef{server.pid, m, member_incarnation(m)});
          }
        }
      }
      p.current = reply.entity;
      p.remaining = *suffix;
      p.hop_text = p.remaining.joined();
      // The next hop's candidates: a glue-learned shard route when the
      // referred context's owning shard is known, else the referred-to
      // context's replica set from the reply tail (pids already rebased
      // by the transport); a v2 peer sends no tail, leaving the single
      // referral target.
      std::uint64_t next_shard = NsWire::kNoShard;
      if (config_.shard_routing && reply.entity.valid()) {
        auto owned = ctx_shards_.find(reply.entity);
        if (owned != ctx_shards_.end()) next_shard = owned->second;
      }
      bool routed_by_glue = false;
      if (next_shard != NsWire::kNoShard) {
        auto route = shard_routes_.find(next_shard);
        if (route != shard_routes_.end() && !route->second.empty()) {
          p.candidates = route->second;
          routed_by_glue = true;
          glue_hits_->inc();
        }
      }
      if (!routed_by_glue) {
        if (!reply.replicas.empty()) {
          p.candidates.assign(reply.replicas.begin(), reply.replicas.end());
        } else {
          p.candidates.assign(
              1, ReplicaRef{reply.next_server, MachineId::invalid()});
        }
      }
      if (config_.shard_routing) {
        if (next_shard != NsWire::kNoShard &&
            p.hop_shard != NsWire::kNoShard && next_shard != p.hop_shard) {
          cross_shard_hops_->inc();
          tracer.record_in_span(p.owner_span, sim_.now(),
                                EventKind::kCrossShardHop, p.hop_shard,
                                next_shard);
        }
        p.hop_shard = next_shard;
      }
      // The limit-breaking referral is still counted above — the chase
      // just stops here instead of sending another hop. The limit is the
      // *request's* (part of the coalescing identity), not the config's.
      if (p.hops_done == p.max_referrals + 1) {
        complete(p, depth_exceeded_error("referral chase exceeded limit"));
        return;
      }
      p.rerouted = false;  // each hop gets one membership-driven reroute
      start_hop(p);
      return;
    }
    default:
      complete(p, internal_error("unknown reply disposition"));
      return;
  }
}

ResolveHandle ResolverClient::resolve_async(EntityId start,
                                            const CompoundName& name) {
  return resolve_async_impl(start, name, config_.resolve, {});
}

ResolveHandle ResolverClient::resolve_async(EntityId start,
                                            const CompoundName& name,
                                            ResolveCallback on_done) {
  return resolve_async_impl(start, name, config_.resolve,
                            std::move(on_done));
}

ResolveHandle ResolverClient::resolve_async(EntityId start,
                                            const CompoundName& name,
                                            const ResolveOptions& options,
                                            ResolveCallback on_done) {
  return resolve_async_impl(start, name, options, std::move(on_done));
}

ResolverClient::PendingResolve* ResolverClient::launch_exchange(
    CacheKey key, std::size_t max_referrals, bool refresh, Status* error) {
  // First hop: this machine's own server (DNS-style "local recursive"),
  // then — should it stay silent — the rest of the start context's replica
  // set, straight from the authority map (the client's bootstrap
  // knowledge; later hops learn their candidates from reply replica
  // lists).
  auto local_server = service_.server_on(client_machine_);
  if (!local_server.is_ok()) {
    *error = local_server.status();
    return nullptr;
  }
  auto my_loc = net_.location_of(endpoint_);
  auto server_loc = net_.location_of(local_server.value());
  if (!my_loc.is_ok() || !server_loc.is_ok()) {
    *error = unreachable_error("client or server endpoint is dead");
    return nullptr;
  }
  const EntityId start = key.start;
  const std::uint64_t id = next_request_id_++;
  auto record = std::make_unique<PendingResolve>(id, std::move(key));
  record->max_referrals = max_referrals;
  record->refresh = refresh;
  record->current = start;
  // The unresolved tail is a slice of the *record's own* copy of the name
  // (taken only after the key settles into its heap-pinned home); each
  // referral narrows it in place, so no per-hop name copies are made.
  record->remaining = record->key.name.slice();
  record->hop_text = record->key.name.to_path();
  record->candidates = candidates_for(
      start, ReplicaRef{relativize(server_loc.value(), my_loc.value()),
                        client_machine_,
                        member_incarnation(client_machine_)});
  if (config_.shard_routing) {
    const ShardId shard = service_.authorities().shard_of(start);
    record->hop_shard = shard == AuthorityMap::kNoShard
                            ? NsWire::kNoShard
                            : static_cast<std::uint64_t>(shard);
    // Glue-learned routes outrank the bootstrap map on the first hop, the
    // same trust order the referral chase uses: what the fabric *told*
    // this client about the start context's owner wins, even if the
    // authority map has since moved on (that is what makes a post-cutover
    // stale route land on the old owner and exercise its forwarding
    // window instead of silently teleporting — docs/REBALANCING.md).
    auto owned = ctx_shards_.find(start);
    if (owned != ctx_shards_.end()) {
      record->hop_shard = owned->second;
      auto route = shard_routes_.find(owned->second);
      if (route != shard_routes_.end() && !route->second.empty()) {
        record->candidates = route->second;
        route_reuses_->inc();
      }
    }
  }
  PendingResolve& p = *record;
  requests_.emplace(id, std::move(record));
  inflight_[p.key].push_back(&p);
  return &p;
}

void ResolverClient::maybe_renew(const CacheKey& key,
                                 const CacheEntry& entry) {
  if (entry.lease_id == 0) return;
  const SimDuration margin = config_.lease_renew_margin != 0
                                 ? config_.lease_renew_margin
                                 : entry.lease_duration / 4;
  if (entry.lease_expires > sim_.now() &&
      entry.lease_expires - sim_.now() > margin) {
    return;  // plenty of term left
  }
  // An exchange for this key is already on the wire (a real lookup or an
  // earlier refresh); its answer will re-lease the entry.
  if (inflight_.contains(key)) return;
  lease_renewals_->inc();
  Status error = internal_error("unset");
  PendingResolve* p = launch_exchange(key, config_.resolve.max_referrals,
                                      /*refresh=*/true, &error);
  if (p == nullptr) return;  // can't renew now; degrade on lapse instead
  start_hop(*p);
}

ResolveHandle ResolverClient::resolve_async_impl(EntityId start,
                                                 const CompoundName& name,
                                                 const ResolveOptions& options,
                                                 ResolveCallback callback) {
  Tracer& tracer = transport_.tracer();
  auto state = std::make_shared<ResolveHandle::State>();
  // The span (and the path string it labels) exists only when tracing is
  // on; the disabled path costs one branch. Every waiter gets its own
  // span, coalesced or not — "what did this caller ask and get" stays
  // answerable per caller.
  if (tracer.enabled()) {
    state->span = tracer.open_span(sim_.now(), start.value(), name.to_path());
  }
  ResolveHandle handle(state);
  Waiter waiter{std::move(state), std::move(callback)};
  resolutions_->inc();
  if (name.front().is_root()) {
    settle_waiter(waiter,
                  invalid_argument_error(
                      "remote resolution takes names relative to a context "
                      "object; resolve the root binding locally first"));
    return handle;
  }

  CacheKey key{start, name};
  const bool use_cache =
      config_.cache_ttl > 0 || config_.negative_cache_ttl > 0;
  if (use_cache) {
    if (const CacheEntry* hit = cache_lookup(key, waiter.state->span)) {
      // Copy out of the cache before settling: the callback may resolve
      // again and rearrange the entry under the pointer.
      const CacheEntry served = *hit;
      if (served.negative) {
        negative_hits_->inc();
        tracer.record_in_span(waiter.state->span, sim_.now(),
                              EventKind::kNegativeHit, start.value());
        settle_waiter(waiter, not_found_error(served.error));
      } else {
        cache_hits_->inc();
        tracer.record_in_span(waiter.state->span, sim_.now(),
                              EventKind::kCacheHit, start.value(),
                              served.entity.value());
        settle_waiter(waiter, Result<EntityId>(served.entity));
      }
      // Re-use renews: a hit on a leased entry whose term is nearly out
      // kicks off a background refresh, after the waiter settles.
      if (config_.lease_coherence) maybe_renew(key, served);
      return handle;
    }
    cache_misses_->inc();
    tracer.record_in_span(waiter.state->span, sim_.now(),
                          EventKind::kCacheMiss, start.value());
  }

  // Coalescing: a lookup identical to one already on the wire attaches to
  // that exchange instead of duplicating it — but only when the options
  // that shape the wire outcome agree. A waiter with a different referral
  // budget attached to the owner's exchange could receive an answer its
  // own limit forbids (or a spurious limit error), so it runs its own
  // exchange instead ("coalesce_rejected"). The waiter keeps its own span
  // and callback; only the wire work is shared.
  if (auto in = inflight_.find(key); in != inflight_.end()) {
    PendingResolve* compatible = nullptr;
    for (PendingResolve* live : in->second) {
      if (live->max_referrals == options.max_referrals) {
        compatible = live;
        break;
      }
    }
    if (compatible != nullptr) {
      coalesced_->inc();
      tracer.record_in_span(waiter.state->span, sim_.now(),
                            EventKind::kCoalesced, start.value(),
                            compatible->id);
      compatible->waiters.push_back(std::move(waiter));
      return handle;
    }
    coalesce_rejected_->inc();
  }

  Status error = internal_error("unset");
  PendingResolve* p =
      launch_exchange(std::move(key), options.max_referrals,
                      /*refresh=*/false, &error);
  if (p == nullptr) {
    settle_waiter(waiter, error);
    return handle;
  }
  p->owner_span = waiter.state->span;
  p->waiters.push_back(std::move(waiter));
  start_hop(*p);
  return handle;
}

Result<EntityId> ResolverClient::resolve(EntityId start,
                                         const CompoundName& name) {
  return resolve(start, name, config_.resolve);
}

Result<EntityId> ResolverClient::resolve(EntityId start,
                                         const CompoundName& name,
                                         const ResolveOptions& options) {
  ResolveHandle handle = resolve_async(start, name, options);
  sim_.run_while([&handle] { return !handle.done(); });
  NAMECOH_CHECK(handle.done(),
                "blocking resolve stalled: the event queue drained before "
                "the reply chain completed");
  return handle.result();
}

}  // namespace namecoh
