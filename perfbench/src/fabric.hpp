// The naming graph a workload resolves against, and the seeded query set
// with each query's expected answer (the oracle's starting point).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/graph_ops.hpp"
#include "core/naming_graph.hpp"

namespace perfbench {

using namecoh::CompoundName;
using namecoh::EntityId;
using namecoh::Name;

struct FabricSpec {
  std::size_t fanout = 16;
  std::size_t depth = 5;          ///< context levels below the root
  std::size_t data_per_leaf = 9;  ///< data bindings d0.. under each leaf
  std::size_t data_pool = 4096;   ///< shared data objects they point at
  std::size_t versions = 64;      ///< spare data objects rebinds cycle through
};

/// A uniform context tree (build_context_tree) whose leaves carry data
/// bindings into a shared pool — the X8 fabric shape (docs/SHARDING.md).
struct Fabric {
  namecoh::NamingGraph graph;
  EntityId root;
  namecoh::TreeBuildResult tree;
  std::vector<EntityId> versions;
  std::size_t contexts = 0;
  std::size_t bindings = 0;
};

std::unique_ptr<Fabric> build_fabric(const FabricSpec& spec);

/// One lookup, with what a local resolve said at set-up.
struct Query {
  EntityId start;
  CompoundName name;
  EntityId expected;
  std::size_t steps = 0;  ///< components the local walk consumed
  /// For queries ending at a data binding: the leaf context and atom a
  /// rebind may change. `leaf` is invalid for queries ending at a context.
  EntityId leaf;
  Name atom = Name::root();
};

struct QuerySpec {
  std::size_t count = 8192;
  /// Level whose contexts most queries start at (the delegated subtree
  /// roots); the remaining atoms lead to a leaf.
  std::size_t start_level = 2;
  /// Every `from_root_every`-th query starts at the fabric root instead,
  /// crossing the delegation boundary. 0 = never.
  std::size_t from_root_every = 8;
};

/// Queries hottest-first (rank order is what a Zipf pick skews toward).
/// Rank r lives under start-level subtree r mod (fanout^start_level); the
/// path below it and the data atom are drawn from `seed`. Odd ranks end at
/// a leaf's data binding when the leaves carry any. Every query is
/// resolved locally once to fill `expected`, `steps` and the rebind key.
/// Throws if any query fails to resolve.
std::vector<Query> make_queries(const Fabric& fabric, const FabricSpec& fspec,
                                const QuerySpec& qspec, std::uint64_t seed);

}  // namespace perfbench
