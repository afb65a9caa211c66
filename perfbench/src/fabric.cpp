#include "fabric.hpp"

#include <stdexcept>
#include <string>

#include "core/resolve.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namecoh::NamingGraph;

std::unique_ptr<Fabric> build_fabric(const FabricSpec& spec) {
  auto fabric = std::make_unique<Fabric>();
  NamingGraph& graph = fabric->graph;
  fabric->root = graph.add_context_object("bench-root");
  fabric->tree =
      namecoh::build_context_tree(graph, fabric->root, spec.fanout, spec.depth);
  fabric->contexts = fabric->tree.contexts_created + 1;
  fabric->bindings = fabric->tree.bindings_created;

  std::vector<EntityId> pool;
  pool.reserve(spec.data_pool);
  for (std::size_t i = 0; i < spec.data_pool; ++i) {
    pool.push_back(graph.add_data_object(""));
  }
  for (std::size_t i = 0; i < spec.versions; ++i) {
    fabric->versions.push_back(graph.add_data_object(""));
  }
  std::vector<Name> data_names;
  for (std::size_t k = 0; k < spec.data_per_leaf; ++k) {
    data_names.emplace_back("d" + std::to_string(k));
  }
  const std::vector<EntityId>& leaves = fabric->tree.levels.back();
  for (std::size_t i = 0; i < leaves.size() && !pool.empty(); ++i) {
    for (std::size_t k = 0; k < spec.data_per_leaf; ++k) {
      if (!graph
               .bind(leaves[i], data_names[k],
                     pool[(i * spec.data_per_leaf + k) % pool.size()])
               .is_ok()) {
        throw std::runtime_error("leaf data binding failed");
      }
      ++fabric->bindings;
    }
  }
  return fabric;
}

namespace {

std::string path_of(const std::vector<std::size_t>& digits, std::size_t from,
                    std::size_t to) {
  std::string path;
  for (std::size_t d = from; d < to; ++d) {
    if (!path.empty()) path += '/';
    path += 'c';
    path += std::to_string(digits[d]);
  }
  return path;
}

EntityId resolve_or_throw(const NamingGraph& graph, EntityId start,
                          const std::string& path, std::size_t* steps) {
  const CompoundName name = CompoundName::relative(path);
  namecoh::Resolution r = namecoh::resolve_from(graph, start, name);
  if (!r.ok()) throw std::runtime_error("set-up query does not resolve");
  if (steps != nullptr) *steps = r.steps;
  return r.entity;
}

}  // namespace

std::vector<Query> make_queries(const Fabric& fabric, const FabricSpec& fspec,
                                const QuerySpec& qspec, std::uint64_t seed) {
  if (qspec.start_level >= fspec.depth) {
    throw std::invalid_argument("start level must lie above the leaves");
  }
  namecoh::Rng rng(seed);
  const NamingGraph& graph = fabric.graph;
  std::vector<Query> queries;
  queries.reserve(qspec.count);
  std::vector<std::size_t> digits(fspec.depth);
  std::size_t subtrees = 1;
  for (std::size_t d = 0; d < qspec.start_level; ++d) subtrees *= fspec.fanout;
  for (std::size_t r = 0; r < qspec.count; ++r) {
    // The subtree at the start level cycles with the rank, so every seed
    // spreads the Zipf head over the delegated subtrees (and their shards)
    // the same way (bench_x7_shard); the seed picks the path below it.
    std::size_t subtree = r % subtrees;
    for (std::size_t d = qspec.start_level; d-- > 0;) {
      digits[d] = subtree % fspec.fanout;
      subtree /= fspec.fanout;
    }
    for (std::size_t d = qspec.start_level; d < fspec.depth; ++d) {
      digits[d] = rng.next_below(fspec.fanout);
    }
    const bool from_root =
        qspec.from_root_every > 0 && r % qspec.from_root_every == 3;
    const bool data = fspec.data_per_leaf > 0 && r % 2 == 1;
    const std::size_t split = from_root ? 0 : qspec.start_level;

    const EntityId start =
        split == 0 ? fabric.root
                   : resolve_or_throw(graph, fabric.root,
                                      path_of(digits, 0, split), nullptr);
    std::string path = path_of(digits, split, fspec.depth);
    EntityId leaf;
    Name atom = Name::root();
    if (data) {
      leaf = resolve_or_throw(graph, start, path, nullptr);
      const std::string text =
          "d" + std::to_string(rng.next_below(fspec.data_per_leaf));
      atom = Name(text);
      path += "/" + text;
    }
    std::size_t steps = 0;
    const EntityId expected = resolve_or_throw(graph, start, path, &steps);
    queries.push_back(Query{start, CompoundName::relative(path), expected,
                            steps, leaf, atom});
  }
  return queries;
}

}  // namespace perfbench
