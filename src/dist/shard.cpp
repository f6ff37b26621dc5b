#include "dist/shard.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/fnv1a.hpp"

namespace appclass::dist {

ShardMap::ShardMap(std::size_t shards, std::size_t virtual_nodes)
    : shards_(shards) {
  APPCLASS_EXPECTS(shards >= 1);
  APPCLASS_EXPECTS(virtual_nodes >= 1);
  ring_.reserve(shards * virtual_nodes);
  for (std::size_t s = 0; s < shards; ++s)
    for (std::size_t v = 0; v < virtual_nodes; ++v)
      ring_.emplace_back(common::fnv1a64("shard-" + std::to_string(s) +
                                         "-vnode-" + std::to_string(v)),
                         static_cast<std::uint32_t>(s));
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ShardMap::shard_for(std::string_view node_ip) const noexcept {
  const std::uint64_t h = common::fnv1a64(node_ip);
  // First ring point at or after h, wrapping to the start past the end.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

}  // namespace appclass::dist
