#include "cluster/hash_ring.h"

#include <algorithm>

#include "util/logging.h"

namespace pisrep::cluster {

std::uint64_t HashRing::PointOf(const util::Sha1Digest& digest) {
  std::uint64_t point = 0;
  for (int i = 0; i < 8; ++i) {
    point = (point << 8) | digest.bytes[static_cast<std::size_t>(i)];
  }
  return point;
}

void HashRing::AddShard(const std::string& name) {
  if (!members_.insert(name).second) return;
  Rebuild();
}

void HashRing::RemoveShard(const std::string& name) {
  if (members_.erase(name) == 0) return;
  Rebuild();
}

void HashRing::Rebuild() {
  ring_.clear();
  // Iterating the sorted member set with min-name collision tie-breaking
  // makes the map a pure function of the membership, independent of the
  // order in which shards were added or removed.
  for (const std::string& name : members_) {
    for (int v = 0; v < kVnodesPerShard; ++v) {
      util::Sha1Digest point_digest =
          util::Sha1::Hash(name + "#" + std::to_string(v));
      std::uint64_t point = PointOf(point_digest);
      auto [it, inserted] = ring_.emplace(point, name);
      if (!inserted && name < it->second) it->second = name;
    }
  }
}

const std::string& HashRing::OwnerOf(const util::Sha1Digest& digest) const {
  PISREP_CHECK(!ring_.empty()) << "OwnerOf on an empty ring";
  auto it = ring_.lower_bound(PointOf(digest));
  if (it == ring_.end()) it = ring_.begin();  // wrap past the top
  return it->second;
}

std::vector<std::string> HashRing::PreferenceListOf(
    const util::Sha1Digest& digest, std::size_t n) const {
  std::vector<std::string> out;
  if (ring_.empty() || n == 0) return out;
  std::size_t want = std::min(n, members_.size());
  auto it = ring_.lower_bound(PointOf(digest));
  for (std::size_t steps = 0; steps < ring_.size() && out.size() < want;
       ++steps) {
    if (it == ring_.end()) it = ring_.begin();  // wrap past the top
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    ++it;
  }
  return out;
}

std::vector<std::string> HashRing::SuccessorsOf(const std::string& name,
                                                std::size_t n) const {
  std::vector<std::string> out;
  if (!members_.contains(name) || members_.size() < 2 || n == 0) return out;
  std::size_t want = std::min(n, members_.size() - 1);
  std::uint64_t start = PointOf(util::Sha1::Hash(name + "#0"));
  auto it = ring_.upper_bound(start);
  for (std::size_t steps = 0; steps < ring_.size() && out.size() < want;
       ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (it->second != name &&
        std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    ++it;
  }
  return out;
}

std::vector<std::string> HashRing::Members() const {
  return std::vector<std::string>(members_.begin(), members_.end());
}

}  // namespace pisrep::cluster
