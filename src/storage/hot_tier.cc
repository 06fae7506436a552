#include "storage/hot_tier.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace pisrep::storage {

const HotTier::Meta* HotTier::Find(const std::string& key_bytes) const {
  auto it = metas_.find(key_bytes);
  return it == metas_.end() ? nullptr : &it->second;
}

void HotTier::Touch(const Meta* meta) const {
  meta->stamp = lru_tick_++;
  ++hits_;
}

void HotTier::Add(const std::string& key_bytes, std::uint64_t offset,
                  util::TimePoint age) {
  auto [it, inserted] = metas_.try_emplace(key_bytes);
  if (!inserted) {
    by_offset_.erase(it->second.offset);
  }
  it->second.offset = offset;
  it->second.age = age;
  it->second.stamp = lru_tick_++;
  by_offset_[offset] = &it->first;
}

void HotTier::Remove(const std::string& key_bytes) {
  auto it = metas_.find(key_bytes);
  if (it == metas_.end()) return;
  pinned_rows_ -= it->second.pins > 0 ? 1 : 0;
  by_offset_.erase(it->second.offset);
  metas_.erase(it);
}

void HotTier::SetOffset(const std::string& key_bytes, std::uint64_t offset) {
  auto it = metas_.find(key_bytes);
  if (it == metas_.end()) return;
  by_offset_.erase(it->second.offset);
  it->second.offset = offset;
  by_offset_[offset] = &it->first;
}

std::vector<std::string> HotTier::ResidentKeys() const {
  std::vector<std::string> keys;
  keys.reserve(metas_.size());
  for (const auto& [key, meta] : metas_) keys.push_back(key);
  return keys;
}

std::vector<std::string> HotTier::UnpinnedKeys() const {
  std::vector<std::string> keys;
  keys.reserve(metas_.size());
  for (const auto& [key, meta] : metas_) {
    if (meta.pins == 0) keys.push_back(key);
  }
  return keys;
}

const std::string* HotTier::KeyForOffset(std::uint64_t offset) const {
  auto it = by_offset_.find(offset);
  return it == by_offset_.end() ? nullptr : it->second;
}

bool HotTier::Pin(const std::string& key_bytes) {
  auto it = metas_.find(key_bytes);
  if (it == metas_.end()) return false;
  if (it->second.pins == 0) ++pinned_rows_;
  ++it->second.pins;
  return true;
}

bool HotTier::Unpin(const std::string& key_bytes) {
  auto it = metas_.find(key_bytes);
  if (it == metas_.end() || it->second.pins == 0) return false;
  --it->second.pins;
  if (it->second.pins == 0) --pinned_rows_;
  return true;
}

void HotTier::EnqueueFault(const std::string& key_bytes) const {
  if (fault_queue_.size() >= kMaxQueuedFaults) return;
  fault_queue_.push_back(key_bytes);
}

std::vector<std::string> HotTier::DrainFaults() {
  return std::exchange(fault_queue_, {});
}

std::vector<std::string> HotTier::PlanDemotions(std::size_t capacity,
                                                util::TimePoint now,
                                                util::Duration demote_age,
                                                bool age_enabled) const {
  std::vector<std::string> out;
  // (stamp, key) of unpinned, not-aged-out residents — LRU candidates.
  std::vector<std::pair<std::uint64_t, const std::string*>> candidates;
  for (const auto& [key, meta] : metas_) {
    if (meta.pins > 0) continue;
    if (age_enabled && meta.age + demote_age <= now) {
      out.push_back(key);
      continue;
    }
    candidates.emplace_back(meta.stamp, &key);
  }
  std::size_t remaining = metas_.size() - out.size();
  if (capacity > 0 && remaining > capacity) {
    std::size_t excess = remaining - capacity;
    excess = std::min(excess, candidates.size());
    // Coldest stamps first; ties broken by key for determinism.
    std::partial_sort(candidates.begin(), candidates.begin() + excess,
                      candidates.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first < b.first;
                        return *a.second < *b.second;
                      });
    for (std::size_t i = 0; i < excess; ++i) {
      out.push_back(*candidates[i].second);
    }
  }
  return out;
}

}  // namespace pisrep::storage
