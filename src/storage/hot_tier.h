#ifndef PISREP_STORAGE_HOT_TIER_H_
#define PISREP_STORAGE_HOT_TIER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/clock.h"

namespace pisrep::storage {

/// Residency bookkeeping for one tiered table: which rows are resident in
/// the in-memory Table, how recently each was touched (a logical LRU
/// clock), which are pinned by the live ScoreSnapshot, and which cold keys
/// the read path has asked to be faulted in.
///
/// Keys are the row's encoded primary-key bytes (the same digest input the
/// ColdStore indexes by). The maps are node-based, so Meta addresses stay
/// stable and the offset→key view can point straight at map keys.
///
/// Like the rest of the storage layer, a HotTier belongs to the one event
/// loop thread that owns its server (DESIGN.md §15); nothing here is safe
/// to call from a second thread. Touch and EnqueueFault are const because
/// they run on the const read path: they update bookkeeping (the LRU stamp,
/// the hit count, the fault queue), never which rows are resident.
class HotTier {
 public:
  struct Meta {
    /// Current cold-store frame offset of this row (refreshed after GC).
    std::uint64_t offset = 0;
    /// Logical last-touch tick; larger = more recently used. Mutable —
    /// Touch runs on the const read path.
    mutable std::uint64_t stamp = 0;
    /// Pin refcount; pinned rows are never demoted.
    int pins = 0;
    /// Value of the policy's age column at last write (sim time).
    util::TimePoint age = 0;
  };

  HotTier() = default;
  HotTier(const HotTier&) = delete;
  HotTier& operator=(const HotTier&) = delete;

  std::size_t size() const { return metas_.size(); }
  bool Contains(const std::string& key_bytes) const {
    return metas_.contains(key_bytes);
  }

  const Meta* Find(const std::string& key_bytes) const;
  /// Stamps `meta` with a fresh LRU tick and counts the hit.
  void Touch(const Meta* meta) const;

  /// Registers a resident row.
  void Add(const std::string& key_bytes, std::uint64_t offset,
           util::TimePoint age);
  void Remove(const std::string& key_bytes);
  /// Moves an existing resident row to a new cold offset (a GC pass moved
  /// the frame); age and LRU stamp are preserved.
  void SetOffset(const std::string& key_bytes, std::uint64_t offset);

  /// Encoded keys of all resident rows / all unpinned resident rows.
  std::vector<std::string> ResidentKeys() const;
  std::vector<std::string> UnpinnedKeys() const;

  /// Encoded key of the resident row whose live frame sits at `offset`,
  /// or nullptr when that frame's row is not resident.
  const std::string* KeyForOffset(std::uint64_t offset) const;

  /// Pin/unpin return false when the key is not resident.
  bool Pin(const std::string& key_bytes);
  bool Unpin(const std::string& key_bytes);
  std::size_t pinned_rows() const { return pinned_rows_; }

  /// Read-path fault admission: remember that `key_bytes` was served cold
  /// so the next Tick can promote it. Bounded; excess faults are dropped
  /// (they will simply fault again).
  void EnqueueFault(const std::string& key_bytes) const;
  std::vector<std::string> DrainFaults();

  /// Keys to demote: every unpinned row older than `demote_age` (when
  /// `age_enabled`), plus — when the tier still exceeds `capacity` — the
  /// least recently touched unpinned rows down to capacity.
  std::vector<std::string> PlanDemotions(std::size_t capacity,
                                         util::TimePoint now,
                                         util::Duration demote_age,
                                         bool age_enabled) const;

  std::uint64_t hits() const { return hits_; }

 private:
  static constexpr std::size_t kMaxQueuedFaults = 4096;

  std::unordered_map<std::string, Meta> metas_;
  std::unordered_map<std::uint64_t, const std::string*> by_offset_;
  std::size_t pinned_rows_ = 0;
  mutable std::uint64_t lru_tick_ = 1;
  mutable std::uint64_t hits_ = 0;
  mutable std::vector<std::string> fault_queue_;
};

}  // namespace pisrep::storage

#endif  // PISREP_STORAGE_HOT_TIER_H_
