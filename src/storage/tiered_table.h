#ifndef PISREP_STORAGE_TIERED_TABLE_H_
#define PISREP_STORAGE_TIERED_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/cold_store.h"
#include "storage/hot_tier.h"
#include "storage/table.h"
#include "util/clock.h"
#include "util/status.h"

namespace pisrep::storage {

/// Residency policy for one tiered table.
struct TierPolicy {
  /// Target number of resident rows; the LRU-coldest unpinned rows beyond
  /// this are demoted at each Tick. 0 = no capacity bound.
  std::size_t hot_capacity_rows = 4096;
  /// Optional int64 (sim TimePoint) column driving age-based demotion:
  /// rows whose column value is older than `demote_age` at Tick time are
  /// cold-eligible regardless of capacity (old votes, inactive titles).
  std::string age_column;
  util::Duration demote_age = 0;
};

/// Tier counters for one table, aggregated into pisrep_storage_* metrics.
struct TieredTableStats {
  std::size_t hot_rows = 0;
  std::size_t cold_rows = 0;
  std::size_t pinned_rows = 0;
  std::uint64_t hits = 0;
  std::uint64_t faults = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t approx_resident_bytes = 0;
};

/// Deterministic deep-size model of one value / row: struct size plus
/// string payload. Shared by the resident-bytes gauge and the tiered
/// storage benchmark so both twins are measured with the same ruler.
inline std::uint64_t ApproxValueBytes(const Value& value) {
  std::uint64_t bytes = sizeof(Value);
  if (value.type() == ColumnType::kString) bytes += value.AsStr().size();
  return bytes;
}
inline std::uint64_t ApproxRowBytes(const Row& row) {
  std::uint64_t bytes = sizeof(Row);
  for (const Value& value : row) bytes += ApproxValueBytes(value);
  return bytes;
}

/// The access facade of the tiered storage engine (DESIGN.md §15): mirrors
/// Table's full API, serving resident rows from the in-memory Table and
/// transparently faulting the rest in from the ColdStore.
///
/// Invariants:
///  - Write-through: every mutation lands in the cold store synchronously
///    before the in-memory table announces it, so the block file is the
///    complete, authoritative copy and the hot tier is purely a cache
///    (hot ⊆ cold). Demoting a row just drops its resident copy.
///  - Deterministic iteration: index visits and scans walk the cold
///    store's append-order offset lists regardless of residency, so query
///    results — including float-summation order in the aggregation job —
///    are bit-identical to an all-hot table fed the same mutations.
///  - Read paths are const and never structurally mutate: a cold Get
///    decodes a transient row and enqueues the key for promotion at the
///    next Tick (deferred admission), so a read never invalidates a row
///    reference a caller up the stack still holds.
///
/// A TieredTable belongs to the one event loop thread that owns its
/// server (DESIGN.md §15); it takes no locks.
///
/// Rows handed to visitors may be transient cold decodes: references are
/// valid only for the duration of the callback, never retained.
///
/// Without an attached ColdStore the facade is a zero-cost pass-through to
/// the wrapped Table, so untiered tables keep their exact semantics.
class TieredTable {
 public:
  /// `hot` is owned by the Database; `cold` may be nullptr (pass-through).
  TieredTable(Table* hot, ColdStore* cold, TierPolicy policy);

  TieredTable(const TieredTable&) = delete;
  TieredTable& operator=(const TieredTable&) = delete;

  const TableSchema& schema() const { return hot_->schema(); }
  bool tiered() const { return cold_ != nullptr; }
  /// The wrapped in-memory table (tests and legacy callers). Bypassing the
  /// facade on a tiered table sees only resident rows — reads must come
  /// through the facade.
  Table* hot() { return hot_; }

  /// Live rows across both tiers.
  std::size_t size() const;
  std::size_t HotRows() const { return hot_->size(); }

  util::Status Insert(Row row);
  util::Status Upsert(Row row);
  util::Result<Row> Get(const Value& key) const;
  bool Contains(const Value& key) const;
  util::Status Delete(const Value& key);

  util::Result<std::vector<Row>> FindByIndex(std::string_view column,
                                             const Value& value) const;
  util::Status ForEachByIndex(
      std::string_view column, const Value& value,
      const std::function<void(const Row&)>& visit) const;
  util::Result<std::size_t> CountByIndex(std::string_view column,
                                         const Value& value) const;
  util::Result<std::vector<Row>> ScanRange(std::string_view column,
                                           const Value& min,
                                           const Value& max) const;
  util::Result<std::vector<Row>> ScanOrdered(std::string_view column,
                                             bool ascending,
                                             std::size_t limit) const;
  std::vector<Row> Scan(const std::function<bool(const Row&)>& pred) const;
  void ForEach(const std::function<void(const Row&)>& visit) const;

  // -- Residency control ----------------------------------------------------

  /// Pins the row resident (faulting it in if cold); pinned rows are never
  /// demoted. Refcounted; the server pins rows the live ScoreSnapshot
  /// references. kNotFound when the key does not exist.
  util::Status Pin(const Value& key);
  util::Status Unpin(const Value& key);
  bool IsHot(const Value& key) const;

  /// The sim-clock eviction schedule hook: promotes queued faults, demotes
  /// aged-out rows and LRU overflow past the capacity target.
  void Tick(util::TimePoint now);

  /// Drops every unpinned resident row (tests and benchmarks).
  void DemoteAll();

  // -- Replication / replay import (no listener notification) --------------

  /// Cold-only apply of a replicated/replayed frame: the row lands in the
  /// block file without populating the hot tier, which is what lets a
  /// backup resync stream blocks at flat memory. `row_bytes` must be the
  /// frame's EncodeRow payload for `row`. `strict_insert` preserves
  /// duplicate-key detection (live replication import); replay of a
  /// pre-tiering WAL uses upsert semantics, since the same rows may exist
  /// in both logs during migration.
  util::Status ApplyColdPut(const Row& row, std::string_view row_bytes,
                            bool strict_insert);
  util::Status ApplyColdDelete(const Value& key);

  /// Rebuilds the cold-side index maps (and residents' cached offsets) by
  /// scanning the cold store — on open, and after a GC moved every frame.
  util::Status RebuildFromCold();

  TieredTableStats stats() const;
  /// Deterministic model of this table's resident memory: hot rows + hot
  /// indexes + tier bookkeeping + cold in-memory index (never cold rows).
  std::uint64_t ApproxResidentBytes() const;

 private:
  util::Status Promote(const std::string& key_bytes);
  void Demote(const std::string& key_bytes);
  /// Appends `offset` to the cold secondary/ordered index maps.
  void IndexColdRow(std::uint64_t offset, const Row& row);
  std::string EncodeKey(const Value& key) const;
  util::Result<Value> DecodeKey(std::string_view key_bytes) const;
  util::Result<Row> DecodeRowBytes(std::string_view row_bytes) const;
  util::TimePoint AgeOf(const Row& row) const;
  /// Resolves one cold-index offset: serves the resident copy when hot,
  /// otherwise preads + decodes; skips stale frames. `verify_column` ≥ 0
  /// guards against digest collisions in the cold secondary map.
  util::Status VisitOffset(std::uint64_t offset, int verify_column,
                           const Value* expect, bool* visited,
                           const std::function<void(const Row&)>& visit)
      const;

  Table* hot_;
  ColdStore* cold_;
  TierPolicy policy_;
  std::string name_;
  ColumnType key_type_ = ColumnType::kInt64;
  int age_col_ = -1;
  HotTier tier_;
  /// Per secondary index: digest(EncodeValue(column)) → frame offsets in
  /// append order (may contain stale entries; visits liveness-check).
  std::vector<std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>>
      cold_sec_;
  std::size_t cold_sec_entries_ = 0;
  /// Per ordered index: column value → frame offset, sorted.
  std::vector<std::multimap<Value, std::uint64_t, ValueLess>> cold_ord_;
  mutable std::uint64_t faults_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace pisrep::storage

#endif  // PISREP_STORAGE_TIERED_TABLE_H_
