#include "storage/tiered_table.h"

#include <utility>

#include "storage/codec.h"
#include "util/logging.h"

namespace pisrep::storage {

namespace {

using util::Result;
using util::Status;

/// FNV-1a 64-bit — the cold secondary-index digest (same family as the
/// ColdStore's primary digest; collisions are handled by value verification
/// on visit, never assumed away).
std::uint64_t BytesDigest(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Finds the position of `column` within an index declaration list, with
/// the same error wording as Table's scans — callers see one contract.
Result<std::size_t> IndexPosition(const TableSchema& schema,
                                  const std::vector<std::size_t>& declared,
                                  std::string_view column,
                                  const char* index_kind) {
  PISREP_ASSIGN_OR_RETURN(std::size_t col, schema.ColumnIndex(column));
  for (std::size_t i = 0; i < declared.size(); ++i) {
    if (declared[i] == col) return i;
  }
  return Status::FailedPrecondition(
      "column " + std::string(column) + " has no " + index_kind +
      " index in table " + schema.table_name());
}

/// Deep-size constants for the resident-bytes model: a node-based hash map
/// entry (node + bucket share) and a red-black tree node. Deliberately flat
/// round numbers — the model's job is a deterministic, twin-comparable
/// ruler, not an allocator-exact census.
constexpr std::uint64_t kHashNodeBytes = 48;
constexpr std::uint64_t kTreeNodeBytes = 56;

}  // namespace

TieredTable::TieredTable(Table* hot, ColdStore* cold, TierPolicy policy)
    : hot_(hot), cold_(cold), policy_(std::move(policy)) {
  const TableSchema& schema = hot_->schema();
  name_ = schema.table_name();
  key_type_ = schema.columns()[schema.primary_key_index()].type;
  if (cold_ != nullptr) {
    cold_sec_.resize(schema.secondary_indexes().size());
    cold_ord_.resize(schema.ordered_indexes().size());
    if (!policy_.age_column.empty()) {
      auto col = schema.ColumnIndex(policy_.age_column);
      PISREP_CHECK(col.ok()) << "tier policy for " << name_
                             << " names unknown age column "
                             << policy_.age_column;
      PISREP_CHECK(schema.columns()[*col].type == ColumnType::kInt64)
          << "tier age column " << policy_.age_column << " must be int64";
      age_col_ = static_cast<int>(*col);
    }
  }
}

std::size_t TieredTable::size() const {
  return cold_ != nullptr ? cold_->LiveCount(name_) : hot_->size();
}

std::string TieredTable::EncodeKey(const Value& key) const {
  std::string bytes;
  EncodeValue(key, &bytes);
  return bytes;
}

Result<Value> TieredTable::DecodeKey(std::string_view key_bytes) const {
  Decoder dec(key_bytes);
  return DecodeValue(key_type_, dec);
}

Result<Row> TieredTable::DecodeRowBytes(std::string_view row_bytes) const {
  Decoder dec(row_bytes);
  return DecodeRow(hot_->schema(), dec);
}

util::TimePoint TieredTable::AgeOf(const Row& row) const {
  return age_col_ >= 0 ? row[static_cast<std::size_t>(age_col_)].AsInt() : 0;
}

void TieredTable::IndexColdRow(std::uint64_t offset, const Row& row) {
  const TableSchema& schema = hot_->schema();
  for (std::size_t i = 0; i < schema.secondary_indexes().size(); ++i) {
    std::string value_bytes;
    EncodeValue(row[schema.secondary_indexes()[i]], &value_bytes);
    cold_sec_[i][BytesDigest(value_bytes)].push_back(offset);
    ++cold_sec_entries_;
  }
  for (std::size_t i = 0; i < schema.ordered_indexes().size(); ++i) {
    cold_ord_[i].emplace(row[schema.ordered_indexes()[i]], offset);
  }
}

Status TieredTable::Insert(Row row) {
  if (cold_ == nullptr) return hot_->Insert(std::move(row));
  PISREP_RETURN_IF_ERROR(hot_->schema().CheckRow(row));
  const Value& key = row[hot_->schema().primary_key_index()];
  std::string key_bytes = EncodeKey(key);
  if (tier_.Contains(key_bytes) || cold_->Contains(name_, key_bytes)) {
    return Status::AlreadyExists("duplicate key " + key.ToString() +
                                 " in table " + name_);
  }
  std::string row_bytes;
  EncodeRow(hot_->schema(), row, &row_bytes);
  // Durable-then-announce, matching the WAL discipline: the cold append
  // lands before the in-memory insert fires the mutation listener.
  PISREP_ASSIGN_OR_RETURN(std::uint64_t offset,
                          cold_->Put(name_, key_bytes, row_bytes));
  IndexColdRow(offset, row);
  util::TimePoint age = AgeOf(row);
  Status inserted = hot_->Insert(std::move(row));
  PISREP_CHECK(inserted.ok()) << "tiered insert diverged from cold state: "
                              << inserted.ToString();
  tier_.Add(key_bytes, offset, age);
  return Status::Ok();
}

Status TieredTable::Upsert(Row row) {
  if (cold_ == nullptr) return hot_->Upsert(std::move(row));
  PISREP_RETURN_IF_ERROR(hot_->schema().CheckRow(row));
  const Value& key = row[hot_->schema().primary_key_index()];
  std::string key_bytes = EncodeKey(key);
  std::string row_bytes;
  EncodeRow(hot_->schema(), row, &row_bytes);
  PISREP_ASSIGN_OR_RETURN(std::uint64_t offset,
                          cold_->Put(name_, key_bytes, row_bytes));
  IndexColdRow(offset, row);
  util::TimePoint age = AgeOf(row);
  Status upserted = hot_->Upsert(std::move(row));
  PISREP_CHECK(upserted.ok()) << "tiered upsert diverged from cold state: "
                              << upserted.ToString();
  tier_.Add(key_bytes, offset, age);
  return Status::Ok();
}

Result<Row> TieredTable::Get(const Value& key) const {
  if (cold_ == nullptr) return hot_->Get(key);
  std::string key_bytes = EncodeKey(key);
  if (const HotTier::Meta* meta = tier_.Find(key_bytes)) {
    tier_.Touch(meta);
    return hot_->Get(key);
  }
  auto ref = cold_->Get(name_, key_bytes);
  if (!ref.ok()) {
    if (ref.status().code() == util::StatusCode::kNotFound) {
      return Status::NotFound("key " + key.ToString() + " not in table " +
                              name_);
    }
    return ref.status();
  }
  ++faults_;
  PISREP_ASSIGN_OR_RETURN(Row row, DecodeRowBytes(ref->row_bytes));
  // Deferred admission: the next Tick promotes; the read path stays
  // structurally const.
  tier_.EnqueueFault(key_bytes);
  return row;
}

bool TieredTable::Contains(const Value& key) const {
  if (cold_ == nullptr) return hot_->Contains(key);
  std::string key_bytes = EncodeKey(key);
  return tier_.Contains(key_bytes) || cold_->Contains(name_, key_bytes);
}

Status TieredTable::Delete(const Value& key) {
  if (cold_ == nullptr) return hot_->Delete(key);
  std::string key_bytes = EncodeKey(key);
  if (tier_.Contains(key_bytes)) {
    PISREP_RETURN_IF_ERROR(cold_->Erase(name_, key_bytes));
    tier_.Remove(key_bytes);
    Status deleted = hot_->Delete(key);
    PISREP_CHECK(deleted.ok()) << "tiered delete diverged from cold state: "
                               << deleted.ToString();
    return Status::Ok();
  }
  auto ref = cold_->Get(name_, key_bytes);
  if (!ref.ok()) {
    if (ref.status().code() == util::StatusCode::kNotFound) {
      return Status::NotFound("key " + key.ToString() + " not in table " +
                              name_);
    }
    return ref.status();
  }
  PISREP_ASSIGN_OR_RETURN(Row row, DecodeRowBytes(ref->row_bytes));
  PISREP_RETURN_IF_ERROR(cold_->Erase(name_, key_bytes));
  // Materialize transiently so the delete still runs through the Table
  // mutation funnel and fires the listener (replication export).
  Status staged = hot_->InsertUnlogged(std::move(row));
  PISREP_CHECK(staged.ok()) << staged.ToString();
  Status deleted = hot_->Delete(key);
  PISREP_CHECK(deleted.ok()) << deleted.ToString();
  return Status::Ok();
}

Status TieredTable::VisitOffset(
    std::uint64_t offset, int verify_column, const Value* expect,
    bool* visited, const std::function<void(const Row&)>& visit) const {
  *visited = false;
  if (const std::string* key_bytes = tier_.KeyForOffset(offset)) {
    PISREP_ASSIGN_OR_RETURN(Value key, DecodeKey(*key_bytes));
    const Row* row = hot_->FindRow(key);
    PISREP_CHECK(row != nullptr) << "resident row missing from hot table";
    if (verify_column >= 0 &&
        (*row)[static_cast<std::size_t>(verify_column)] != *expect) {
      return Status::Ok();  // digest collision: different value, skip
    }
    tier_.Touch(tier_.Find(*key_bytes));
    *visited = true;
    visit(*row);
    return Status::Ok();
  }
  PISREP_ASSIGN_OR_RETURN(ColdStore::FrameView view,
                          cold_->ReadAt(name_, offset));
  if (!view.live) return Status::Ok();  // stale frame: overwritten/deleted
  PISREP_ASSIGN_OR_RETURN(Row row, DecodeRowBytes(view.row_bytes));
  if (verify_column >= 0 &&
      row[static_cast<std::size_t>(verify_column)] != *expect) {
    return Status::Ok();
  }
  ++faults_;
  *visited = true;
  visit(row);
  return Status::Ok();
}

Status TieredTable::ForEachByIndex(
    std::string_view column, const Value& value,
    const std::function<void(const Row&)>& visit) const {
  if (cold_ == nullptr) return hot_->ForEachByIndex(column, value, visit);
  const TableSchema& schema = hot_->schema();
  PISREP_ASSIGN_OR_RETURN(
      std::size_t pos, IndexPosition(schema, schema.secondary_indexes(),
                                     column, "secondary"));
  std::size_t col = schema.secondary_indexes()[pos];
  std::string value_bytes;
  EncodeValue(value, &value_bytes);
  auto it = cold_sec_[pos].find(BytesDigest(value_bytes));
  if (it == cold_sec_[pos].end()) return Status::Ok();
  for (std::uint64_t offset : it->second) {
    bool visited = false;
    PISREP_RETURN_IF_ERROR(VisitOffset(offset, static_cast<int>(col),
                                       &value, &visited, visit));
  }
  return Status::Ok();
}

Result<std::vector<Row>> TieredTable::FindByIndex(std::string_view column,
                                                  const Value& value) const {
  if (cold_ == nullptr) return hot_->FindByIndex(column, value);
  std::vector<Row> out;
  PISREP_RETURN_IF_ERROR(ForEachByIndex(
      column, value, [&](const Row& row) { out.push_back(row); }));
  return out;
}

Result<std::size_t> TieredTable::CountByIndex(std::string_view column,
                                              const Value& value) const {
  if (cold_ == nullptr) return hot_->CountByIndex(column, value);
  std::size_t count = 0;
  PISREP_RETURN_IF_ERROR(
      ForEachByIndex(column, value, [&](const Row&) { ++count; }));
  return count;
}

Result<std::vector<Row>> TieredTable::ScanRange(std::string_view column,
                                                const Value& min,
                                                const Value& max) const {
  if (cold_ == nullptr) return hot_->ScanRange(column, min, max);
  const TableSchema& schema = hot_->schema();
  PISREP_ASSIGN_OR_RETURN(
      std::size_t pos, IndexPosition(schema, schema.ordered_indexes(),
                                     column, "ordered"));
  std::vector<Row> out;
  auto begin = cold_ord_[pos].lower_bound(min);
  auto end = cold_ord_[pos].upper_bound(max);
  for (auto it = begin; it != end; ++it) {
    bool visited = false;
    PISREP_RETURN_IF_ERROR(
        VisitOffset(it->second, /*verify_column=*/-1, nullptr, &visited,
                    [&](const Row& row) { out.push_back(row); }));
  }
  return out;
}

Result<std::vector<Row>> TieredTable::ScanOrdered(std::string_view column,
                                                  bool ascending,
                                                  std::size_t limit) const {
  if (cold_ == nullptr) return hot_->ScanOrdered(column, ascending, limit);
  const TableSchema& schema = hot_->schema();
  PISREP_ASSIGN_OR_RETURN(
      std::size_t pos, IndexPosition(schema, schema.ordered_indexes(),
                                     column, "ordered"));
  std::vector<Row> out;
  const auto& index = cold_ord_[pos];
  auto emit = [&](std::uint64_t offset) -> Status {
    bool visited = false;
    return VisitOffset(offset, /*verify_column=*/-1, nullptr, &visited,
                       [&](const Row& row) { out.push_back(row); });
  };
  if (ascending) {
    for (auto it = index.begin(); it != index.end() && out.size() < limit;
         ++it) {
      PISREP_RETURN_IF_ERROR(emit(it->second));
    }
  } else {
    for (auto it = index.rbegin();
         it != index.rend() && out.size() < limit; ++it) {
      PISREP_RETURN_IF_ERROR(emit(it->second));
    }
  }
  return out;
}

std::vector<Row> TieredTable::Scan(
    const std::function<bool(const Row&)>& pred) const {
  if (cold_ == nullptr) return hot_->Scan(pred);
  std::vector<Row> out;
  ForEach([&](const Row& row) {
    if (pred(row)) out.push_back(row);
  });
  return out;
}

void TieredTable::ForEach(
    const std::function<void(const Row&)>& visit) const {
  if (cold_ == nullptr) {
    hot_->ForEach(visit);
    return;
  }
  Status scanned = cold_->ForEachLive(
      name_, [&](std::uint64_t, std::string_view, std::string_view
                 row_bytes) -> Status {
        PISREP_ASSIGN_OR_RETURN(Row row, DecodeRowBytes(row_bytes));
        visit(row);
        return Status::Ok();
      });
  PISREP_CHECK(scanned.ok()) << "cold scan of " << name_
                             << " failed: " << scanned.ToString();
}

Status TieredTable::Pin(const Value& key) {
  if (cold_ == nullptr) {
    if (!hot_->Contains(key)) {
      return Status::NotFound("key " + key.ToString() + " not in table " +
                              name_);
    }
    return Status::Ok();
  }
  std::string key_bytes = EncodeKey(key);
  if (!tier_.Contains(key_bytes)) {
    PISREP_RETURN_IF_ERROR(Promote(key_bytes));
  }
  tier_.Pin(key_bytes);
  return Status::Ok();
}

Status TieredTable::Unpin(const Value& key) {
  if (cold_ == nullptr) return Status::Ok();
  if (!tier_.Unpin(EncodeKey(key))) {
    return Status::NotFound("key " + key.ToString() +
                            " not pinned in table " + name_);
  }
  return Status::Ok();
}

bool TieredTable::IsHot(const Value& key) const {
  if (cold_ == nullptr) return hot_->Contains(key);
  return tier_.Contains(EncodeKey(key));
}

Status TieredTable::Promote(const std::string& key_bytes) {
  if (tier_.Contains(key_bytes)) return Status::Ok();
  PISREP_ASSIGN_OR_RETURN(ColdStore::RowRef ref,
                          cold_->Get(name_, key_bytes));
  PISREP_ASSIGN_OR_RETURN(Row row, DecodeRowBytes(ref.row_bytes));
  util::TimePoint age = AgeOf(row);
  Status staged = hot_->InsertUnlogged(std::move(row));
  PISREP_CHECK(staged.ok()) << "promotion into " << name_
                            << " failed: " << staged.ToString();
  tier_.Add(key_bytes, ref.offset, age);
  ++promotions_;
  return Status::Ok();
}

void TieredTable::Demote(const std::string& key_bytes) {
  auto key = DecodeKey(key_bytes);
  PISREP_CHECK(key.ok()) << key.status().ToString();
  Status dropped = hot_->DeleteUnlogged(*key);
  PISREP_CHECK(dropped.ok()) << "demotion from " << name_
                             << " failed: " << dropped.ToString();
  tier_.Remove(key_bytes);
  ++demotions_;
}

void TieredTable::Tick(util::TimePoint now) {
  if (cold_ == nullptr) return;
  for (const std::string& key_bytes : tier_.DrainFaults()) {
    if (tier_.Contains(key_bytes)) continue;
    Status promoted = Promote(key_bytes);
    // The row may have been deleted since the fault was queued.
    if (!promoted.ok() &&
        promoted.code() != util::StatusCode::kNotFound) {
      PISREP_LOG(kWarning) << "tier promotion failed: "
                           << promoted.ToString();
    }
  }
  bool age_enabled = age_col_ >= 0 && policy_.demote_age > 0;
  for (const std::string& key_bytes : tier_.PlanDemotions(
           policy_.hot_capacity_rows, now, policy_.demote_age,
           age_enabled)) {
    Demote(key_bytes);
  }
}

void TieredTable::DemoteAll() {
  if (cold_ == nullptr) return;
  for (const std::string& key_bytes : tier_.UnpinnedKeys()) {
    Demote(key_bytes);
  }
}

Status TieredTable::ApplyColdPut(const Row& row, std::string_view row_bytes,
                                 bool strict_insert) {
  if (cold_ == nullptr) {
    if (strict_insert) return hot_->InsertUnlogged(row);
    return hot_->UpsertUnlogged(row);
  }
  const Value& key = row[hot_->schema().primary_key_index()];
  std::string key_bytes = EncodeKey(key);
  bool exists = tier_.Contains(key_bytes) || cold_->Contains(name_, key_bytes);
  if (strict_insert && exists) {
    return Status::AlreadyExists("duplicate key " + key.ToString() +
                                 " in table " + name_);
  }
  PISREP_ASSIGN_OR_RETURN(std::uint64_t offset,
                          cold_->Put(name_, key_bytes, row_bytes));
  IndexColdRow(offset, row);
  if (tier_.Contains(key_bytes)) {
    // Keep the resident copy coherent rather than serving a stale row.
    Status refreshed = hot_->UpsertUnlogged(row);
    PISREP_CHECK(refreshed.ok()) << refreshed.ToString();
    tier_.Add(key_bytes, offset, AgeOf(row));
  }
  return Status::Ok();
}

Status TieredTable::ApplyColdDelete(const Value& key) {
  if (cold_ == nullptr) return hot_->DeleteUnlogged(key);
  std::string key_bytes = EncodeKey(key);
  if (tier_.Contains(key_bytes)) {
    Status dropped = hot_->DeleteUnlogged(key);
    PISREP_CHECK(dropped.ok()) << dropped.ToString();
    tier_.Remove(key_bytes);
  }
  Status erased = cold_->Erase(name_, key_bytes);
  if (erased.code() == util::StatusCode::kNotFound) {
    return Status::NotFound("key " + key.ToString() + " not in table " +
                            name_);
  }
  return erased;
}

Status TieredTable::RebuildFromCold() {
  if (cold_ == nullptr) return Status::Ok();
  for (auto& index : cold_sec_) index.clear();
  for (auto& index : cold_ord_) index.clear();
  cold_sec_entries_ = 0;
  // Residents first: refresh their cached frame offsets (a GC moved them).
  for (const std::string& key_bytes : tier_.ResidentKeys()) {
    auto ref = cold_->Get(name_, key_bytes);
    if (!ref.ok()) {
      // The cold store no longer has the row; drop the orphaned resident.
      auto key = DecodeKey(key_bytes);
      PISREP_CHECK(key.ok()) << key.status().ToString();
      Status dropped = hot_->DeleteUnlogged(*key);
      PISREP_CHECK(dropped.ok()) << dropped.ToString();
      tier_.Remove(key_bytes);
      continue;
    }
    tier_.SetOffset(key_bytes, ref->offset);
  }
  return cold_->ForEachLive(
      name_, [&](std::uint64_t offset, std::string_view,
                 std::string_view row_bytes) -> Status {
        PISREP_ASSIGN_OR_RETURN(Row row, DecodeRowBytes(row_bytes));
        IndexColdRow(offset, row);
        return Status::Ok();
      });
}

TieredTableStats TieredTable::stats() const {
  TieredTableStats stats;
  stats.hot_rows = hot_->size();
  stats.cold_rows = size();
  stats.pinned_rows = tier_.pinned_rows();
  stats.hits = tier_.hits();
  stats.faults = faults_;
  stats.promotions = promotions_;
  stats.demotions = demotions_;
  stats.approx_resident_bytes = ApproxResidentBytes();
  return stats;
}

std::uint64_t TieredTable::ApproxResidentBytes() const {
  const TableSchema& schema = hot_->schema();
  std::uint64_t bytes = 0;
  std::size_t pk = schema.primary_key_index();
  hot_->ForEach([&](const Row& row) {
    bytes += ApproxRowBytes(row);
    bytes += kHashNodeBytes + ApproxValueBytes(row[pk]);  // primary_
    for (std::size_t col : schema.secondary_indexes()) {
      bytes += kHashNodeBytes + ApproxValueBytes(row[col]);
    }
    for (std::size_t col : schema.ordered_indexes()) {
      bytes += kTreeNodeBytes + ApproxValueBytes(row[col]);
    }
  });
  if (cold_ == nullptr) return bytes;
  // Tier bookkeeping: residency metas + offset view.
  bytes += tier_.size() *
           (2 * kHashNodeBytes + sizeof(HotTier::Meta) + 24);
  // Cold in-memory index: sparse primary, append order, secondary offset
  // lists and ordered tree — the per-row footprint that replaces a fully
  // materialized row.
  ColdStore::IndexFootprint footprint = cold_->FootprintOf(name_);
  bytes += footprint.primary_entries * kHashNodeBytes;
  bytes += footprint.overflow_entries * (kHashNodeBytes + 24);
  bytes += footprint.order_entries * 8;
  for (const auto& index : cold_sec_) {
    bytes += index.size() * kHashNodeBytes;
  }
  bytes += cold_sec_entries_ * 8;
  for (const auto& index : cold_ord_) {
    bytes += index.size() * (kTreeNodeBytes + sizeof(Value));
  }
  return bytes;
}

}  // namespace pisrep::storage
