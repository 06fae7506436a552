#include "storage/database.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "storage/codec.h"
#include "util/logging.h"

namespace pisrep::storage {

namespace {
using util::Result;
using util::Status;
}  // namespace

Database::Database(std::string wal_path) : wal_path_(std::move(wal_path)) {}

Result<std::unique_ptr<Database>> Database::Open(const std::string& wal_path) {
  return Open(wal_path, OpenOptions{});
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& wal_path,
                                                 const OpenOptions& options) {
  // Private constructor: std::make_unique cannot reach it.
  // pisrep-lint: allow(raw-new-delete)
  std::unique_ptr<Database> db(new Database(wal_path));
  if (!wal_path.empty()) {
    PISREP_RETURN_IF_ERROR(db->Replay(options));
    PISREP_RETURN_IF_ERROR(db->wal_.Open(wal_path));
  }
  return db;
}

Status Database::Replay(const OpenOptions& options) {
  WalReader reader;
  PISREP_RETURN_IF_ERROR(reader.Open(wal_path_));
  for (;;) {
    std::size_t frame_start = reader.offset();
    auto frame = reader.Next();
    if (!frame.ok()) {
      if (frame.status().code() == util::StatusCode::kNotFound) {
        if (frame_start < reader.offset()) {
          // Torn final frame (crash mid-append). The partial bytes were
          // never committed — chop them off so subsequent appends extend
          // intact data instead of burying garbage mid-log.
          std::error_code ec;
          std::filesystem::resize_file(wal_path_, frame_start, ec);
          if (ec) {
            return Status::DataLoss("cannot trim torn WAL tail of " +
                                    wal_path_ + ": " + ec.message());
          }
        }
        break;
      }
      if (!options.salvage_corruption) return frame.status();
      return SalvageTail(frame_start, frame.status());
    }
    Status applied = ApplyFrame(*frame);
    if (!applied.ok()) {
      if (!options.salvage_corruption) return applied;
      return SalvageTail(frame_start, applied);
    }
  }
  return Status::Ok();
}

Status Database::ApplyFrame(const std::string& frame) {
  Decoder dec(frame);
  PISREP_ASSIGN_OR_RETURN(std::uint8_t op_byte, dec.GetByte());
  WalOp op = static_cast<WalOp>(op_byte);
  switch (op) {
    case WalOp::kCreateTable: {
      PISREP_ASSIGN_OR_RETURN(TableSchema schema, DecodeSchema(dec));
      std::string name = schema.table_name();
      if (tables_.contains(name)) {
        return Status::DataLoss("duplicate create-table in WAL: " + name);
      }
      InstallTable(std::make_unique<Table>(std::move(schema)));
      break;
    }
    case WalOp::kInsert:
    case WalOp::kUpsert: {
      PISREP_ASSIGN_OR_RETURN(std::string name, dec.GetLengthPrefixed());
      auto it = tables_.find(name);
      if (it == tables_.end()) {
        return Status::DataLoss("WAL references unknown table: " + name);
      }
      Table* table = it->second.get();
      PISREP_ASSIGN_OR_RETURN(Row row, DecodeRow(table->schema(), dec));
      // Inserts stay strict: a duplicate key in the log is corruption.
      PISREP_RETURN_IF_ERROR(op == WalOp::kInsert
                                 ? table->InsertUnlogged(std::move(row))
                                 : table->UpsertUnlogged(std::move(row)));
      break;
    }
    case WalOp::kDelete: {
      PISREP_ASSIGN_OR_RETURN(std::string name, dec.GetLengthPrefixed());
      auto it = tables_.find(name);
      if (it == tables_.end()) {
        return Status::DataLoss("WAL references unknown table: " + name);
      }
      Table* table = it->second.get();
      const TableSchema& schema = table->schema();
      ColumnType key_type =
          schema.columns()[schema.primary_key_index()].type;
      PISREP_ASSIGN_OR_RETURN(Value key, DecodeValue(key_type, dec));
      PISREP_RETURN_IF_ERROR(table->DeleteUnlogged(key));
      break;
    }
    default:
      return Status::DataLoss("unknown WAL op");
  }
  return Status::Ok();
}

Status Database::SalvageTail(std::size_t prefix_len,
                             const util::Status& cause) {
  recovered_with_loss_ = true;
  std::error_code ec;
  std::filesystem::resize_file(wal_path_, prefix_len, ec);
  if (ec) {
    return Status::DataLoss("cannot truncate corrupted WAL " + wal_path_ +
                            ": " + ec.message());
  }
  PISREP_LOG(kWarning) << "WAL " << wal_path_
                       << " corrupted: " << cause.ToString() << "; salvaged "
                       << prefix_len << "-byte prefix";
  return Status::Ok();
}

void Database::InstallTable(std::unique_ptr<Table> table) {
  std::string name = table->schema().table_name();
  table->SetMutationListener(
      [this, name](MutationOp op, const Row& row, const Value& key) {
        LogMutation(name, op, row, key);
      });
  tables_.emplace(name, std::move(table));
}

Status Database::CreateTable(const TableSchema& schema) {
  const std::string& name = schema.table_name();
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  PISREP_RETURN_IF_ERROR(LogCreateTable(schema));
  InstallTable(std::make_unique<Table>(schema));
  return Status::Ok();
}

bool Database::HasTable(std::string_view name) const {
  return tables_.contains(std::string(name));
}

Result<Table*> Database::GetTable(std::string_view name) {
  auto it = tables_.find(std::string(name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + std::string(name));
  }
  return it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void Database::SetAutoCompact(double factor, std::size_t min_frames) {
  auto_compact_factor_ = factor;
  auto_compact_min_frames_ = min_frames;
}

void Database::MaybeAutoCompact() {
  if (auto_compact_factor_ <= 0.0 || compacting_) return;
  if (frames_since_compact_ < auto_compact_min_frames_) return;
  if (static_cast<double>(frames_since_compact_) <
      auto_compact_factor_ * static_cast<double>(TotalRows() + 1)) {
    return;
  }
  Status status = Compact();
  PISREP_CHECK(status.ok()) << "auto-compaction failed: "
                            << status.ToString();
}

Status Database::Compact() {
  if (wal_path_.empty()) return Status::Ok();
  // Write a fresh log containing schema + current rows, then reopen it for
  // appending. Recovery stays uniform: a snapshot is just a shorter log.
  compacting_ = true;
  frames_since_compact_ = 0;
  ++compactions_;
  PISREP_RETURN_IF_ERROR(wal_.OpenTruncated(wal_path_));
  for (const std::string& name : TableNames()) {
    Table* table = tables_.at(name).get();
    std::string frame;
    frame.push_back(static_cast<char>(WalOp::kCreateTable));
    EncodeSchema(table->schema(), &frame);
    PISREP_RETURN_IF_ERROR(wal_.Append(frame));
    Status row_status = Status::Ok();
    table->ForEach([&](const Row& row) {
      if (!row_status.ok()) return;
      std::string row_frame;
      row_frame.push_back(static_cast<char>(WalOp::kInsert));
      PutLengthPrefixed(name, &row_frame);
      EncodeRow(table->schema(), row, &row_frame);
      row_status = wal_.Append(row_frame);
    });
    if (!row_status.ok()) {
      compacting_ = false;
      return row_status;
    }
  }
  compacting_ = false;
  return Status::Ok();
}

std::size_t Database::TotalRows() const {
  std::size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->size();
  return total;
}

Status Database::LogCreateTable(const TableSchema& schema) {
  if (!wal_.is_open()) return Status::Ok();
  std::string frame;
  frame.push_back(static_cast<char>(WalOp::kCreateTable));
  EncodeSchema(schema, &frame);
  PISREP_RETURN_IF_ERROR(wal_.Append(frame));
  ++frames_since_compact_;
  return Status::Ok();
}

void Database::SetFrameListener(FrameListener listener) {
  frame_listener_ = std::move(listener);
}

Status Database::ApplyReplicatedFrame(const std::string& frame) {
  PISREP_RETURN_IF_ERROR(ApplyFrame(frame));
  // Journal the imported frame for this database's own durability; apply
  // above went through the *Unlogged paths, so this is the only append.
  if (wal_.is_open()) {
    PISREP_RETURN_IF_ERROR(wal_.Append(frame));
    ++frames_since_compact_;
    MaybeAutoCompact();
  }
  return Status::Ok();
}

Status Database::ExportSnapshotFrames(
    const std::function<util::Status(const std::string&)>& emit) {
  for (const std::string& name : TableNames()) {
    Table* table = tables_.at(name).get();
    std::string frame;
    frame.push_back(static_cast<char>(WalOp::kCreateTable));
    EncodeSchema(table->schema(), &frame);
    PISREP_RETURN_IF_ERROR(emit(frame));
  }
  for (const std::string& name : TableNames()) {
    Table* table = tables_.at(name).get();
    Status row_status = Status::Ok();
    table->ForEach([&](const Row& row) {
      if (!row_status.ok()) return;
      std::string row_frame;
      row_frame.push_back(static_cast<char>(WalOp::kInsert));
      PutLengthPrefixed(name, &row_frame);
      EncodeRow(table->schema(), row, &row_frame);
      row_status = emit(row_frame);
    });
    PISREP_RETURN_IF_ERROR(row_status);
  }
  return Status::Ok();
}

void Database::LogMutation(const std::string& table_name, MutationOp op,
                           const Row& row, const Value& key) {
  bool journal = wal_.is_open();
  if (!journal && !frame_listener_) return;
  std::string frame;
  Table* table = tables_.at(table_name).get();
  switch (op) {
    case MutationOp::kInsert:
      frame.push_back(static_cast<char>(WalOp::kInsert));
      PutLengthPrefixed(table_name, &frame);
      EncodeRow(table->schema(), row, &frame);
      break;
    case MutationOp::kUpsert:
      frame.push_back(static_cast<char>(WalOp::kUpsert));
      PutLengthPrefixed(table_name, &frame);
      EncodeRow(table->schema(), row, &frame);
      break;
    case MutationOp::kDelete:
      frame.push_back(static_cast<char>(WalOp::kDelete));
      PutLengthPrefixed(table_name, &frame);
      EncodeValue(key, &frame);
      break;
  }
  if (journal) {
    Status status = wal_.Append(frame);
    PISREP_CHECK(status.ok()) << "WAL append failed: " << status.ToString();
    ++frames_since_compact_;
  }
  if (frame_listener_) frame_listener_(frame);
  if (journal) MaybeAutoCompact();
}

}  // namespace pisrep::storage
