#ifndef PISREP_STORAGE_DATABASE_H_
#define PISREP_STORAGE_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/table.h"
#include "storage/wal.h"
#include "util/status.h"

namespace pisrep::storage {

/// A collection of named tables with optional write-ahead-log durability.
///
/// The reputation server (§3.2) keeps "registered user information, ratings
/// and comments" in a database; this embedded engine is that substrate. With
/// a WAL path, every mutation is journaled and Open() recovers the full
/// state by replay; with an empty path the database is purely in-memory
/// (used by most simulations for speed).
class Database {
 public:
  struct OpenOptions {
    /// When true, a corrupted WAL does not fail Open: replay stops at the
    /// first bad frame, the file is truncated to the intact prefix (so
    /// subsequent appends extend good data, not garbage), and
    /// recovered_with_loss() reports the amputation. Every frame before
    /// the corruption is applied — a crash-damaged server restarts with
    /// everything it had durably logged up to that point.
    bool salvage_corruption = false;
  };

  /// Opens a database. `wal_path` empty → in-memory only. When the file
  /// exists, its log is replayed before the call returns.
  static util::Result<std::unique_ptr<Database>> Open(
      const std::string& wal_path);
  static util::Result<std::unique_ptr<Database>> Open(
      const std::string& wal_path, const OpenOptions& options);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a table; fails with kAlreadyExists on a name collision.
  util::Status CreateTable(const TableSchema& schema);

  bool HasTable(std::string_view name) const;

  /// Pointer remains valid for the database's lifetime.
  util::Result<Table*> GetTable(std::string_view name);

  std::vector<std::string> TableNames() const;

  /// Rewrites the WAL as a compact snapshot (schema + inserts) of current
  /// state. No-op for in-memory databases.
  util::Status Compact();

  /// Enables automatic compaction: whenever the number of frames appended
  /// since the last snapshot exceeds max(min_frames, factor * live rows),
  /// the log is rewritten. Pass factor 0 to disable. Typical: factor 10 —
  /// the log never exceeds ~10x the live data in churn-heavy workloads
  /// (e.g. daily score upserts).
  void SetAutoCompact(double factor, std::size_t min_frames = 1024);

  /// Frames appended since the last compaction (or open).
  std::size_t FramesSinceCompaction() const { return frames_since_compact_; }
  std::size_t compactions() const { return compactions_; }

  /// Total live rows across all tables (for stats and tests).
  std::size_t TotalRows() const;

  /// True when salvage mode dropped a corrupted WAL tail during Open.
  bool recovered_with_loss() const { return recovered_with_loss_; }

  // -- Replication ----------------------------------------------------------

  /// Observes every mutation frame (insert/upsert/delete) in WAL wire
  /// format, including on in-memory databases that write no log file.
  /// This is the replication export hook: a cluster primary ships these
  /// frames to its backup. Create-table frames are not exported — replicas
  /// bootstrap their schemas from ExportSnapshotFrames. One listener;
  /// setting replaces, an empty function clears.
  using FrameListener = std::function<void(const std::string& frame)>;
  void SetFrameListener(FrameListener listener);

  /// Applies one WAL frame produced by another database (the replication
  /// import hook). The frame is journaled to this database's own WAL when
  /// one is open, but is NOT re-announced to the frame listener; chains
  /// re-export explicitly after promotion, which keeps a primary⇄backup
  /// pair loop-free by construction.
  util::Status ApplyReplicatedFrame(const std::string& frame);

  /// Emits the database's full state as WAL frames (schemas first, then
  /// every row as an insert), in deterministic table-name order. Feeding
  /// the frames to an empty database's ApplyReplicatedFrame reproduces the
  /// state — the replica bootstrap / catch-up-resync path. Stops at the
  /// first emit error and returns it.
  util::Status ExportSnapshotFrames(
      const std::function<util::Status(const std::string&)>& emit);

 private:
  explicit Database(std::string wal_path);

  util::Status Replay(const OpenOptions& options);
  /// Applies one decoded WAL frame to the in-memory tables without
  /// notifying the mutation listeners.
  util::Status ApplyFrame(const std::string& frame);
  /// Truncates the WAL to `prefix_len` bytes after hitting `cause`.
  util::Status SalvageTail(std::size_t prefix_len, const util::Status& cause);
  util::Status LogCreateTable(const TableSchema& schema);
  void LogMutation(const std::string& table_name, MutationOp op,
                   const Row& row, const Value& key);
  /// Registers a new table and wires its mutation listener.
  void InstallTable(std::unique_ptr<Table> table);

  void MaybeAutoCompact();

  std::string wal_path_;
  WalWriter wal_;
  FrameListener frame_listener_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  double auto_compact_factor_ = 0.0;
  std::size_t auto_compact_min_frames_ = 1024;
  std::size_t frames_since_compact_ = 0;
  std::size_t compactions_ = 0;
  bool compacting_ = false;
  bool recovered_with_loss_ = false;
};

}  // namespace pisrep::storage

#endif  // PISREP_STORAGE_DATABASE_H_
