#ifndef PISREP_SERVER_SCORE_SNAPSHOT_H_
#define PISREP_SERVER_SCORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/types.h"
#include "proto/wire.h"
#include "server/software_registry.h"
#include "server/vote_store.h"
#include "util/clock.h"

namespace pisrep::server {

/// An immutable, epoch-numbered materialization of everything the read
/// path serves (DESIGN.md §14): every digest's full QuerySoftware answer,
/// frozen at publication time. Built and read on the server's loop thread;
/// a caller that holds the shared_ptr keeps its epoch after the next
/// publication replaces it.
struct ScoreSnapshot {
  /// 1-based publication counter (monotonic per server).
  std::uint64_t epoch = 0;
  /// Sim time of publication (drives the snapshot-age gauge).
  util::TimePoint published_at = 0;
  /// Content generations of the two mutable stores at build time. The
  /// gated read path serves from the snapshot only while these still match
  /// the live stores, so a hit answers exactly what the stores would.
  std::uint64_t registry_generation = 0;
  std::uint64_t votes_generation = 0;

  /// Digest → fully materialized QuerySoftware answer. Digests known only
  /// through run statistics are present too (run_count set, known=false),
  /// mirroring the slow path's handling of unregistered software.
  std::unordered_map<core::SoftwareId, proto::SoftwareInfo,
                     core::SoftwareIdHash>
      by_software;
};

/// The answer the snapshot gives for `id`: its materialized entry when the
/// digest is known, otherwise an empty known=false record carrying the
/// digest — the same answer MaterializeSoftwareInfo gives for it.
proto::SoftwareInfo LookupSnapshotInfo(const ScoreSnapshot& snapshot,
                                       const core::SoftwareId& id);

/// Rendering knobs copied from ReputationServer::Config.
struct SnapshotBuildOptions {
  std::size_t max_comments_per_query = 10;
  int behavior_report_threshold = 2;
};

/// The QuerySoftware answer for `id`, read from the live stores: a full
/// entry when the digest is registered, otherwise a known=false record
/// carrying the digest and its run count (run statistics attach before
/// any registration). The snapshot build and the read path's gate-miss
/// branch both answer through this one function.
proto::SoftwareInfo MaterializeSoftwareInfo(const SoftwareRegistry& registry,
                                            const VoteStore& votes,
                                            const SnapshotBuildOptions& options,
                                            const core::SoftwareId& id);

/// Materializes a snapshot of every registered or run-counted digest from
/// the live stores. The result is immutable.
std::shared_ptr<const ScoreSnapshot> BuildScoreSnapshot(
    const SoftwareRegistry& registry, const VoteStore& votes,
    const SnapshotBuildOptions& options, std::uint64_t epoch,
    util::TimePoint now);

}  // namespace pisrep::server

#endif  // PISREP_SERVER_SCORE_SNAPSHOT_H_
