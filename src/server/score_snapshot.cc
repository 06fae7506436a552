#include "server/score_snapshot.h"

#include <utility>

namespace pisrep::server {

proto::SoftwareInfo LookupSnapshotInfo(const ScoreSnapshot& snapshot,
                                       const core::SoftwareId& id) {
  auto it = snapshot.by_software.find(id);
  if (it != snapshot.by_software.end()) return it->second;
  // Unknown digest: the same shape the slow path returns for software that
  // is neither registered nor run-counted.
  proto::SoftwareInfo info;
  info.meta.id = id;
  info.known = false;
  return info;
}

proto::SoftwareInfo MaterializeSoftwareInfo(const SoftwareRegistry& registry,
                                            const VoteStore& votes,
                                            const SnapshotBuildOptions& options,
                                            const core::SoftwareId& id) {
  proto::SoftwareInfo info;
  info.run_count = registry.RunCount(id);
  auto meta = registry.GetSoftware(id);
  if (!meta.ok()) {
    info.meta.id = id;
    info.known = false;
    return info;
  }
  info.meta = *std::move(meta);
  info.known = true;
  auto score = registry.GetScore(id);
  if (score.ok()) info.score = *score;
  if (!info.meta.company.empty()) {
    auto vendor = registry.GetVendorScore(info.meta.company);
    if (vendor.ok()) info.vendor_score = *vendor;
  }
  info.reported_behaviors =
      registry.ReportedBehaviors(id, options.behavior_report_threshold);
  info.comments = votes.VisibleComments(id, options.max_comments_per_query);
  return info;
}

std::shared_ptr<const ScoreSnapshot> BuildScoreSnapshot(
    const SoftwareRegistry& registry, const VoteStore& votes,
    const SnapshotBuildOptions& options, std::uint64_t epoch,
    util::TimePoint now) {
  auto snapshot = std::make_shared<ScoreSnapshot>();
  snapshot->epoch = epoch;
  snapshot->published_at = now;
  snapshot->registry_generation = registry.content_generation();
  snapshot->votes_generation = votes.content_generation();
  for (const core::SoftwareId& id : registry.AllSoftware()) {
    snapshot->by_software.emplace(
        id, MaterializeSoftwareInfo(registry, votes, options, id));
  }
  for (const auto& [id, runs] : registry.AllRunCounts()) {
    if (snapshot->by_software.count(id) != 0) continue;
    snapshot->by_software.emplace(
        id, MaterializeSoftwareInfo(registry, votes, options, id));
  }
  return snapshot;
}

}  // namespace pisrep::server
