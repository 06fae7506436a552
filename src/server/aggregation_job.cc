#include "server/aggregation_job.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/clock.h"
#include "util/logging.h"

namespace pisrep::server {

std::string AggregationStats::Summary() const {
  return "aggregation run " + std::to_string(run) +
         (full_sweep ? " (full sweep)" : " (incremental)") + ": recomputed " +
         std::to_string(recomputed) + "/" + std::to_string(candidates) +
         " software (dirty: votes=" + std::to_string(dirty_votes) +
         " trust=" + std::to_string(dirty_trust) +
         " priors=" + std::to_string(dirty_priors) + "), " +
         std::to_string(vendors_recomputed) +
         " vendors, " +
         std::to_string(wall_micros) + "us";
}

AggregationJob::AggregationJob(SoftwareRegistry* registry, VoteStore* votes,
                               AccountManager* accounts)
    : registry_(registry), votes_(votes), accounts_(accounts) {}

void AggregationJob::AttachObservability(obs::MetricsRegistry* metrics,
                                         obs::Tracer* tracer) {
  tracer_ = tracer;
  if (metrics == nullptr) {
    runs_metric_ = nullptr;
    full_sweeps_metric_ = nullptr;
    recomputed_metric_ = nullptr;
    skipped_metric_ = nullptr;
    dirty_votes_metric_ = nullptr;
    dirty_trust_metric_ = nullptr;
    dirty_priors_metric_ = nullptr;
    vendors_metric_ = nullptr;
    run_micros_ = nullptr;
    return;
  }
  runs_metric_ = metrics->GetCounter("pisrep_server_aggregation_runs_total");
  full_sweeps_metric_ =
      metrics->GetCounter("pisrep_server_aggregation_full_sweeps_total");
  recomputed_metric_ =
      metrics->GetCounter("pisrep_server_aggregation_recomputed_total");
  skipped_metric_ =
      metrics->GetCounter("pisrep_server_aggregation_skipped_total");
  dirty_votes_metric_ = metrics->GetCounter(
      obs::WithLabel("pisrep_server_aggregation_dirty_total", "kind",
                     "votes"));
  dirty_trust_metric_ = metrics->GetCounter(
      obs::WithLabel("pisrep_server_aggregation_dirty_total", "kind",
                     "trust"));
  dirty_priors_metric_ = metrics->GetCounter(
      obs::WithLabel("pisrep_server_aggregation_dirty_total", "kind",
                     "priors"));
  vendors_metric_ = metrics->GetCounter(
      "pisrep_server_aggregation_vendors_recomputed_total");
  // Wall-clock-valued (instrumentation only): same caveat as
  // stats_.wall_micros, which it mirrors.
  run_micros_ = metrics->GetHistogram(
      "pisrep_server_aggregation_run_micros",
      {100.0, 1000.0, 10000.0, 100000.0, 1000000.0});
}

void AggregationJob::EmitStats() {
  // Every figure below comes from the same stats_ snapshot that Summary()
  // formats into the log line, so the two surfaces cannot diverge.
  if (runs_metric_ == nullptr) return;
  runs_metric_->Increment();
  if (stats_.full_sweep) full_sweeps_metric_->Increment();
  recomputed_metric_->Increment(stats_.recomputed);
  skipped_metric_->Increment(stats_.skipped);
  dirty_votes_metric_->Increment(stats_.dirty_votes);
  dirty_trust_metric_->Increment(stats_.dirty_trust);
  dirty_priors_metric_->Increment(stats_.dirty_priors);
  vendors_metric_->Increment(stats_.vendors_recomputed);
  run_micros_->Observe(static_cast<double>(stats_.wall_micros));
}

std::size_t AggregationJob::RunOnce(util::TimePoint now, bool full_sweep) {
  ++runs_;
  // Root span: aggregation runs are loop events, not RPC handlers, so
  // there is no inbound trace to continue.
  obs::Span span;
  if (tracer_ != nullptr) span = tracer_->StartSpan("aggregation.run");
  const std::int64_t started = util::MonotonicMicros();
  // The first run after construction is always a full sweep: dirty state is
  // in-memory and did not observe whatever happened before a restart.
  const bool sweep =
      full_sweep || runs_ == 1 ||
      (full_sweep_every_ != 0 && runs_ % full_sweep_every_ == 0);

  // Consume every dirty source even when sweeping, so the next incremental
  // run starts from a clean slate instead of redoing already-swept work.
  std::vector<core::SoftwareId> dirty_votes = votes_->TakeDirtySoftware();
  std::vector<core::SoftwareId> dirty_priors = registry_->TakeDirtyPriors();
  const std::uint64_t trust_generation = accounts_->trust_generation();
  std::vector<core::UserId> trust_changed =
      accounts_->TrustChangedSince(trust_generation_seen_);
  trust_generation_seen_ = trust_generation;
  accounts_->PruneTrustChangesBefore(trust_generation);

  stats_ = AggregationStats{};
  stats_.run = runs_;
  stats_.full_sweep = sweep;
  stats_.candidates = votes_->RatedSoftwareCount();
  stats_.dirty_votes = dirty_votes.size();
  stats_.dirty_priors = dirty_priors.size();

  // Target assembly. Incremental targets are deduplicated in a fixed order
  // (vote-dirty, then trust-dirty, then prior-dirty) so repeated runs over
  // the same dirt recompute in the same sequence. Ids without votes are
  // skipped: a full sweep would not touch them either (RatedSoftware), so
  // skipping keeps the two modes byte-identical.
  std::vector<core::SoftwareId> targets;
  if (sweep) {
    targets = votes_->RatedSoftware();
  } else {
    std::unordered_set<std::string> seen;
    auto add = [&](const core::SoftwareId& id) {
      if (votes_->VoteCountFor(id) == 0) return false;
      if (!seen.insert(id.ToHex()).second) return false;
      targets.push_back(id);
      return true;
    };
    for (const core::SoftwareId& id : dirty_votes) add(id);
    if (trust_weighting_) {
      // A trust change re-weighs only *linkable* votes; pseudonymous votes
      // carry a frozen snapshot and are immune (§3.2).
      for (core::UserId user : trust_changed) {
        for (const StoredRating& stored : votes_->VotesByUser(user)) {
          if (stored.trust_snapshot > 0.0) continue;
          if (add(stored.record.software)) ++stats_.dirty_trust;
        }
      }
    }
    for (const core::SoftwareId& id : dirty_priors) add(id);
  }

  // When the run will touch more votes than there are accounts, snapshot
  // every trust factor in one users-table scan up front. Per-vote
  // TrustFactor() copies a full account row (five string columns) per call,
  // which dominates large runs. The map holds the same live values a
  // per-vote lookup would see (nothing mutates accounts mid-run), so output
  // is unchanged.
  std::unordered_map<core::UserId, double> trust_cache;
  bool use_trust_cache = false;
  if (trust_weighting_) {
    std::size_t vote_work = 0;
    for (const core::SoftwareId& id : targets) {
      vote_work += votes_->VoteCountFor(id);
    }
    if (vote_work >= accounts_->AccountCount()) {
      trust_cache = accounts_->AllTrustFactors();
      use_trust_cache = true;
    }
  }

  // Per-software compute reads votes, trust factors and the target's own
  // prior; PutScore writes only the target's score, so each score can be
  // written as soon as it is computed.
  auto compute = [&](const core::SoftwareId& software) {
    std::vector<core::WeightedVote> weighted;
    weighted.reserve(votes_->VoteCountFor(software) + 1);
    votes_->ForEachVoteOn(
        software, [&](core::UserId user, int score, double trust_snapshot) {
          // Pseudonymous votes carry their weight frozen at vote time;
          // linkable votes use the voter's *current* trust factor (§3.2).
          // The ablation switch flattens everything to 1.
          double weight = 1.0;
          if (trust_weighting_) {
            if (trust_snapshot > 0.0) {
              weight = trust_snapshot;
            } else if (use_trust_cache) {
              auto it = trust_cache.find(user);
              // A miss means the voter has no account row; fall through to
              // TrustFactor so the unknown-user default stays in one place.
              weight = it != trust_cache.end() ? it->second
                                               : accounts_->TrustFactor(user);
            } else {
              weight = accounts_->TrustFactor(user);
            }
          }
          weighted.push_back(
              core::WeightedVote{static_cast<double>(score), weight});
        });
    // Blend the bootstrap prior (§2.1 second approach) as synthetic weight:
    // imported scores behave like an existing body of votes, so a handful
    // of novice ratings become "one out of many, rather than the one and
    // only".
    auto [boot_score, boot_weight] = registry_->GetBootstrapPrior(software);
    if (boot_weight > 0.0) {
      weighted.push_back(core::WeightedVote{boot_score, boot_weight});
    }
    core::SoftwareScore score =
        core::RatingAggregator::Aggregate(software, weighted, now);
    if (boot_weight > 0.0) {
      // The prior is not a community vote; do not count it as one.
      score.vote_count -= 1;
    }
    return score;
  };

  std::size_t recomputed = 0;
  for (const core::SoftwareId& software : targets) {
    util::Status put = registry_->PutScore(compute(software));
    if (!put.ok()) {
      PISREP_LOG(kWarning) << "aggregation: PutScore(" << software.ToHex()
                           << ") failed: " << put;
      continue;
    }
    ++recomputed;
  }
  stats_.recomputed = recomputed;
  stats_.skipped = stats_.candidates - std::min(stats_.candidates,
                                                targets.size());

  // Vendor scores: mean over the vendor's scored software (§3.2). Both
  // modes gather through SoftwareByVendor so the floating-point summation
  // order is identical whether a vendor was reached by a sweep or by one
  // dirty title.
  std::vector<core::VendorId> vendors;
  std::unordered_set<std::string> vendor_seen;
  auto add_vendor = [&](const core::SoftwareId& software) {
    auto meta = registry_->GetSoftware(software);
    if (!meta.ok() || meta->company.empty()) return;
    if (!vendor_seen.insert(meta->company).second) return;
    vendors.push_back(meta->company);
  };
  if (sweep) {
    for (const core::SoftwareId& software : registry_->AllSoftware()) {
      add_vendor(software);
    }
  } else {
    for (const core::SoftwareId& software : targets) add_vendor(software);
    // A rewritten prior on a zero-vote title never enters `targets` (its
    // visible row was updated by PutBootstrapPrior directly), but the
    // vendor mean reads that row — the vendor is dirty even though no
    // software score was recomputed.
    for (const core::SoftwareId& software : dirty_priors) {
      add_vendor(software);
    }
  }
  for (const core::VendorId& vendor : vendors) {
    std::vector<core::SoftwareScore> scores;
    for (const core::SoftwareMeta& meta :
         registry_->SoftwareByVendor(vendor)) {
      auto score = registry_->GetScore(meta.id);
      if (score.ok()) scores.push_back(*score);
    }
    if (scores.empty()) continue;
    util::Status put = registry_->PutVendorScore(
        core::RatingAggregator::AggregateVendor(vendor, scores, now));
    if (!put.ok()) {
      PISREP_LOG(kWarning) << "aggregation: PutVendorScore(" << vendor
                           << ") failed: " << put;
      continue;
    }
    ++stats_.vendors_recomputed;
  }

  stats_.wall_micros = util::MonotonicMicros() - started;
  EmitStats();
  PISREP_LOG(kInfo) << stats_.Summary();
  span.Finish();
  // Post-run hook (snapshot publication): runs on the calling thread, once
  // every write of this run is in the stores, for scheduled and manual
  // runs alike.
  if (post_run_) post_run_(stats_);
  return recomputed;
}

void AggregationJob::Schedule(net::EventLoop* loop, util::Duration period) {
  CancelSchedule();
  loop_ = loop;
  period_ = period;
  schedule_token_ = std::make_shared<int>(0);
  ScheduleNext();
}

void AggregationJob::ScheduleNext() {
  // A self-rescheduling chain (not SchedulePeriodic): each link checks the
  // token, so cancellation — including destruction of the job — turns any
  // still-queued event into a no-op instead of a dangling call.
  loop_->ScheduleAfter(
      period_, [this, token = std::weak_ptr<int>(schedule_token_)] {
        if (token.expired()) return;
        RunOnce(loop_->Now());
        ScheduleNext();
      });
}

}  // namespace pisrep::server
