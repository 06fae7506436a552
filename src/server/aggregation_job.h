#ifndef PISREP_SERVER_AGGREGATION_JOB_H_
#define PISREP_SERVER_AGGREGATION_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/rating_aggregator.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/account_manager.h"
#include "server/software_registry.h"
#include "server/vote_store.h"

namespace pisrep::server {

/// Instrumentation for one aggregation run (logged, exposed for tests and
/// the A4 benchmark).
struct AggregationStats {
  std::uint64_t run = 0;        ///< 1-based run counter
  bool full_sweep = false;      ///< true when every rated software was redone
  std::size_t candidates = 0;   ///< distinct software with >= 1 vote
  std::size_t recomputed = 0;   ///< software whose score was recomputed
  std::size_t skipped = 0;      ///< candidates - recomputed (clean entries)
  std::size_t dirty_votes = 0;  ///< dirtied by SubmitRating / SetApproved
  std::size_t dirty_trust = 0;  ///< dirtied via a voter's trust change
  std::size_t dirty_priors = 0; ///< dirtied by a bootstrap-prior write
  std::size_t vendors_recomputed = 0;
  std::int64_t wall_micros = 0; ///< real elapsed time (instrumentation only)

  /// The kInfo log line for this run. The metrics emission and the log
  /// derive from the same snapshot via this single formatter, so the two
  /// surfaces can never disagree (asserted in aggregation_incremental_test).
  std::string Summary() const;
};

/// The score recomputation job (§3.2: "Software ratings are calculated at
/// fixed points in time (currently once in every 24-hour period). During
/// this work users' trust factors are taken into consideration").
///
/// The paper recomputes everything every 24 h; at millions of votes that
/// makes the recompute cost — not the period — the scaling limit. This job
/// is therefore *incremental*: each run recomputes only the union of
///
///   - software touched by SubmitRating / SetApproved (VoteStore dirty set),
///   - software voted on (linkably) by accounts whose trust factor changed
///     since the previous run (AccountManager trust generation, mapped back
///     through VotesByUser; pseudonymous votes carry frozen weights and are
///     immune to trust changes),
///   - software whose bootstrap prior was rewritten (SoftwareRegistry),
///
/// and vendor scores only for vendors owning a recomputed title. A
/// `full_sweep` escape hatch, a forced full sweep every Nth run
/// (set_full_sweep_every), and an unconditional full sweep on a job's first
/// run (dirty state is in-memory and lost on restart) guard against drift.
///
/// The job runs on the calling thread (the server's event-loop thread for
/// scheduled runs): storage::Database is single-writer, and each score is
/// computed and written before the next target is read.
class AggregationJob {
 public:
  /// Every Nth scheduled run is widened to a full sweep by default.
  static constexpr std::uint64_t kDefaultFullSweepEvery = 16;

  AggregationJob(SoftwareRegistry* registry, VoteStore* votes,
                 AccountManager* accounts);

  /// Ablation switch: when false, every vote weighs 1 regardless of the
  /// voter's trust factor (the §2.1 "unweighted" baseline).
  void set_trust_weighting(bool enabled) { trust_weighting_ = enabled; }
  bool trust_weighting() const { return trust_weighting_; }

  /// Forces a full sweep every `n` runs; 0 disables the periodic guard
  /// (the first run and RunOnce's `full_sweep` argument still sweep fully).
  void set_full_sweep_every(std::uint64_t n) { full_sweep_every_ = n; }

  /// Recomputes scores as of `now` — incrementally, unless `full_sweep`
  /// asks for the paper's recompute-everything behaviour. Returns the
  /// number of software entries whose score was recomputed.
  std::size_t RunOnce(util::TimePoint now, bool full_sweep = false);

  /// Stats for the most recent RunOnce.
  const AggregationStats& last_stats() const { return stats_; }

  /// Hook invoked on the calling thread at the end of every completed run
  /// (scheduled and manual), after all score/vendor writes have landed.
  /// The reputation server publishes its read-path snapshot from here, so
  /// publication can never observe a half-written run.
  void set_post_run(std::function<void(const AggregationStats&)> hook) {
    post_run_ = std::move(hook);
  }

  /// After each run the AggregationStats snapshot is folded into run /
  /// sweep / recompute counters and a run-duration histogram on `metrics`,
  /// and the run executes under an `aggregation.run` root span on
  /// `tracer`. Either may be null; both must outlive the job.
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::Tracer* tracer);

  /// Installs the job on the loop, first run after one period. The job
  /// reschedules itself after each run; CancelSchedule (or destroying the
  /// job) stops the chain. Calling Schedule again replaces any existing
  /// schedule. Scheduled runs are incremental (with the periodic forced
  /// full sweep).
  void Schedule(net::EventLoop* loop,
                util::Duration period = core::kAggregationPeriod);

  /// Stops the periodic schedule. Already-queued loop events become
  /// no-ops, so this is safe to call at any point (server shutdown).
  void CancelSchedule() { schedule_token_.reset(); }

  bool scheduled() const { return schedule_token_ != nullptr; }

  std::uint64_t runs() const { return runs_; }

 private:
  void ScheduleNext();
  /// Adds the freshly finished run's stats_ to the registry counters.
  void EmitStats();

  SoftwareRegistry* registry_;
  VoteStore* votes_;
  AccountManager* accounts_;
  bool trust_weighting_ = true;
  std::uint64_t full_sweep_every_ = kDefaultFullSweepEvery;
  /// Trust generation already folded into scores by previous runs.
  std::uint64_t trust_generation_seen_ = 0;
  std::uint64_t runs_ = 0;
  AggregationStats stats_;
  std::function<void(const AggregationStats&)> post_run_;
  net::EventLoop* loop_ = nullptr;
  util::Duration period_ = 0;
  /// Liveness token: queued loop callbacks hold a weak_ptr and fire only
  /// while this schedule (and this job) is still alive.
  std::shared_ptr<int> schedule_token_;

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* runs_metric_ = nullptr;
  obs::Counter* full_sweeps_metric_ = nullptr;
  obs::Counter* recomputed_metric_ = nullptr;
  obs::Counter* skipped_metric_ = nullptr;
  obs::Counter* dirty_votes_metric_ = nullptr;
  obs::Counter* dirty_trust_metric_ = nullptr;
  obs::Counter* dirty_priors_metric_ = nullptr;
  obs::Counter* vendors_metric_ = nullptr;
  obs::Histogram* run_micros_ = nullptr;
};

}  // namespace pisrep::server

#endif  // PISREP_SERVER_AGGREGATION_JOB_H_
