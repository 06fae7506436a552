// The §3.2 daily job on one WAL-backed server: repeated full sweeps, and
// simulated days that each apply a delta touching all three dirty-set
// sources (new votes, trust-changing remarks, a bootstrap prior) before an
// incremental run. No RPC and no client.

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "phase.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "wall_clock.h"

namespace pisrep::perfbench {
namespace {

constexpr std::size_t kVotesPerUser = 20;
constexpr std::size_t kVotesPerProgram = 100;
constexpr std::size_t kTrustChangesPerDay = 100;
const char* const kPassword = "password";

class AggregatePhase : public Phase {
 public:
  explicit AggregatePhase(const PhaseParams& params)
      : params_(params),
        votes_(params.full ? 1000000 : 100000),
        programs_(votes_ / kVotesPerProgram),
        users_(votes_ / kVotesPerUser),
        rng_(params.seed ^ 0xa99e9a7e),
        op_(params.op_base) {}

  void Setup() override {
    ResetDirectory(params_.dir);
    auto db = storage::Database::Open(params_.dir + "/server.wal");
    MustOk(db, "open aggregate database");
    db_ = std::move(*db);
    // No event loop: the job runs only when the benchmark calls it.
    server::ReputationServer::Config config;
    server_ = std::make_unique<server::ReputationServer>(db_.get(), nullptr,
                                                         config);

    util::Rng rng(params_.seed ^ 0x5e7a99);
    const std::size_t vendors = programs_ / 20;
    ids_.reserve(programs_);
    for (std::size_t p = 0; p < programs_; ++p) {
      core::SoftwareMeta meta;
      meta.id = util::Sha1::Hash(util::StrFormat(
          "aggregate program %zu seed %llu", p,
          static_cast<unsigned long long>(params_.seed)));
      meta.file_name = util::StrFormat("p%zu.exe", p);
      meta.file_size = 4096;
      meta.company = util::StrFormat("vendor%zu", p % vendors);
      meta.version = "1.0";
      MustOk(server_->registry().RegisterSoftware(meta), "register software");
      ids_.push_back(meta.id);
    }
    user_ids_.reserve(users_);
    for (std::size_t u = 0; u < users_; ++u) {
      std::string name = util::StrFormat("u%zu", u);
      MustOk(server_->accounts().Register(name, kPassword,
                                          name + "@aggregate.example", 0),
             "register user");
      user_ids_.push_back(
          server_->accounts().GetAccountByUsername(name)->id);
    }
    // Diversify trust so votes weigh differently.
    for (std::size_t u = 0; u < users_; u += 7) {
      for (std::size_t r = 0; r <= u % 5; ++r) {
        MustOk(server_->accounts().ApplyRemark(user_ids_[u], true,
                                               30 * util::kWeek),
               "apply remark");
      }
    }
    // Each user rates kVotesPerUser distinct programs; the stride is kept
    // coprime to the program count so a user's picks never collide.
    std::size_t stride = 13 + rng.NextBelow(64);
    while (std::gcd(stride, programs_) != 1) ++stride;
    const std::size_t offset = rng.NextBelow(programs_);
    for (std::size_t u = 0; u < users_; ++u) {
      for (std::size_t k = 0; k < kVotesPerUser; ++k) {
        core::RatingRecord record;
        record.user = user_ids_[u];
        record.software = ids_[(offset + u + k * stride) % programs_];
        record.score = 1 + static_cast<int>(rng.NextBelow(10));
        record.submitted_at = 0;
        MustOk(server_->votes().SubmitRating(record, true, 0.0),
               "preload vote");
      }
    }
  }

  void Measure(double seconds, double /*share*/, SpanRecorder* spans,
               Report* report, Measurements* out) override {
    if (day_ == 0) {
      // The job's first run is always a full sweep; it fills the score
      // table and is not a sample.
      day_ = 1;
      server_->aggregation().RunOnce(Now(), /*full_sweep=*/true);
    }
    const std::size_t mark = spans->size();
    std::size_t runs = 0;
    double recomputed = 0;
    double candidates = 0;
    WallTimer wall;
    double last_iteration_s = 0;
    // An iteration takes over a second at full size: start another only
    // when most of it fits, so a pass does not overrun its share.
    while (runs == 0 ||
           wall.ElapsedSeconds() + last_iteration_s / 2 < seconds) {
      WallTimer iteration;
      RunJob(spans, /*full_sweep=*/true, out);
      CompareWithPending(report);
      if (spans->enabled()) TimeSeparateCalls(spans);
      ApplyDay();
      RunJob(spans, /*full_sweep=*/false, out);
      const server::AggregationStats& stats =
          server_->aggregation().last_stats();
      recomputed += static_cast<double>(stats.recomputed);
      candidates += static_cast<double>(stats.candidates);
      pending_ = Scores();
      ++runs;
      last_iteration_s = iteration.ElapsedSeconds();
    }
    report->Attempted(2 * runs);
    if (!spans->enabled()) return;

    auto totals = spans->Summarize(mark);
    const SpanRecorder::Totals& full = totals["aggregate.full"];
    const SpanRecorder::Totals& incr = totals["aggregate.incr"];
    const SpanRecorder::Totals& publish = totals["server.snapshot_publish"];
    const SpanRecorder::Totals& scan = totals["storage.vote_scan"];
    const SpanRecorder::Totals& trust = totals["server.trust_factors"];
    const double calls = static_cast<double>(publish.count);
    out->Add("server.aggregation_recomputed", recomputed,
             static_cast<double>(runs));
    out->Add("server.aggregation_candidates", candidates,
             static_cast<double>(runs));
    out->Add("server.snapshot_publish_ms", publish.total_ns / 1e6, calls);
    out->Add("storage.vote_scan_ns_per_vote", scan.total_ns,
             static_cast<double>(scan.count) *
                 static_cast<double>(server_->votes().TotalVotes()));
    out->Add("server.trust_factors_ms", trust.total_ns / 1e6,
             static_cast<double>(trust.count));
    // The separate calls estimate their share of a run; they are not self
    // time inside it.
    const double estimate_ns =
        (publish.total_ns + scan.total_ns + trust.total_ns) / calls;
    out->Add("trace.coverage_aggregation_full",
             estimate_ns * static_cast<double>(full.count), full.total_ns);
    out->Add("trace.coverage_aggregation_incr",
             publish.total_ns / calls * static_cast<double>(incr.count),
             incr.total_ns);
  }

  void Verify(Report* report) override {
    server_->aggregation().RunOnce(Now(), /*full_sweep=*/true);
    CompareWithPending(report);
    report->Check(compared_ > 0, "aggregate: no incremental run was checked");
    report->Count("aggregate.checked_runs", compared_);
  }

 private:
  util::TimePoint Now() const {
    return static_cast<util::TimePoint>(day_) * util::kDay;
  }

  /// Times one RunOnce (its post-run snapshot publish included) and files
  /// the sample by what the job actually did.
  void RunJob(SpanRecorder* spans, bool full_sweep, Measurements* out) {
    int span = spans->Begin(full_sweep ? "aggregate.full" : "aggregate.incr",
                            ++op_, SpanRecorder::kNone);
    const std::int64_t start = NowNanos();
    server_->aggregation().RunOnce(Now(), full_sweep);
    const double ms = static_cast<double>(NowNanos() - start) / 1e6;
    spans->End(span);
    bool swept = server_->aggregation().last_stats().full_sweep;
    out->Sample(swept ? "aggregation_full_ms" : "aggregation_incr_ms", ms);
  }

  /// Separate calls into the job's inputs and output, timed outside
  /// RunOnce: the trust-factor snapshot, a scan of every vote, and a
  /// snapshot publish.
  void TimeSeparateCalls(SpanRecorder* spans) {
    int span = spans->Begin("server.trust_factors", op_, SpanRecorder::kNone);
    (void)server_->accounts().AllTrustFactors();
    spans->End(span);
    span = spans->Begin("storage.vote_scan", op_, SpanRecorder::kNone);
    for (const core::SoftwareId& id : server_->votes().RatedSoftware()) {
      server_->votes().ForEachVoteOn(id, [](core::UserId, int, double) {});
    }
    spans->End(span);
    span = spans->Begin("server.snapshot_publish", op_, SpanRecorder::kNone);
    server_->PublishSnapshot();
    spans->End(span);
  }

  /// One simulated day's delta: new votes on about 1% of programs, remarks
  /// that change about kTrustChangesPerDay voters' trust, one bootstrap
  /// prior.
  void ApplyDay() {
    ++day_;
    const util::TimePoint now = Now();
    for (std::size_t i = 0; i < programs_ / 100; ++i) {
      const core::SoftwareId& id = ids_[rng_.NextIndex(programs_)];
      core::UserId user = user_ids_[rng_.NextIndex(users_)];
      while (server_->votes().HasVoted(user, id)) {
        user = user_ids_[rng_.NextIndex(users_)];
      }
      core::RatingRecord record;
      record.user = user;
      record.software = id;
      record.score = 1 + static_cast<int>(rng_.NextBelow(10));
      record.submitted_at = now;
      MustOk(server_->votes().SubmitRating(record, true, 0.0), "day vote");
    }
    for (std::size_t i = 0; i < kTrustChangesPerDay; ++i) {
      MustOk(server_->accounts().ApplyRemark(
                 user_ids_[rng_.NextIndex(users_)], rng_.NextBelow(4) != 0,
                 now),
             "day remark");
    }
    MustOk(server_->registry().PutBootstrapPrior(
               ids_[rng_.NextIndex(programs_)],
               1.0 + static_cast<double>(rng_.NextBelow(90)) / 10.0, 5.0),
           "bootstrap prior");
  }

  std::vector<core::SoftwareScore> Scores() const {
    std::vector<core::SoftwareScore> out;
    out.reserve(ids_.size());
    for (const core::SoftwareId& id : ids_) {
      auto score = server_->registry().GetScore(id);
      out.push_back(score.ok() ? *score : core::SoftwareScore{});
    }
    return out;
  }

  /// The last incremental run's score rows must be bit-identical to the
  /// full sweep that followed it over the same data.
  void CompareWithPending(Report* report) {
    if (pending_.empty()) return;
    std::vector<core::SoftwareScore> swept = Scores();
    std::size_t differ = 0;
    for (std::size_t i = 0; i < swept.size(); ++i) {
      const core::SoftwareScore& a = pending_[i];
      const core::SoftwareScore& b = swept[i];
      if (a.score != b.score || a.vote_count != b.vote_count ||
          a.weight_sum != b.weight_sum) {
        ++differ;
      }
    }
    report->Check(differ == 0,
                  util::StrFormat("aggregate: %zu score rows of an "
                                  "incremental run differ from a full sweep",
                                  differ));
    ++compared_;
    pending_.clear();
  }

  PhaseParams params_;
  std::size_t votes_;
  std::size_t programs_;
  std::size_t users_;
  util::Rng rng_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
  std::vector<core::SoftwareId> ids_;
  std::vector<core::UserId> user_ids_;
  std::vector<core::SoftwareScore> pending_;
  std::uint64_t day_ = 0;
  std::uint64_t op_;
  std::size_t compared_ = 0;
};

}  // namespace

std::unique_ptr<Phase> MakeAggregatePhase(const PhaseParams& params) {
  return std::make_unique<AggregatePhase>(params);
}

}  // namespace pisrep::perfbench
