// The §3.1 read path on the paper's single-server deployment: a paused
// launch waits for the community's verdict. One launch is in flight at a
// time (a closed loop of one caller), from a host chosen uniformly.

#include <memory>
#include <string>
#include <vector>

#include "client/client_app.h"
#include "client/file_image.h"
#include "core/behavior.h"
#include "core/policy.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "phase.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "trust/policy_rules.h"
#include "util/string_util.h"
#include "wall_clock.h"

namespace pisrep::perfbench {
namespace {

using client::ClientApp;
using client::ExecDecision;
using client::FileImage;

constexpr std::size_t kVotesPerProgram = 10;
constexpr std::size_t kVotesPerRater = 20;
constexpr std::size_t kInstalledPerHost = 40;
constexpr std::uint64_t kFreshEvery = 10;
constexpr std::size_t kFreshMinBytes = 16 * 1024;
constexpr std::size_t kFreshMaxBytes = 256 * 1024;
constexpr std::uint64_t kSampleEvery = 64;
constexpr int kReportBatch = 5;  // ClientApp::Config::run_report_batch
const char* const kPassword = "password";

struct Counters {
  std::uint64_t cache_hits = 0;
  std::uint64_t server_queries = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t rpc_errors = 0;
  std::uint64_t server_failed = 0;
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_misses = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wal_bytes = 0;
};

class LookupPhase : public Phase {
 public:
  explicit LookupPhase(const PhaseParams& params)
      : params_(params),
        programs_(params.full ? 20000 : 2000),
        hosts_(params.full ? 128 : 64),
        rng_(params.seed ^ 0x100c0b),
        next_op_(params.op_base) {}

  void Setup() override {
    ResetDirectory(params_.dir);
    wal_path_ = params_.dir + "/server.wal";
    loop_ = std::make_unique<net::EventLoop>();
    network_ = std::make_unique<net::SimNetwork>(loop_.get(),
                                                 net::NetworkConfig{});
    auto db = storage::Database::Open(wal_path_);
    MustOk(db, "open lookup database");
    db_ = std::move(*db);
    // No event loop for the server: its daily aggregation never runs here
    // (the read path has no votes to fold in); clients still use the loop.
    server::ReputationServer::Config config;
    server_ = std::make_unique<server::ReputationServer>(db_.get(), nullptr,
                                                         config);
    MustOk(server_->AttachRpc(network_.get(), "server"), "attach rpc");

    util::Rng rng(params_.seed ^ 0x5e7c0b);
    LoadPrograms(&rng);
    LoadVotes(&rng);
    server_->aggregation().RunOnce(loop_->Now(), /*full_sweep=*/true);
    StartHosts(&rng);
    content_pool_ = rng.NextToken(kFreshMaxBytes + 4096);
    launch_counts_.assign(hosts_ * kInstalledPerHost, 0);
    think_mean_ = 2.0 * static_cast<double>(ClientApp::Config{}.cache_ttl) /
                  static_cast<double>(hosts_ * kInstalledPerHost);
  }

  void Measure(double seconds, double /*share*/, SpanRecorder* spans,
               Report* report, Measurements* out) override {
    spans_ = spans;
    MethodWrapper wrapper(spans);
    auto context = [this](const xml::XmlNode&) {
      return SpanContext{current_op_, current_parent_};
    };
    net::RpcServer* rpc = server_->rpc_server();
    wrapper.Wrap(rpc, "QuerySoftware", "server.QuerySoftware", context);
    wrapper.Wrap(rpc, "ReportExecutions", "server.ReportExecutions", context);
    if (!warmed_) {
      // One mean inter-launch gap per installed program: the caches and
      // the per-program report batches reach their steady state.
      for (std::size_t i = 0; i < hosts_ * kInstalledPerHost; ++i) Launch();
      warmed_ = true;
    }
    const std::size_t mark = spans->size();
    const Counters before = Snapshot();
    std::uint64_t launches = 0;
    std::int64_t busy_ns = 0;
    WallTimer wall;
    while (wall.ElapsedSeconds() < seconds) {
      Outcome outcome = Launch();
      out->Sample("decision_us", static_cast<double>(outcome.latency_ns) / 1e3);
      busy_ns += outcome.busy_ns;
      ++launches;
    }
    const Counters after = Snapshot();
    const double ops = static_cast<double>(launches);

    report->Attempted(launches);
    report->Failed(after.rpc_errors - before.rpc_errors,
                   "lookup client rpc timeouts/fast-fails/corrupt");
    report->Failed(after.stale_served - before.stale_served,
                   "lookup answers served stale");
    report->Failed(after.server_failed - before.server_failed,
                   "lookup server requests failed");
    out->Add("decisions_per_s", ops, static_cast<double>(busy_ns) / 1e9);
    if (!spans->enabled()) return;

    auto totals = spans->Summarize(mark);
    const SpanRecorder::Totals& launch = totals["lookup.launch"];
    const SpanRecorder::Totals& digest = totals["client.digest"];
    const SpanRecorder::Totals& query = totals["server.QuerySoftware"];
    const SpanRecorder::Totals& run_report = totals["server.ReportExecutions"];
    double hits = static_cast<double>(after.cache_hits - before.cache_hits);
    double queries =
        static_cast<double>(after.server_queries - before.server_queries);
    double snap_hits =
        static_cast<double>(after.snapshot_hits - before.snapshot_hits);
    double snap_misses =
        static_cast<double>(after.snapshot_misses - before.snapshot_misses);
    out->Add("client.digest_us", digest.total_ns / 1e3,
             static_cast<double>(digest.count));
    out->Add("client.cache_hit_ratio", hits, hits + queries);
    out->Add("server.query_handler_us", query.total_ns / 1e3,
             static_cast<double>(query.count));
    out->Add("server.report_handler_us", run_report.total_ns / 1e3,
             static_cast<double>(run_report.count));
    out->Add("server.snapshot_hit_ratio", snap_hits, snap_hits + snap_misses);
    out->Add("net.rpc_self_us", launch.self_ns / 1e3, ops);
    out->Add("net.messages_per_op",
             static_cast<double>(after.messages - before.messages), ops);
    out->Add("net.bytes_per_op",
             static_cast<double>(after.bytes - before.bytes), ops);
    out->Add("storage.wal_bytes_per_op",
             static_cast<double>(after.wal_bytes - before.wal_bytes), ops);
    out->Add("trace.coverage_decision", launch.total_ns - launch.self_ns,
             launch.total_ns);
  }

  void Verify(Report* report) override {
    std::size_t unresolved = 0;
    std::size_t repeated = 0;
    for (std::uint8_t count : resolved_) {
      if (count == 0) ++unresolved;
      if (count > 1) ++repeated;
    }
    report->Check(unresolved == 0 && repeated == 0,
                  util::StrFormat("lookup: %zu launches unresolved, %zu "
                                  "resolved more than once",
                                  unresolved, repeated));

    // Each digest's server run count equals what its clients reported:
    // a client reports in batches of kReportBatch allowed launches.
    std::vector<std::int64_t> expected(programs_, 0);
    for (std::size_t h = 0; h < hosts_; ++h) {
      for (std::size_t s = 0; s < kInstalledPerHost; ++s) {
        std::int64_t allowed = launch_counts_[h * kInstalledPerHost + s];
        expected[installed_[h * kInstalledPerHost + s]] +=
            allowed / kReportBatch * kReportBatch;
      }
    }
    std::size_t run_mismatches = 0;
    for (std::size_t p = 0; p < programs_; ++p) {
      if (server_->registry().RunCount(images_[p].Digest()) != expected[p]) {
        ++run_mismatches;
      }
    }
    for (const Sample& sample : samples_) {
      if (sample.fresh && server_->registry().RunCount(sample.id) != 0) {
        ++run_mismatches;
      }
    }
    report->Check(run_mismatches == 0,
                  util::StrFormat("lookup: %zu digests whose run count "
                                  "differs from what clients reported",
                                  run_mismatches));

    // A seeded sample of decisions matches the policy evaluated on the
    // server's native answer for the same digest.
    auto session = server_->Login("host0", kPassword, loop_->Now());
    MustOk(session, "native login");
    auto policy = trust::ParsePolicyRules(trust::PaperExampleRules(), "bench");
    MustOk(policy, "parse policy rules");
    std::size_t decision_mismatches = 0;
    for (const Sample& sample : samples_) {
      auto info = server_->QuerySoftware(*session, sample.id);
      if (!info.ok()) {
        ++decision_mismatches;
        continue;
      }
      core::PolicyInput input;
      input.has_company_name = sample.has_company;
      if (info->score.has_value() && info->score->vote_count > 0) {
        input.rating = info->score->score;
        input.vote_count = info->score->vote_count;
      }
      if (info->vendor_score.has_value()) {
        input.vendor_rating = info->vendor_score->score;
      }
      input.reported_behaviors = info->reported_behaviors;
      // No prompt handler is installed: "ask" falls back to allow.
      ExecDecision want = policy->Evaluate(input) == core::PolicyAction::kDeny
                              ? ExecDecision::kDeny
                              : ExecDecision::kAllow;
      if (want != sample.decision) ++decision_mismatches;
    }
    report->Check(!samples_.empty() && decision_mismatches == 0,
                  util::StrFormat("lookup: %zu of %zu sampled decisions "
                                  "differ from the server's native answer",
                                  decision_mismatches, samples_.size()));
    report->Count("lookup.checked_decisions", samples_.size());
  }

 private:
  struct Outcome {
    std::int64_t latency_ns = 0;
    std::int64_t busy_ns = 0;
  };
  struct Sample {
    core::SoftwareId id;
    ExecDecision decision = ExecDecision::kAllow;
    bool fresh = false;
    bool has_company = false;
  };

  void LoadPrograms(util::Rng* rng) {
    const std::size_t vendors = programs_ / 20;
    images_.reserve(programs_);
    quality_.reserve(programs_);
    for (std::size_t p = 0; p < programs_; ++p) {
      std::string content = util::StrFormat(
          "lookup program %zu seed %llu ", p,
          static_cast<unsigned long long>(params_.seed));
      content += rng->NextToken(64);
      images_.emplace_back(util::StrFormat("prog%zu.exe", p),
                           std::move(content),
                           util::StrFormat("vendor%zu", p % vendors),
                           util::StrFormat("1.%zu", p % 7));
      MustOk(server_->registry().RegisterSoftware(images_.back().Meta()),
             "register software");
      // Good, bad or mixed reputation, so the policy allows, denies and
      // asks on a mix of programs.
      std::uint64_t tier = rng->NextBelow(20);
      quality_.push_back(tier < 7 ? 2 : tier < 10 ? 0 : 1);
      if (rng->NextBelow(10) == 0) {
        MustOk(server_->registry().ReportBehaviors(
                   images_.back().Digest(),
                   static_cast<core::BehaviorSet>(core::Behavior::kShowsAds),
                   2),
               "report behaviours");
      }
    }
  }

  void LoadVotes(util::Rng* rng) {
    const std::size_t raters = programs_ * kVotesPerProgram / kVotesPerRater;
    std::vector<core::UserId> ids;
    ids.reserve(raters);
    for (std::size_t r = 0; r < raters; ++r) {
      std::string name = util::StrFormat("rater%zu", r);
      MustOk(server_->accounts().Register(name, kPassword,
                                          name + "@lookup.example", 0),
             "register rater");
      ids.push_back(server_->accounts().GetAccountByUsername(name)->id);
    }
    for (std::size_t p = 0; p < programs_; ++p) {
      for (std::size_t k = 0; k < kVotesPerProgram; ++k) {
        core::RatingRecord record;
        record.user = ids[(p * kVotesPerProgram + k) % raters];
        record.software = images_[p].Digest();
        switch (quality_[p]) {
          case 0:  // bad
            record.score = 1 + static_cast<int>(rng->NextBelow(2));
            break;
          case 2:  // good
            record.score = 8 + static_cast<int>(rng->NextBelow(3));
            break;
          default:
            record.score = 3 + static_cast<int>(rng->NextBelow(7));
        }
        record.comment = util::StrFormat("comment %zu/%zu", p, k);
        MustOk(server_->votes().SubmitRating(record, true, 0.0),
               "preload vote");
      }
    }
  }

  void StartHosts(util::Rng* rng) {
    ZipfSampler popularity(programs_, 1.0);
    installed_.reserve(hosts_ * kInstalledPerHost);
    std::size_t logged_in = 0;
    std::size_t login_errors = 0;
    std::string rules(trust::PaperExampleRules());
    for (std::size_t h = 0; h < hosts_; ++h) {
      std::string name = util::StrFormat("host%zu", h);
      auto token = server_->accounts().Register(name, kPassword,
                                                name + "@lookup.example", 0);
      MustOk(token, "register host account");
      MustOk(server_->accounts().Activate(name, *token), "activate host");
      ClientApp::Config config;
      config.address = name;
      config.server_address = "server";
      config.username = name;
      config.password = kPassword;
      config.email = name + "@lookup.example";
      config.policy_rules = rules;
      apps_.push_back(std::make_unique<ClientApp>(network_.get(), loop_.get(),
                                                  std::move(config)));
      MustOk(apps_.back()->Start(), "start client");
      apps_.back()->Login([&](util::Status status) {
        ++logged_in;
        if (!status.ok()) ++login_errors;
      });
      // The host's installed programs: Zipf-popular, distinct.
      std::size_t first = installed_.size();
      while (installed_.size() - first < kInstalledPerHost) {
        std::size_t pick = popularity.Next(rng);
        bool seen = false;
        for (std::size_t i = first; i < installed_.size(); ++i) {
          seen = seen || installed_[i] == pick;
        }
        if (!seen) installed_.push_back(pick);
      }
    }
    RunLoopUntil(loop_.get(), [&] { return logged_in == hosts_; });
    if (logged_in != hosts_ || login_errors != 0) {
      MustOk(util::Status::Internal("host logins failed"), "log hosts in");
    }
  }

  /// One launch: issue, wait for the decision, then drain the run reports
  /// the decision triggered.
  Outcome Launch() {
    // Users launch programs over simulated time: the mean gap between two
    // launches of one installed program is twice the client cache TTL.
    loop_->RunUntil(loop_->Now() + static_cast<util::Duration>(
                                       rng_.NextExponential(think_mean_)));
    const std::uint64_t n = next_op_ - params_.op_base;
    const std::size_t host = rng_.NextIndex(hosts_);
    const bool fresh = rng_.NextBelow(kFreshEvery) == 0;
    std::size_t slot = 0;
    FileImage fresh_image;
    const FileImage* image = nullptr;
    if (fresh) {
      // A §3.3 repacked or updated binary the server has never seen; built
      // outside the timed region, hashed inside it.
      std::size_t size =
          kFreshMinBytes + rng_.NextBelow(kFreshMaxBytes - kFreshMinBytes + 1);
      std::size_t offset = rng_.NextBelow(content_pool_.size() - size + 1);
      FileImage base(util::StrFormat("fresh%llu.exe",
                                     static_cast<unsigned long long>(n)),
                     content_pool_.substr(offset, size), "freshvendor",
                     "2.0");
      fresh_image = base.Repack(util::StrFormat(
          "-%llu-%llu", static_cast<unsigned long long>(params_.seed),
          static_cast<unsigned long long>(n)));
      image = &fresh_image;
    } else {
      slot = rng_.NextIndex(kInstalledPerHost);
      image = &images_[installed_[host * kInstalledPerHost + slot]];
    }
    const bool sample = rng_.NextBelow(kSampleEvery) == 0;
    const std::uint64_t op = next_op_++;
    const std::size_t index = resolved_.size();
    resolved_.push_back(0);
    current_index_ = index;

    Outcome outcome;
    const std::int64_t start = NowNanos();
    int root = spans_->Begin("lookup.launch", op, SpanRecorder::kNone);
    current_op_ = op;
    current_parent_ = root;
    if (fresh && spans_->enabled()) {
      int digest = spans_->Begin("client.digest", op, root);
      (void)image->Digest();
      spans_->End(digest);
    }
    apps_[host]->HandleExecution(*image, [this, index](ExecDecision d) {
      ++resolved_[index];
      if (index != current_index_) return;
      decided_at_ = NowNanos();
      decision_ = d;
    });
    RunLoopUntil(loop_.get(), [&] { return resolved_[index] != 0; });
    spans_->End(root);
    outcome.latency_ns = decided_at_ - start;

    int drain = spans_->Begin("lookup.drain", op, SpanRecorder::kNone);
    current_parent_ = drain;
    RunLoopUntil(loop_.get(), [&] { return NetworkQuiet(*network_); });
    spans_->End(drain);
    current_parent_ = SpanRecorder::kNone;
    outcome.busy_ns = NowNanos() - start;

    if (!fresh && decision_ == ExecDecision::kAllow) {
      ++launch_counts_[host * kInstalledPerHost + slot];
    }
    if (sample) {
      samples_.push_back(Sample{image->Digest(), decision_, fresh,
                                !image->company().empty()});
    }
    return outcome;
  }

  Counters Snapshot() const {
    Counters c;
    for (const auto& app : apps_) {
      const client::ClientStats& stats = app->stats();
      c.cache_hits += stats.cache_hits;
      c.server_queries += stats.server_queries;
      c.stale_served += stats.stale_served;
      const net::RpcClient& rpc = app->rpc();
      c.rpc_errors +=
          rpc.timeouts() + rpc.fast_failures() + rpc.corrupt_responses();
    }
    c.server_failed = server_->rpc_server()->requests_failed();
    c.snapshot_hits = server_->stats().snapshot_hits;
    c.snapshot_misses = server_->stats().snapshot_misses;
    c.messages = network_->messages_sent();
    c.bytes = network_->bytes_sent();
    c.wal_bytes = FileBytes(wal_path_);
    return c;
  }

  PhaseParams params_;
  std::size_t programs_;
  std::size_t hosts_;
  util::Rng rng_;
  std::uint64_t next_op_;
  std::string wal_path_;
  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
  std::vector<std::unique_ptr<ClientApp>> apps_;
  std::vector<FileImage> images_;
  std::vector<int> quality_;
  /// hosts_ x kInstalledPerHost program indices, and allowed launches.
  std::vector<std::size_t> installed_;
  std::vector<std::int64_t> launch_counts_;
  std::string content_pool_;
  bool warmed_ = false;
  double think_mean_ = 0;

  SpanRecorder* spans_ = nullptr;
  std::uint64_t current_op_ = 0;
  int current_parent_ = SpanRecorder::kNone;
  std::size_t current_index_ = 0;
  std::int64_t decided_at_ = 0;
  ExecDecision decision_ = ExecDecision::kAllow;
  std::vector<std::uint8_t> resolved_;
  std::vector<Sample> samples_;
};

}  // namespace

std::unique_ptr<Phase> MakeLookupPhase(const PhaseParams& params) {
  return std::make_unique<LookupPhase>(params);
}

}  // namespace pisrep::perfbench
