// The write path on the replicated cluster: new users onboard one at a time
// through the router's account broadcast, then a closed loop of voters each
// keeps one operation in flight (query, then a vote on a program the voter
// has not rated, and every tenth operation a remark on another voter's
// comment). Every vote pays the shard handler, the audit append,
// replication shipping, the quorum ack and the router hop.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client/client_app.h"
#include "client/file_image.h"
#include "cluster/cluster.h"
#include "cluster/router.h"
#include "phase.h"
#include "proto/wire.h"
#include "storage/value.h"
#include "trust/audit_log.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "wall_clock.h"

namespace pisrep::perfbench {
namespace {

using client::ClientApp;
using client::ExecDecision;
using client::FileImage;

constexpr int kShards = 3;
constexpr std::size_t kVoters = 64;
constexpr int kVotesPerAccountPerDay = 20;  // FloodGuard::Config default
// Enough commented votes that every query answer already carries the
// server's maximum of ten comments, so answers do not grow during the run.
constexpr std::size_t kPreloadVotesPerProgram = 10;
constexpr std::size_t kMinOnboards = 1000;
constexpr std::uint64_t kRemarkEvery = 10;
const char* const kPassword = "password";
const char* const kAccountMethods[] = {"RequestPuzzle", "Register",
                                       "Activate", "Login"};
const char* const kAccountSpans[] = {"server.RequestPuzzle",
                                     "server.Register", "server.Activate",
                                     "server.Login"};

struct Account {
  std::unique_ptr<ClientApp> app;
  core::UserId id = 0;
  int votes = 0;
  std::unordered_set<std::size_t> rated;
};

struct Voter {
  std::vector<std::size_t> accounts;
  std::size_t current = 0;
  std::uint64_t ops = 0;
  std::uint64_t op = 0;
  int span = SpanRecorder::kNone;
  std::size_t program = 0;
  std::int64_t issued_at = 0;
  std::uint64_t queued_before = 0;
};

struct AckedVote {
  std::size_t account;
  std::size_t program;
};

struct Counters {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t queries = 0;
  std::uint64_t vendor_legs = 0;
  std::uint64_t account_legs = 0;
  std::uint64_t server_failed = 0;
  std::uint64_t client_errors = 0;
};

class IngestPhase : public Phase {
 public:
  explicit IngestPhase(const PhaseParams& params)
      : params_(params),
        programs_(params.full ? 2000 : 200),
        accounts_per_voter_(params.full ? 48 : 16),
        rng_(params.seed ^ 0x1496e57),
        next_op_(params.op_base) {}

  void Setup() override {
    loop_ = std::make_unique<net::EventLoop>();
    network_ = std::make_unique<net::SimNetwork>(loop_.get(),
                                                 net::NetworkConfig{});
    cluster::ClusterConfig config;
    config.num_shards = kShards;
    // No background agents, as in the simulator: the loop drains between
    // operations and every message is one a client caused.
    config.gossip.enabled = false;
    config.anti_entropy.enabled = false;
    cluster_ = std::make_unique<cluster::ShardCluster>(
        network_.get(), loop_.get(), std::move(config));
    MustOk(cluster_->Start(), "start cluster");
    router_ = std::make_unique<cluster::Router>(
        network_.get(), loop_.get(), cluster::RouterConfig{},
        /*metrics=*/nullptr, /*tracer=*/nullptr);
    MustOk(router_->Start(), "start router");
    for (int i = 0; i < kShards; ++i) router_->AddShard(cluster_->ShardName(i));

    util::Rng rng(params_.seed ^ 0x5e71096e);
    LoadPrograms(&rng);
    LoadAccounts();
    // Remarks need raters older than one aggregation window; the day's
    // scheduled aggregation also publishes the preloaded vendor scores.
    loop_->RunUntil(loop_->Now() + core::kAggregationPeriod + util::kHour);
    LogVotersIn();
    for (int i = 0; i < kShards; ++i) {
      const cluster::ReplicationShipper* shipper = cluster_->shard(i)->shipper();
      setup_degraded_acks_.push_back(shipper->degraded_acks());
      setup_resyncs_.push_back(shipper->resyncs());
    }
  }

  void Measure(double seconds, double share, SpanRecorder* spans,
               Report* report, Measurements* out) override {
    spans_ = spans;
    MethodWrapper wrapper(spans);
    WrapHandlers(&wrapper);
    WallTimer wall;
    Onboard(seconds * 0.5, share, report, out);
    double left = seconds - wall.ElapsedSeconds();
    Vote(left > seconds * 0.3 ? left : seconds * 0.3, report, out);
  }

  void Verify(Report* report) override {
    RunLoopUntil(loop_.get(), [&] { return NetworkQuiet(*network_); });
    // Every acked vote is present exactly once on its owning primary and on
    // every replica: each acked key is there, and each shard holds exactly
    // the preloaded plus the acked votes it owns.
    std::vector<std::size_t> expected(kShards, 0);
    for (int i = 0; i < kShards; ++i) expected[i] = preloaded_[i];
    std::size_t missing = 0;
    for (const AckedVote& vote : acked_) {
      const core::SoftwareId& id = images_[vote.program].Digest();
      cluster::ShardNode* owner = cluster_->OwnerShard(id);
      std::size_t shard = ShardIndex(owner);
      ++expected[shard];
      std::string key = util::StrFormat(
          "%lld:%s", static_cast<long long>(accounts_[vote.account].id),
          id.ToHex().c_str());
      for (storage::Database* db : Databases(owner)) {
        auto table = db->GetTable("ratings");
        if (!table.ok() || !(*table)->Get(storage::Value::Str(key)).ok()) {
          ++missing;
        }
      }
    }
    report->Check(missing == 0,
                  util::StrFormat("ingest: %zu acked votes missing from a "
                                  "primary or replica",
                                  missing));
    for (int i = 0; i < kShards; ++i) {
      cluster::ShardNode* shard = cluster_->shard(i);
      for (storage::Database* db : Databases(shard)) {
        auto table = db->GetTable("ratings");
        std::size_t rows = table.ok() ? (*table)->size() : 0;
        report->Check(rows == expected[static_cast<std::size_t>(i)],
                      util::StrFormat("ingest: shard %d holds %zu votes, "
                                      "expected %zu",
                                      i, rows, expected[i]));
        trust::ChainVerifyResult chain = trust::VerifyAuditChain(db);
        report->Check(chain.ok, util::StrFormat("ingest: audit chain of "
                                                "shard %d: %s",
                                                i, chain.error.c_str()));
      }
      cluster::ReplicationShipper* shipper = shard->shipper();
      for (int k = 0; k < shard->replica_count(); ++k) {
        report->Check(shard->replica(k)->applied_seq() == shipper->head_seq(),
                      util::StrFormat("ingest: shard %d replica %d applied "
                                      "%llu of %llu frames",
                                      i, k,
                                      static_cast<unsigned long long>(
                                          shard->replica(k)->applied_seq()),
                                      static_cast<unsigned long long>(
                                          shipper->head_seq())));
      }
      // Replicas are seeded with one snapshot when the shard starts; after
      // set-up, traffic must cause neither degraded acks nor resyncs.
      const std::uint64_t degraded =
          shipper->degraded_acks() - setup_degraded_acks_[i];
      const std::uint64_t resyncs = shipper->resyncs() - setup_resyncs_[i];
      report->Check(degraded == 0 && resyncs == 0,
                    util::StrFormat("ingest: shard %d had %llu degraded acks "
                                    "and %llu resyncs",
                                    i, static_cast<unsigned long long>(degraded),
                                    static_cast<unsigned long long>(resyncs)));
    }
    report->Count("ingest.acked_votes", acked_.size());
  }

 private:
  void LoadPrograms(util::Rng* rng) {
    const std::size_t vendors = programs_ / 20;
    preloaded_.assign(kShards, 0);
    std::vector<std::size_t> per_shard(kShards, 0);
    images_.reserve(programs_);
    std::vector<core::UserId> raters;
    for (std::size_t r = 0; r < kPreloadVotesPerProgram; ++r) {
      std::string name = util::StrFormat("seed%zu", r);
      for (int i = 0; i < kShards; ++i) {
        MustOk(cluster_->primary(i)->accounts().Register(
                   name, kPassword, name + "@ingest.example", 0),
               "register seed rater");
      }
      raters.push_back(
          cluster_->primary(0)->accounts().GetAccountByUsername(name)->id);
    }
    for (std::size_t p = 0; p < programs_; ++p) {
      std::string content = util::StrFormat(
          "ingest program %zu seed %llu ", p,
          static_cast<unsigned long long>(params_.seed));
      content += rng->NextToken(64);
      cluster::ShardNode* owner =
          cluster_->OwnerShard(util::Sha1::Hash(content));
      const std::size_t shard = ShardIndex(owner);
      // Vendors are dealt round-robin within each shard, so every shard
      // holds titles of every vendor and each leg of the router's vendor
      // scatter finds a score.
      images_.emplace_back(
          util::StrFormat("app%zu.exe", p), std::move(content),
          util::StrFormat("vendor%zu", per_shard[shard]++ % vendors), "1.0");
      server::ReputationServer* server = owner->server();
      MustOk(server->registry().RegisterSoftware(images_.back().Meta()),
             "register software");
      for (core::UserId rater : raters) {
        core::RatingRecord record;
        record.user = rater;
        record.software = images_.back().Digest();
        record.score = 1 + static_cast<int>(rng->NextBelow(10));
        record.comment = util::StrFormat("seed comment on %zu", p);
        MustOk(server->votes().SubmitRating(record, true, 0.0),
               "preload vote");
        ++preloaded_[shard];
      }
    }
    RunLoopUntil(loop_.get(), [&] { return NetworkQuiet(*network_); });
  }

  void LoadAccounts() {
    accounts_.resize(kVoters * accounts_per_voter_);
    voters_.resize(kVoters);
    for (std::size_t a = 0; a < accounts_.size(); ++a) {
      std::string name = util::StrFormat("voter%zu", a);
      for (int i = 0; i < kShards; ++i) {
        auto token = cluster_->primary(i)->accounts().Register(
            name, kPassword, name + "@ingest.example", 0);
        MustOk(token, "register voter");
        MustOk(cluster_->primary(i)->accounts().Activate(name, *token),
               "activate voter");
      }
      accounts_[a].id =
          cluster_->primary(0)->accounts().GetAccountByUsername(name)->id;
      account_of_user_[accounts_[a].id] = a;
      voters_[a % kVoters].accounts.push_back(a);
      // Let replication keep up, so the bulk load never overflows the
      // bounded replication log into a snapshot resync.
      if (a % 256 == 255) {
        RunLoopUntil(loop_.get(), [&] { return NetworkQuiet(*network_); });
      }
    }
  }

  void LogVotersIn() {
    // The router broadcasts each login through per-shard FIFO pipelines,
    // so logins go out in small waves that finish well inside the client's
    // RPC timeout.
    constexpr std::size_t kWave = 16;
    util::Status first_error = util::Status::Ok();
    for (std::size_t begin = 0; begin < accounts_.size(); begin += kWave) {
      std::size_t end = std::min(accounts_.size(), begin + kWave);
      std::size_t done = 0;
      for (std::size_t a = begin; a < end; ++a) {
        std::string name = util::StrFormat("voter%zu", a);
        ClientApp::Config config;
        config.address = name;
        config.server_address = "server";
        config.username = name;
        config.password = kPassword;
        config.email = name + "@ingest.example";
        accounts_[a].app = std::make_unique<ClientApp>(
            network_.get(), loop_.get(), std::move(config));
        MustOk(accounts_[a].app->Start(), "start voter client");
        accounts_[a].app->Login([&](util::Status status) {
          ++done;
          if (!status.ok() && first_error.ok()) first_error = status;
        });
      }
      RunLoopUntil(loop_.get(), [&] { return done == end - begin; });
      if (done != end - begin) {
        first_error = util::Status::Internal("voter logins did not finish");
      }
      MustOk(first_error, "log voters in");
    }
    RunLoopUntil(loop_.get(), [&] { return NetworkQuiet(*network_); });
  }

  std::size_t ShardIndex(cluster::ShardNode* node) const {
    for (int i = 0; i < kShards; ++i) {
      if (cluster_->shard(i) == node) return static_cast<std::size_t>(i);
    }
    return 0;
  }

  static std::vector<storage::Database*> Databases(cluster::ShardNode* node) {
    std::vector<storage::Database*> out{node->db()};
    for (int k = 0; k < node->replica_count(); ++k) {
      out.push_back(node->replica(k)->db());
    }
    return out;
  }

  /// The voter a request belongs to, found through its session (one
  /// operation per voter is in flight, so the session names it).
  SpanContext VoterContext(server::ReputationServer* server,
                           const xml::XmlNode& request) {
    std::string session = request.ChildText("session").value_or("");
    auto it = voter_of_session_.find(session);
    if (it == voter_of_session_.end()) {
      auto user = server->accounts().Authenticate(session);
      std::size_t voter = kVoters;
      if (user.ok()) {
        auto account = account_of_user_.find(*user);
        if (account != account_of_user_.end()) {
          voter = account->second % kVoters;
        }
      }
      it = voter_of_session_.emplace(session, voter).first;
    }
    if (it->second >= kVoters) return {0, SpanRecorder::kNone};
    const Voter& voter = voters_[it->second];
    return {voter.op, voter.span};
  }

  void WrapHandlers(MethodWrapper* wrapper) {
    for (int i = 0; i < kShards; ++i) {
      server::ReputationServer* server = cluster_->primary(i);
      net::RpcServer* rpc = server->rpc_server();
      auto by_session = [this, server](const xml::XmlNode& request) {
        return VoterContext(server, request);
      };
      wrapper->Wrap(rpc, "QuerySoftware", "server.QuerySoftware", by_session);
      wrapper->Wrap(rpc, "QueryVendor", "server.QueryVendor", by_session);
      wrapper->Wrap(rpc, "SubmitRating", "server.SubmitRating", by_session);
      wrapper->Wrap(rpc, "SubmitRemark", "server.SubmitRemark", by_session);
      auto onboarding = [this](const xml::XmlNode&) {
        return SpanContext{onboard_op_, onboard_span_};
      };
      for (std::size_t m = 0; m < 4; ++m) {
        ObserveFn observe = nullptr;
        if (i == 0 && m == 0) {
          // Every shard answers the router's broadcast with the same
          // forced nonce; keep one copy to time the client's solve.
          observe = [this](const util::Result<xml::XmlNode>& result) {
            if (!result.ok()) return;
            const xml::XmlNode* node = result->FindChild("puzzle");
            if (node == nullptr) return;
            puzzle_.nonce = node->AttributeOr("nonce", "");
            auto bits = util::ParseInt64(node->AttributeOr("bits", "0"));
            puzzle_.difficulty_bits = bits.ok() ? static_cast<int>(*bits) : 0;
          };
        }
        wrapper->Wrap(rpc, kAccountMethods[m], kAccountSpans[m], onboarding,
                      std::move(observe));
      }
    }
  }

  Counters Snapshot() const {
    Counters c;
    c.messages = network_->messages_sent();
    c.bytes = network_->bytes_sent();
    for (int i = 0; i < kShards; ++i) {
      cluster::ShardNode* shard = cluster_->shard(i);
      net::RpcServer* rpc = shard->server()->rpc_server();
      c.frames += shard->shipper()->head_seq();
      c.queries += rpc->MethodCalls("QuerySoftware");
      c.vendor_legs += rpc->MethodCalls("QueryVendor");
      for (const char* method : kAccountMethods) {
        c.account_legs += rpc->MethodCalls(method);
      }
      c.server_failed += rpc->requests_failed();
    }
    for (const Account& account : accounts_) {
      const net::RpcClient& rpc = account.app->rpc();
      c.client_errors += rpc.timeouts() + rpc.fast_failures() +
                         rpc.corrupt_responses() +
                         account.app->stats().stale_served;
    }
    return c;
  }

  /// Onboards new users one at a time, each from its own address: puzzle,
  /// solve, register, fetch the activation mail, activate, log in.
  void Onboard(double seconds, double share, Report* report,
               Measurements* out) {
    const std::size_t mark = spans_->size();
    const Counters before = Snapshot();
    // Enough users that the run's p99 has ten samples beyond it.
    const auto min_users = static_cast<std::size_t>(
        std::ceil(static_cast<double>(kMinOnboards) * share));
    std::size_t users = 0;
    std::uint64_t failures = 0;
    WallTimer wall;
    while (users < min_users || wall.ElapsedSeconds() < seconds) {
      std::string name = util::StrFormat("new%llu",
                                         static_cast<unsigned long long>(
                                             next_user_++));
      ClientApp::Config config;
      config.address = name;
      config.server_address = "server";
      config.username = name;
      config.password = kPassword;
      config.email = name + "@ingest.example";
      ClientApp app(network_.get(), loop_.get(), std::move(config));
      MustOk(app.Start(), "start onboarding client");

      bool done = false;
      util::Status outcome = util::Status::Ok();
      std::int64_t finished_at = 0;
      auto finish = [&](util::Status status) {
        finished_at = NowNanos();
        outcome = std::move(status);
        done = true;
      };
      onboard_op_ = next_op_++;
      const std::int64_t start = NowNanos();
      onboard_span_ =
          spans_->Begin("ingest.onboard", onboard_op_, SpanRecorder::kNone);
      const std::string email = app.config().email;
      app.Register([&](util::Status registered) {
        if (!registered.ok()) return finish(std::move(registered));
        auto mail = cluster_->FetchMail(email);
        if (!mail.ok()) return finish(mail.status());
        app.Activate(mail->token, [&](util::Status activated) {
          if (!activated.ok()) return finish(std::move(activated));
          app.Login([&](util::Status logged_in) { finish(logged_in); });
        });
      });
      RunLoopUntil(loop_.get(), [&] { return done; });
      spans_->End(onboard_span_);
      onboard_span_ = SpanRecorder::kNone;
      if (!done || !outcome.ok()) {
        ++failures;
      } else {
        ++users;
        out->Sample("onboard_us",
                    static_cast<double>(finished_at - start) / 1e3);
      }
      if (spans_->enabled()) {
        // The client's proof-of-work, timed as its own call on the same
        // puzzle: the floor no server change removes from onboarding.
        int solve = spans_->Begin("client.puzzle", onboard_op_,
                                  SpanRecorder::kNone);
        (void)proto::SolvePuzzle(puzzle_);
        spans_->End(solve);
      }
      // Replication of the new account finishes outside the user's wait.
      RunLoopUntil(loop_.get(), [&] { return NetworkQuiet(*network_); });
    }
    const Counters after = Snapshot();
    report->Attempted(users + failures);
    report->Failed(failures, "onboarding did not complete");
    report->Failed(after.server_failed - before.server_failed,
                   "onboarding shard requests failed");
    if (!spans_->enabled()) return;

    auto totals = spans_->Summarize(mark);
    const SpanRecorder::Totals& onboard = totals["ingest.onboard"];
    const SpanRecorder::Totals& puzzle = totals["client.puzzle"];
    double handlers = 0;
    for (const char* name : kAccountSpans) handlers += totals[name].total_ns;
    const double n = static_cast<double>(users);
    out->Add("cluster.broadcast_legs_per_onboard",
             static_cast<double>(after.account_legs - before.account_legs), n);
    out->Add("server.onboard_handler_us", handlers / 1e3, n);
    out->Add("client.puzzle_us", puzzle.total_ns / 1e3,
             static_cast<double>(puzzle.count));
    // The puzzle is re-solved as a separate call: it estimates its share of
    // an onboarding, it is not a child span inside it.
    out->Add("trace.coverage_onboard",
             onboard.total_ns - onboard.self_ns + puzzle.total_ns,
             onboard.total_ns);
  }

  /// The closed voting loop: kVoters callers, one operation in flight each.
  void Vote(double seconds, Report* report, Measurements* out) {
    // Each voting pass starts a new simulated day: the per-account daily
    // vote quota (FloodGuard) starts afresh, and the shards' scheduled
    // daily aggregation runs here, before the timed window.
    loop_->RunUntil((loop_->Now() / util::kDay + 1) * util::kDay +
                    util::kHour);
    for (Account& account : accounts_) account.votes = 0;
    for (Voter& voter : voters_) voter.current = 0;
    const std::size_t mark = spans_->size();
    const Counters before = Snapshot();
    const std::size_t acked_before = acked_.size();
    out_ = out;
    acked_in_window_ = 0;
    vote_failures_ = 0;
    remark_failures_ = 0;
    voter_ops_ = 0;
    exhausted_ = 0;
    stopping_ = false;
    const std::int64_t start = NowNanos();
    window_start_ = start + static_cast<std::int64_t>(seconds * 0.1 * 1e9);
    const std::int64_t stop_at =
        start + static_cast<std::int64_t>(seconds * 1e9);
    busy_voters_ = kVoters;
    for (std::size_t v = 0; v < kVoters; ++v) StartOp(v);
    while (busy_voters_ > 0 && NowNanos() < stop_at) {
      if (!loop_->RunOne()) break;
    }
    stopping_ = true;
    RunLoopUntil(loop_.get(), [&] { return busy_voters_ == 0; });
    const std::int64_t window_end = NowNanos();
    RunLoopUntil(loop_.get(), [&] { return NetworkQuiet(*network_); });
    const Counters after = Snapshot();

    report->Attempted(voter_ops_);
    report->Failed(vote_failures_, "votes not acked");
    report->Failed(remark_failures_, "remarks refused");
    report->Failed(exhausted_, "voters ran out of accounts");
    report->Failed(after.server_failed - before.server_failed,
                   "voting shard requests failed");
    report->Failed(after.client_errors - before.client_errors,
                   "voter rpc timeouts/fast-fails/corrupt/stale answers");
    out->Add("votes_per_s", static_cast<double>(acked_in_window_),
             static_cast<double>(window_end - window_start_) / 1e9);
    if (!spans_->enabled()) return;

    auto totals = spans_->Summarize(mark);
    const SpanRecorder::Totals& vote = totals["ingest.vote"];
    const SpanRecorder::Totals& handler = totals["server.SubmitRating"];
    const double acked = static_cast<double>(acked_.size() - acked_before);
    const double ops = static_cast<double>(voter_ops_);
    out->Add("server.vote_handler_us", handler.total_ns / 1e3,
             static_cast<double>(handler.count));
    out->Add("cluster.ack_wait_us", vote.self_ns / 1e3,
             static_cast<double>(vote.count));
    out->Add("cluster.replication_frames_per_vote",
             static_cast<double>(after.frames - before.frames), acked);
    out->Add("cluster.scatter_legs_per_query",
             static_cast<double>(after.vendor_legs - before.vendor_legs),
             static_cast<double>(after.queries - before.queries));
    out->Add("net.messages_per_vote",
             static_cast<double>(after.messages - before.messages), ops);
    out->Add("net.bytes_per_vote",
             static_cast<double>(after.bytes - before.bytes), ops);
    out->Add("trace.coverage_vote_ack", vote.total_ns - vote.self_ns,
             vote.total_ns);
  }

  void Idle() { --busy_voters_; }

  void StartOp(std::size_t v) {
    Voter& voter = voters_[v];
    if (stopping_) return Idle();
    auto spent = [this](const Account& account) {
      return account.votes >= kVotesPerAccountPerDay ||
             account.rated.size() >= programs_;
    };
    while (spent(accounts_[voter.accounts[voter.current]])) {
      if (++voter.current == voter.accounts.size()) {
        voter.current = voter.accounts.size() - 1;
        ++exhausted_;
        return Idle();
      }
    }
    Account& account = accounts_[voter.accounts[voter.current]];
    std::size_t program = rng_.NextIndex(programs_);
    while (account.rated.count(program) != 0) {
      program = rng_.NextIndex(programs_);
    }
    account.rated.insert(program);
    voter.program = program;
    voter.op = next_op_++;
    ++voter.ops;
    ++voter_ops_;
    voter.span = spans_->Begin("ingest.query", voter.op, SpanRecorder::kNone);
    account.app->HandleExecution(images_[program],
                                 [this, v](ExecDecision) { OnQueried(v); });
  }

  void OnQueried(std::size_t v) {
    Voter& voter = voters_[v];
    spans_->End(voter.span);
    Account& account = accounts_[voter.accounts[voter.current]];
    client::RatingSubmission submission;
    submission.score = 1 + static_cast<int>(rng_.NextBelow(10));
    submission.comment = util::StrFormat(
        "voter %zu on %zu", voter.accounts[voter.current], voter.program);
    voter.queued_before = account.app->stats().ratings_queued;
    voter.span = spans_->Begin("ingest.vote", voter.op, SpanRecorder::kNone);
    voter.issued_at = NowNanos();
    account.app->SubmitRating(
        images_[voter.program].Meta(), submission,
        [this, v](util::Status status) { OnVoted(v, std::move(status)); });
  }

  void OnVoted(std::size_t v, util::Status status) {
    const std::int64_t now = NowNanos();
    Voter& voter = voters_[v];
    spans_->End(voter.span);
    voter.span = SpanRecorder::kNone;
    const std::size_t account_index = voter.accounts[voter.current];
    Account& account = accounts_[account_index];
    // A rating the client parked in its offline outbox reports success but
    // has not reached the cluster: that is a failed vote here.
    bool acked = status.ok() &&
                 account.app->stats().ratings_queued == voter.queued_before;
    if (acked) {
      ++account.votes;
      acked_.push_back(AckedVote{account_index, voter.program});
      if (voter.issued_at >= window_start_) {
        out_->Sample("vote_ack_us",
                     static_cast<double>(now - voter.issued_at) / 1e3);
      }
      if (now >= window_start_) ++acked_in_window_;
    } else {
      ++vote_failures_;
    }
    if (voter.ops % kRemarkEvery == 0 && !stopping_) {
      if (SendRemark(v)) return;
    }
    StartOp(v);
  }

  /// Remarks on a comment another voter left; false when none qualifies.
  bool SendRemark(std::size_t v) {
    Voter& voter = voters_[v];
    Account& rater = accounts_[voter.accounts[voter.current]];
    for (int attempt = 0; attempt < 8 && !acked_.empty(); ++attempt) {
      const AckedVote& target = acked_[rng_.NextIndex(acked_.size())];
      const Account& author = accounts_[target.account];
      if (author.id == rater.id) continue;
      auto key = std::make_tuple(rater.id, author.id, target.program);
      if (!remarked_.insert(key).second) continue;
      ++voter_ops_;
      rater.app->SubmitRemark(author.id, images_[target.program].Digest(),
                              rng_.NextBelow(4) != 0,
                              [this, v](util::Status status) {
                                if (!status.ok()) ++remark_failures_;
                                StartOp(v);
                              });
      return true;
    }
    return false;
  }

  PhaseParams params_;
  std::size_t programs_;
  std::size_t accounts_per_voter_;
  util::Rng rng_;
  std::uint64_t next_op_;
  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<cluster::ShardCluster> cluster_;
  std::unique_ptr<cluster::Router> router_;
  std::vector<FileImage> images_;
  std::vector<std::size_t> preloaded_;
  std::vector<std::uint64_t> setup_degraded_acks_;
  std::vector<std::uint64_t> setup_resyncs_;
  std::vector<Account> accounts_;
  std::unordered_map<core::UserId, std::size_t> account_of_user_;
  std::vector<Voter> voters_;
  std::vector<AckedVote> acked_;
  std::set<std::tuple<core::UserId, core::UserId, std::size_t>> remarked_;
  std::uint64_t next_user_ = 0;

  SpanRecorder* spans_ = nullptr;
  std::unordered_map<std::string, std::size_t> voter_of_session_;
  std::uint64_t onboard_op_ = 0;
  int onboard_span_ = SpanRecorder::kNone;
  proto::Puzzle puzzle_;

  bool stopping_ = false;
  std::size_t busy_voters_ = 0;
  std::int64_t window_start_ = 0;
  Measurements* out_ = nullptr;
  std::uint64_t acked_in_window_ = 0;
  std::uint64_t vote_failures_ = 0;
  std::uint64_t remark_failures_ = 0;
  std::uint64_t voter_ops_ = 0;
  std::uint64_t exhausted_ = 0;
};

}  // namespace

std::unique_ptr<Phase> MakeIngestPhase(const PhaseParams& params) {
  return std::make_unique<IngestPhase>(params);
}

}  // namespace pisrep::perfbench
