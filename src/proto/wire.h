#ifndef PISREP_PROTO_WIRE_H_
#define PISREP_PROTO_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/behavior.h"
#include "core/types.h"
#include "util/clock.h"
#include "util/status.h"
#include "xml/xml_node.h"

namespace pisrep::proto {

/// Wire-protocol types shared by the client and the server (§3.2: the
/// client/server XML RPC schema). This layer exists so that the client
/// library never includes server headers: both sides depend on `proto/`,
/// which in turn depends only on `core/` and `util/`. The `pisrep-lint`
/// layering rule (tools/lint) enforces this.

/// A DoS-resistant client puzzle (§2.1 "non-automatable process" and the
/// future-work reference to Aura's client puzzles): the server issues a
/// nonce and a difficulty, and the client must find a solution such that
/// SHA-256(nonce || solution) starts with `difficulty_bits` zero bits.
/// Raising the difficulty makes automated mass registration expensive while
/// staying cheap for a single human sign-up.
struct Puzzle {
  std::string nonce;
  int difficulty_bits = 0;
};

/// True when SHA-256(nonce || solution) has the required zero prefix.
bool PuzzleSolutionValid(std::string_view nonce, std::string_view solution,
                         int difficulty_bits);

/// Brute-forces a solution (the honest client's work loop). Exposed so
/// simulations can account for attacker compute cost; returns the number
/// of hash attempts through `attempts` when non-null.
std::string SolvePuzzle(const Puzzle& puzzle,
                        std::uint64_t* attempts = nullptr);

/// A published expert assessment of one software (§4.2: organisations or
/// groups of technically skilled individuals publishing ratings that users
/// can subscribe to instead of — or alongside — crowd scores).
struct FeedEntry {
  std::string feed;  ///< owning feed name
  core::SoftwareId software;
  double score = 0.0;  ///< the group's rating, [1, 10]
  core::BehaviorSet behaviors = core::kNoBehaviors;
  std::string note;
  util::TimePoint published_at = 0;
  /// The publishing expert flags the software as privacy-invasive (PR 10
  /// signed advisories). Policy rules may deny on this fact alone.
  bool expert_flagged = false;
};

/// Serializes a feed entry as the <entry .../> element of a QueryFeed
/// answer — the one definition both the server handler and the client
/// cache parse/emit.
xml::XmlNode FeedEntryToXml(const FeedEntry& entry);
util::Result<FeedEntry> FeedEntryFromXml(const xml::XmlNode& node);

/// Cluster redirect protocol. A shard that receives a digest-routed
/// request for a software it does not own answers kFailedPrecondition with
/// this message shape; the owning shard's name rides in the message (the
/// Redis MOVED idiom). The router — and a client stub pointed directly at
/// a shard — retries the call against the named owner. Lives in proto/
/// because both sides of the wire must agree on the spelling.
inline constexpr std::string_view kOwnershipMovedPrefix =
    "ownership-moved to=";

/// Builds the redirect message for `owner`.
std::string OwnershipMovedMessage(std::string_view owner);

/// True when `message` is an ownership redirect.
bool IsOwnershipMoved(std::string_view message);

/// The owner named in a redirect message, or "" when `message` is not one.
std::string OwnershipMovedTarget(std::string_view message);

/// Everything the client displays about a pending software (§3.1: the
/// client "queries the server and fetches the information about the
/// executing software to show the user").
struct SoftwareInfo {
  core::SoftwareMeta meta;
  bool known = false;  ///< registered in the reputation system at all
  std::optional<core::SoftwareScore> score;
  std::optional<core::VendorScore> vendor_score;
  core::BehaviorSet reported_behaviors = core::kNoBehaviors;
  std::vector<core::RatingRecord> comments;
  /// §3.1 run statistics: community-wide execution count reported by
  /// clients (anonymous totals, never per-host).
  std::int64_t run_count = 0;
  /// A trusted vendor's signed manifest covers this binary (PR 10): the
  /// server verified the signature against its pinned keys, so the client
  /// can treat the vendor claim as a fact without holding the key itself.
  bool vendor_signed = false;
  std::string signed_vendor;  ///< manifest vendor name when vendor_signed
};

/// Serializes software metadata as a <software .../> element (one half of
/// the QuerySoftware/SubmitRating schema; both sides must agree on it).
xml::XmlNode SoftwareMetaToXml(const core::SoftwareMeta& meta);

/// Serializes a full QuerySoftware answer as the <result> element. This is
/// the *single* definition of the response schema: the server's RPC
/// handler emits through it, so two answers built from equal SoftwareInfo
/// values are equal bytes.
xml::XmlNode SoftwareInfoToXml(const SoftwareInfo& info);

}  // namespace pisrep::proto

#endif  // PISREP_PROTO_WIRE_H_
