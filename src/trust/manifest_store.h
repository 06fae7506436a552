#ifndef PISREP_TRUST_MANIFEST_STORE_H_
#define PISREP_TRUST_MANIFEST_STORE_H_

#include <unordered_map>

#include "core/types.h"
#include "storage/database.h"
#include "trust/signed_statement.h"
#include "util/clock.h"
#include "util/status.h"

namespace pisrep::trust {

/// Persisted, verified software manifests, keyed by software id. Only
/// manifests whose vendor signature already verified are ever stored — the
/// store records *facts*, so readers never re-verify. An in-memory map
/// mirrors the table for reads.
class ManifestStore {
 public:
  inline static constexpr std::string_view kTable = "manifests";

  /// Creates the table when absent and loads persisted manifests.
  explicit ManifestStore(storage::Database* db);

  /// Persists a verified manifest (last write per software wins).
  util::Status Put(const SoftwareManifest& manifest, util::TimePoint at);

  /// The manifest stored for `software`, or null.
  const SoftwareManifest* Find(const core::SoftwareId& software) const;

  std::size_t size() const { return manifests_.size(); }

 private:
  storage::Database* db_;
  std::unordered_map<core::SoftwareId, SoftwareManifest, core::SoftwareIdHash>
      manifests_;
};

}  // namespace pisrep::trust

#endif  // PISREP_TRUST_MANIFEST_STORE_H_
