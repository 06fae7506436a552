#include "trust/manifest_store.h"

#include <string>
#include <utility>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pisrep::trust {

namespace {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;
using util::Status;

}  // namespace

ManifestStore::ManifestStore(storage::Database* db) : db_(db) {
  if (!db_->HasTable(kTable)) {
    Status status = db_->CreateTable(SchemaBuilder(std::string(kTable))
                                         .Str("software")
                                         .Str("vendor")
                                         .Str("file_name")
                                         .Str("version")
                                         .Str("sig")
                                         .Int("verified_at")
                                         .PrimaryKey("software")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  auto table = db_->GetTable(kTable);
  PISREP_CHECK(table.ok()) << table.status().ToString();
  (*table)->ForEach([this](const Row& row) {
    SoftwareManifest manifest;
    auto id = SoftwareIdFromHex(row[0].AsStr());
    if (!id.ok()) return;
    manifest.software = *id;
    manifest.vendor = row[1].AsStr();
    manifest.file_name = row[2].AsStr();
    manifest.version = row[3].AsStr();
    auto sig = util::ParseInt64(row[4].AsStr());
    manifest.signature =
        sig.ok() ? static_cast<crypto::Signature>(*sig) : 0;
    manifests_[manifest.software] = std::move(manifest);
  });
}

Status ManifestStore::Put(const SoftwareManifest& manifest,
                          util::TimePoint at) {
  PISREP_ASSIGN_OR_RETURN(storage::Table * table, db_->GetTable(kTable));
  PISREP_RETURN_IF_ERROR(table->Upsert(Row{
      Value::Str(manifest.software.ToHex()),
      Value::Str(manifest.vendor),
      Value::Str(manifest.file_name),
      Value::Str(manifest.version),
      Value::Str(std::to_string(manifest.signature)),
      Value::Int(at),
  }));
  manifests_[manifest.software] = manifest;
  return Status::Ok();
}

const SoftwareManifest* ManifestStore::Find(
    const core::SoftwareId& software) const {
  auto it = manifests_.find(software);
  return it == manifests_.end() ? nullptr : &it->second;
}

}  // namespace pisrep::trust
