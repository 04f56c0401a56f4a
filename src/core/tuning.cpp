#include "core/tuning.h"

#include "catalog/pq_schema.h"
#include "common/strings.h"

namespace sky::core {

TuningProfile TuningProfile::production() {
  TuningProfile profile;
  profile.name = "skyloader-production";
  return profile;  // the defaults are the production settings
}

TuningProfile TuningProfile::paper_2005() {
  TuningProfile profile;
  profile.name = "paper-2005";
  profile.batch_size = 40;
  profile.array_size = 1000;
  profile.array_high_water_bytes.reset();
  return profile;
}

TuningProfile TuningProfile::untuned_2004() {
  TuningProfile profile = paper_2005();
  profile.name = "untuned-2004";
  profile.bulk = false;
  profile.batch_size = 1;
  profile.array_size = 250;
  profile.parallel_degree = 2;
  profile.dynamic_assignment = false;
  profile.commit.every_cycles = 1;
  profile.commit.every_rows = 100;
  profile.maintain_htmid_index = true;
  profile.maintain_composite_index = true;
  profile.device_layout = storage::DeviceLayout::single_raid();
  profile.server_cache_pages = 65536;  // large cache, slow DBWR scans
  profile.presorted_input = false;
  return profile;
}

Status TuningProfile::apply_index_policy(db::Engine& engine) const {
  const auto objects = engine.table_id("objects");
  if (!objects.is_ok()) return ok_status();  // non-PQ schema: nothing to do
  SKY_RETURN_IF_ERROR(engine.set_index_enabled(
      *objects, catalog::kIndexHtmid, maintain_htmid_index));
  SKY_RETURN_IF_ERROR(engine.set_index_enabled(
      *objects, catalog::kIndexRaDecMag, maintain_composite_index));
  return ok_status();
}

db::EngineOptions TuningProfile::engine_options() const {
  db::EngineOptions options;
  // Simulation models the transaction and ITL limits in the server config;
  // keep the real gates permissive (64 slots, ITL off) so they never
  // double-count — and so no real gate can block inside a sim process,
  // which would wedge the cooperative scheduler. Real-thread harnesses
  // that want the admission gates set policies.concurrency directly.
  options.policies.concurrency.max_concurrent_transactions = 64;
  options.policies.concurrency.itl_slots_per_table = 0;
  // Likewise the commit-coalescing window: the sim prices it at the modeled
  // log device (server_config() below), so the engine-side window stays 0 —
  // a real timed wait would stall the cooperative sim scheduler. Real-thread
  // harnesses opt in via policies.commit.commit_window directly.
  options.policies.commit.max_group_commits = commit.max_group_commits;
  options.policies.commit.durability = commit.durability;
  return options;
}

client::ServerConfig TuningProfile::server_config() const {
  client::ServerConfig config;
  config.device_layout = device_layout;
  config.cache_pages = server_cache_pages;
  config.policies.commit.commit_window = commit.commit_window;
  config.policies.commit.max_group_commits = commit.max_group_commits;
  return config;
}

BulkLoaderOptions TuningProfile::bulk_options() const {
  BulkLoaderOptions options;
  options.batch_size = bulk ? batch_size : 1;
  options.array_config.default_rows = array_size;
  options.array_config.memory_high_water_bytes = array_high_water_bytes;
  options.commit = commit;
  return options;
}

std::string TuningProfile::describe() const {
  const std::string high_water =
      array_high_water_bytes.has_value()
          ? str_format(" (high-water %lld KiB)",
                       static_cast<long long>(*array_high_water_bytes / 1024))
          : "";
  return str_format(
      "%s: %s, batch=%lld, array=%lld%s, parallel=%d (%s), commits=%s, "
      "indexes[htmid=%s composite=%s], %s, cache=%lld pages, %s input",
      name.c_str(), bulk ? "bulk" : "non-bulk",
      static_cast<long long>(batch_size), static_cast<long long>(array_size),
      high_water.c_str(),
      parallel_degree, dynamic_assignment ? "dynamic" : "static",
      commit.describe().c_str(),
      maintain_htmid_index ? "on" : "off",
      maintain_composite_index ? "on" : "off",
      device_layout.describe().c_str(),
      static_cast<long long>(server_cache_pages),
      presorted_input ? "presorted" : "unsorted");
}

}  // namespace sky::core
