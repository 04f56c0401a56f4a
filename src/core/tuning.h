// TuningProfile: the database and system tuning knobs of section 4.5, as a
// single reproducible configuration object.
//
// Two presets bracket the paper's headline claim ("from more than 20 hours
// to less than 3 hours on the same hardware"):
//   * untuned_2004()  — the before-state: row-at-a-time inserts, low
//     parallelism, frequent commits, every index maintained, everything on
//     one RAID device, a large data cache, unsorted input.
//   * paper_2005()    — the after-state of section 4.5: bulk loading (batch
//     40, array 1000), 5 parallel loaders with dynamic assignment,
//     infrequent commits, only the htmid index maintained, data/index/log
//     on separate devices, a reduced data cache, presorted input. The
//     simulated figure benches run this preset.
// A third preset is what skyloader_tool runs:
//   * production()    — paper_2005() with the loader sizes the column
//     buffers were tuned for: batch 4000, array 4000, and a 600 KiB
//     array-set high-water mark.
#pragma once

#include <optional>
#include <string>

#include "client/sim_server.h"
#include "core/bulk_loader.h"
#include "core/commit_policy.h"
#include "db/engine.h"

namespace sky::core {

struct TuningProfile {
  std::string name;

  // Loading strategy.
  bool bulk = true;
  int64_t batch_size = 4000;
  int64_t array_size = 4000;
  int parallel_degree = 5;
  bool dynamic_assignment = true;
  // Aggregate buffered-byte budget for the array set (the high-water flush
  // trigger the paper lists as future work; unset = row capacities only).
  // It bounds the combined footprint of all per-table column buffers, not
  // just the largest one, which per-array row caps alone cannot guarantee
  // on interleaved input.
  std::optional<int64_t> array_high_water_bytes = 600 * 1024;
  // Commit cadence and durability shape (section 4.5.2), shared by the
  // loaders (cadence), the engine (group-commit window, durability mode)
  // and the sim server (log-device grouping model).
  CommitPolicy commit;

  // Index policy during the catch-up load (section 4.5.1).
  bool maintain_htmid_index = true;
  bool maintain_composite_index = false;

  // System layout and memory (sections 4.5.3, 4.5.5); sim server only.
  storage::DeviceLayout device_layout =
      storage::DeviceLayout::separate_raids();
  int64_t server_cache_pages = 4096;

  // Input presort (section 4.5.4); consumed by the data generator.
  bool presorted_input = true;

  static TuningProfile production();
  static TuningProfile paper_2005();
  static TuningProfile untuned_2004();

  // Apply the index policy to the repository's objects table.
  Status apply_index_policy(db::Engine& engine) const;

  // Engine construction options consistent with this profile.
  db::EngineOptions engine_options() const;
  // Sim server config consistent with this profile.
  client::ServerConfig server_config() const;
  // Loader options consistent with this profile.
  BulkLoaderOptions bulk_options() const;

  std::string describe() const;
};

}  // namespace sky::core
