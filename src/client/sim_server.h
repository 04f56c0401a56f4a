// SimServer: the shared database-host model for simulation mode.
//
// Reproduces the paper's testbed shape: an 8-processor database server, a
// finite concurrent-transaction limit, per-table ITL (interested transaction
// list) slots that parallel loaders contend on, and one queueing resource
// per physical RAID device (data / index / log, co-located or separate per
// the DeviceLayout). All SimSessions of a benchmark share one SimServer;
// queueing on these resources in virtual time is what produces the Fig. 7
// parallelism curve — near-linear scaling while slots are free, lock waits
// and occasional long stalls past the knee.
// It also owns the data-cache/DBWR model (section 4.5.5), fed by the
// engine's page-touch observer, and the page I/O per device role that model
// implies; real mode runs no cache model.
#pragma once

#include <memory>
#include <vector>

#include "client/cost_model.h"
#include "common/rng.h"
#include "core/engine_policies.h"
#include "core/query_stats.h"
#include "db/control_plane.h"
#include "db/engine.h"
#include "sim/environment.h"
#include "storage/buffer_cache.h"

namespace sky::client {

// View a sim resource's virtual-time accounting as the unified GateStats
// snapshot real gates report (db/lock_manager.h) — one schema for wait
// breakdowns in both execution modes. Stall fields stay zero: sim stalls
// are drawn in the session (SimServer::draw_stall) and land in
// SessionStats::stall_time.
db::GateStats gate_stats_from(const sim::Resource& resource);

struct ServerConfig {
  int cpus = 8;
  // Cluster hosting (the paper's section 7 future work: "explore
  // database-hosting architectures and Oracle RAC technology"). With
  // nodes > 1 the `cpus` pool is split evenly across nodes, sessions attach
  // to nodes round-robin, and a batch that inserts into a table whose most
  // recent writer was a *different* node pays a cache-fusion transfer per
  // dirtied page (cluster interconnect shipping current blocks).
  int nodes = 1;
  Nanos cache_fusion_per_page = 700 * kMicrosecond;
  // Every shared policy struct, in the same aggregate the real engine's
  // EngineOptions embeds (core/engine_policies.h) — tuning code can copy
  // the whole block between backends. The concurrency preset models the
  // paper's testbed: 8 open-transaction slots (sessions holding a
  // transaction) and 7 ITL slots per table (concurrent transactions
  // inserting into one table — the knee of Fig. 7). The commit window is
  // modeled here, at the log device (join_log_group): the engine itself runs
  // with a zero window in simulation, since it must never block in real
  // time inside a sim process.
  core::EnginePolicies policies = [] {
    core::EnginePolicies p;
    p.concurrency.max_concurrent_transactions = 8;
    p.concurrency.itl_slots_per_table = 7;
    return p;
  }();
  // Instance-wide limit on concurrently *executing* transactional batch
  // work — the "RDBMS limit on the number of concurrent transactions" the
  // paper hits at parallelism 6-7 (section 4.4/5.4). Queueing here triggers
  // lock-management escalation and occasional stalls. Sim-only (real mode
  // has no modeled CPU scheduler to gate).
  int64_t batch_gate_slots = 5;

  storage::DeviceLayout device_layout =
      storage::DeviceLayout::separate_raids();
  // Server data cache in 8 KiB pages (section 4.5.5 knob), and the DBWR
  // dirty-page trigger (a fixed count, independent of the cache size).
  int64_t cache_pages = 16384;
  int64_t dirty_trigger = 256;
  CostModel costs;
};

class SimServer {
 public:
  // Observes `engine`'s page touches until destroyed.
  SimServer(sim::Environment& env, db::Engine& engine, ServerConfig config);
  ~SimServer();
  SimServer(const SimServer&) = delete;
  SimServer& operator=(const SimServer&) = delete;

  sim::Environment& env() { return env_; }
  db::Engine& engine() { return engine_; }
  const ServerConfig& config() const { return config_; }
  const CostModel& costs() const { return config_.costs; }

  // CPU pool of a cluster node (node 0 when single-instance).
  sim::Resource& node_cpus(int node) {
    return *node_cpus_[static_cast<size_t>(node) % node_cpus_.size()];
  }
  int node_count() const { return static_cast<int>(node_cpus_.size()); }
  // Attach a session to a node (round-robin).
  int assign_node() { return next_node_++ % node_count(); }
  // Record node writing to a table; returns pages that must be shipped via
  // cache fusion (0 on same-node access or single-instance).
  int64_t note_table_writer(uint32_t table_id, int node,
                            int64_t pages_touched);

  sim::Resource& transaction_slots() { return *transaction_slots_; }
  sim::Resource& batch_gate() { return *batch_gate_; }
  sim::Resource& itl(uint32_t table_id) { return *itl_[table_id]; }
  sim::Resource& interactive_lane() { return *interactive_lane_; }
  sim::Resource& batch_lane() { return *batch_lane_; }
  sim::Resource& device(int physical_device) {
    return *devices_[static_cast<size_t>(physical_device)];
  }
  sim::Resource& device_for(storage::IoRole role) {
    return device(config_.device_layout.device_for(role));
  }

  // Totals since construction, from every insert on the engine.
  storage::CacheEvents cache_events() const { return cache_.events(); }
  const storage::IoTally& io_tally() const { return io_; }

  // Deterministic stall decision (one shared stream; draws are ordered by
  // virtual time, which is itself deterministic).
  bool draw_stall() {
    return stall_rng_.bernoulli(config_.policies.concurrency.stall_probability);
  }

  // Unified admission-gate snapshot in the same shape the real engine
  // reports as EngineStats::concurrency (db::ConcurrencyStats), derived
  // from the sim resources' virtual-time accounting.
  db::ConcurrencyStats concurrency_stats() const;

  // Query-lane admission, the virtual-time twin of QueryScheduler::admit:
  // blocks (in virtual time) until the lane grants a slot; batch admissions
  // additionally poll until the interactive lane is fully idle when the
  // policy says batch yields. Pair each admit with release_query.
  void admit_query(bool interactive);
  void release_query(bool interactive);
  // Same schema the real QueryScheduler::stats() reports
  // (core/query_stats.h) — per-lane gate accounting from the sim resources
  // plus the yield counter. Latency percentiles stay zero: sim benches
  // measure query latency in virtual time at the call site.
  core::QueryStats query_lane_stats() const;

  // Log-device group commit (ServerConfig::policies.commit.commit_window).
  // A committing session asks whether it leads a new flush group or joins
  // the one in flight. The leader pays the coalescing-window wait (skipped
  // when it is the only session holding a transaction — the same
  // single-transaction fast path the real WAL takes) and the full flush;
  // joiners wait for the group's device write (flush_eta) and pay only
  // their marginal bytes.
  struct LogGroupDecision {
    bool leader = false;
    Nanos window_wait = 0;  // leader only
    Nanos flush_eta = 0;    // virtual time the group's device write lands
  };
  LogGroupDecision join_log_group();

  // Live policy application, the sim twin of Engine::update_policies.
  // Commit-window knobs mutate config_ (join_log_group reads them per call;
  // sim processes are serialized, so no lock is needed); slot counts resize
  // the corresponding sim resources (growing grants queued waiters at the
  // current virtual time, shrinking drains); extent assignment is forwarded
  // to the embedded engine, which places rows even in sim mode. Validates
  // the whole patch before applying any field.
  Status update_policies(const db::PolicyPatch& patch);

 private:
  sim::Environment& env_;
  db::Engine& engine_;
  ServerConfig config_;
  std::vector<std::unique_ptr<sim::Resource>> node_cpus_;
  std::vector<int> table_last_writer_;
  int next_node_ = 0;
  std::unique_ptr<sim::Resource> transaction_slots_;
  std::unique_ptr<sim::Resource> batch_gate_;
  std::unique_ptr<sim::Resource> interactive_lane_;
  std::unique_ptr<sim::Resource> batch_lane_;
  int64_t batch_yields_ = 0;
  std::vector<std::unique_ptr<sim::Resource>> itl_;
  std::vector<std::unique_ptr<sim::Resource>> devices_;
  Rng stall_rng_;
  // Open log flush group: commits before log_group_close_ join it (up to
  // max_group_commits members); its write completes around log_group_eta_.
  Nanos log_group_close_ = -1;
  Nanos log_group_eta_ = 0;
  int64_t log_group_members_ = 0;
  storage::BufferCache cache_;
  std::vector<storage::IoRole> file_roles_;  // by PageTouch file id
  storage::IoTally io_;  // sim processes run one at a time: plain counters
};

// ControlPlane over a SimServer: the controller that tunes a live engine
// drives the simulated testbed through the same interface. stats() starts
// from the embedded engine's snapshot (heap extents, snapshots, WAL — all
// real even in sim mode) and overlays the parts the sim models itself:
// admission-gate accounting, query lanes, and the live commit/slot policy
// values, which live in SimServer, not the engine. apply() goes through
// SimServer::update_policies.
class SimControlPlane : public db::ControlPlane {
 public:
  explicit SimControlPlane(SimServer& server) : server_(server) {}

  db::EngineStats stats() const override;
  Status apply(const db::PolicyPatch& patch) override;

 private:
  SimServer& server_;
};

}  // namespace sky::client
