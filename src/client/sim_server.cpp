#include "client/sim_server.h"

#include <algorithm>

namespace sky::client {

db::GateStats gate_stats_from(const sim::Resource& resource) {
  const sim::Resource::Stats stats = resource.stats();
  db::GateStats gate;
  gate.acquires = stats.acquires;
  gate.waits = stats.waits;
  gate.total_wait = stats.total_wait;
  gate.max_wait = stats.max_wait;
  gate.in_use = resource.capacity() - resource.available();
  return gate;
}

SimServer::SimServer(sim::Environment& env, db::Engine& engine,
                     ServerConfig config)
    : env_(env),
      engine_(engine),
      config_(config),
      stall_rng_(config.policies.concurrency.stall_seed),
      cache_(config.cache_pages, config.dirty_trigger) {
  const int nodes = std::max(1, config_.nodes);
  const int cpus_per_node = std::max(1, config_.cpus / nodes);
  for (int n = 0; n < nodes; ++n) {
    node_cpus_.push_back(std::make_unique<sim::Resource>(
        env_, cpus_per_node, "node-" + std::to_string(n) + "-cpus"));
  }
  table_last_writer_.assign(
      static_cast<size_t>(engine_.schema().table_count()), -1);
  transaction_slots_ = std::make_unique<sim::Resource>(
      env_, config_.policies.concurrency.max_concurrent_transactions,
      "txn-slots");
  batch_gate_ = std::make_unique<sim::Resource>(
      env_, config_.batch_gate_slots, "batch-gate");
  const core::QueryPolicy query = config_.policies.query.normalized();
  interactive_lane_ = std::make_unique<sim::Resource>(
      env_, query.interactive_slots, "query-interactive");
  batch_lane_ =
      std::make_unique<sim::Resource>(env_, query.batch_slots, "query-batch");
  const int table_count = engine_.schema().table_count();
  itl_.reserve(static_cast<size_t>(table_count));
  for (int t = 0; t < table_count; ++t) {
    itl_.push_back(std::make_unique<sim::Resource>(
        env_, config_.policies.concurrency.itl_slots_per_table,
        "itl-" + engine_.schema().table(static_cast<uint32_t>(t)).name));
  }
  devices_.reserve(static_cast<size_t>(config_.device_layout.physical_devices));
  for (int d = 0; d < config_.device_layout.physical_devices; ++d) {
    devices_.push_back(std::make_unique<sim::Resource>(
        env_, 1, "raid-" + std::to_string(d)));
  }
  cache_.set_io_hook([this](storage::CachePageId page,
                            storage::BufferCache::IoKind kind) {
    const storage::IoRole role = file_roles_[page.file_id];
    kind == storage::BufferCache::IoKind::kRead ? io_.add_read(role)
                                                : io_.add_write(role);
  });
  engine_.set_page_touch_observer([this](const db::PageTouch& touch) {
    const uint32_t file = touch.page.file_id;
    if (file >= file_roles_.size()) file_roles_.resize(file + 1);
    file_roles_[file] = touch.role;
    touch.write ? cache_.touch_write(touch.page)
                : cache_.touch_read(touch.page);
  });
}

SimServer::~SimServer() { engine_.set_page_touch_observer({}); }

SimServer::LogGroupDecision SimServer::join_log_group() {
  LogGroupDecision decision;
  decision.leader = true;
  if (config_.policies.commit.commit_window <= 0) return decision;
  const Nanos now = env_.now();
  if (now < log_group_close_ &&
      log_group_members_ < config_.policies.commit.max_group_commits) {
    ++log_group_members_;
    decision.leader = false;
    decision.flush_eta = log_group_eta_;
    return decision;
  }
  // Lead a new group. The window is only held open when another session
  // holds a transaction (someone who could commit into it) — the lone
  // loader's fast path, matching WriteAheadLog's single-transaction check.
  const int64_t open_transactions =
      transaction_slots_->capacity() - transaction_slots_->available();
  decision.window_wait =
      open_transactions > 1 ? config_.policies.commit.commit_window : 0;
  log_group_members_ = 1;
  log_group_close_ = now + decision.window_wait;
  log_group_eta_ =
      log_group_close_ + config_.costs.log_flush_time(/*bytes=*/0);
  decision.flush_eta = log_group_eta_;
  return decision;
}

void SimServer::admit_query(bool interactive) {
  if (interactive) {
    interactive_lane_->acquire();
    return;
  }
  // Batch yields: wait (virtual time) until no interactive query is running
  // or queued, polling at a coarse tick — the sim analogue of the real
  // scheduler's condition-variable handshake.
  bool yielded = false;
  while (config_.policies.query.batch_yields_to_interactive &&
         (interactive_lane_->available() < interactive_lane_->capacity() ||
          interactive_lane_->queue_depth() > 0)) {
    if (!yielded) {
      yielded = true;
      ++batch_yields_;
    }
    env_.delay(kMillisecond);
  }
  batch_lane_->acquire();
}

void SimServer::release_query(bool interactive) {
  if (interactive) {
    interactive_lane_->release();
  } else {
    batch_lane_->release();
  }
}

core::QueryStats SimServer::query_lane_stats() const {
  core::QueryStats stats;
  stats.interactive.gate = gate_stats_from(*interactive_lane_);
  stats.interactive.queue_depth = interactive_lane_->queue_depth();
  stats.batch.gate = gate_stats_from(*batch_lane_);
  stats.batch.queue_depth = batch_lane_->queue_depth();
  stats.batch_yields = batch_yields_;
  return stats;
}

db::ConcurrencyStats SimServer::concurrency_stats() const {
  db::ConcurrencyStats stats;
  stats.transaction_gate = gate_stats_from(*transaction_slots_);
  for (const auto& itl : itl_) stats.itl += gate_stats_from(*itl);
  return stats;
}

int64_t SimServer::note_table_writer(uint32_t table_id, int node,
                                     int64_t pages_touched) {
  if (node_count() == 1) return 0;
  int& last = table_last_writer_[table_id];
  const bool transfer = last >= 0 && last != node;
  last = node;
  return transfer ? pages_touched : 0;
}

Status SimServer::update_policies(const db::PolicyPatch& patch) {
  SKY_RETURN_IF_ERROR(patch.validate());
  if (patch.extent_assignment.has_value()) {
    // The embedded engine places rows even in sim mode; let it apply (and
    // validate) the placement flip, but keep the sim-owned knobs out of the
    // forwarded patch.
    db::PolicyPatch placement;
    placement.extent_assignment = patch.extent_assignment;
    const Status status = engine_.update_policies(placement);
    if (!status.is_ok()) return status;
  }
  if (patch.commit_window.has_value()) {
    config_.policies.commit.commit_window = *patch.commit_window;
  }
  if (patch.max_group_commits.has_value()) {
    config_.policies.commit.max_group_commits = *patch.max_group_commits;
  }
  if (patch.transaction_slots.has_value()) {
    config_.policies.concurrency.max_concurrent_transactions =
        static_cast<int>(*patch.transaction_slots);
    transaction_slots_->set_capacity(*patch.transaction_slots);
  }
  if (patch.itl_slots_per_table.has_value()) {
    config_.policies.concurrency.itl_slots_per_table =
        static_cast<int>(*patch.itl_slots_per_table);
    for (auto& itl : itl_) itl->set_capacity(*patch.itl_slots_per_table);
  }
  return Status::ok();
}

db::EngineStats SimControlPlane::stats() const {
  db::EngineStats stats = server_.engine().stats();
  // Overlay the surfaces the sim models itself: admission gates, query
  // lanes, and the live commit/slot policy values, which live in SimServer
  // (the engine runs with a zero window and ungated in sim mode).
  stats.concurrency = server_.concurrency_stats();
  stats.query = server_.query_lane_stats();
  const ServerConfig& config = server_.config();
  stats.policies.commit_window = config.policies.commit.commit_window;
  stats.policies.max_group_commits = config.policies.commit.max_group_commits;
  stats.policies.transaction_slots =
      config.policies.concurrency.max_concurrent_transactions;
  stats.policies.itl_slots_per_table =
      config.policies.concurrency.itl_slots_per_table;
  return stats;
}

Status SimControlPlane::apply(const db::PolicyPatch& patch) {
  return server_.update_policies(patch);
}

}  // namespace sky::client
