#include "db/query_scheduler.h"

#include <bit>
#include <cmath>
#include <utility>

namespace sky::db {

// ------------------------------------------------------- LatencyHistogram

void LatencyHistogram::record(Nanos latency_ns) {
  const auto magnitude =
      latency_ns <= 0 ? 0ULL : static_cast<uint64_t>(latency_ns);
  const auto idx = static_cast<size_t>(std::bit_width(magnitude));
  buckets_[idx < buckets_.size() ? idx : buckets_.size() - 1].fetch_add(
      1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
}

Nanos LatencyHistogram::percentile(double p) const {
  const int64_t total = total_.load(std::memory_order_relaxed);
  if (total <= 0) return 0;
  auto target = static_cast<int64_t>(std::ceil(p * static_cast<double>(total)));
  if (target < 1) target = 1;
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= target) {
      // Upper bound of bucket i: samples with bit_width == i are < 2^i.
      return Nanos{1} << (i < 62 ? i : 62);
    }
  }
  return Nanos{1} << 62;
}

// -------------------------------------------------------------- Admission

Admission::Admission(Admission&& other) noexcept
    : scheduler_(other.scheduler_),
      lane_(other.lane_),
      start_(other.start_),
      queue_wait_(other.queue_wait_),
      snapshot_(std::move(other.snapshot_)) {
  other.scheduler_ = nullptr;
}

Admission& Admission::operator=(Admission&& other) noexcept {
  if (this != &other) {
    if (scheduler_ != nullptr) scheduler_->release(*this);
    scheduler_ = other.scheduler_;
    lane_ = other.lane_;
    start_ = other.start_;
    queue_wait_ = other.queue_wait_;
    snapshot_ = std::move(other.snapshot_);
    other.scheduler_ = nullptr;
  }
  return *this;
}

Admission::~Admission() {
  if (scheduler_ != nullptr) scheduler_->release(*this);
}

ReadView Admission::view() const {
  if (scheduler_ == nullptr) return ReadView();
  return scheduler_->engine_.view_at(snapshot_);
}

// --------------------------------------------------------- QueryScheduler

QueryScheduler::QueryScheduler(Engine& engine, core::QueryPolicy policy)
    : engine_(engine),
      policy_(policy.normalized()),
      interactive_gate_(policy_.interactive_slots),
      batch_gate_(policy_.batch_slots) {
  // Fold this scheduler's lane telemetry into Engine::stats() — the unified
  // snapshot the control plane reads.
  engine_.set_query_stats_source([this] { return stats(); });
}

QueryScheduler::~QueryScheduler() {
  // Detach before the gates are destroyed; the engine holds its hook mutex
  // across invocation, so after this returns no stats() call is in flight.
  engine_.set_query_stats_source({});
}

Admission QueryScheduler::admit(QueryLane lane, OpCosts* costs) {
  const auto arrival = std::chrono::steady_clock::now();
  if (lane == QueryLane::kInteractive) {
    {
      // Count in before the gate: a queued interactive query already holds
      // back batch admissions (the yield covers queued work, not just
      // in-flight work).
      const std::scoped_lock lock(yield_mu_);
      ++interactive_in_flight_;
    }
    interactive_waiting_.fetch_add(1, std::memory_order_relaxed);
    interactive_gate_.acquire(0);
    interactive_waiting_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    batch_waiting_.fetch_add(1, std::memory_order_relaxed);
    if (policy_.batch_yields_to_interactive) {
      std::unique_lock<std::mutex> lock(yield_mu_);
      if (interactive_in_flight_ > 0) {
        batch_yields_.fetch_add(1, std::memory_order_relaxed);
        yield_cv_.wait(lock, [&] { return interactive_in_flight_ == 0; });
      }
    }
    batch_gate_.acquire(0);
    batch_waiting_.fetch_sub(1, std::memory_order_relaxed);
  }
  const auto admitted = std::chrono::steady_clock::now();

  Admission admission;
  admission.scheduler_ = this;
  admission.lane_ = lane;
  admission.start_ = admitted;
  admission.queue_wait_ =
      std::chrono::duration_cast<std::chrono::nanoseconds>(admitted - arrival)
          .count();
  admission.snapshot_ = engine_.pin_snapshot();
  if (costs != nullptr) costs->query_lane_wait_ns += admission.queue_wait_;
  return admission;
}

void QueryScheduler::release(Admission& admission) {
  const Nanos latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - admission.start_)
                            .count();
  admission.snapshot_ = Snapshot();  // unpin before freeing the slot
  if (admission.lane_ == QueryLane::kInteractive) {
    interactive_gate_.release(0);
    {
      const std::scoped_lock lock(yield_mu_);
      if (--interactive_in_flight_ == 0) yield_cv_.notify_all();
    }
    interactive_completed_.fetch_add(1, std::memory_order_relaxed);
    interactive_latency_.record(latency);
  } else {
    batch_gate_.release(0);
    batch_completed_.fetch_add(1, std::memory_order_relaxed);
    batch_latency_.record(latency);
  }
  admission.scheduler_ = nullptr;
}

QueryStats QueryScheduler::stats() const {
  QueryStats stats;
  stats.interactive.gate = interactive_gate_.stats();
  stats.interactive.completed =
      interactive_completed_.load(std::memory_order_relaxed);
  stats.interactive.queue_depth =
      interactive_waiting_.load(std::memory_order_relaxed);
  stats.interactive.p50_latency = interactive_latency_.percentile(0.50);
  stats.interactive.p99_latency = interactive_latency_.percentile(0.99);
  stats.batch.gate = batch_gate_.stats();
  stats.batch.completed = batch_completed_.load(std::memory_order_relaxed);
  stats.batch.queue_depth = batch_waiting_.load(std::memory_order_relaxed);
  stats.batch.p50_latency = batch_latency_.percentile(0.50);
  stats.batch.p99_latency = batch_latency_.percentile(0.99);
  stats.batch_yields = batch_yields_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace sky::db
