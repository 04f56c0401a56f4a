#include "db/lock_manager.h"

#include <cassert>
#include <chrono>
#include <thread>

namespace sky::db {

namespace {
Nanos latch_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Nanos lock_exclusive_timed(std::shared_mutex& mu) {
  if (mu.try_lock()) return 0;
  const Nanos start = latch_now();
  mu.lock();
  return latch_now() - start;
}

Nanos lock_shared_timed(std::shared_mutex& mu) {
  if (mu.try_lock_shared()) return 0;
  const Nanos start = latch_now();
  mu.lock_shared();
  return latch_now() - start;
}

void WaitGraph::add_hold(uint64_t owner, const void* gate) {
  const std::scoped_lock lock(mu_);
  ++holders_[gate][owner];
}

void WaitGraph::remove_hold(uint64_t owner, const void* gate) {
  const std::scoped_lock lock(mu_);
  auto git = holders_.find(gate);
  if (git == holders_.end()) return;
  auto oit = git->second.find(owner);
  if (oit == git->second.end()) return;
  if (--oit->second <= 0) git->second.erase(oit);
  if (git->second.empty()) holders_.erase(git);
}

bool WaitGraph::add_wait(uint64_t owner, const void* gate) {
  const std::scoped_lock lock(mu_);
  // Would this wait close a cycle? owner -> gate -> holder -> ... -> owner.
  const auto git = holders_.find(gate);
  if (git != holders_.end()) {
    for (const auto& [holder, count] : git->second) {
      (void)count;
      if (holder == owner) continue;  // own slots on this gate are not a wait
      if (reachable_locked(holder, owner)) return true;
    }
  }
  waiting_[owner] = gate;
  return false;
}

void WaitGraph::grant(uint64_t owner, const void* gate) {
  const std::scoped_lock lock(mu_);
  waiting_.erase(owner);
  ++holders_[gate][owner];
}

size_t WaitGraph::waiting_count() const {
  const std::scoped_lock lock(mu_);
  return waiting_.size();
}

bool WaitGraph::reachable_locked(uint64_t from_owner,
                                 uint64_t target_owner) const {
  std::vector<uint64_t> frontier{from_owner};
  std::unordered_set<uint64_t> seen;
  while (!frontier.empty()) {
    const uint64_t current = frontier.back();
    frontier.pop_back();
    if (current == target_owner) return true;
    if (!seen.insert(current).second) continue;
    const auto wait_it = waiting_.find(current);
    if (wait_it == waiting_.end()) continue;
    const auto hold_it = holders_.find(wait_it->second);
    if (hold_it == holders_.end()) continue;
    for (const auto& [holder, count] : hold_it->second) {
      (void)count;
      frontier.push_back(holder);
    }
  }
  return false;
}

SlotGate::SlotGate(int64_t slots, GateStallModel stall, WaitGraph* wait_graph)
    : slots_(slots),
      stall_(stall),
      stall_rng_(stall.seed),
      wait_graph_(wait_graph) {
  assert(slots > 0);
}

void SlotGate::set_slots(int64_t slots) {
  assert(slots > 0);
  {
    const std::scoped_lock lock(mu_);
    slots_ = slots;  // shrink bites as holders release; grow admits now
  }
  cv_.notify_all();
}

int64_t SlotGate::slots() const {
  const std::scoped_lock lock(mu_);
  return slots_;
}

GateAcquire SlotGate::acquire(uint64_t owner) {
  std::unique_lock<std::mutex> lock(mu_);
  GateAcquire result;
  const bool would_wait = next_ticket_ != serving_ || stats_.in_use >= slots_;
  if (wait_graph_ != nullptr && would_wait) {
    // Check BEFORE taking a ticket: every issued ticket must be served in
    // order, so a refused admission must leave the FIFO protocol untouched.
    // add_wait atomically (under the graph mutex) either refuses the wait
    // or registers the edge other transactions' cycle checks will see.
    if (wait_graph_->add_wait(owner, this)) {
      result.deadlock = true;
      result.contended = true;
      result.queue_depth = static_cast<int64_t>(next_ticket_ - serving_);
      return result;
    }
  }
  ++stats_.acquires;
  const uint64_t ticket = next_ticket_++;
  // Tickets in [serving_, ticket) are still queued for admission.
  result.queue_depth = static_cast<int64_t>(ticket - serving_);
  if (ticket != serving_ || stats_.in_use >= slots_) {
    result.contended = true;
    ++stats_.waits;
    const auto start = std::chrono::steady_clock::now();
    cv_.wait(lock, [this, ticket] {
      return ticket == serving_ && stats_.in_use < slots_;
    });
    const auto end = std::chrono::steady_clock::now();
    result.wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    stats_.total_wait += result.wait_ns;
    if (result.wait_ns > stats_.max_wait) stats_.max_wait = result.wait_ns;
  }
  ++serving_;
  ++stats_.in_use;
  if (wait_graph_ != nullptr) {
    if (would_wait) {
      wait_graph_->grant(owner, this);
    } else {
      wait_graph_->add_hold(owner, this);
    }
  }
  bool stall_hit = false;
  if (result.contended && stall_.probability > 0) {
    stall_hit = stall_rng_.bernoulli(stall_.probability);
    if (stall_hit) {
      ++stats_.stalls;
      stats_.stall_time += stall_.duration;
      result.stall_ns = stall_.duration;
    }
  }
  // Wake the next ticket holder: a slot may still be free, and admission is
  // strictly in ticket order.
  lock.unlock();
  cv_.notify_all();
  if (stall_hit && stall_.duration > 0) {
    // The long stall is served while *holding* the slot — exactly the
    // behaviour that makes a saturated ITL so expensive in the paper.
    std::this_thread::sleep_for(std::chrono::nanoseconds(stall_.duration));
  }
  return result;
}

void SlotGate::release(uint64_t owner) {
  if (wait_graph_ != nullptr) wait_graph_->remove_hold(owner, this);
  {
    const std::scoped_lock lock(mu_);
    --stats_.in_use;
  }
  cv_.notify_all();
}

GateStats SlotGate::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace sky::db
