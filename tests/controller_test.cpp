// Controller unit battery: the closed feedback loop against a scripted
// ControlPlane (convergence under steady load, hysteresis damping, bounded
// clamping), WaitGraph cycle oracles, the admission gate's FIFO / resize /
// stats / deadlock-refusal / stall contracts, PolicyPatch validation shared
// by both control planes, a real-engine deadlock-victim test, and an
// update_policies-vs-load hammer. Runs in the `sanitizer` ctest label
// (SKY_SANITIZE=address / thread).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/sim_server.h"
#include "core/controller.h"
#include "db/control_plane.h"
#include "db/engine.h"
#include "db/lock_manager.h"
#include "db/op_costs.h"
#include "sim/environment.h"

namespace sky::core {
namespace {

// Scripted control plane: the test advances cumulative counters between
// ticks; apply() mirrors accepted patches back into the live-policy block
// exactly like the real planes do.
class FakePlane final : public db::ControlPlane {
 public:
  FakePlane() {
    stats_.policies.commit_window = 0;
    stats_.policies.max_group_commits = 8;
    stats_.policies.transaction_slots = 8;
    stats_.policies.itl_slots_per_table = 4;
    stats_.policies.extent_assignment = db::ExtentAssignment::kRoundRobin;
  }

  db::EngineStats stats() const override { return stats_; }

  Status apply(const db::PolicyPatch& patch) override {
    applied.push_back(patch);
    if (!apply_status.is_ok()) return apply_status;
    if (patch.commit_window) stats_.policies.commit_window = *patch.commit_window;
    if (patch.max_group_commits) {
      stats_.policies.max_group_commits = *patch.max_group_commits;
    }
    if (patch.transaction_slots) {
      stats_.policies.transaction_slots = *patch.transaction_slots;
    }
    if (patch.itl_slots_per_table) {
      stats_.policies.itl_slots_per_table = *patch.itl_slots_per_table;
    }
    if (patch.extent_assignment) {
      stats_.policies.extent_assignment = *patch.extent_assignment;
    }
    return Status::ok();
  }

  db::EngineStats stats_;
  Status apply_status = Status::ok();
  std::vector<db::PolicyPatch> applied;
};

constexpr Nanos kTick = 100 * kMillisecond;

// Drive one tick at t = n * kTick with the given per-interval commit count
// and commit concurrency.
db::PolicyPatch tick_commits(Controller& controller, FakePlane& plane, int n,
                             int64_t commits, int64_t in_use) {
  plane.stats_.wal.commit_requests += commits;
  plane.stats_.concurrency.transaction_gate.in_use = in_use;
  return controller.tick(static_cast<Nanos>(n) * kTick);
}

TEST(ControllerTest, FirstTickOnlyEstablishesBaseline) {
  FakePlane plane;
  plane.stats_.wal.commit_requests = 100000;  // outrageous history
  Controller controller(plane);
  EXPECT_TRUE(controller.tick(0).empty());
  EXPECT_EQ(controller.trace().total(), 0u);
  EXPECT_TRUE(plane.applied.empty());
}

// Saturated ungrouped commits (many committers in flight, low observed
// rate): the window must walk up one step per tick and settle at max —
// the bootstrap out of log-device saturation.
TEST(ControllerTest, WindowConvergesUpUnderConcurrentCommits) {
  FakePlane plane;
  Controller controller(plane);
  controller.tick(0);
  Nanos prev = 0;
  for (int n = 1; n <= 20; ++n) {
    tick_commits(controller, plane, n, /*commits=*/12, /*in_use=*/6);
    const Nanos window = plane.stats_.policies.commit_window.value();
    EXPECT_GE(window, prev) << "window must approach monotonically";
    EXPECT_LE(window - prev, controller.policy().window_step);
    prev = window;
  }
  // Settles within one deadband of the clamped target (the last 1ms step
  // to 8ms is inside the 15% relative deadband at 7ms — the intended hold).
  EXPECT_GE(prev, controller.policy().max_commit_window -
                      controller.policy().window_step);
  // 0 -> 7ms at 1ms/tick: exactly 7 patches, then the deadband holds.
  EXPECT_EQ(plane.applied.size(), 7u);
  EXPECT_EQ(controller.trace().total(), 7u);
}

// Same commit rate but almost nobody concurrently committing: the window is
// pure leader latency and must walk back to min.
TEST(ControllerTest, WindowConvergesDownWhenConcurrencyLow) {
  FakePlane plane;
  plane.stats_.policies.commit_window = 8 * kMillisecond;
  Controller controller(plane);
  controller.tick(0);
  for (int n = 1; n <= 20; ++n) {
    tick_commits(controller, plane, n, /*commits=*/12, /*in_use=*/1);
  }
  EXPECT_EQ(plane.stats_.policies.commit_window.value(),
            controller.policy().min_commit_window);
  EXPECT_EQ(plane.applied.size(), 8u);
}

// A target within the deadband of the current window must not move it.
TEST(ControllerTest, WindowHoldsInsideDeadband) {
  FakePlane plane;
  plane.stats_.policies.commit_window = 8 * kMillisecond;
  Controller controller(plane);
  controller.tick(0);
  for (int n = 1; n <= 10; ++n) {
    // 12 commits / 100ms with 6 in flight wants the clamped max (8ms):
    // diff 0, inside the deadband.
    tick_commits(controller, plane, n, /*commits=*/12, /*in_use=*/6);
  }
  EXPECT_TRUE(plane.applied.empty());
  EXPECT_EQ(plane.stats_.policies.commit_window.value(), 8 * kMillisecond);
}

// Alternating pressure (one queued interval, one neutral interval) must
// never accumulate confirm_ticks agreeing votes: no slot patch, ever.
TEST(ControllerTest, NoSlotOscillationUnderAlternatingPressure) {
  FakePlane plane;
  Controller controller(plane);
  controller.tick(0);
  for (int n = 1; n <= 40; ++n) {
    auto& gate = plane.stats_.concurrency.transaction_gate;
    gate.acquires += 10;
    if (n % 2 == 1) {
      gate.waits += 6;  // wait share 0.6: vote grow
      gate.in_use = 8;
    } else {
      gate.in_use = 5;  // quiet but busy enough not to vote shrink
    }
    controller.tick(static_cast<Nanos>(n) * kTick);
  }
  EXPECT_TRUE(plane.applied.empty());
  EXPECT_EQ(plane.stats_.policies.transaction_slots.value(), 8);
}

// Sustained queueing grows the gate by slot_step per confirm_ticks window,
// clamped at the policy maximum.
TEST(ControllerTest, TransactionSlotsGrowConfirmedAndClamped) {
  FakePlane plane;
  ControllerPolicy policy;
  policy.max_transaction_slots = 10;
  Controller controller(plane, policy);
  controller.tick(0);
  for (int n = 1; n <= 30; ++n) {
    auto& gate = plane.stats_.concurrency.transaction_gate;
    gate.acquires += 10;
    gate.waits += 6;
    gate.in_use = plane.stats_.policies.transaction_slots.value();
    controller.tick(static_cast<Nanos>(n) * kTick);
    EXPECT_LE(plane.stats_.policies.transaction_slots.value(), 10);
  }
  EXPECT_EQ(plane.stats_.policies.transaction_slots.value(), 10);
  // 8 -> 9 -> 10: exactly two confirmed moves despite 30 queued intervals.
  EXPECT_EQ(plane.applied.size(), 2u);
}

// A quiet, mostly idle gate shrinks down to the policy minimum and no
// further.
TEST(ControllerTest, TransactionSlotsShrinkWhenIdleAndClamped) {
  FakePlane plane;
  ControllerPolicy policy;
  policy.min_transaction_slots = 6;
  Controller controller(plane, policy);
  controller.tick(0);
  for (int n = 1; n <= 30; ++n) {
    auto& gate = plane.stats_.concurrency.transaction_gate;
    gate.acquires += 10;
    gate.in_use = 1;  // 2*1 < slots: idle vote
    controller.tick(static_cast<Nanos>(n) * kTick);
    EXPECT_GE(plane.stats_.policies.transaction_slots.value(), 6);
  }
  EXPECT_EQ(plane.stats_.policies.transaction_slots.value(), 6);
  EXPECT_EQ(plane.applied.size(), 2u);  // 8 -> 7 -> 6
}

// Stall share past the knee shrinks the ITL; clamped at min_itl_slots.
TEST(ControllerTest, ItlShrinksOnStallShare) {
  FakePlane plane;
  ControllerPolicy policy;
  policy.min_itl_slots = 3;
  Controller controller(plane, policy);
  controller.tick(0);
  for (int n = 1; n <= 10; ++n) {
    auto& itl = plane.stats_.concurrency.itl;
    itl.acquires += 100;
    itl.stalls += 5;  // stall share 0.05 > 0.02
    controller.tick(static_cast<Nanos>(n) * kTick);
    EXPECT_GE(plane.stats_.policies.itl_slots_per_table.value(), 3);
  }
  EXPECT_EQ(plane.stats_.policies.itl_slots_per_table.value(), 3);  // 4 -> 3
  EXPECT_EQ(plane.applied.size(), 1u);
}

// An engine running without ITL gates (live value 0) must never receive an
// ITL patch no matter the pressure.
TEST(ControllerTest, ItlDisabledNeverPatched) {
  FakePlane plane;
  plane.stats_.policies.itl_slots_per_table = 0;
  Controller controller(plane);
  controller.tick(0);
  for (int n = 1; n <= 10; ++n) {
    auto& itl = plane.stats_.concurrency.itl;
    itl.acquires += 100;
    itl.waits += 90;
    itl.stalls += 50;
    controller.tick(static_cast<Nanos>(n) * kTick);
  }
  EXPECT_TRUE(plane.applied.empty());
}

TEST(ControllerTest, ExtentAssignmentHysteresisBand) {
  FakePlane plane;
  const auto set_extents = [&plane](int64_t a, int64_t b) {
    plane.stats_.extents.clear();
    db::TableExtentStats table;
    table.table_id = 0;
    table.extents.push_back({0, 0, a});
    table.extents.push_back({0, 0, b});
    plane.stats_.extents.push_back(table);
  };
  Controller controller(plane);
  set_extents(100, 100);
  controller.tick(0);

  // Skew 1.6 > 1.5: flip to least-loaded.
  set_extents(400, 100);
  db::PolicyPatch patch = controller.tick(kTick);
  ASSERT_TRUE(patch.extent_assignment.has_value());
  EXPECT_EQ(*patch.extent_assignment, db::ExtentAssignment::kLeastLoaded);

  // Skew 1.3: inside the band, hold (no flap back).
  set_extents(260, 140);
  EXPECT_TRUE(controller.tick(2 * kTick).empty());

  // Skew 1.05 < 1.1: rebalanced, back to round-robin.
  set_extents(210, 190);
  patch = controller.tick(3 * kTick);
  ASSERT_TRUE(patch.extent_assignment.has_value());
  EXPECT_EQ(*patch.extent_assignment, db::ExtentAssignment::kRoundRobin);
}

// A rejected apply is traced as not-applied and the tick returns empty.
TEST(ControllerTest, RejectedApplyTracedNotApplied) {
  FakePlane plane;
  plane.apply_status = Status(ErrorCode::kFailedPrecondition, "plane down");
  db::TableExtentStats table;
  table.extents.push_back({0, 0, 100});
  table.extents.push_back({0, 0, 100});
  plane.stats_.extents.push_back(table);
  Controller controller(plane);
  controller.tick(0);
  plane.stats_.extents[0].extents[0].bytes = 900;
  EXPECT_TRUE(controller.tick(kTick).empty());
  const auto decisions = controller.trace().snapshot();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].applied);
  EXPECT_NE(decisions[0].render().find("[REJECTED]"), std::string::npos);
}

TEST(ControllerTest, TraceRingIsBounded) {
  ControlTrace trace(4);
  for (int i = 0; i < 10; ++i) {
    ControlDecision decision;
    decision.tick = static_cast<uint64_t>(i);
    trace.record(decision);
  }
  EXPECT_EQ(trace.total(), 10u);
  const auto snapshot = trace.snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().tick, 6u);  // oldest retained
  EXPECT_EQ(snapshot.back().tick, 9u);
}

// ---------------------------------------------------------------- WaitGraph

TEST(WaitGraphTest, RefusesOnlyTheCycleClosingWait) {
  db::WaitGraph graph;
  int gate_a = 0, gate_b = 0;
  graph.add_hold(1, &gate_a);
  graph.add_hold(2, &gate_b);
  // 1 waits on b: holder 2 waits on nothing — no cycle.
  EXPECT_FALSE(graph.add_wait(1, &gate_b));
  EXPECT_EQ(graph.waiting_count(), 1u);
  // 2 waits on a: holder 1 waits on b held by 2 — cycle, refused and not
  // registered.
  EXPECT_TRUE(graph.add_wait(2, &gate_a));
  EXPECT_EQ(graph.waiting_count(), 1u);
  // 2 releases b; 1's wait is granted and becomes a hold.
  graph.remove_hold(2, &gate_b);
  graph.grant(1, &gate_b);
  EXPECT_EQ(graph.waiting_count(), 0u);
  // Now 2 can wait on a without closing anything.
  EXPECT_FALSE(graph.add_wait(2, &gate_a));
}

TEST(WaitGraphTest, ThreePartyCycleDetected) {
  db::WaitGraph graph;
  int gate_a = 0, gate_b = 0, gate_c = 0;
  graph.add_hold(1, &gate_a);
  graph.add_hold(2, &gate_b);
  graph.add_hold(3, &gate_c);
  EXPECT_FALSE(graph.add_wait(1, &gate_b));
  EXPECT_FALSE(graph.add_wait(2, &gate_c));
  EXPECT_TRUE(graph.add_wait(3, &gate_a));  // closes 1 -> 2 -> 3 -> 1
}

TEST(WaitGraphTest, MultisetHoldsSurviveSingleRelease) {
  db::WaitGraph graph;
  int gate_a = 0;
  graph.add_hold(1, &gate_a);
  graph.add_hold(1, &gate_a);
  graph.remove_hold(1, &gate_a);
  // 1 still holds a; 2 waiting on a while 1 waits on nothing is fine, but
  // 1 waiting on anything 2-held would still see 1 as a holder of a.
  int gate_b = 0;
  graph.add_hold(2, &gate_b);
  EXPECT_FALSE(graph.add_wait(2, &gate_a));
  EXPECT_TRUE(graph.add_wait(1, &gate_b));
}

// ------------------------------------------------------------ admission gate

// Spin until `done()` holds; gate tests use it to wait for a thread to
// reach a known point (queued, admitted) without sleeping.
template <typename Done>
void spin_until(const Done& done) {
  while (!done()) std::this_thread::yield();
}

TEST(SlotGateTest, QueuedAcquirersAdmittedInArrivalOrder) {
  db::SlotGate gate(1);
  gate.acquire(0);
  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::thread> threads;
  for (int id = 0; id < 3; ++id) {
    threads.emplace_back([&, id] {
      gate.acquire(0);
      {
        const std::scoped_lock lock(order_mu);
        order.push_back(id);
      }
      gate.release(0);
    });
    // The next thread starts only once this one holds its ticket.
    const auto queued = static_cast<uint64_t>(id + 1);
    spin_until([&] { return gate.stats().waits == queued; });
  }
  gate.release(0);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(gate.stats().in_use, 0);
}

TEST(SlotGateTest, SetSlotsGrowAdmitsWaitersAndShrinkHoldsNewcomers) {
  db::SlotGate gate(1);
  gate.acquire(0);
  std::atomic<bool> release_holders{false};
  std::vector<std::thread> holders;
  for (int i = 0; i < 2; ++i) {
    holders.emplace_back([&] {
      gate.acquire(0);
      spin_until([&] { return release_holders.load(); });
      gate.release(0);
    });
  }
  spin_until([&] { return gate.stats().waits == 2; });
  gate.set_slots(3);  // grow: both queued waiters are admitted now
  spin_until([&] { return gate.stats().in_use == 3; });
  EXPECT_EQ(gate.slots(), 3);

  gate.set_slots(1);  // shrink below in_use: holders keep their slots
  EXPECT_EQ(gate.stats().in_use, 3);
  std::atomic<bool> newcomer_admitted{false};
  std::thread newcomer([&] {
    gate.acquire(0);
    newcomer_admitted.store(true);
    gate.release(0);
  });
  spin_until([&] { return gate.stats().waits == 3; });
  release_holders.store(true);
  for (std::thread& holder : holders) holder.join();
  // One holder is left (this thread) and the gate has one slot: the
  // newcomer still waits.
  EXPECT_EQ(gate.stats().in_use, 1);
  EXPECT_FALSE(newcomer_admitted.load());
  gate.release(0);
  newcomer.join();
  EXPECT_TRUE(newcomer_admitted.load());
  EXPECT_EQ(gate.stats().in_use, 0);
}

TEST(SlotGateTest, StatsCountAcquiresWaitsAndInUse) {
  db::SlotGate gate(1);
  const db::GateAcquire first = gate.acquire(0);
  EXPECT_FALSE(first.contended);
  EXPECT_EQ(first.wait_ns, 0);
  db::GateStats stats = gate.stats();
  EXPECT_EQ(stats.acquires, 1u);
  EXPECT_EQ(stats.waits, 0u);
  EXPECT_EQ(stats.in_use, 1);

  db::GateAcquire second;
  std::thread waiter([&] {
    second = gate.acquire(0);
    gate.release(0);
  });
  spin_until([&] { return gate.stats().waits == 1; });
  gate.release(0);
  waiter.join();
  EXPECT_TRUE(second.contended);
  EXPECT_EQ(second.queue_depth, 0);  // nobody queued ahead, only a holder
  stats = gate.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.in_use, 0);
  EXPECT_EQ(stats.total_wait, second.wait_ns);
  EXPECT_EQ(stats.max_wait, second.wait_ns);
}

// Owner 1 holds a and waits on b; owner 2 holds b and asks for a, which
// would close the cycle. The refusal must take no ticket: owner 3, queued
// on a after it, is admitted as soon as owner 1 lets go.
TEST(SlotGateTest, DeadlockRefusalTakesNoTicket) {
  db::WaitGraph graph;
  db::SlotGate gate_a(1, {}, &graph);
  db::SlotGate gate_b(1, {}, &graph);
  gate_a.acquire(1);
  gate_b.acquire(2);
  std::thread owner1([&] {
    gate_b.acquire(1);
    gate_b.release(1);
    gate_a.release(1);
  });
  spin_until([&] { return graph.waiting_count() == 1; });

  const db::GateAcquire refused = gate_a.acquire(2);
  EXPECT_TRUE(refused.deadlock);
  EXPECT_EQ(gate_a.stats().acquires, 1u);
  EXPECT_EQ(gate_a.stats().waits, 0u);

  std::thread owner3([&] {
    const db::GateAcquire admitted = gate_a.acquire(3);
    EXPECT_FALSE(admitted.deadlock);
    gate_a.release(3);
  });
  spin_until([&] { return graph.waiting_count() == 2; });
  gate_b.release(2);  // owner 1 gets b, then frees a for owner 3
  owner1.join();
  owner3.join();
  EXPECT_EQ(gate_a.stats().acquires, 2u);
  EXPECT_EQ(gate_a.stats().in_use, 0);
  EXPECT_EQ(graph.waiting_count(), 0u);
}

TEST(SlotGateTest, StallDrawnOnlyForContendedAcquires) {
  db::SlotGate gate(1, db::GateStallModel{1.0, 0, 7});
  const db::GateAcquire uncontended = gate.acquire(0);
  EXPECT_EQ(uncontended.stall_ns, 0);
  EXPECT_EQ(gate.stats().stalls, 0u);

  std::thread waiter([&] {
    const db::GateAcquire contended = gate.acquire(0);
    EXPECT_TRUE(contended.contended);
    gate.release(0);
  });
  spin_until([&] { return gate.stats().waits == 1; });
  gate.release(0);
  waiter.join();
  EXPECT_EQ(gate.stats().stalls, 1u);

  gate.acquire(0);  // uncontended again: no new stall
  gate.release(0);
  EXPECT_EQ(gate.stats().stalls, 1u);
  EXPECT_EQ(gate.stats().stall_time, 0);
}

// ------------------------------------------------- real-engine deadlock oracle

db::Schema two_table_schema() {
  db::Schema schema;
  for (const char* name : {"a", "b"}) {
    db::TableDef def;
    def.name = name;
    def.col("id", db::ColumnType::kInt64, false);
    def.primary_key = {"id"};
    EXPECT_TRUE(schema.add_table(def).is_ok());
  }
  return schema;
}

// Two transactions writing {a then b} and {b then a} on single-slot ITL
// gates: exactly one is refused with kDeadlockDetected, rolls back, and the
// survivor completes both writes.
TEST(DeadlockDetectorTest, CycleVictimAbortsAndSurvivorCommits) {
  const db::Schema schema = two_table_schema();
  db::EngineOptions options;
  options.policies.concurrency.itl_slots_per_table = 1;
  options.policies.concurrency.stall_probability = 0;
  db::Engine engine(schema, options);
  const uint32_t table_a = engine.table_id("a").value();
  const uint32_t table_b = engine.table_id("b").value();

  std::atomic<int> first_writes{0};
  std::atomic<int> deadlocks{0};
  std::atomic<int> commits{0};
  const auto worker = [&](uint32_t first, uint32_t second, int64_t key) {
    db::OpCosts costs;
    const uint64_t txn = engine.begin_transaction(&costs);
    ASSERT_TRUE(engine
                    .insert_row(txn, first, {db::Value::i64(key)}, costs)
                    .is_ok());
    first_writes.fetch_add(1);
    while (first_writes.load() < 2) std::this_thread::yield();
    const Status status =
        engine.insert_row(txn, second, {db::Value::i64(key)}, costs);
    if (status.is_ok()) {
      ASSERT_TRUE(engine.commit(txn).is_ok());
      commits.fetch_add(1);
    } else {
      ASSERT_EQ(status.code(), ErrorCode::kDeadlockDetected)
          << status.to_string();
      deadlocks.fetch_add(1);
      ASSERT_TRUE(engine.rollback(txn).is_ok());
    }
  };
  std::thread t1(worker, table_a, table_b, 1);
  std::thread t2(worker, table_b, table_a, 2);
  t1.join();
  t2.join();

  EXPECT_EQ(deadlocks.load(), 1);
  EXPECT_EQ(commits.load(), 1);
  // The survivor's two rows are the only ones left.
  EXPECT_EQ(engine.total_rows(), 2);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

// The no-cycle oracle: the same contention with a consistent acquisition
// order (both transactions write a before b) must never trip the detector.
TEST(DeadlockDetectorTest, OrderedWritesNeverRefused) {
  const db::Schema schema = two_table_schema();
  db::EngineOptions options;
  options.policies.concurrency.itl_slots_per_table = 1;
  options.policies.concurrency.stall_probability = 0;
  db::Engine engine(schema, options);
  const uint32_t table_a = engine.table_id("a").value();
  const uint32_t table_b = engine.table_id("b").value();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 20; ++i) {
        db::OpCosts costs;
        const uint64_t txn = engine.begin_transaction(&costs);
        const int64_t key = w * 1000 + i;
        for (const uint32_t table : {table_a, table_b}) {
          if (!engine.insert_row(txn, table, {db::Value::i64(key)}, costs)
                   .is_ok()) {
            failures.fetch_add(1);
          }
        }
        if (!engine.commit(txn).is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.total_rows(), 2 * 4 * 20);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
}

// ------------------------------------------------------ PolicyPatch checks

// Every out-of-range field is refused by both control planes with the same
// code and message, and a refused patch applies none of its fields (the
// valid extent_assignment riding along included).
TEST(PolicyPatchTest, BothBackendsRefuseInvalidFieldsAlike) {
  const db::Schema schema = two_table_schema();
  db::EngineOptions options;
  options.policies.concurrency.itl_slots_per_table = 2;
  options.policies.concurrency.stall_probability = 0;
  db::Engine engine(schema, options);
  db::EngineControlPlane engine_plane(engine);
  db::Engine sim_engine(schema);
  sim::Environment env;
  client::SimServer server(env, sim_engine, client::ServerConfig{});
  client::SimControlPlane sim_plane(server);

  // One out-of-range field per case, with the message both planes give.
  std::vector<std::pair<db::PolicyPatch, std::string>> cases(4);
  cases[0].first.commit_window = -1;
  cases[0].second = "update_policies: commit_window must be >= 0";
  cases[1].first.max_group_commits = 0;
  cases[1].second = "update_policies: max_group_commits must be >= 1";
  cases[2].first.transaction_slots = 0;
  cases[2].second = "update_policies: transaction_slots must be >= 1";
  cases[3].first.itl_slots_per_table = 0;
  cases[3].second = "update_policies: itl_slots_per_table must be >= 1";

  for (auto& [patch, message] : cases) {
    SCOPED_TRACE(message);
    patch.extent_assignment = db::ExtentAssignment::kLeastLoaded;
    for (db::ControlPlane* plane :
         {static_cast<db::ControlPlane*>(&engine_plane),
          static_cast<db::ControlPlane*>(&sim_plane)}) {
      const db::PolicyPatch before = plane->stats().policies;
      const Status status = plane->apply(patch);
      EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
      EXPECT_EQ(status.message(), message);
      const db::PolicyPatch after = plane->stats().policies;
      EXPECT_EQ(after.commit_window, before.commit_window);
      EXPECT_EQ(after.max_group_commits, before.max_group_commits);
      EXPECT_EQ(after.transaction_slots, before.transaction_slots);
      EXPECT_EQ(after.itl_slots_per_table, before.itl_slots_per_table);
      EXPECT_EQ(after.extent_assignment, before.extent_assignment);
    }
  }
}

// ---------------------------------------------- policies-vs-load hammer (TSan)

// Ordered writers under a live Controller plus a poller spamming stats()
// and update_policies(): the control plane must be race-free against the
// insert path. Run under SKY_SANITIZE=thread in CI.
TEST(ControlPlaneConcurrencyTest, UpdatePoliciesVsLoadHammer) {
  const db::Schema schema = two_table_schema();
  db::EngineOptions options;
  options.policies.concurrency.itl_slots_per_table = 4;
  // No 12 s stall draws in a test.
  options.policies.concurrency.stall_probability = 0;
  options.policies.commit.commit_window = kMillisecond / 4;
  db::Engine engine(schema, options);
  const uint32_t table_a = engine.table_id("a").value();
  const uint32_t table_b = engine.table_id("b").value();

  db::EngineControlPlane plane(engine);
  ControllerPolicy policy;
  policy.tick_interval = kMillisecond;
  Controller controller(plane, policy);
  controller.start();

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    db::PolicyPatch flip;
    int n = 0;
    while (!stop.load()) {
      flip.commit_window = (n % 2) * kMillisecond;
      flip.transaction_slots = 8 + (n % 3);
      flip.itl_slots_per_table = 3 + (n % 2);
      flip.extent_assignment = (n % 2) ? db::ExtentAssignment::kLeastLoaded
                                       : db::ExtentAssignment::kRoundRobin;
      ASSERT_TRUE(engine.update_policies(flip).is_ok());
      (void)engine.stats();
      ++n;
      std::this_thread::yield();
    }
  });

  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 200; ++i) {
        db::OpCosts costs;
        const uint64_t txn = engine.begin_transaction(&costs);
        const int64_t key = w * 100000 + i;
        for (const uint32_t table : {table_a, table_b}) {
          if (!engine.insert_row(txn, table, {db::Value::i64(key)}, costs)
                   .is_ok()) {
            failures.fetch_add(1);
          }
        }
        if (!engine.commit(txn).is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  poller.join();
  controller.stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.total_rows(), 2 * 4 * 200);
  EXPECT_TRUE(engine.verify_integrity().is_ok());
  // The unified snapshot reflects the final live values, not the
  // construction-time options.
  const db::EngineStats stats = engine.stats();
  EXPECT_TRUE(stats.policies.transaction_slots.has_value());
  EXPECT_TRUE(stats.policies.commit_window.has_value());
}

}  // namespace
}  // namespace sky::core
