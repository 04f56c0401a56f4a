// The paper's opening requirement: "data-loading speed must keep up with
// data-acquisition speed" (sections 1 and 3) — but production traffic is not
// one workload. A survey repository alternates between nightly bulk ingest,
// daytime interactive query service, and mixed catch-up hours (the
// CasJobs/SkyServer shape). Every tuning knob has a phase-dependent sweet
// spot: a wide commit-coalescing window is what keeps 6 parallel loaders
// from serializing on the log device, and the same window is pure leader
// latency once only a trickle of committers remains.
//
// This bench runs a deterministic three-phase soak in virtual time —
// ingest-heavy, query-heavy, mixed — under three configurations:
//
//   * static-bulk        — tuned for the ingest phase (wide commit window,
//                          high transaction-slot count) and left alone;
//   * static-interactive — tuned for the query phase (zero window, lean
//                          slots) and left alone;
//   * adaptive           — starts from the interactive preset and lets
//                          core::Controller re-tune it live each tick
//                          through client::SimControlPlane, the same
//                          EngineStats -> PolicyPatch loop that drives a
//                          real engine.
//
// Gates (CI runs --smoke): the adaptive run must load at least as many
// rows/sec over the whole soak as EVERY static preset, while keeping
// interactive p99 within 1.1x of the best static preset. A static config is
// wrong part of the time by construction; the controller must never be.
//
// Also keeps the original keep-up readout: nights of catalog data loadable
// per 24 h (Palomar-Quest produces ~15 GB per observing night, section 2).
// Emits BENCH_keepup.json.
#include "bench_util.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "client/sim_server.h"
#include "common/rng.h"
#include "core/controller.h"
#include "db/control_plane.h"

namespace {

using namespace skybench;
using sky::db::Value;

constexpr int kBatchRows = 64;
constexpr int64_t kHtmidSpace = 1 << 20;
constexpr int64_t kLoaderStripe = 1'000'000'000;
// Approximate ASCII catalog bytes represented by one loaded row, used only
// for the nights-per-day readout (a Palomar-Quest catalog line is ~100-150
// characters).
constexpr double kBytesPerRow = 120.0;
constexpr double kCatalogGbPerNight = 15.0;

sky::db::Schema make_objects_schema() {
  sky::db::Schema schema;
  sky::db::TableDef objects;
  objects.name = "objects";
  objects.col("objid", sky::db::ColumnType::kInt64, /*nullable=*/false)
      .col("htmid", sky::db::ColumnType::kInt64, /*nullable=*/false)
      .col("ra", sky::db::ColumnType::kDouble)
      .col("dec", sky::db::ColumnType::kDouble)
      .col("mag", sky::db::ColumnType::kDouble);
  objects.primary_key = {"objid"};
  objects.indexes.push_back({"ix_htmid", {"htmid"}, {}});
  if (!schema.add_table(std::move(objects)).is_ok()) std::abort();
  return schema;
}

// Sim-safe engine: admission and commit coalescing are modeled at the
// SimServer (a real gate or timed WAL wait inside a sim process would wedge
// the cooperative scheduler), so the engine runs permissive and windowless —
// same shape TuningProfile::engine_options() uses.
sky::db::EngineOptions sim_engine_options() {
  sky::db::EngineOptions options;
  options.policies.concurrency.max_concurrent_transactions = 64;
  options.policies.concurrency.itl_slots_per_table = 0;
  return options;
}

struct SoakResult {
  std::string name;
  double rows_per_sec = 0;
  double phase_rows_per_sec[3] = {0, 0, 0};
  double interactive_p50_ms = 0;
  double interactive_p99_ms = 0;
  int64_t interactive_queries = 0;
  int64_t commit_flushes = 0;
  int64_t commit_piggybacks = 0;
  double nights_per_day = 0;
  uint64_t control_ticks = 0;
  uint64_t control_patches = 0;
  std::vector<std::string> decision_tail;
};

struct PhasePlan {
  sky::Nanos a_end, b_end, c_end;
};

// One loader cohort member: real SimSession protocol (txn/ITL slots, server
// CPU, device I/O, group-commit log flushes) from `begin` until `end`.
void run_loader(sky::client::SimServer& server, int loader_id,
                sky::Nanos begin, sky::Nanos end, int commit_every_batches,
                sky::Nanos think, int64_t* rows_out,
                sky::client::SessionStats* stats_out) {
  sky::sim::Environment& env = server.env();
  if (begin > 0) env.delay(begin - env.now());
  sky::client::SimSession session(server);
  const auto table = session.prepare_insert("objects");
  if (!table.is_ok()) std::abort();
  sky::Rng rng(7100 + static_cast<uint64_t>(loader_id));
  int64_t next_id = 0;
  int64_t txn_rows = 0;
  int batches_in_txn = 0;
  while (env.now() < end) {
    std::vector<sky::db::Row> rows;
    rows.reserve(kBatchRows);
    for (int r = 0; r < kBatchRows; ++r) {
      rows.push_back({Value::i64(loader_id * kLoaderStripe + next_id++),
                      Value::i64(rng.uniform_int(0, kHtmidSpace - 1)),
                      Value::f64(rng.uniform_range(0, 360)),
                      Value::f64(rng.uniform_range(-90, 90)),
                      Value::f64(rng.uniform_range(14, 24))});
    }
    const auto outcome = session.execute_batch(*table, rows);
    if (outcome.error.has_value()) std::abort();
    txn_rows += outcome.applied;
    if (++batches_in_txn >= commit_every_batches) {
      if (!session.commit().is_ok()) std::abort();
      *rows_out += txn_rows;
      txn_rows = 0;
      batches_in_txn = 0;
    }
    if (think > 0) env.delay(think);
  }
  if (batches_in_txn > 0) {
    if (!session.commit().is_ok()) std::abort();
    *rows_out += txn_rows;
  }
  *stats_out = session.stats();
}

// One interactive client: think, admit through the interactive lane, pay a
// CPU slice and a data-device read (where it queues behind loader extent
// writes), release. Latency = virtual time from arrival to completion.
void run_client(sky::client::SimServer& server, sky::Nanos begin,
                sky::Nanos end, std::vector<sky::Nanos>* latencies) {
  sky::sim::Environment& env = server.env();
  if (begin > 0) env.delay(begin - env.now());
  while (env.now() < end) {
    env.delay(10 * sky::kMillisecond);
    const sky::Nanos start = env.now();
    server.admit_query(/*interactive=*/true);
    sky::sim::Resource& cpu = server.node_cpus(0);
    cpu.acquire();
    env.delay(300 * sky::kMicrosecond);
    cpu.release();
    sky::sim::Resource& data = server.device_for(sky::storage::IoRole::kData);
    data.acquire();
    env.delay(200 * sky::kMicrosecond);
    data.release();
    server.release_query(/*interactive=*/true);
    latencies->push_back(env.now() - start);
  }
}

SoakResult run_soak(const std::string& name,
                    const sky::client::ServerConfig& config, bool adaptive,
                    const PhasePlan& plan) {
  const sky::db::Schema schema = make_objects_schema();
  sky::db::Engine engine(schema, sim_engine_options());
  sky::sim::Environment env;
  sky::client::SimServer server(env, engine, config);

  struct Cohort {
    int loaders;
    sky::Nanos begin, end;
    int commit_every;
    sky::Nanos think;
  };
  // Phase A: nightly ingest — 6 loaders committing every batch. Phase B:
  // query hours — 2 trickle loaders with larger transactions plus the
  // interactive clients. Phase C: mixed catch-up — 4 loaders while the
  // clients keep going.
  const Cohort cohorts[3] = {
      {6, 0, plan.a_end, 1, 0},
      {2, plan.a_end, plan.b_end, 4, 5 * sky::kMillisecond},
      {4, plan.b_end, plan.c_end, 1, 0},
  };
  int64_t phase_rows[3] = {0, 0, 0};
  std::vector<sky::client::SessionStats> loader_stats;
  int next_loader = 0;
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = 0; i < cohorts[phase].loaders; ++i) {
      loader_stats.emplace_back();
    }
  }
  size_t stats_slot = 0;
  for (int phase = 0; phase < 3; ++phase) {
    const Cohort cohort = cohorts[phase];
    for (int i = 0; i < cohort.loaders; ++i) {
      const int id = next_loader++;
      sky::client::SessionStats* stats_out = &loader_stats[stats_slot++];
      int64_t* rows_out = &phase_rows[phase];
      env.spawn("loader-" + std::to_string(id),
                [&server, cohort, id, rows_out, stats_out] {
        run_loader(server, id, cohort.begin, cohort.end, cohort.commit_every,
                   cohort.think, rows_out, stats_out);
      });
    }
  }

  constexpr int kClients = 6;
  std::vector<std::vector<sky::Nanos>> client_latencies(kClients);
  for (int c = 0; c < kClients; ++c) {
    auto* latencies = &client_latencies[static_cast<size_t>(c)];
    env.spawn("client-" + std::to_string(c), [&server, &plan, latencies] {
      run_client(server, plan.a_end, plan.c_end, latencies);
    });
  }

  // The adaptive run closes the loop: the same Controller that tunes a real
  // engine ticks on virtual time through the SimControlPlane.
  sky::client::SimControlPlane plane(server);
  sky::core::ControllerPolicy policy;
  policy.tick_interval = 50 * sky::kMillisecond;
  policy.max_transaction_slots = 8;
  std::unique_ptr<sky::core::Controller> controller;
  if (adaptive) {
    controller = std::make_unique<sky::core::Controller>(plane, policy);
    env.spawn("controller", [&env, &plan, &policy, &controller] {
      while (env.now() < plan.c_end) {
        env.delay(policy.tick_interval);
        controller->tick(env.now());
      }
    });
  }

  env.run();
  if (!engine.verify_integrity().is_ok()) std::abort();

  SoakResult result;
  result.name = name;
  const double total_s = sky::to_seconds(plan.c_end);
  const int64_t total_rows = phase_rows[0] + phase_rows[1] + phase_rows[2];
  result.rows_per_sec = static_cast<double>(total_rows) / total_s;
  const double phase_s[3] = {sky::to_seconds(plan.a_end),
                             sky::to_seconds(plan.b_end - plan.a_end),
                             sky::to_seconds(plan.c_end - plan.b_end)};
  for (int phase = 0; phase < 3; ++phase) {
    result.phase_rows_per_sec[phase] =
        static_cast<double>(phase_rows[phase]) / phase_s[phase];
  }
  std::vector<sky::Nanos> all;
  for (auto& samples : client_latencies) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  result.interactive_queries = static_cast<int64_t>(all.size());
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    result.interactive_p50_ms =
        static_cast<double>(all[all.size() / 2]) / 1e6;
    result.interactive_p99_ms =
        static_cast<double>(all[(all.size() * 99) / 100]) / 1e6;
  }
  for (const auto& stats : loader_stats) {
    result.commit_flushes += stats.commit_flushes_led;
    result.commit_piggybacks += stats.commit_piggybacks;
  }
  result.nights_per_day = result.rows_per_sec * kBytesPerRow / 1e6 * 86400.0 /
                          (kCatalogGbPerNight * 1000.0);
  if (controller != nullptr) {
    result.control_ticks = controller->ticks();
    result.control_patches = controller->trace().total();
    const auto decisions = controller->trace().snapshot();
    const size_t tail = decisions.size() > 6 ? decisions.size() - 6 : 0;
    for (size_t i = tail; i < decisions.size(); ++i) {
      result.decision_tail.push_back(decisions[i].render());
    }
  }
  return result;
}

sky::client::ServerConfig base_config() {
  sky::client::ServerConfig config;
  // Keep the soak's contrast on the controller's levers: no injected
  // long-stall randomness, and a batch gate wide enough never to bind.
  config.policies.concurrency.stall_probability = 0.0;
  config.batch_gate_slots = 8;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  PhasePlan plan;
  if (smoke) {
    plan = {5 * sky::kSecond, 15 * sky::kSecond, 20 * sky::kSecond};
  } else {
    plan = {20 * sky::kSecond, 50 * sky::kSecond, 70 * sky::kSecond};
  }

  sky::client::ServerConfig bulk = base_config();
  bulk.policies.commit.commit_window = 8 * sky::kMillisecond;
  bulk.policies.commit.max_group_commits = 8;
  bulk.policies.concurrency.max_concurrent_transactions = 8;

  sky::client::ServerConfig interactive = base_config();
  interactive.policies.commit.commit_window = 0;
  interactive.policies.commit.max_group_commits = 8;
  interactive.policies.concurrency.max_concurrent_transactions = 4;

  // The adaptive run *starts* as the interactive preset; everything it does
  // better than that preset, it learned from EngineStats at runtime.
  const sky::client::ServerConfig adaptive_start = interactive;

  const SoakResult r_bulk = run_soak("static-bulk", bulk, false, plan);
  const SoakResult r_inter =
      run_soak("static-interactive", interactive, false, plan);
  const SoakResult r_adapt =
      run_soak("adaptive", adaptive_start, true, plan);

  std::printf("\n=== Phase-changing soak (%s): ingest -> query -> mixed ===\n",
              smoke ? "smoke" : "full");
  std::printf("%20s  %10s  %10s  %10s  %10s  %9s  %9s  %8s\n", "config",
              "rows/s", "ingest r/s", "query r/s", "mixed r/s", "p50 ms",
              "p99 ms", "flushes");
  for (const SoakResult* r : {&r_bulk, &r_inter, &r_adapt}) {
    std::printf("%20s  %10.0f  %10.0f  %10.0f  %10.0f  %9.2f  %9.2f  %8lld\n",
                r->name.c_str(), r->rows_per_sec, r->phase_rows_per_sec[0],
                r->phase_rows_per_sec[1], r->phase_rows_per_sec[2],
                r->interactive_p50_ms, r->interactive_p99_ms,
                static_cast<long long>(r->commit_flushes));
  }
  std::printf("\nnights loadable per 24 h: bulk %.2f, interactive %.2f, "
              "adaptive %.2f\n(the telescope observes ~12-15 nights/month "
              "~= 0.5/day; a margin >= ~0.5 keeps up)\n",
              r_bulk.nights_per_day, r_inter.nights_per_day,
              r_adapt.nights_per_day);

  std::printf("\nadaptive control: %llu ticks, %llu patches applied\n",
              static_cast<unsigned long long>(r_adapt.control_ticks),
              static_cast<unsigned long long>(r_adapt.control_patches));
  for (const std::string& decision : r_adapt.decision_tail) {
    std::printf("  %s\n", decision.c_str());
  }

  const double best_static_rows =
      std::max(r_bulk.rows_per_sec, r_inter.rows_per_sec);
  const double best_static_p99 =
      std::min(r_bulk.interactive_p99_ms, r_inter.interactive_p99_ms);
  const bool rows_ok = r_adapt.rows_per_sec >= best_static_rows;
  const bool p99_ok =
      r_adapt.interactive_p99_ms <= 1.1 * best_static_p99;
  const bool traced =
      r_adapt.control_patches > 0 &&
      r_adapt.control_ticks > 0 &&
      !r_adapt.decision_tail.empty();

  {
    std::ofstream json("BENCH_keepup.json");
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "{\n  \"mode\": \"%s\",\n  \"configs\": [",
                  smoke ? "smoke" : "full");
    json << buffer;
    bool first = true;
    for (const SoakResult* r : {&r_bulk, &r_inter, &r_adapt}) {
      std::snprintf(
          buffer, sizeof(buffer),
          "%s\n    {\"name\": \"%s\", \"rows_per_sec\": %.1f, "
          "\"ingest_rows_per_sec\": %.1f, \"query_rows_per_sec\": %.1f, "
          "\"mixed_rows_per_sec\": %.1f, \"interactive_p99_ms\": %.3f, "
          "\"commit_flushes\": %lld, \"commit_piggybacks\": %lld, "
          "\"nights_per_day\": %.2f}",
          first ? "" : ",", r->name.c_str(), r->rows_per_sec,
          r->phase_rows_per_sec[0], r->phase_rows_per_sec[1],
          r->phase_rows_per_sec[2], r->interactive_p99_ms,
          static_cast<long long>(r->commit_flushes),
          static_cast<long long>(r->commit_piggybacks), r->nights_per_day);
      json << buffer;
      first = false;
    }
    std::snprintf(buffer, sizeof(buffer),
                  "\n  ],\n  \"control_ticks\": %llu,\n"
                  "  \"control_patches\": %llu,\n"
                  "  \"adaptive_rows_vs_best_static\": %.4f,\n"
                  "  \"adaptive_p99_vs_best_static\": %.4f,\n"
                  "  \"gates\": {\"rows\": %s, \"p99\": %s, \"traced\": %s}\n}\n",
                  static_cast<unsigned long long>(r_adapt.control_ticks),
                  static_cast<unsigned long long>(r_adapt.control_patches),
                  best_static_rows > 0
                      ? r_adapt.rows_per_sec / best_static_rows
                      : 0.0,
                  best_static_p99 > 0
                      ? r_adapt.interactive_p99_ms / best_static_p99
                      : 0.0,
                  rows_ok ? "true" : "false", p99_ok ? "true" : "false",
                  traced ? "true" : "false");
    json << buffer;
  }
  std::printf("wrote BENCH_keepup.json\n");

  shape_check(rows_ok,
              "adaptive control sustains >= every static preset's rows/sec "
              "across the phase-changing soak");
  shape_check(p99_ok,
              "adaptive control keeps interactive p99 within 1.1x of the "
              "best static preset");
  shape_check(traced,
              "the controller ticked, applied patches, and recorded its "
              "decisions in the ControlTrace");
  return (rows_ok && p99_ok && traced) ? 0 : 1;
}
