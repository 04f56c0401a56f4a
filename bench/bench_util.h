// Shared harness for the figure-regeneration benchmarks.
//
// Scale: each benchmark's x-axis is in "paper MB" (megabytes of ASCII
// catalog data in the original study). The harness generates
// SKYLOADER_BENCH_SCALE (default 0.05) times that much real data, runs the
// real loader over it in virtual time, and reports simulated seconds
// normalized back to paper scale (sim_seconds / scale) — workload costs are
// linear in rows, so the axes of the printed tables are directly comparable
// to the paper's figures at any scale.
//
// Each bench binary registers google-benchmark cases (manual timing = the
// normalized simulated seconds) and afterwards prints a figure-shaped table
// plus a SHAPE-CHECK line asserting the qualitative claim of the figure.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/generator.h"
#include "catalog/pq_schema.h"
#include "client/sim_session.h"
#include "core/bulk_loader.h"
#include "core/coordinator.h"
#include "core/non_bulk_loader.h"
#include "core/tuning.h"
#include "db/control_plane.h"
#include "db/engine.h"

namespace skybench {

using sky::Nanos;

inline double bench_scale() {
  static const double scale = [] {
    const char* env = std::getenv("SKYLOADER_BENCH_SCALE");
    if (env != nullptr) {
      const double parsed = std::atof(env);
      if (parsed > 0) return parsed;
    }
    return 0.05;
  }();
  return scale;
}

inline int64_t bytes_for_paper_mb(double paper_mb) {
  return static_cast<int64_t>(paper_mb * 1e6 * bench_scale());
}

// Simulated seconds normalized to paper scale.
inline double normalized_seconds(Nanos sim_elapsed) {
  return sky::to_seconds(sim_elapsed) / bench_scale();
}

// One catalog file of `paper_mb` megabytes (paper scale).
inline sky::core::CatalogFile make_file(double paper_mb, uint64_t seed,
                                        int64_t unit_id,
                                        double error_rate = 0.0,
                                        bool shuffle_ids = false) {
  sky::catalog::FileSpec spec;
  spec.name = "bench-" + std::to_string(unit_id) + ".cat";
  spec.seed = seed;
  spec.unit_id = unit_id;
  spec.target_bytes = bytes_for_paper_mb(paper_mb);
  spec.error_rate = error_rate;
  spec.shuffle_object_ids = shuffle_ids;
  return sky::core::CatalogFile{
      spec.name, sky::catalog::CatalogGenerator::generate(spec).text};
}

// The 28 files of one observation totalling `paper_mb` (paper scale).
inline std::vector<sky::core::CatalogFile> make_observation(
    double paper_mb, uint64_t seed, int64_t night_id,
    double error_rate = 0.0) {
  std::vector<sky::core::CatalogFile> files;
  for (const auto& spec : sky::catalog::CatalogGenerator::observation_specs(
           seed, night_id, bytes_for_paper_mb(paper_mb), error_rate)) {
    files.push_back(sky::core::CatalogFile{
        spec.name, sky::catalog::CatalogGenerator::generate(spec).text});
  }
  return files;
}

// A repository with reference data loaded and the paper's index policy
// applied, plus its simulation server.
struct SimRepository {
  sky::db::Schema schema;
  std::unique_ptr<sky::db::Engine> engine;
  std::unique_ptr<sky::sim::Environment> env;
  std::unique_ptr<sky::client::SimServer> server;

  // `server_config` overrides the profile-derived sim config wholesale —
  // benches that share one core::ConcurrencyPolicy literal between sim and
  // real runs build their ServerConfig explicitly and pass it here.
  static SimRepository create(
      const sky::core::TuningProfile& profile =
          sky::core::TuningProfile::paper_2005(),
      const sky::client::ServerConfig* server_config = nullptr) {
    SimRepository repo;
    repo.schema = sky::catalog::make_pq_schema();
    repo.engine = std::make_unique<sky::db::Engine>(
        repo.schema, profile.engine_options());
    const sky::Status index_status = profile.apply_index_policy(*repo.engine);
    if (!index_status.is_ok()) std::abort();
    repo.env = std::make_unique<sky::sim::Environment>();
    repo.server = std::make_unique<sky::client::SimServer>(
        *repo.env, *repo.engine,
        server_config != nullptr ? *server_config : profile.server_config());
    // Reference tables load before any timing starts.
    repo.env->spawn("reference", [&repo] {
      sky::client::SimSession session(*repo.server);
      sky::core::BulkLoaderOptions options;
      options.write_audit_row = false;
      sky::core::BulkLoader loader(session, repo.schema, options);
      const auto report = loader.load_text(
          "reference",
          sky::catalog::CatalogGenerator::reference_file().text);
      if (!report.is_ok() || report->total_skipped() != 0) std::abort();
    });
    repo.env->run();
    return repo;
  }
};

// Run a single bulk load of `file` in simulation; returns the report.
inline sky::core::FileLoadReport run_bulk(
    SimRepository& repo, const sky::core::CatalogFile& file,
    const sky::core::BulkLoaderOptions& options) {
  sky::core::FileLoadReport out;
  repo.env->spawn("bulk-loader", [&] {
    sky::client::SimSession session(*repo.server);
    sky::core::BulkLoader loader(session, repo.schema, options);
    auto report = loader.load_text(file.name, file.text);
    if (!report.is_ok()) std::abort();
    out = std::move(*report);
  });
  repo.env->run();
  return out;
}

inline sky::core::FileLoadReport run_non_bulk(
    SimRepository& repo, const sky::core::CatalogFile& file,
    const sky::core::NonBulkLoaderOptions& options = {}) {
  sky::core::FileLoadReport out;
  repo.env->spawn("non-bulk-loader", [&] {
    sky::client::SimSession session(*repo.server);
    sky::core::NonBulkLoader loader(session, repo.schema, options);
    auto report = loader.load_text(file.name, file.text);
    if (!report.is_ok()) std::abort();
    out = std::move(*report);
  });
  repo.env->run();
  return out;
}

// Figure-shaped output: series x points, printed as an aligned table.
class FigureTable {
 public:
  FigureTable(std::string title, std::string x_label, std::string y_label)
      : title_(std::move(title)), x_label_(std::move(x_label)),
        y_label_(std::move(y_label)) {}

  void add(const std::string& series, double x, double y) {
    series_order_.insert({series, series_order_.size()});
    values_[{x, series}] = y;
    xs_.insert(x);
  }

  void print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::printf("(%s; x = %s)\n", y_label_.c_str(), x_label_.c_str());
    // Header.
    std::printf("%12s", x_label_.c_str());
    std::vector<std::string> series(series_order_.size());
    for (const auto& [name, index] : series_order_) series[index] = name;
    for (const std::string& name : series) {
      std::printf("  %16s", name.c_str());
    }
    std::printf("\n");
    for (const double x : xs_) {
      std::printf("%12.6g", x);
      for (const std::string& name : series) {
        const auto it = values_.find({x, name});
        if (it == values_.end()) {
          std::printf("  %16s", "-");
        } else {
          std::printf("  %16.2f", it->second);
        }
      }
      std::printf("\n");
    }
  }

  double value(const std::string& series, double x) const {
    const auto it = values_.find({x, series});
    return it == values_.end() ? 0.0 : it->second;
  }

 private:
  std::string title_, x_label_, y_label_;
  std::map<std::string, size_t> series_order_;
  std::map<std::pair<double, std::string>, double> values_;
  std::set<double> xs_;
};

// A JSON array of pre-rendered entries, one per line: "[\n", the entries
// joined by ",\n" and ended by "\n", then `indent` + "]". Every bench JSON
// file uses this layout.
inline std::string json_array(const std::vector<std::string>& entries,
                              const std::string& indent = "") {
  std::string out = "[\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    out += entries[i];
    out += i + 1 < entries.size() ? ",\n" : "\n";
  }
  return out + indent + "]";
}

// Write `entries` to `path` as a top-level JSON array.
inline void write_json_array(const std::string& path,
                             const std::vector<std::string>& entries) {
  std::ofstream(path) << json_array(entries) << "\n";
}

inline void shape_check(bool ok, const char* description) {
  std::printf("SHAPE-CHECK %s: %s\n", ok ? "PASS" : "FAIL", description);
}

// Wall-clock accumulator for per-stage cost breakdowns (bench_hotpath's
// parse/buffer/append/index/wal split): bracket each stage interval with
// start()/stop() — or a Scope — and read totals back in first-use order.
// Repeated intervals for the same stage accumulate.
class StageTimer {
 public:
  void start(const std::string& stage) {
    open_[stage] = std::chrono::steady_clock::now();
  }

  void stop(const std::string& stage) {
    const auto it = open_.find(stage);
    if (it == open_.end()) return;
    add(stage, std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - it->second)
                   .count());
    open_.erase(it);
  }

  // RAII bracket for one stage interval.
  class Scope {
   public:
    Scope(StageTimer& timer, std::string stage)
        : timer_(timer), stage_(std::move(stage)) {
      timer_.start(stage_);
    }
    ~Scope() { timer_.stop(stage_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageTimer& timer_;
    std::string stage_;
  };

  int64_t total_ns(const std::string& stage) const {
    const auto it = index_.find(stage);
    return it == index_.end() ? 0 : totals_[it->second].second;
  }
  double seconds(const std::string& stage) const {
    return static_cast<double>(total_ns(stage)) / 1e9;
  }
  // (stage, total ns) pairs in first-use order.
  const std::vector<std::pair<std::string, int64_t>>& totals() const {
    return totals_;
  }

 private:
  void add(const std::string& stage, int64_t ns) {
    const auto [it, inserted] = index_.try_emplace(stage, totals_.size());
    if (inserted) totals_.emplace_back(stage, 0);
    totals_[it->second].second += ns;
  }

  std::map<std::string, size_t> index_;
  std::vector<std::pair<std::string, int64_t>> totals_;
  std::map<std::string, std::chrono::steady_clock::time_point> open_;
};

}  // namespace skybench
