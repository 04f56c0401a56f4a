// perfbench: runs one workload of the repository benchmark in this process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The program is driven the way `skyloader_tool load` drives it: a
// TuningProfile::production() engine, its loader and index options, nights
// loaded through LoadCoordinator::run_threads over DirectSessions, and
// queries admitted by a default-policy QueryScheduler. Only the inputs, the
// loader thread count and the query client are the benchmark's. Every input
// is generated from --seed before any clock starts.
//
// The last line of stdout is one JSON object: the correctness tally, the
// end-to-end metrics and (with --trace 1) the per-layer metrics, which come
// from clocks around public calls and from a timing Session decorator.
// perfbench/run.py builds and runs this binary; perfbench/README.md says why
// each workload exists and what each metric should move.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "catalog/generator.h"
#include "catalog/parser.h"
#include "catalog/pq_schema.h"
#include "client/session.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/bulk_loader.h"
#include "core/coordinator.h"
#include "core/tuning.h"
#include "db/control_plane.h"
#include "db/engine.h"
#include "db/query_scheduler.h"
#include "db/spatial.h"
#include "htm/htm.h"
#include "timed_session.h"

namespace sky::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- sizes
// Sized for a 4-core host: no phase runs more than 3 busy threads.
constexpr double kConeRadiusDeg = 0.2;
constexpr double kXmatchRadiusDeg = 10.0 / 3600.0;
constexpr int kXmatchWorkers = 3;
constexpr size_t kOracleCones = 64;   // cones checked against brute force
constexpr int kMinRounds = 3;         // setups per run, at least
constexpr size_t kConeBlock = 500;    // archive cones per latency block
constexpr int64_t kMegabyte = 1000 * 1000;

double since_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear interpolation between closest ranks; 0 for no samples.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The median over blocks of each block's q-quantile. On a shared host,
// other tenants slow the machine in stretches of seconds; such a stretch
// moves the blocks it overlaps but not the median block.
double block_quantile(const std::vector<std::vector<double>>& blocks,
                      double q) {
  std::vector<double> per_block;
  for (const std::vector<double>& block : blocks) {
    if (!block.empty()) per_block.push_back(quantile(block, q));
  }
  return median(std::move(per_block));
}

std::vector<double> pooled(const std::vector<std::vector<double>>& blocks) {
  std::vector<double> all;
  for (const std::vector<double>& block : blocks) {
    all.insert(all.end(), block.begin(), block.end());
  }
  return all;
}

const core::TuningProfile& profile() {
  static const core::TuningProfile production =
      core::TuningProfile::production();
  return production;
}

// Operations attempted (file loads, queries) and those that failed or
// returned a wrong answer.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void fail(int64_t ops, const std::string& why) {
    failed += ops;
    std::fprintf(stderr, "perfbench: FAILED (%lld ops): %s\n",
                 static_cast<long long>(ops), why.c_str());
  }
};

// ---------------------------------------------------------------- inputs

struct SkyPoint {
  double ra = 0;
  double dec = 0;
};

// One generated observation: 28 catalog files plus what the generator says
// about them.
struct Night {
  int64_t night_id = 0;
  bool clean = true;
  std::vector<core::CatalogFile> files;
  int64_t data_lines = 0;
  std::map<std::string, int64_t> clean_rows;  // per table, summed over files
  std::vector<SkyPoint> objects;  // every OBJ position written, file order
  int64_t min_object_id = INT64_MAX;
  int64_t max_object_id = INT64_MIN;

  bool owns(int64_t object_id) const {
    return object_id >= min_object_id && object_id <= max_object_id;
  }
};

// Reads the object ids and positions back out of the generator's text (not
// out of the repository, whose heap order depends on the load schedule).
void collect_objects(std::string_view text, Night& night) {
  for (std::string_view line : split_view(text, '\n')) {
    if (!starts_with(line, "OBJ|")) continue;
    std::string_view fields[5];
    size_t count = 0;
    for (std::string_view field : split_view(line, '|')) {
      if (count == 5) break;
      fields[count++] = field;
    }
    int64_t id = 0;
    SkyPoint point;
    const auto parse = [](std::string_view s, auto& out) {
      return std::from_chars(s.data(), s.data() + s.size(), out).ec ==
             std::errc{};
    };
    if (count < 5 || !parse(fields[1], id) || !parse(fields[3], point.ra) ||
        !parse(fields[4], point.dec)) {
      continue;  // an injected corruption
    }
    night.objects.push_back(point);
    night.min_object_id = std::min(night.min_object_id, id);
    night.max_object_id = std::max(night.max_object_id, id);
  }
}

Night make_night(uint64_t seed, int64_t night_id, int64_t bytes,
                 double error_rate) {
  Night night;
  night.night_id = night_id;
  night.clean = error_rate == 0.0;
  for (const catalog::FileSpec& spec :
       catalog::CatalogGenerator::observation_specs(seed, night_id, bytes,
                                                    error_rate)) {
    catalog::GeneratedFile file = catalog::CatalogGenerator::generate(spec);
    night.data_lines += file.data_lines;
    for (const auto& [table, rows] : file.clean_rows_per_table) {
      night.clean_rows[table] += rows;
    }
    collect_objects(file.text, night);
    night.files.push_back(core::CatalogFile{spec.name, std::move(file.text)});
  }
  return night;
}

// Cone centers: generated object positions, jittered, drawn by the seed.
std::vector<SkyPoint> cone_centers(const std::vector<const Night*>& nights,
                                   size_t count, uint64_t seed) {
  std::vector<SkyPoint> pool;
  for (const Night* night : nights) {
    pool.insert(pool.end(), night->objects.begin(), night->objects.end());
  }
  if (pool.empty()) throw std::runtime_error("no objects to center cones on");
  Rng rng(seed);
  std::vector<SkyPoint> centers;
  centers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const SkyPoint& p = pool[static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(pool.size()) - 1))];
    SkyPoint c;
    c.ra = std::fmod(p.ra + rng.uniform_range(-0.05, 0.05) + 360.0, 360.0);
    c.dec = std::clamp(p.dec + rng.uniform_range(-0.05, 0.05), -90.0, 90.0);
    centers.push_back(c);
  }
  return centers;
}

// Distinct generator seeds per role, all derived from --seed.
uint64_t derive_seed(uint64_t seed, uint64_t role) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + role;
  return splitmix64(state);
}

// ---------------------------------------------------------------- repository

struct Repository {
  explicit Repository(const db::Schema& schema)
      : engine(schema, profile().engine_options()) {
    const Status index_policy = profile().apply_index_policy(engine);
    if (!index_policy.is_ok()) {
      throw std::runtime_error("index policy: " + index_policy.to_string());
    }
    // The catalog's htmid index is a plain int64 index over the computed
    // htmid column (as `skyloader_tool cone` probes it), not a
    // schema-declared HTM index, so the spec is filled from the schema.
    objects = engine.table_id("objects").value();
    const db::TableDef& def = engine.schema().table(objects);
    spatial.table_id = objects;
    spatial.htm_index = std::string(catalog::kIndexHtmid);
    spatial.ra_column = def.column_index("ra");
    spatial.dec_column = def.column_index("dec");
    spatial.htm_depth = catalog::CatalogParser::kHtmDepth;
  }

  db::Engine engine;
  uint32_t objects = 0;
  db::spatial::SpatialTableSpec spatial;
};

// The reference tables, loaded serially first, as `skyloader_tool load`
// does.
void load_reference(Repository& repo, const std::string& text) {
  client::DirectSession session(repo.engine);
  core::BulkLoaderOptions options = profile().bulk_options();
  options.write_audit_row = false;
  core::BulkLoader loader(session, repo.engine.schema(), options);
  const auto report = loader.load_text("reference.cat", text);
  if (!report.is_ok()) {
    throw std::runtime_error("reference load: " +
                             report.status().to_string());
  }
}

// Rows per table as the engine holds them (the loader's own load_audit
// bookkeeping left out).
std::map<std::string, int64_t> table_rows(const db::Engine& engine) {
  std::map<std::string, int64_t> rows;
  const db::ReadView view = engine.live_view();
  const auto tables = static_cast<uint32_t>(engine.schema().table_count());
  for (uint32_t t = 0; t < tables; ++t) {
    const std::string& name = engine.schema().table(t).name;
    if (name != "load_audit") rows[name] = view.row_count(t);
  }
  return rows;
}

struct NightLoad {
  core::ParallelLoadReport report;
  std::map<std::string, int64_t> rows_before;  // table_rows() before the load
  double wall_s = 0;
  std::vector<CallLog> calls;  // traced runs: one per loader session
  db::EngineStats before;
  db::EngineStats after;
};

// One night through the coordinator's dynamic file queue. The files count
// as attempted operations; a load error fails them all.
std::optional<NightLoad> load_night(Repository& repo, const Night& night,
                                    int loaders, bool traced, Tally& tally) {
  core::CoordinatorOptions options;
  options.parallel_degree = loaders;
  options.dynamic_assignment = profile().dynamic_assignment;
  options.loader = profile().bulk_options();
  NightLoad load;
  load.calls.resize(static_cast<size_t>(loaders));
  const core::SessionFactory factory =
      [&](int worker) -> std::unique_ptr<client::Session> {
    if (traced) {
      return std::make_unique<TimedSession>(
          repo.engine, load.calls[static_cast<size_t>(worker)]);
    }
    return std::make_unique<client::DirectSession>(repo.engine);
  };
  const auto files = static_cast<int64_t>(night.files.size());
  tally.attempted += files;
  load.rows_before = table_rows(repo.engine);
  load.before = repo.engine.stats();
  const auto start = Clock::now();
  auto report = core::LoadCoordinator::run_threads(
      night.files, repo.engine.schema(), factory, options);
  load.wall_s = since_s(start);
  load.after = repo.engine.stats();
  if (!report.is_ok()) {
    tally.fail(files, "night " + std::to_string(night.night_id) +
                          " load: " + report.status().to_string());
    return std::nullopt;
  }
  load.report = std::move(*report);
  return load;
}

// After every load (outside every clock): the integrity audit passes, the
// rows the engine gained per table are the rows the loaders reported, on a
// clean night they equal the generator's clean rows, and on a dirty night
// every data line was either loaded or skipped.
bool check_night(const Repository& repo, const Night& night,
                 const NightLoad& load, Tally& tally) {
  std::string problem;
  const Status audit = repo.engine.verify_integrity();
  core::FileLoadReport totals;
  for (const core::FileLoadReport& file : load.report.files) {
    totals.merge_counts(file);
  }
  std::map<std::string, int64_t> loaded;
  for (const auto& [table, rows] : totals.loaded_per_table) {
    if (rows != 0) loaded[table] = rows;
  }
  std::map<std::string, int64_t> gained;
  for (const auto& [table, rows] : table_rows(repo.engine)) {
    const int64_t delta = rows - load.rows_before.at(table);
    if (delta != 0) gained[table] = delta;
  }
  if (!audit.is_ok()) {
    problem = "integrity audit: " + audit.to_string();
  } else if (load.report.files.size() != night.files.size()) {
    problem = "files loaded: " + std::to_string(load.report.files.size());
  } else if (gained != loaded) {
    problem = "rows the engine gained differ from the rows reported loaded";
  } else if (night.clean && gained != night.clean_rows) {
    problem = "rows per table differ from the generator's clean rows";
  } else if (!night.clean &&
             totals.rows_loaded + totals.total_skipped() != night.data_lines) {
    problem = str_format("loaded %lld + skipped %lld != %lld data lines",
                         static_cast<long long>(totals.rows_loaded),
                         static_cast<long long>(totals.total_skipped()),
                         static_cast<long long>(night.data_lines));
  }
  if (problem.empty()) return true;
  tally.fail(static_cast<int64_t>(night.files.size()),
             "night " + std::to_string(night.night_id) + ": " + problem);
  return false;
}

// ---------------------------------------------------------------- queries

// Trace-only clocks around the public calls a cone search makes.
struct ConeTrace {
  std::vector<double> admit_us;
  std::vector<double> cover_us;
  std::vector<double> index_range_us;
  int64_t cones = 0;
  int64_t ranges = 0;
  int64_t rows_examined = 0;
  int64_t rows_matched = 0;
};

// One interactive cone search: admit on the interactive lane (which pins a
// snapshot), cover the cap with htm::cone_cover, probe the htmid index once
// per id range through the admitted ReadView, keep rows within the radius.
// Returns the match count; `ids`, when given, receives the matched ids.
Result<int64_t> cone_search(db::QueryScheduler& scheduler,
                            const Repository& repo, const SkyPoint& center,
                            ConeTrace* trace,
                            std::vector<int64_t>* ids = nullptr) {
  auto mark = Clock::now();
  const auto lap_us = [&mark] {
    const auto now = Clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(now - mark).count();
    mark = now;
    return us;
  };
  const db::Admission admission =
      scheduler.admit(db::QueryLane::kInteractive);
  if (trace != nullptr) trace->admit_us.push_back(lap_us());
  const db::ReadView view = admission.view();
  const htm::Vec3 c = htm::radec_to_vector(center.ra, center.dec);
  const std::vector<htm::IdRange> cover =
      htm::cone_cover(c, kConeRadiusDeg, repo.spatial.htm_depth);
  if (trace != nullptr) {
    trace->cover_us.push_back(lap_us());
    trace->ranges += static_cast<int64_t>(cover.size());
  }
  const auto ra_col = static_cast<size_t>(repo.spatial.ra_column);
  const auto dec_col = static_cast<size_t>(repo.spatial.dec_column);
  int64_t matched = 0;
  for (const htm::IdRange& range : cover) {
    const auto rows = view.index_range(
        repo.objects, repo.spatial.htm_index,
        {db::Value::i64(static_cast<int64_t>(range.first))},
        {db::Value::i64(static_cast<int64_t>(range.last))});
    if (trace != nullptr) trace->index_range_us.push_back(lap_us());
    if (!rows.is_ok()) return rows.status();
    if (trace != nullptr) {
      trace->rows_examined += static_cast<int64_t>(rows->size());
    }
    for (const db::Row& row : *rows) {
      if (htm::angular_distance_deg(
              c, htm::radec_to_vector(row[ra_col].as_f64(),
                                      row[dec_col].as_f64())) <=
          kConeRadiusDeg) {
        ++matched;
        if (ids != nullptr) ids->push_back(row[0].as_i64());
      }
    }
  }
  if (trace != nullptr) {
    ++trace->cones;
    trace->rows_matched += matched;
  }
  return matched;
}

// Every object's id and position in one pinned view, for the brute-force
// oracles.
struct ObjectScan {
  std::vector<int64_t> ids;
  std::vector<htm::Vec3> vecs;
};

ObjectScan scan_objects(const Repository& repo) {
  const db::Snapshot snap = repo.engine.pin_snapshot();
  ObjectScan scan;
  const auto ra_col = static_cast<size_t>(repo.spatial.ra_column);
  const auto dec_col = static_cast<size_t>(repo.spatial.dec_column);
  for (const db::Row& row : repo.engine.view_at(snap).scan_collect(
           repo.objects, [](const db::Row&) { return true; })) {
    scan.ids.push_back(row[0].as_i64());
    scan.vecs.push_back(
        htm::radec_to_vector(row[ra_col].as_f64(), row[dec_col].as_f64()));
  }
  return scan;
}

std::vector<int64_t> oracle_cone(const ObjectScan& scan,
                                 const SkyPoint& center) {
  const htm::Vec3 c = htm::radec_to_vector(center.ra, center.dec);
  std::vector<int64_t> ids;
  for (size_t i = 0; i < scan.ids.size(); ++i) {
    if (htm::angular_distance_deg(c, scan.vecs[i]) <= kConeRadiusDeg) {
      ids.push_back(scan.ids[i]);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Runs the first kOracleCones centers outside the clock and compares each
// answer with a brute-force scan-and-distance oracle over the same state.
void check_cones_against_oracle(db::QueryScheduler& scheduler,
                                const Repository& repo,
                                const std::vector<SkyPoint>& centers,
                                Tally& tally) {
  const ObjectScan scan = scan_objects(repo);
  for (size_t i = 0; i < kOracleCones && i < centers.size(); ++i) {
    std::vector<int64_t> ids;
    ++tally.attempted;
    const auto matched =
        cone_search(scheduler, repo, centers[i], nullptr, &ids);
    std::sort(ids.begin(), ids.end());
    if (!matched.is_ok() || ids != oracle_cone(scan, centers[i])) {
      tally.fail(1, "cone " + std::to_string(i) + " differs from the oracle");
    }
  }
}

// Closed loop: one client sends the next cone when the previous returns.
void closed_loop_cones(db::QueryScheduler& scheduler, const Repository& repo,
                       const std::vector<SkyPoint>& centers, size_t cones,
                       size_t& next_center, std::vector<double>& latency_ms,
                       ConeTrace* trace, Tally& tally) {
  for (size_t sent = 0; sent < cones; ++sent) {
    const SkyPoint& center = centers[next_center++ % centers.size()];
    const auto start = Clock::now();
    const auto matched = cone_search(scheduler, repo, center, trace);
    latency_ms.push_back(since_s(start) * 1e3);
    ++tally.attempted;
    if (!matched.is_ok()) tally.fail(1, matched.status().to_string());
  }
}

// Positions of one pinned view's objects, split into the given night (A)
// and the rest of the repository (B) by the night's generated id range.
struct XmatchInputs {
  std::vector<double> a_ra, a_dec, b_ra, b_dec;
};

XmatchInputs gather_split(const Repository& repo, const db::ReadView& view,
                          const Night& night) {
  XmatchInputs in;
  const auto ra_col = static_cast<size_t>(repo.spatial.ra_column);
  const auto dec_col = static_cast<size_t>(repo.spatial.dec_column);
  for (const db::Row& row :
       view.scan_collect(repo.objects, [](const db::Row&) { return true; })) {
    const bool mine = night.owns(row[0].as_i64());
    (mine ? in.a_ra : in.b_ra).push_back(row[ra_col].as_f64());
    (mine ? in.a_dec : in.b_dec).push_back(row[dec_col].as_f64());
  }
  return in;
}

double normalize_ra(double ra) {
  ra = std::fmod(ra, 360.0);
  return ra < 0 ? ra + 360.0 : ra;
}

// Brute-force pair count: every B row within the radius in declination,
// tested by exact distance.
int64_t oracle_pairs(const XmatchInputs& in) {
  std::vector<size_t> by_dec(in.b_dec.size());
  for (size_t i = 0; i < by_dec.size(); ++i) by_dec[i] = i;
  std::sort(by_dec.begin(), by_dec.end(),
            [&](size_t x, size_t y) { return in.b_dec[x] < in.b_dec[y]; });
  int64_t pairs = 0;
  for (size_t a = 0; a < in.a_ra.size(); ++a) {
    const htm::Vec3 probe =
        htm::radec_to_vector(normalize_ra(in.a_ra[a]), in.a_dec[a]);
    auto it = std::lower_bound(
        by_dec.begin(), by_dec.end(), in.a_dec[a] - kXmatchRadiusDeg,
        [&](size_t b, double v) { return in.b_dec[b] < v; });
    for (; it != by_dec.end() &&
           in.b_dec[*it] <= in.a_dec[a] + kXmatchRadiusDeg;
         ++it) {
      const htm::Vec3 other =
          htm::radec_to_vector(normalize_ra(in.b_ra[*it]), in.b_dec[*it]);
      if (htm::angular_distance_deg(probe, other) <= kXmatchRadiusDeg) {
        ++pairs;
      }
    }
  }
  return pairs;
}

struct XmatchSample {
  double total_s = 0;
  double gather_s = 0;
  double match_s = 0;
  int64_t pairs = 0;
  int64_t candidates = 0;
};

// One batch-lane cross-match: `night`'s objects against the rest of the
// repository, positions gathered through the admitted (pinned) view and
// matched by the zone algorithm on kXmatchWorkers workers.
XmatchSample cross_match(db::QueryScheduler& scheduler, const Repository& repo,
                         const Night& night) {
  XmatchSample sample;
  const auto start = Clock::now();
  const db::Admission admission = scheduler.admit(db::QueryLane::kBatch);
  const XmatchInputs in = gather_split(repo, admission.view(), night);
  sample.gather_s = since_s(start);
  db::spatial::XmatchOptions options;
  options.radius_deg = kXmatchRadiusDeg;
  options.policy = repo.engine.options().policies.spatial;
  options.policy.xmatch_workers = kXmatchWorkers;
  options.fan_out = core::LoadCoordinator::task_runner();
  const auto matched = db::spatial::xmatch_arrays(in.a_ra, in.a_dec, in.b_ra,
                                                  in.b_dec, options);
  sample.total_s = since_s(start);
  sample.match_s = sample.total_s - sample.gather_s;
  sample.pairs = matched.report.pairs;
  sample.candidates = matched.report.costs.xmatch_candidates;
  return sample;
}

// Cross-match samples of one run; every one must find the oracle's pairs.
struct XmatchLog {
  std::optional<int64_t> expected_pairs;
  std::vector<XmatchSample> samples;

  void run(db::QueryScheduler& scheduler, const Repository& repo,
           const Night& night, int times, Tally& tally) {
    if (!expected_pairs.has_value()) {
      const db::Snapshot snap = repo.engine.pin_snapshot();
      expected_pairs =
          oracle_pairs(gather_split(repo, repo.engine.view_at(snap), night));
      if (*expected_pairs == 0) {
        throw std::runtime_error("cross-match inputs have no pairs");
      }
    }
    for (int i = 0; i < times; ++i) {
      ++tally.attempted;
      samples.push_back(cross_match(scheduler, repo, night));
      if (samples.back().pairs != *expected_pairs) {
        tally.fail(1, str_format("cross-match found %lld pairs, oracle %lld",
                                 static_cast<long long>(samples.back().pairs),
                                 static_cast<long long>(*expected_pairs)));
      }
    }
  }
};

// ---------------------------------------------------------------- metrics

// Per-layer ingest figures pooled over a run's measured night loads.
struct LoadTrace {
  std::vector<double> insert_call_us;
  std::vector<double> commit_ms;
  double session_s = 0;
  double busy_s = 0;
  double capacity_s = 0;  // workers x makespan
  double lock_wait_s = 0;
  int64_t loads = 0;
  int64_t rows = 0;
  int64_t input_bytes = 0;
  int64_t db_calls = 0;
  int64_t failed_calls = 0;
  int64_t flush_cycles = 0;
  int64_t wal_bytes = 0;
  int64_t wal_flushes = 0;
  int64_t heap_bytes = 0;

  void add(const NightLoad& load) {
    const core::ParallelLoadReport& r = load.report;
    ++loads;
    rows += r.total_rows_loaded;
    input_bytes += r.total_bytes;
    capacity_s += static_cast<double>(r.workers) * to_seconds(r.makespan);
    for (const Nanos busy : r.worker_busy) busy_s += to_seconds(busy);
    for (const core::FileLoadReport& file : r.files) {
      flush_cycles += file.flush_cycles;
    }
    for (const CallLog& log : load.calls) {
      for (const int64_t ns : log.insert_call_ns) {
        insert_call_us.push_back(static_cast<double>(ns) / 1e3);
      }
      for (const int64_t ns : log.commit_ns) {
        commit_ms.push_back(static_cast<double>(ns) / 1e6);
      }
      session_s += static_cast<double>(log.session_ns) / 1e9;
      lock_wait_s += to_seconds(log.stats.lock_wait_time);
      db_calls += log.stats.db_calls;
      failed_calls += log.stats.failed_calls;
    }
    wal_bytes += load.after.wal.bytes_appended - load.before.wal.bytes_appended;
    wal_flushes += load.after.wal.flushes - load.before.wal.flushes;
    heap_bytes += load.after.total_heap_bytes - load.before.total_heap_bytes;
  }
};

// What one workload run measured.
struct RunResult {
  Tally tally;
  std::vector<double> setup_s;            // one per round
  std::vector<double> ingest_rows_per_s;  // one per measured night load
  // Cone latencies in blocks of consecutive cones: a round's cones, or
  // kConeBlock of them when one phase runs them all.
  std::vector<std::vector<double>> cone_ms;
  std::vector<double> lag_ms;  // open loop: how late each cone was sent
  XmatchLog xmatch;
  LoadTrace load_trace;
  ConeTrace cone_trace;
  double parse_ns_per_line = 0;
  int64_t snapshot_chunks = 0;
  int rounds = 0;
};

// Parse-only pass over a night's text through the public CatalogParser
// API, on the path the production loader parses with.
double parse_ns_per_line(const db::Schema& schema, const Night& night) {
  catalog::CatalogParser parser(schema);
  const core::BulkLoaderOptions loader = profile().bulk_options();
  int64_t lines = 0;
  const auto start = Clock::now();
  for (const core::CatalogFile& file : night.files) {
    if (loader.columnar_ingest) {
      catalog::ParsedBlock block;
      size_t pos = 0;
      while (pos <= file.text.size()) {
        parser.parse_block(file.text, pos,
                           static_cast<size_t>(loader.parse_block_rows), block);
        lines += block.data_lines;
      }
    } else {
      for (std::string_view line : split_view(file.text, '\n')) {
        if (!catalog::CatalogParser::is_data_line(line)) continue;
        ++lines;
        (void)parser.parse_line(line);
      }
    }
  }
  return ratio(since_s(start) * 1e9, static_cast<double>(lines));
}

// Called between rounds, once the previous round's repository is gone:
// handing its freed heap back to the system makes peak_rss_mb the footprint
// of one round, as in a fresh process, rather than of heap fragmentation
// accumulated over rounds.
void release_freed_memory() { malloc_trim(0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// parallel_night: the production shape. Setup: reference tables plus one
// prior night (the same field, so tonight's objects re-observe it) with a
// single loader. Measured: tonight's clean ~100 MB observation through the
// dynamic file queue with 3 loaders and no concurrent queries; afterwards,
// outside the ingest clock, a closed-loop cone batch over the fresh
// (shallow-chain) repository and three cross-matches of tonight against the
// prior night.
RunResult run_parallel_night(const Args& args) {
  const db::Schema schema = catalog::make_pq_schema();
  const std::string reference =
      catalog::CatalogGenerator::reference_file().text;
  const uint64_t field = derive_seed(args.seed, 1);
  const Night prior = make_night(field, 1, 10 * kMegabyte, 0.0);
  const Night tonight = make_night(field, 2, 100 * kMegabyte, 0.0);
  const std::vector<SkyPoint> centers =
      cone_centers({&prior, &tonight}, 4096, derive_seed(args.seed, 2));

  RunResult result;
  if (args.trace) result.parse_ns_per_line = parse_ns_per_line(schema, tonight);
  size_t next_center = kOracleCones;
  const auto run_start = Clock::now();
  while (result.rounds < kMinRounds || since_s(run_start) < args.seconds) {
    ++result.rounds;
    release_freed_memory();
    const auto setup_start = Clock::now();
    auto repo = std::make_unique<Repository>(schema);
    load_reference(*repo, reference);
    const auto prior_load = load_night(*repo, prior, 1, false, result.tally);
    result.setup_s.push_back(since_s(setup_start));
    if (!prior_load || !check_night(*repo, prior, *prior_load, result.tally)) {
      break;
    }

    const auto load = load_night(*repo, tonight, 3, args.trace, result.tally);
    if (!load || !check_night(*repo, tonight, *load, result.tally)) break;
    result.ingest_rows_per_s.push_back(
        static_cast<double>(load->report.total_rows_loaded) / load->wall_s);
    result.load_trace.add(*load);
    result.snapshot_chunks = load->after.snapshots.chunks_published;

    db::QueryScheduler scheduler(repo->engine);
    if (result.rounds == 1) {
      check_cones_against_oracle(scheduler, *repo, centers, result.tally);
    }
    closed_loop_cones(scheduler, *repo, centers, 300, next_center,
                      result.cone_ms.emplace_back(),
                      args.trace ? &result.cone_trace : nullptr, result.tally);
    result.xmatch.run(scheduler, *repo, tonight, 3, result.tally);
  }
  return result;
}

// archive_cones: read-only over a long-lived archive. Setup: 12 small
// nights (4 fields, each re-observed 3 times) with one loader and the
// production commit-per-file policy, which leaves thousands of published
// snapshot chunks; it is repeated kMinRounds times and the last archive is
// kept. Measured: a closed-loop interactive cone client, then batch-lane
// cross-matches of the newest night against the rest of the archive.
RunResult run_archive_cones(const Args& args) {
  constexpr int kNights = 12;
  constexpr int kFields = 4;
  const db::Schema schema = catalog::make_pq_schema();
  const std::string reference =
      catalog::CatalogGenerator::reference_file().text;
  std::vector<Night> nights;
  std::vector<const Night*> all;
  for (int n = 1; n <= kNights; ++n) {
    const auto field = static_cast<uint64_t>(10 + n % kFields);
    nights.push_back(
        make_night(derive_seed(args.seed, field), n, 3 * kMegabyte, 0.0));
  }
  for (const Night& night : nights) all.push_back(&night);
  const std::vector<SkyPoint> centers =
      cone_centers(all, 8192, derive_seed(args.seed, 2));

  RunResult result;
  if (args.trace) {
    for (const Night& night : nights) {
      result.parse_ns_per_line += parse_ns_per_line(schema, night) / kNights;
    }
  }
  const auto run_start = Clock::now();
  std::unique_ptr<Repository> repo;
  for (; result.rounds < kMinRounds; ++result.rounds) {
    repo.reset();
    release_freed_memory();
    const auto setup_start = Clock::now();
    repo = std::make_unique<Repository>(schema);
    load_reference(*repo, reference);
    // Set-up time is building the archive; the checks after each night
    // are left out of it.
    double setup_s = since_s(setup_start);
    for (const Night& night : nights) {
      const auto load = load_night(*repo, night, 1, args.trace, result.tally);
      if (!load || !check_night(*repo, night, *load, result.tally)) {
        return result;
      }
      setup_s += load->wall_s;
      result.ingest_rows_per_s.push_back(
          static_cast<double>(load->report.total_rows_loaded) / load->wall_s);
      result.load_trace.add(*load);
    }
    result.setup_s.push_back(setup_s);
  }
  result.snapshot_chunks = repo->engine.stats().snapshots.chunks_published;

  db::QueryScheduler scheduler(repo->engine);
  size_t next_center = kOracleCones;
  // Blocks of kConeBlock cones until most of the run is spent.
  while (result.cone_ms.size() < 4 ||
         since_s(run_start) < 0.85 * args.seconds) {
    closed_loop_cones(scheduler, *repo, centers, kConeBlock, next_center,
                      result.cone_ms.emplace_back(),
                      args.trace ? &result.cone_trace : nullptr, result.tally);
  }
  result.xmatch.run(scheduler, *repo, nights.back(), 15, result.tally);
  check_cones_against_oracle(scheduler, *repo, centers, result.tally);
  return result;
}

// dirty_night_with_cones: writes beside reads. Setup: reference tables plus
// one clean prior night of the same field. Measured: 2 loaders load a night
// with 1% injected errors (skip-and-repack recovery) while one open-loop
// client sends cone searches on pinned snapshots at a fixed rate well under
// its capacity, each timed from when it was due. Afterwards, outside every
// clock: the
// sampled in-load answers must be subsets of the final answers (snapshots
// are committed prefixes), and the cross-match of the dirty night against
// the prior night runs three times per round.
RunResult run_dirty_night(const Args& args) {
  constexpr double kConesPerSecond = 250.0;
  constexpr size_t kSampleEvery = 16;  // in-load cones kept for the check
  constexpr auto kSpinWindow = std::chrono::microseconds(500);
  const db::Schema schema = catalog::make_pq_schema();
  const std::string reference =
      catalog::CatalogGenerator::reference_file().text;
  const uint64_t field = derive_seed(args.seed, 1);
  const Night prior = make_night(field, 1, 10 * kMegabyte, 0.0);
  const Night tonight = make_night(field, 2, 60 * kMegabyte, 0.01);
  const std::vector<SkyPoint> centers =
      cone_centers({&prior, &tonight}, 4096, derive_seed(args.seed, 2));

  RunResult result;
  if (args.trace) result.parse_ns_per_line = parse_ns_per_line(schema, tonight);
  size_t next_center = kOracleCones;
  const auto run_start = Clock::now();
  while (result.rounds < kMinRounds || since_s(run_start) < args.seconds) {
    ++result.rounds;
    release_freed_memory();
    const auto setup_start = Clock::now();
    auto repo = std::make_unique<Repository>(schema);
    load_reference(*repo, reference);
    const auto prior_load = load_night(*repo, prior, 1, false, result.tally);
    result.setup_s.push_back(since_s(setup_start));
    if (!prior_load || !check_night(*repo, prior, *prior_load, result.tally)) {
      break;
    }

    db::QueryScheduler scheduler(repo->engine);
    std::vector<double> cone_ms;
    std::vector<double> lag_ms;
    std::vector<std::pair<size_t, std::vector<int64_t>>> sampled;
    int64_t cone_failures = 0;
    ConeTrace* const trace = args.trace ? &result.cone_trace : nullptr;
    const size_t first_center = next_center;
    // A jthread: stopped and joined on every exit from this scope.
    std::jthread client([&](const std::stop_token& stop) {
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kConesPerSecond));
      auto due = Clock::now();
      for (size_t k = 0; !stop.stop_requested(); ++k, due += period) {
        // Sleep, then spin through the last kSpinWindow, so the operating
        // system's wake-up delay on a busy host is not charged to the cone.
        std::this_thread::sleep_until(due - kSpinWindow);
        while (Clock::now() < due) {
        }
        const auto sent = Clock::now();
        const size_t index = (first_center + k) % centers.size();
        std::vector<int64_t> ids;
        const bool keep = k % kSampleEvery == 0;
        const auto matched = cone_search(scheduler, *repo, centers[index],
                                         trace, keep ? &ids : nullptr);
        const auto done = Clock::now();
        cone_ms.push_back(
            std::chrono::duration<double, std::milli>(done - due).count());
        lag_ms.push_back(
            std::chrono::duration<double, std::milli>(sent - due).count());
        if (!matched.is_ok()) ++cone_failures;
        if (keep) sampled.emplace_back(index, std::move(ids));
      }
    });
    const auto load = load_night(*repo, tonight, 2, args.trace, result.tally);
    client.request_stop();
    client.join();
    next_center = first_center + cone_ms.size();
    result.tally.attempted += static_cast<int64_t>(cone_ms.size());
    if (cone_failures > 0) result.tally.fail(cone_failures, "in-load cones");
    result.cone_ms.push_back(std::move(cone_ms));
    result.lag_ms.insert(result.lag_ms.end(), lag_ms.begin(), lag_ms.end());
    if (!load || !check_night(*repo, tonight, *load, result.tally)) break;
    result.ingest_rows_per_s.push_back(
        static_cast<double>(load->report.total_rows_loaded) / load->wall_s);
    result.load_trace.add(*load);
    result.snapshot_chunks = load->after.snapshots.chunks_published;

    // A snapshot is a committed prefix, so what a cone found during the
    // load must still be found once the load is done.
    const ObjectScan final_scan = scan_objects(*repo);
    for (auto& [index, ids] : sampled) {
      const std::vector<int64_t> all_ids =
          oracle_cone(final_scan, centers[index]);
      std::sort(ids.begin(), ids.end());
      if (!std::includes(all_ids.begin(), all_ids.end(), ids.begin(),
                         ids.end())) {
        result.tally.fail(1, "an in-load cone found rows the final state "
                             "does not hold");
      }
    }
    if (result.rounds == 1) {
      check_cones_against_oracle(scheduler, *repo, centers, result.tally);
    }
    result.xmatch.run(scheduler, *repo, tonight, 3, result.tally);
  }
  return result;
}

// ---------------------------------------------------------------- output

void print_result(const RunResult& r, bool trace) {
  std::vector<double> xmatch_s, gather_s, match_s;
  int64_t pairs = 0;
  int64_t candidates = 0;
  for (const XmatchSample& s : r.xmatch.samples) {
    xmatch_s.push_back(s.total_s);
    gather_s.push_back(s.gather_s);
    match_s.push_back(s.match_s);
    pairs += s.pairs;
    candidates += s.candidates;
  }
  const LoadTrace& lt = r.load_trace;
  const ConeTrace& ct = r.cone_trace;
  const std::vector<double> cone_ms = pooled(r.cone_ms);
  std::vector<std::pair<std::string, double>> end_to_end = {
      {"setup_s", median(r.setup_s)},
      // The upper quartile of the loads: interference from other tenants of
      // a shared host only ever slows a load, and on a 4-core VM it hits up
      // to a third of a run's loads; the faster loads track the program.
      {"ingest_rows_per_s", quantile(r.ingest_rows_per_s, 0.75)},
      {"cone_p50_ms", block_quantile(r.cone_ms, 0.5)},
      {"cone_p90_ms", block_quantile(r.cone_ms, 0.9)},
      {"xmatch_s", median(xmatch_s)},
      {"peak_rss_mb", peak_rss_mb()},
  };
  std::vector<std::pair<std::string, double>> per_layer = {
      {"catalog.parse_ns_per_line", r.parse_ns_per_line},
      {"core.loader_self_share",
       ratio(lt.busy_s - lt.session_s, lt.busy_s)},
      {"core.flush_cycles",
       ratio(static_cast<double>(lt.flush_cycles),
             static_cast<double>(lt.loads))},
      {"core.queue_idle_share",
       ratio(lt.capacity_s - lt.busy_s, lt.capacity_s)},
      {"client.calls_per_1k_rows",
       ratio(1e3 * static_cast<double>(lt.db_calls),
             static_cast<double>(lt.rows))},
      {"client.failed_calls",
       ratio(static_cast<double>(lt.failed_calls),
             static_cast<double>(lt.loads))},
      {"db.insert_call_us_p50", quantile(lt.insert_call_us, 0.5)},
      {"db.insert_call_us_p90", quantile(lt.insert_call_us, 0.9)},
      {"db.lock_wait_share", ratio(lt.lock_wait_s, lt.session_s)},
      {"db.commit_ms_p50", quantile(lt.commit_ms, 0.5)},
      {"storage.wal_bytes_per_row",
       ratio(static_cast<double>(lt.wal_bytes), static_cast<double>(lt.rows))},
      {"storage.wal_flushes",
       ratio(static_cast<double>(lt.wal_flushes),
             static_cast<double>(lt.loads))},
      {"storage.heap_bytes_per_input_byte",
       ratio(static_cast<double>(lt.heap_bytes),
             static_cast<double>(lt.input_bytes))},
      {"db.snapshot_chunks", static_cast<double>(r.snapshot_chunks)},
      {"db.admit_us_p50", quantile(ct.admit_us, 0.5)},
      {"db.index_range_us_p50", quantile(ct.index_range_us, 0.5)},
      {"db.rows_examined_per_result",
       ratio(static_cast<double>(ct.rows_examined),
             static_cast<double>(ct.rows_matched))},
      {"htm.cone_cover_us_p50", quantile(ct.cover_us, 0.5)},
      {"htm.ranges_per_cone",
       ratio(static_cast<double>(ct.ranges), static_cast<double>(ct.cones))},
      {"db.xmatch_gather_s", median(gather_s)},
      {"db.xmatch_match_s", median(match_s)},
      {"db.xmatch_candidates_per_pair",
       ratio(static_cast<double>(candidates), static_cast<double>(pairs))},
      {"bench.open_loop_lag_ms_p90", quantile(r.lag_ms, 0.9)},
      {"bench.cone_p99_ms", quantile(cone_ms, 0.99)},
      {"bench.cone_samples", static_cast<double>(cone_ms.size())},
  };
  const auto show = [](const char* name, const std::vector<double>& values) {
    std::string line;
    for (const double v : values) line += str_format(" %.4g", v);
    std::fprintf(stderr, "perfbench: %s per sample:%s\n", name, line.c_str());
  };
  show("setup_s", r.setup_s);
  show("ingest_rows_per_s", r.ingest_rows_per_s);
  show("xmatch_s", xmatch_s);
  std::vector<double> block_p50;
  for (const std::vector<double>& block : r.cone_ms) {
    block_p50.push_back(quantile(block, 0.5));
  }
  show("cone_p50_ms", block_p50);
  std::fprintf(stderr,
               "perfbench: %d rounds, %zu cones (p99 %.4g ms), %lld pairs "
               "per cross-match\n",
               r.rounds, cone_ms.size(), quantile(cone_ms, 0.99),
               static_cast<long long>(r.xmatch.expected_pairs.value_or(0)));
  const auto emit = [](const char* key,
                       const std::vector<std::pair<std::string, double>>& m) {
    std::printf(",\"%s\":{", key);
    for (size_t i = 0; i < m.size(); ++i) {
      std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",", m[i].first.c_str(),
                  m[i].second);
    }
    std::printf("}");
  };
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld",
              r.tally.failed == 0 ? "true" : "false",
              static_cast<long long>(r.tally.attempted),
              static_cast<long long>(r.tally.failed));
  emit("end_to_end", end_to_end);
  if (trace) emit("per_layer", per_layer);
  std::printf("}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload parallel_night|archive_cones|"
               "dirty_night_with_cones --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace sky::perfbench

int main(int argc, char** argv) {
  using namespace sky::perfbench;
  sky::set_log_level(sky::LogLevel::kWarn);
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::string(value) == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return usage();
  try {
    RunResult result;
    if (args.workload == "parallel_night") {
      result = run_parallel_night(args);
    } else if (args.workload == "archive_cones") {
      result = run_archive_cones(args);
    } else if (args.workload == "dirty_night_with_cones") {
      result = run_dirty_night(args);
    } else {
      return usage();
    }
    print_result(result, args.trace);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
