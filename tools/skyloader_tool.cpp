// skyloader_tool: the command-line face of the framework.
//
// Subcommands:
//   generate  --night N --megabytes M [--error-rate R] [--out DIR]
//             Write the reference file plus an observation's 28 catalog
//             files to DIR.
//   load      --parallel P [--batch B] [--array A] [--report out.md] FILES...
//             Create a repository, load the files (reference files first,
//             detected by name), print/write a report. Batch and array
//             sizes default to TuningProfile::production()'s.
//   verify    FILES...
//             Load into a throwaway repository and run the deep integrity
//             audit; exit nonzero on any inconsistency.
//   cone      --ra RA --dec DEC --radius R FILES...
//             Load, then run an HTM-index cone search and print matches.
//   lint      FILES...
//             Parse-only structural check: per-tag row counts and the
//             first parse errors, without touching a database.
//   query     --sql "SELECT * FROM objects WHERE mag < 18 LIMIT 5" FILES...
//             Load, then run a textual query through the planner.
//   recover   --wal repo.wal
//             Rebuild a repository from a persisted WAL file and audit it
//             (pairs with `load --wal repo.wal`).
//
// Everything is deterministic given --seed.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "catalog/generator.h"
#include "catalog/parser.h"
#include "catalog/pq_schema.h"
#include "client/session.h"
#include "common/log.h"
#include "core/coordinator.h"
#include "core/tuning.h"
#include "db/engine.h"
#include "db/query.h"
#include "db/recovery.h"
#include "db/spatial.h"
#include "db/sql.h"
#include "storage/wal_file.h"

using namespace sky;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "true";
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int64_t opt_int(const Args& args, const std::string& key, int64_t fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback : std::atoll(it->second.c_str());
}

double opt_double(const Args& args, const std::string& key, double fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback : std::atof(it->second.c_str());
}

std::string opt_string(const Args& args, const std::string& key,
                       const std::string& fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  skyloader_tool generate --night N --megabytes M [--error-rate R]\n"
      "                 [--seed S] [--out DIR]\n"
      "  skyloader_tool load [--parallel P] [--batch B] [--array A]\n"
      "                 [--report out.md] FILES...\n"
      "  skyloader_tool verify FILES...\n"
      "  skyloader_tool cone --ra RA --dec DEC --radius R FILES...\n"
      "  skyloader_tool lint FILES...\n"
      "  skyloader_tool query --sql QUERY FILES...\n"
      "  skyloader_tool recover --wal FILE.wal\n");
  return 2;
}

int cmd_lint(const Args& args) {
  if (args.positional.empty()) return usage();
  const db::Schema schema = catalog::make_pq_schema();
  int exit_code = 0;
  for (const std::string& path : args.positional) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      exit_code = 1;
      continue;
    }
    catalog::CatalogParser parser(schema);
    std::map<std::string, int64_t> per_table;
    std::vector<std::string> first_errors;
    std::string line;
    int64_t line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      if (!catalog::CatalogParser::is_data_line(line)) continue;
      const auto parsed = parser.parse_line(line);
      if (parsed.is_ok()) {
        ++per_table[schema.table(parsed->table_id).name];
      } else if (first_errors.size() < 5) {
        first_errors.push_back(
            "line " + std::to_string(line_number) + ": " +
            parsed.status().message().substr(0, 80));
      }
    }
    const auto& stats = parser.stats();
    std::printf("%s: %lld data rows, %lld parse errors, %lld htmids "
                "computed\n",
                path.c_str(), static_cast<long long>(stats.data_rows),
                static_cast<long long>(stats.parse_errors),
                static_cast<long long>(stats.htmids_computed));
    for (const auto& [table, count] : per_table) {
      std::printf("  %-22s %8lld\n", table.c_str(),
                  static_cast<long long>(count));
    }
    for (const std::string& error : first_errors) {
      std::printf("  ! %s\n", error.c_str());
    }
    if (stats.parse_errors > 0) exit_code = 1;
  }
  return exit_code;
}

int cmd_generate(const Args& args) {
  const int64_t night = opt_int(args, "night", 1);
  const int64_t megabytes = opt_int(args, "megabytes", 8);
  const double error_rate = opt_double(args, "error-rate", 0.0);
  const uint64_t seed = static_cast<uint64_t>(opt_int(args, "seed", 42));
  const std::filesystem::path out_dir = opt_string(args, "out", ".");
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  auto write_file = [&](const std::string& name, const std::string& text) {
    const auto path = out_dir / name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), text.size());
    return out.good();
  };
  if (!write_file("reference.cat",
                  catalog::CatalogGenerator::reference_file().text)) {
    return 1;
  }
  for (const auto& spec : catalog::CatalogGenerator::observation_specs(
           seed, night, megabytes * 1000 * 1000, error_rate)) {
    if (!write_file(spec.name, catalog::CatalogGenerator::generate(spec).text)) {
      return 1;
    }
  }
  return 0;
}

Result<std::vector<core::CatalogFile>> read_files(
    const std::vector<std::string>& paths) {
  std::vector<core::CatalogFile> files;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status(ErrorCode::kIoError, "cannot open " + path);
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    files.push_back(core::CatalogFile{path, std::move(text)});
  }
  return files;
}

// Loads reference-looking files serially first, the rest in parallel.
Result<core::ParallelLoadReport> load_into(db::Engine& engine,
                                           const db::Schema& schema,
                                           std::vector<core::CatalogFile> files,
                                           const core::CoordinatorOptions& options) {
  std::vector<core::CatalogFile> nightly;
  for (core::CatalogFile& file : files) {
    if (file.name.find("reference") != std::string::npos) {
      client::DirectSession session(engine);
      core::BulkLoaderOptions ref_options = options.loader;
      ref_options.write_audit_row = false;
      core::BulkLoader loader(session, schema, ref_options);
      SKY_RETURN_IF_ERROR(loader.load_text(file.name, file.text).status());
    } else {
      nightly.push_back(std::move(file));
    }
  }
  return core::LoadCoordinator::run_threads(
      nightly, schema,
      [&](int) { return std::make_unique<client::DirectSession>(engine); },
      options);
}

int cmd_load(const Args& args, bool verify_only) {
  if (args.positional.empty()) return usage();
  const db::Schema schema = catalog::make_pq_schema();
  const core::TuningProfile profile = core::TuningProfile::production();
  db::EngineOptions engine_options = profile.engine_options();
  const std::string wal_path = opt_string(args, "wal", "");
  if (!wal_path.empty()) engine_options.retain_wal_records = true;
  db::Engine engine(schema, engine_options);
  if (!profile.apply_index_policy(engine).is_ok()) return 1;

  auto files = read_files(args.positional);
  if (!files.is_ok()) {
    std::fprintf(stderr, "%s\n", files.status().to_string().c_str());
    return 1;
  }
  core::CoordinatorOptions options;
  options.parallel_degree = static_cast<int>(opt_int(args, "parallel", 4));
  // The profile's loader settings, overridden only by the flags given.
  options.loader = profile.bulk_options();
  options.loader.batch_size =
      opt_int(args, "batch", options.loader.batch_size);
  options.loader.array_config.default_rows =
      opt_int(args, "array", options.loader.array_config.default_rows);
  const auto report =
      load_into(engine, schema, std::move(*files), options);
  if (!report.is_ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", report->summary().c_str());

  const Status audit = engine.verify_integrity();
  std::printf("integrity audit: %s\n", audit.to_string().c_str());
  std::printf("repository rows: %lld\n",
              static_cast<long long>(engine.total_rows()));
  if (verify_only) {
    core::FileLoadReport totals;
    for (const auto& file : report->files) totals.merge_counts(file);
    std::printf("skipped rows: %lld\n",
                static_cast<long long>(totals.total_skipped()));
    return audit.is_ok() ? 0 : 1;
  }

  if (!wal_path.empty()) {
    const Status wal_status =
        storage::write_wal_file(wal_path, engine.wal_records());
    if (!wal_status.is_ok()) {
      std::fprintf(stderr, "%s\n", wal_status.to_string().c_str());
      return 1;
    }
    std::printf("WAL persisted to %s (%zu records)\n", wal_path.c_str(),
                engine.wal_records().size());
  }

  const std::string report_path = opt_string(args, "report", "");
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << core::render_markdown_report(*report);
    std::printf("report written to %s\n", report_path.c_str());
  } else {
    std::printf("\n%s", core::render_markdown_report(*report).c_str());
  }
  return audit.is_ok() ? 0 : 1;
}

int cmd_cone(const Args& args) {
  if (args.positional.empty()) return usage();
  const double ra = opt_double(args, "ra", 0);
  const double dec = opt_double(args, "dec", 0);
  const double radius = opt_double(args, "radius", 0.5);

  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  auto files = read_files(args.positional);
  if (!files.is_ok()) {
    std::fprintf(stderr, "%s\n", files.status().to_string().c_str());
    return 1;
  }
  core::CoordinatorOptions options;
  options.loader.write_audit_row = false;
  const auto report = load_into(engine, schema, std::move(*files), options);
  if (!report.is_ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  // The catalog's htmid index is a plain int64 index over the computed
  // htmid column, so the spatial spec is filled from the schema.
  db::spatial::SpatialTableSpec spec;
  spec.table_id = engine.table_id("objects").value();
  const db::TableDef& def = engine.schema().table(spec.table_id);
  spec.htm_index = std::string(catalog::kIndexHtmid);
  spec.ra_column = def.column_index("ra");
  spec.dec_column = def.column_index("dec");
  spec.htm_depth = catalog::CatalogParser::kHtmDepth;
  const auto rows =
      db::spatial::cone_search(engine.live_view(), spec, ra, dec, radius);
  if (!rows.is_ok()) {
    std::fprintf(stderr, "%s\n", rows.status().to_string().c_str());
    return 1;
  }
  const auto matches = static_cast<long long>(rows->size());
  for (size_t i = 0; i < rows->size() && i < 20; ++i) {
    const db::Row& row = (*rows)[i];
    std::printf("object %s ra=%.5f dec=%.5f mag=%.2f\n",
                row[0].to_display().c_str(), row[2].as_f64(),
                row[3].as_f64(), row[4].as_f64());
  }
  std::printf("total matches within %.3f deg of (%.4f, %.4f): %lld\n", radius,
              ra, dec, matches);
  return 0;
}

int cmd_query(const Args& args) {
  const std::string sql = opt_string(args, "sql", "");
  if (sql.empty() || args.positional.empty()) return usage();
  const db::Schema schema = catalog::make_pq_schema();
  db::Engine engine(schema);
  auto files = read_files(args.positional);
  if (!files.is_ok()) {
    std::fprintf(stderr, "%s\n", files.status().to_string().c_str());
    return 1;
  }
  core::CoordinatorOptions options;
  options.loader.write_audit_row = false;
  const auto report = load_into(engine, schema, std::move(*files), options);
  if (!report.is_ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  const auto spec = db::parse_query(schema, sql);
  if (!spec.is_ok()) {
    std::fprintf(stderr, "%s\n", spec.status().to_string().c_str());
    return 1;
  }
  const db::QueryPlanner planner(engine);
  const auto result = planner.execute(*spec);
  if (!result.is_ok()) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    return 1;
  }
  const db::TableDef& def =
      engine.schema().table(engine.table_id(spec->table).value());
  std::printf("plan: %s (%lld rows examined)\n", result->plan.c_str(),
              static_cast<long long>(result->rows_examined));
  // Header.
  for (const db::ColumnDef& column : def.columns) {
    std::printf("%s\t", column.name.c_str());
  }
  std::printf("\n");
  for (const db::Row& row : result->rows) {
    for (const db::Value& value : row) {
      std::printf("%s\t", value.to_display().c_str());
    }
    std::printf("\n");
  }
  std::printf("(%zu rows)\n", result->rows.size());
  return 0;
}

int cmd_recover(const Args& args) {
  const std::string wal_path = opt_string(args, "wal", "");
  if (wal_path.empty()) return usage();
  const auto read = storage::read_wal_file(wal_path);
  if (!read.is_ok()) {
    std::fprintf(stderr, "%s\n", read.status().to_string().c_str());
    return 1;
  }
  if (read->truncated) {
    std::printf("warning: WAL tail damaged; recovering the intact prefix "
                "(%zu records)\n",
                read->records.size());
  }
  const db::Schema schema = catalog::make_pq_schema();
  db::RecoveryStats stats;
  const auto recovered =
      db::recover_from_wal(schema, read->records, db::EngineOptions{}, &stats);
  if (!recovered.is_ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().to_string().c_str());
    return 1;
  }
  std::printf("recovered %lld rows from %lld committed transactions "
              "(%lld discarded)\n",
              static_cast<long long>(stats.rows_replayed),
              static_cast<long long>(stats.transactions_committed),
              static_cast<long long>(stats.transactions_discarded));
  for (uint32_t t = 0; t < static_cast<uint32_t>(schema.table_count()); ++t) {
    const int64_t rows = (*recovered)->live_view().row_count(t);
    if (rows > 0) {
      std::printf("  %-22s %8lld\n", schema.table(t).name.c_str(),
                  static_cast<long long>(rows));
    }
  }
  const Status audit = (*recovered)->verify_integrity();
  std::printf("integrity audit: %s\n", audit.to_string().c_str());
  return audit.is_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  const Args args = parse_args(argc, argv);
  if (args.command == "generate") return cmd_generate(args);
  if (args.command == "load") return cmd_load(args, /*verify_only=*/false);
  if (args.command == "verify") return cmd_load(args, /*verify_only=*/true);
  if (args.command == "cone") return cmd_cone(args);
  if (args.command == "lint") return cmd_lint(args);
  if (args.command == "query") return cmd_query(args);
  if (args.command == "recover") return cmd_recover(args);
  return usage();
}
