#include "core/coordinator.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/log.h"

namespace sky::core {

namespace {

// Shared work queue. Dynamic mode: any worker pops the next unassigned file.
// Static mode: files are pre-partitioned round-robin by index and each
// worker only sees its own share.
class WorkQueue {
 public:
  WorkQueue(size_t file_count, int workers, bool dynamic)
      : dynamic_(dynamic), workers_(workers) {
    if (!dynamic_) {
      partitions_.resize(static_cast<size_t>(workers));
      for (size_t f = 0; f < file_count; ++f) {
        partitions_[f % static_cast<size_t>(workers)].push_back(f);
      }
    } else {
      (void)workers_;
      total_ = file_count;
    }
  }

  // Next file index for this worker, or nullopt when done.
  std::optional<size_t> next(int worker) {
    const std::scoped_lock lock(mu_);
    if (dynamic_) {
      if (next_ >= total_) return std::nullopt;
      return next_++;
    }
    auto& mine = partitions_[static_cast<size_t>(worker)];
    if (cursor_.size() <= static_cast<size_t>(worker)) {
      cursor_.resize(static_cast<size_t>(worker) + 1, 0);
    }
    size_t& at = cursor_[static_cast<size_t>(worker)];
    if (at >= mine.size()) return std::nullopt;
    return mine[at++];
  }

 private:
  std::mutex mu_;
  bool dynamic_;
  int workers_;
  size_t total_ = 0;
  size_t next_ = 0;
  std::vector<std::vector<size_t>> partitions_;
  std::vector<size_t> cursor_;
};

struct WorkerResult {
  std::vector<FileLoadReport> reports;
  Nanos busy = 0;
  client::SessionStats session;  // the worker's session, at loop end
  catalog::ParserStats parser;
  int files = 0;
  int files_skipped = 0;
  Status failure = ok_status();
};

// The per-worker loop, identical in both backends.
void worker_loop(int worker, WorkQueue& queue,
                 const std::vector<CatalogFile>& files,
                 const db::Schema& schema, const CoordinatorOptions& options,
                 client::Session& session, WorkerResult& result) {
  BulkLoader loader(session, schema, options.loader);
  while (true) {
    const auto file_index = queue.next(worker);
    if (!file_index.has_value()) break;
    const CatalogFile& file = files[*file_index];
    if (options.already_loaded && options.already_loaded(file.name)) {
      ++result.files_skipped;
      continue;
    }
    const Nanos start = session.now();
    auto report = loader.load_text(file.name, file.text);
    if (!report.is_ok()) {
      result.failure = report.status();
      return;
    }
    result.busy += session.now() - start;
    ++result.files;
    result.reports.push_back(std::move(*report));
  }
  result.parser = loader.parser_stats();
  result.session = session.stats();
}

ParallelLoadReport assemble(std::vector<WorkerResult> worker_results,
                            int workers, Nanos makespan) {
  ParallelLoadReport report;
  report.workers = workers;
  report.makespan = makespan;
  for (WorkerResult& worker : worker_results) {
    report.worker_busy.push_back(worker.busy);
    report.worker_lock_wait.push_back(worker.session.lock_wait_time);
    report.files_per_worker.push_back(worker.files);
    report.files_skipped += worker.files_skipped;
    report.sessions += worker.session;
    report.parser += worker.parser;
    for (FileLoadReport& file : worker.reports) {
      report.total_bytes += file.bytes;
      report.total_rows_loaded += file.rows_loaded;
      report.files.push_back(std::move(file));
    }
  }
  return report;
}

Nanos real_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::function<bool(const std::string&)> make_audit_checker(
    const db::Engine& engine) {
  const auto audit_table = engine.table_id("load_audit");
  if (!audit_table.is_ok()) {
    return [](const std::string&) { return false; };
  }
  const uint32_t table_id = *audit_table;
  return [&engine, table_id](const std::string& file_name) {
    return engine.live_view()
        .pk_lookup(table_id,
                   {db::Value::i64(audit_id_for_file(file_name))})
        .is_ok();
  };
}

void LoadCoordinator::run_tasks(int workers, size_t tasks, bool dynamic,
                                const std::function<void(int, size_t)>& body) {
  if (tasks == 0) return;
  if (workers < 1) workers = 1;
  if (static_cast<size_t>(workers) > tasks) {
    workers = static_cast<int>(tasks);
  }
  WorkQueue queue(tasks, workers, dynamic);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&queue, &body, w] {
      while (const auto task = queue.next(w)) body(w, *task);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

db::spatial::FanOut LoadCoordinator::task_runner(bool dynamic) {
  return [dynamic](int workers, size_t tasks,
                   const std::function<void(int, size_t)>& body) {
    run_tasks(workers, tasks, dynamic, body);
  };
}

Result<ParallelLoadReport> LoadCoordinator::run_threads(
    const std::vector<CatalogFile>& files, const db::Schema& schema,
    const SessionFactory& factory, const CoordinatorOptions& options) {
  if (options.parallel_degree < 1) {
    return Status(ErrorCode::kInvalidArgument, "parallel_degree must be >= 1");
  }
  const int workers = options.parallel_degree;
  WorkQueue queue(files.size(), workers, options.dynamic_assignment);
  std::vector<WorkerResult> results(static_cast<size_t>(workers));
  std::vector<std::thread> threads;
  const Nanos start = real_now();
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      const std::unique_ptr<client::Session> session = factory(w);
      worker_loop(w, queue, files, schema, options,
                  *session, results[static_cast<size_t>(w)]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const Nanos makespan = real_now() - start;
  for (const WorkerResult& result : results) {
    if (!result.failure.is_ok()) return result.failure;
  }
  return assemble(std::move(results), workers, makespan);
}

Result<ParallelLoadReport> LoadCoordinator::run_sim(
    sim::Environment& env, client::SimServer& server,
    const std::vector<CatalogFile>& files, const db::Schema& schema,
    const CoordinatorOptions& options) {
  if (options.parallel_degree < 1) {
    return Status(ErrorCode::kInvalidArgument, "parallel_degree must be >= 1");
  }
  const int workers = options.parallel_degree;
  WorkQueue queue(files.size(), workers, options.dynamic_assignment);
  std::vector<WorkerResult> results(static_cast<size_t>(workers));
  const Nanos start = env.now();
  for (int w = 0; w < workers; ++w) {
    env.spawn("loader-" + std::to_string(w), [&, w] {
      client::SimSession session(server);
      worker_loop(w, queue, files, schema, options, session,
                  results[static_cast<size_t>(w)]);
    });
  }
  env.run();
  const Nanos makespan = env.now() - start;
  for (const WorkerResult& result : results) {
    if (!result.failure.is_ok()) return result.failure;
  }
  return assemble(std::move(results), workers, makespan);
}

}  // namespace sky::core
