// The three end-to-end workloads, measured with tracing off.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <thread>

#include "bdi/serve/server.h"
#include "bdi/storage/dataset_reader.h"
#include "cpp/bench.h"

namespace perfbench {

namespace {

constexpr int kCallTimeoutMs = 60000;
/// Server starts timed per run; setup_s is their median. The first
/// kSetupBefore come before the measured loop and the rest after it, so
/// that they do not all fall in one of the machine's speed spells.
constexpr int kSetupRepeats = 11;
constexpr int kSetupBefore = 6;
/// A loop that has not collected enough samples for its tail percentile
/// by --seconds keeps going, up to this multiple of --seconds.
constexpr double kMaxStretch = 3.0;

/// Resets the peak-RSS mark of this process (Linux clear_refs "5").
void ResetOwnPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double OwnPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

Result<Dataset> Load(const std::string& path) {
  return bdi::storage::ReadDatasetAuto(path);
}

/// Starts `bdi serve` `count` times, numbering the starts from `first`
/// (each with a WAL of its own); each start is timed from process start to
/// its first `stats` answer. Returns the last server, still running, and
/// appends the set-up times in seconds.
Result<std::unique_ptr<ServerProcess>> StartServers(
    const RunContext& ctx, const std::string& corpus, size_t threads,
    bool with_wal, int first, int count, std::vector<double>* setup_s) {
  std::unique_ptr<ServerProcess> server;
  for (int i = first; i < first + count; ++i) {
    if (server != nullptr) BDI_RETURN_IF_ERROR(server->Shutdown());
    std::vector<std::string> args = {"--in", corpus, "--port", "0",
                                     "--threads", std::to_string(threads)};
    if (with_wal) {
      std::string wal = ctx.work_dir + "/wal-" + std::to_string(i) + ".log";
      std::remove(wal.c_str());
      args.insert(args.end(), {"--wal", wal});
    }
    BDI_ASSIGN_OR_RETURN(server,
                         ServerProcess::Start(ctx.bdi_path, args, threads,
                                              ctx.work_dir + "/serve.log"));
    BDI_ASSIGN_OR_RETURN(std::unique_ptr<Connection> connection,
                         Connection::Open(server->port()));
    BDI_ASSIGN_OR_RETURN(std::string stats, WaitForStats(connection.get()));
    if (!IsOk(stats)) return Status::Internal("perfbench: stats failed: " + stats);
    setup_s->push_back(MsSince(server->started()) / 1000.0);
  }
  return server;
}

/// The set-up starts after the measured loop; stops each server again.
Status StartMoreServers(const RunContext& ctx, const std::string& corpus,
                        size_t threads, bool with_wal,
                        std::vector<double>* setup_s) {
  BDI_ASSIGN_OR_RETURN(std::unique_ptr<ServerProcess> server,
                       StartServers(ctx, corpus, threads, with_wal,
                                    kSetupBefore, kSetupRepeats - kSetupBefore,
                                    setup_s));
  return server->Shutdown();
}

/// Reports the p50 and tail of the loop's quiet windows and returns them.
/// The report line also gets the whole loop's p50 and sample count.
QuietWindows AddLatencyMetrics(Outcome* out, const std::string& prefix,
                               const TimedSamples& timed,
                               Clock::time_point start, size_t window_ops,
                               double tail_pct, Gates* gates) {
  QuietWindows quiet = SelectQuietWindows(timed, start, window_ops);
  const std::vector<double>& ms = quiet.ms;
  out->Metric(prefix + "_p50_ms", Median(ms), "ms");
  out->Metric(prefix + "_tail_ms", Percentile(ms, tail_pct), "ms");
  gates->Check(SamplesBeyond(ms.size(), tail_pct) >= kTailMinBeyond,
               prefix + " tail p" + JsonNumber(tail_pct) + " has only " +
                   std::to_string(SamplesBeyond(ms.size(), tail_pct)) +
                   " samples beyond it (" + std::to_string(ms.size()) +
                   " samples)");
  std::vector<double> all;
  for (const auto& [done, sample_ms] : timed.samples) all.push_back(sample_ms);
  out->Note(prefix + "_samples", std::to_string(ms.size()));
  out->Note(prefix + "_tail_pct", JsonNumber(tail_pct));
  out->Note(prefix + "_windows",
            "{\"ops\":" + std::to_string(window_ops) +
                ",\"count\":" + std::to_string(quiet.windows) +
                ",\"kept\":" + std::to_string(quiet.kept) +
                ",\"all_samples\":" + std::to_string(all.size()) +
                ",\"all_p50_ms\":" + JsonNumber(Median(all)) + "}");
  return quiet;
}

void Finish(Outcome* out, const Gates& gates, uint64_t ok) {
  out->Metric("ok_ratio",
              out->attempted == 0
                  ? 0.0
                  : static_cast<double>(ok) / static_cast<double>(out->attempted),
              "ratio");
  gates.Record(out);
}

}  // namespace

Outcome RunIntegrate(const RunContext& ctx) {
  const WorkloadSettings settings = SettingsFor(ctx.workload);
  BenchWorld world = MakeWorld(ctx.seed, settings.shape);
  Result<std::string> path = WriteBootstrapCorpus(world, ctx.work_dir);
  if (!path.ok()) return Aborted(path.status());

  // Set-up is the corpus load, a few milliseconds. It is timed before the
  // run and again after every integration, and setup_s is the median over
  // the loads' quiet windows: the machine's speed changes in spells of
  // seconds, so loads taken back to back all fall in one spell, and their
  // median moved by a third from run to run.
  TimedSamples load_ms;
  const Clock::time_point setup_start = Clock::now();
  auto timed_load = [&]() {
    Clock::time_point start = Clock::now();
    Result<Dataset> loaded = Load(*path);
    load_ms.Add(Clock::now(), MsSince(start));
    return loaded;
  };
  Result<Dataset> loaded = timed_load();
  if (!loaded.ok()) return Aborted(loaded.status());
  const Dataset corpus = std::move(*loaded);
  ResetOwnPeakRss();

  Outcome out;
  Gates gates;
  uint64_t ok = 0;
  bdi::core::Integrator integrator;
  // Warm-up: the first run fills the executor pool and allocator caches.
  const bdi::core::IntegrationReport reference = integrator.Run(corpus);
  TimedSamples op_ms, view_ms;
  const size_t min_ops =
      std::max(MinOpsForQuietTail(settings.tail_pct, settings.window_ops),
               MinOpsForQuietTail(settings.read_tail_pct,
                                  settings.read_window_ops));
  Clock::time_point start = Clock::now();
  while (true) {
    double elapsed_s = MsSince(start) / 1000.0;
    if ((elapsed_s >= ctx.seconds && op_ms.size() >= min_ops) ||
        elapsed_s >= ctx.seconds * kMaxStretch) {
      break;
    }
    Clock::time_point op_start = Clock::now();
    bdi::core::IntegrationReport report = integrator.Run(corpus);
    op_ms.Add(Clock::now(), MsSince(op_start));
    // The batch user's read: the fresh result as browsable entities.
    Clock::time_point view_start = Clock::now();
    std::vector<bdi::core::IntegratedEntity> view =
        bdi::core::MaterializeEntities(report, corpus,
                                       std::numeric_limits<size_t>::max());
    view_ms.Add(Clock::now(), MsSince(view_start));
    ++out.attempted;
    if (SameIntegration(report, reference) && !view.empty()) {
      ++ok;
    } else {
      ++out.failed;
    }
    // The next set-up sample; this copy of the corpus is not used.
    Result<Dataset> reloaded = timed_load();
    if (!reloaded.ok()) return Aborted(reloaded.status());
  }
  gates.Check(out.failed == 0, "every integration equals the warm-up run");

  Quality quality = EvaluateQuality(world, corpus, world.bootstrap, reference);
  out.Metric("setup_s",
             Median(SelectQuietWindows(load_ms, setup_start,
                                       settings.window_ops).ms) / 1000.0,
             "s");
  QuietWindows quiet = AddLatencyMetrics(&out, "op", op_ms, start,
                                         settings.window_ops,
                                         settings.tail_pct, &gates);
  AddLatencyMetrics(&out, "read", view_ms, start, settings.read_window_ops,
                    settings.read_tail_pct, &gates);
  out.Metric("ops_per_s", quiet.ops_per_s, "1/s");
  out.Metric("peak_rss_mb", OwnPeakRssMb(), "MiB");
  out.Metric("linkage_f1", quality.linkage_f1, "ratio");
  out.Metric("fusion_precision", quality.fusion_precision, "ratio");
  Finish(&out, gates, ok);
  return out;
}

Outcome RunServeRead(const RunContext& ctx) {
  const WorkloadSettings settings = SettingsFor(ctx.workload);
  const size_t threads = settings.program_threads;
  BenchWorld world = MakeWorld(ctx.seed, settings.shape);
  Result<std::string> path = WriteBootstrapCorpus(world, ctx.work_dir);
  if (!path.ok()) return Aborted(path.status());
  const QueryPool pool =
      MakeQueryPool(world, ctx.seed, settings.pool_size);

  std::vector<double> setup_s;
  Result<std::unique_ptr<ServerProcess>> server =
      StartServers(ctx, *path, threads, /*with_wal=*/false, 0, kSetupBefore,
                   &setup_s);
  if (!server.ok()) return Aborted(server.status());

  // In-process reference on the same state, for the byte-equality gate,
  // and a mirror integration of the same corpus for quality.
  Result<Dataset> reference_corpus = Load(*path);
  if (!reference_corpus.ok()) return Aborted(reference_corpus.status());
  Result<std::unique_ptr<bdi::serve::EntityStore>> store =
      bdi::serve::EntityStore::Create(std::move(*reference_corpus),
                                      CliStoreConfig(threads, ""));
  if (!store.ok()) return Aborted(store.status());
  bdi::serve::ServerConfig server_config;
  server_config.num_threads = threads;
  bdi::serve::Server in_process((*store).get(), server_config);
  Result<Dataset> mirror_corpus = Load(*path);
  if (!mirror_corpus.ok()) return Aborted(mirror_corpus.status());
  Mirror mirror(std::move(*mirror_corpus), threads);
  mirror.Refresh();

  // Closed loop: each connection sends its next request when the previous
  // answer arrived; requests follow the fixed traffic mix of QuerySampler.
  struct Worker {
    TimedSamples op_ms, find_ms;
    std::map<size_t, std::string> sampled;  // pool index -> response
    uint64_t attempted = 0, ok = 0;
    std::string error;
  };
  const size_t connections = settings.connections;
  std::vector<Worker> workers(connections);
  std::barrier sync(static_cast<std::ptrdiff_t>(connections + 1));
  Clock::time_point start, deadline;
  const QuerySampler sampler(pool);
  std::vector<std::thread> pool_threads;
  for (size_t t = 0; t < connections; ++t) {
    pool_threads.emplace_back([&, t]() {
      Worker& w = workers[t];
      bdi::Rng rng(ctx.seed * 7919 + t);
      Result<std::unique_ptr<Connection>> connection =
          Connection::Open((*server)->port());
      if (connection.ok()) (*connection)->set_busy_poll(true);
      // Warm-up, untimed.
      for (int i = 0; connection.ok() && i < 200; ++i) {
        (void)(*connection)->Call(pool.lines[sampler.Draw(&rng)], kCallTimeoutMs);
      }
      sync.arrive_and_wait();  // warm-up done
      sync.arrive_and_wait();  // start and deadline published
      if (!connection.ok()) {
        w.error = connection.status().ToString();
        return;
      }
      while (Clock::now() < deadline) {
        const size_t idx = sampler.Draw(&rng);
        Clock::time_point sent = Clock::now();
        Result<std::string> response =
            (*connection)->Call(pool.lines[idx], kCallTimeoutMs);
        const Clock::time_point done = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(done - sent).count();
        ++w.attempted;
        if (!response.ok()) {
          w.error = response.status().ToString();
          break;
        }
        w.op_ms.Add(done, ms);
        if (pool.lines[idx].rfind("{\"op\":\"find\"", 0) == 0) w.find_ms.Add(done, ms);
        if (IsOk(*response)) ++w.ok;
        if (idx % 8 == 0) w.sampled.emplace(idx, std::move(*response));
      }
    });
  }
  sync.arrive_and_wait();
  start = Clock::now();
  deadline = start + std::chrono::microseconds(
                         static_cast<int64_t>(ctx.seconds * 1e6));
  sync.arrive_and_wait();
  for (std::thread& thread : pool_threads) thread.join();

  Outcome out;
  Gates gates;
  uint64_t ok = 0;
  TimedSamples op_ms, find_ms;
  size_t checked = 0, matched = 0;
  for (const Worker& w : workers) {
    gates.Check(w.error.empty(), "connection error: " + w.error);
    out.attempted += w.attempted;
    ok += w.ok;
    op_ms.samples.insert(op_ms.samples.end(), w.op_ms.samples.begin(),
                         w.op_ms.samples.end());
    find_ms.samples.insert(find_ms.samples.end(), w.find_ms.samples.begin(),
                           w.find_ms.samples.end());
    for (const auto& [idx, response] : w.sampled) {
      ++checked;
      if (in_process.HandleLine(pool.lines[idx]) == response) ++matched;
    }
  }
  out.failed = out.attempted - ok;
  gates.Check(checked > 0 && matched == checked,
              "TCP answers byte-equal to in-process HandleLine (" +
                  std::to_string(matched) + "/" + std::to_string(checked) + ")");
  gates.Check((*store)->snapshot()->DebugString() ==
                  mirror.Build(1)->DebugString(),
              "mirror integration equals the store's bootstrap state");
  out.Note("gate_sampled_answers", std::to_string(checked));

  const double peak_rss_mb = (*server)->PeakRssMb();
  Status stopped = (*server)->Shutdown();
  gates.Check(stopped.ok(), "server shutdown: " + stopped.ToString());
  stopped = StartMoreServers(ctx, *path, threads, /*with_wal=*/false, &setup_s);
  gates.Check(stopped.ok(),
              "server starts after the run: " + stopped.ToString());

  Quality quality =
      EvaluateQuality(world, mirror.dataset(), world.bootstrap, mirror.report());
  out.Metric("setup_s", Median(setup_s), "s");
  QuietWindows quiet = AddLatencyMetrics(&out, "op", op_ms, start,
                                         settings.window_ops,
                                         settings.tail_pct, &gates);
  AddLatencyMetrics(&out, "read", find_ms, start, settings.read_window_ops,
                    settings.read_tail_pct, &gates);
  out.Metric("ops_per_s", quiet.ops_per_s, "1/s");
  out.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  out.Metric("linkage_f1", quality.linkage_f1, "ratio");
  out.Metric("fusion_precision", quality.fusion_precision, "ratio");
  Finish(&out, gates, ok);
  return out;
}

Outcome RunServeUpdate(const RunContext& ctx) {
  const WorkloadSettings settings = SettingsFor(ctx.workload);
  const size_t threads = settings.program_threads;
  BenchWorld world = MakeWorld(ctx.seed, settings.shape);
  Result<std::string> path = WriteBootstrapCorpus(world, ctx.work_dir);
  if (!path.ok()) return Aborted(path.status());
  const QueryPool pool =
      MakeQueryPool(world, ctx.seed, settings.pool_size);

  std::vector<double> setup_s;
  Result<std::unique_ptr<ServerProcess>> server =
      StartServers(ctx, *path, threads, /*with_wal=*/true, 0, kSetupBefore,
                   &setup_s);
  if (!server.ok()) return Aborted(server.status());
  Result<std::unique_ptr<Connection>> writer = Connection::Open((*server)->port());
  Result<std::unique_ptr<Connection>> reader = Connection::Open((*server)->port());
  if (!writer.ok()) return Aborted(writer.status());
  if (!reader.ok()) return Aborted(reader.status());
  (*reader)->set_busy_poll(true);

  // Update batches: held-out records of the same world, in send order.
  const size_t batch = settings.batch_records;
  const std::vector<std::vector<bdi::serve::UpdateRecord>> batches =
      MakeBatches(world, batch);

  bdi::Rng rng(ctx.seed * 104729);
  const QuerySampler sampler(pool);
  // Warm-up, untimed: a few reads and one update batch.
  for (int i = 0; i < 50; ++i) {
    (void)(*reader)->Call(pool.lines[sampler.Draw(&rng)], kCallTimeoutMs);
  }
  size_t sent_batches = 0;
  uint64_t warm_ok = 0;
  {
    Result<std::string> warm = (*writer)->Call(EncodeUpdate(batches[0], 0));
    if (warm.ok() && IsOk(*warm)) ++warm_ok;
    sent_batches = 1;
  }

  Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(ctx.seconds * 1e6));
  const Clock::time_point last_call = start + std::chrono::microseconds(
      static_cast<int64_t>(ctx.seconds * kMaxStretch * 1e6));
  const size_t min_updates =
      MinOpsForQuietTail(settings.tail_pct, settings.window_ops);

  // Closed-loop writer: next batch as soon as the previous one is acked,
  // until --seconds have passed and the tail has enough samples. The
  // reader sends until the writer stops.
  TimedSamples update_ms;
  uint64_t updates_attempted = 0, updates_ok = 0;
  std::string writer_error;
  std::atomic<bool> writing{true};
  std::thread writer_thread([&]() {
    while ((Clock::now() < deadline || update_ms.size() < min_updates) &&
           Clock::now() < last_call && sent_batches < batches.size()) {
      std::string line = EncodeUpdate(batches[sent_batches],
                                      static_cast<long long>(sent_batches));
      Clock::time_point sent = Clock::now();
      Result<std::string> ack = (*writer)->Call(line, kCallTimeoutMs * 2);
      ++sent_batches;
      ++updates_attempted;
      if (!ack.ok()) {
        writer_error = ack.status().ToString();
        break;
      }
      update_ms.Add(Clock::now(), MsSince(sent));
      if (IsOk(*ack)) ++updates_ok;
    }
    writing.store(false);
  });

  // Open-loop reader: request i is due at start + i / rate whatever the
  // server is doing; latency runs from the due time, so a stall also
  // charges the requests queued behind it.
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / settings.read_rate_per_s));
  std::deque<Clock::time_point> outstanding;
  TimedSamples read_ms;
  std::vector<double> lateness_ms;
  uint64_t reads_attempted = 0, reads_ok = 0;
  std::string reader_error;
  Clock::time_point next_due = start;
  bool sending = true;
  while (reader_error.empty() && (sending || !outstanding.empty())) {
    sending = sending && writing.load();
    Clock::time_point now = Clock::now();
    if (sending && now >= next_due) {
      lateness_ms.push_back(
          std::chrono::duration<double, std::milli>(now - next_due).count());
      Status sent = (*reader)->Send(pool.lines[sampler.Draw(&rng)]);
      ++reads_attempted;
      if (!sent.ok()) {
        reader_error = sent.ToString();
        break;
      }
      outstanding.push_back(next_due);
      next_due += interval;
      continue;
    }
    const std::chrono::nanoseconds wait =
        sending ? std::chrono::nanoseconds(next_due - now)
                : std::chrono::nanoseconds(
                      std::chrono::milliseconds(kCallTimeoutMs));
    Result<bool> readable = (*reader)->WaitReadable(wait);
    if (!readable.ok()) {
      reader_error = readable.status().ToString();
      break;
    }
    if (!*readable) {
      if (!sending) reader_error = "read timed out";
      continue;
    }
    Result<std::string> response = (*reader)->ReadLine(kCallTimeoutMs);
    if (!response.ok()) {
      reader_error = response.status().ToString();
      break;
    }
    read_ms.Add(Clock::now(), MsSince(outstanding.front()));
    outstanding.pop_front();
    if (IsOk(*response)) ++reads_ok;
  }
  writer_thread.join();

  Outcome out;
  Gates gates;
  gates.Check(writer_error.empty(), "writer: " + writer_error);
  gates.Check(reader_error.empty(), "reader: " + reader_error);
  gates.Check(warm_ok == 1, "warm-up update acknowledged");
  gates.Check(sent_batches < batches.size(),
              "held-out records lasted the whole run");

  // Mirror: the same bootstrap plus every sent batch, integrated as one
  // refresh (the store's K batches == 1 batch contract), must answer the
  // sampled requests and `stats` exactly as the server does.
  Result<Dataset> mirror_corpus = Load(*path);
  if (!mirror_corpus.ok()) return Aborted(mirror_corpus.status());
  Mirror mirror(std::move(*mirror_corpus), threads);
  mirror.Refresh();
  std::vector<bdi::RecordIdx> order = world.bootstrap;
  for (size_t b = 0; b < sent_batches; ++b) {
    mirror.Append(batches[b]);
    for (size_t j = 0; j < batch; ++j) order.push_back(world.held_out[b * batch + j]);
  }
  mirror.Refresh();
  std::shared_ptr<const bdi::serve::Snapshot> mirrored = mirror.Build(0);
  std::vector<std::string> probes = {"{\"op\":\"stats\"}"};
  for (size_t i = 0; i < pool.lines.size(); i += std::max<size_t>(1, pool.lines.size() / 200)) {
    probes.push_back(pool.lines[i]);
  }
  size_t matched = 0;
  for (const std::string& probe : probes) {
    Result<std::string> answer = (*reader)->Call(probe, kCallTimeoutMs);
    if (answer.ok() &&
        ResponseMatchesSnapshot(probe, *answer, *mirrored, sent_batches)) {
      ++matched;
    }
  }
  gates.Check(matched == probes.size(),
              "server answers equal the mirror's after the updates (" +
                  std::to_string(matched) + "/" +
                  std::to_string(probes.size()) + ")");
  out.Note("gate_sampled_answers", std::to_string(probes.size()));

  const double peak_rss_mb = (*server)->PeakRssMb();
  writer->reset();
  reader->reset();
  Status stopped = (*server)->Shutdown();
  gates.Check(stopped.ok(), "server shutdown: " + stopped.ToString());
  stopped = StartMoreServers(ctx, *path, threads, /*with_wal=*/true, &setup_s);
  gates.Check(stopped.ok(),
              "server starts after the run: " + stopped.ToString());

  out.attempted = updates_attempted + reads_attempted;
  const uint64_t ok = updates_ok + reads_ok;
  out.failed = out.attempted - ok;
  Quality quality =
      EvaluateQuality(world, mirror.dataset(), order, mirror.report());
  out.Metric("setup_s", Median(setup_s), "s");
  QuietWindows quiet = AddLatencyMetrics(&out, "op", update_ms, start,
                                         settings.window_ops,
                                         settings.tail_pct, &gates);
  AddLatencyMetrics(&out, "read", read_ms, start, settings.read_window_ops,
                    settings.read_tail_pct, &gates);
  out.Metric("ops_per_s", quiet.ops_per_s, "1/s");
  out.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  out.Metric("linkage_f1", quality.linkage_f1, "ratio");
  out.Metric("fusion_precision", quality.fusion_precision, "ratio");
  out.Note("generator_lateness_ms",
           "{\"p50\":" + JsonNumber(Median(lateness_ms)) +
               ",\"p99\":" + JsonNumber(Percentile(lateness_ms, 99.0)) +
               ",\"max\":" + JsonNumber(Percentile(lateness_ms, 100.0)) + "}");
  out.Note("updates_sent", std::to_string(sent_batches));
  Finish(&out, gates, ok);
  return out;
}

}  // namespace perfbench
