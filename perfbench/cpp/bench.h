// Shared declarations of the perfbench runner: statistics, the in-memory
// span tracer, the generated world and its query pool, the `bdi serve`
// child process with its TCP client, and the correctness gates.
#ifndef PERFBENCH_CPP_BENCH_H_
#define PERFBENCH_CPP_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bdi/common/random.h"
#include "bdi/common/result.h"
#include "bdi/core/incremental_integrator.h"
#include "bdi/core/integrator.h"
#include "bdi/model/dataset.h"
#include "bdi/model/ground_truth.h"
#include "bdi/serve/protocol.h"
#include "bdi/serve/snapshot.h"
#include "bdi/serve/store.h"
#include "bdi/serve/wire.h"
#include "bdi/synth/world.h"

namespace perfbench {

using bdi::Dataset;
using bdi::Result;
using bdi::Status;

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile (`pct` in (0, 100]) of unsorted samples; 0 for
/// an empty set.
double Percentile(std::vector<double> samples, double pct);
double Median(std::vector<double> samples);

/// The tail rule: a percentile is reported as a tail only when at least
/// this many samples lie beyond its nearest rank.
inline constexpr size_t kTailMinBeyond = 10;

/// Samples strictly beyond the nearest rank of `pct` among `n` samples.
size_t SamplesBeyond(size_t n, double pct);

/// Smallest sample count for which `pct` satisfies the tail rule.
size_t MinSamplesForTail(double pct);

// ---------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------- windows

/// Latencies of a timed loop's ops, each with the time the op completed.
struct TimedSamples {
  std::vector<std::pair<Clock::time_point, double>> samples;

  void Add(Clock::time_point done, double ms) { samples.push_back({done, ms}); }
  size_t size() const { return samples.size(); }
};

/// The quiet windows of a timed loop. The machine shares its last-level
/// cache with other tenants, and their load slows this program by up to 2x
/// in spells of seconds (a cache-resident loop stays within 1 %), so a
/// statistic over the whole run mostly measures how much of it fell in
/// slow spells. The loop's ops, in completion order, are cut into windows
/// of a fixed number of consecutive ops; the windows are ranked by their
/// median latency and the fastest kQuietShare of them are kept. Every
/// window holds the same mix of work, so a change to the program shows in
/// every window, the kept ones too.
inline constexpr double kQuietShare = 0.125;

struct QuietWindows {
  std::vector<double> ms;  ///< latencies of the kept windows' ops
  /// Ops of the kept windows per second of their wall time (a window runs
  /// from the completion of the op before it to that of its last op).
  double ops_per_s = 0.0;
  size_t windows = 0;  ///< whole windows in the loop
  size_t kept = 0;
};

/// Windows kept out of `windows`.
size_t QuietWindowsKept(size_t windows);

/// `start` is when the loop began (the first window runs from it).
QuietWindows SelectQuietWindows(const TimedSamples& timed,
                                Clock::time_point start, size_t window_ops);

/// Smallest op count whose kept windows satisfy the tail rule for `pct`.
size_t MinOpsForQuietTail(double pct, size_t window_ops);

// ---------------------------------------------------------------- tracing

/// One timed call into a layer, recorded from outside the library.
struct Span {
  std::string name;     ///< "<layer>.<what>", e.g. "linkage.run"
  int64_t start_ns = 0;  ///< steady-clock offset from the tracer's origin
  int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 at top level
  uint64_t request = 0;   ///< spans of one op share this id
};

/// Keeps spans in memory (single-threaded use) and writes them out at the
/// end of the run. A disabled tracer records nothing and reads no clock,
/// so the same code path serves untraced and traced ops.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Opens a span that closes when the returned scope is destroyed.
  [[nodiscard]] Scope Open(const char* name, uint64_t request = 0);

  bool enabled() const { return enabled_; }
  /// Switches recording on or off between ops (no span may be open).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in milliseconds of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Self time per layer (the name before the first '.'), in ms: each
  /// span's duration minus the part of it its direct children cover.
  /// Spans of the requests in `skip` are left out.
  std::map<std::string, double> SelfMsByLayer(
      const std::set<uint64_t>& skip = {}) const;

  /// Writes the spans as JSON lines.
  Status Write(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------- world

/// Shape of the generated world; identical for every workload so the
/// workloads differ only in their traffic.
struct WorldShape {
  int entities = 1500;
  int sources = 16;
  int copiers = 4;
  /// Share of records held out of the bootstrap corpus and sent later as
  /// updates (serve_update only; 0 elsewhere).
  double held_out_share = 0.0;
};

/// A generated world split into a bootstrap corpus and held-out records.
struct BenchWorld {
  bdi::synth::SyntheticWorld world;
  /// World record indexes of the bootstrap corpus, in corpus order.
  std::vector<bdi::RecordIdx> bootstrap;
  /// World record indexes held out for updates, in send order.
  std::vector<bdi::RecordIdx> held_out;
};

BenchWorld MakeWorld(uint64_t seed, const WorldShape& shape);

/// A corpus holding `records` of `from` in the given order, with every
/// source of `from` registered in its original order.
Dataset CopyRecords(const Dataset& from,
                    const std::vector<bdi::RecordIdx>& records);

/// The held-out record `idx` of the world as a protocol update record.
bdi::serve::UpdateRecord ToUpdateRecord(const Dataset& world,
                                        bdi::RecordIdx idx);

/// Writes the bootstrap corpus as `<dir>/corpus.bds`; returns the path.
Result<std::string> WriteBootstrapCorpus(const BenchWorld& world,
                                         const std::string& dir);

/// The held-out records, in send order, cut into batches of
/// `batch_records` (a short tail is dropped).
std::vector<std::vector<bdi::serve::UpdateRecord>> MakeBatches(
    const BenchWorld& world, size_t batch_records);

/// JSON line of an update request carrying `records`.
std::string EncodeUpdate(const std::vector<bdi::serve::UpdateRecord>& records,
                         long long id);

/// Linkage and fusion quality of `report` over a corpus whose record i is
/// world record `order[i]`.
struct Quality {
  double linkage_f1 = 0.0;
  double fusion_precision = 0.0;
};
Quality EvaluateQuality(const BenchWorld& world, const Dataset& corpus,
                        const std::vector<bdi::RecordIdx>& order,
                        const bdi::core::IntegrationReport& report);

/// Distinct find/ask request lines over the bootstrap corpus: entity
/// queries (popular entities first), then hub-token queries (one very
/// common name token, matching many entities), then queries that match
/// nothing.
struct QueryPool {
  std::vector<std::string> lines;
  size_t entity_queries = 0;
  size_t hub_queries = 0;
  /// Draw weight of each entity query: its entity's bootstrap record count
  /// shared among that entity's queries.
  std::vector<double> entity_weights;
};
QueryPool MakeQueryPool(const BenchWorld& world, uint64_t seed, size_t size);

/// Draws pool indexes with a fixed traffic mix, so that the share of
/// expensive and empty queries does not depend on the seed: kHubShare
/// hub-token queries, kMissShare no-hit queries, and otherwise an entity
/// query, the entity drawn in proportion to its bootstrap record count (an
/// entity more sources list is asked about more often). The two shares are
/// assumptions, not measured from a query log.
class QuerySampler {
 public:
  static constexpr double kHubShare = 0.02;
  static constexpr double kMissShare = 0.03;

  explicit QuerySampler(const QueryPool& pool);
  size_t Draw(bdi::Rng* rng) const;

 private:
  size_t entity_queries_, hub_queries_, miss_queries_;
  /// Running sums of the entity query weights.
  std::vector<double> cumulative_;
};

// ---------------------------------------------------------------- serve

/// The store settings `bdi serve` uses with the flags the benchmark passes.
bdi::serve::StoreConfig CliStoreConfig(size_t threads,
                                       const std::string& wal_path);

/// Mirrors the store's writer state outside the store: a resident corpus
/// plus an IncrementalIntegrator configured as EntityStore configures its
/// own, fed the same update records.
class Mirror {
 public:
  /// `threads` is the store's --threads (snapshot build parallelism).
  Mirror(Dataset bootstrap, size_t threads);
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  /// Appends records the way EntityStore::ApplyBatch interns them.
  void Append(const std::vector<bdi::serve::UpdateRecord>& records);
  /// Integrates everything appended since the last call.
  size_t Refresh() { return integrator_->Refresh(); }
  std::shared_ptr<const bdi::serve::Snapshot> Build(uint64_t version) const;

  const Dataset& dataset() const { return dataset_; }
  const bdi::core::IntegrationReport& report() const {
    return integrator_->report();
  }

 private:
  Dataset dataset_;
  size_t threads_;
  std::unordered_map<std::string, bdi::SourceId> source_ids_;
  std::unique_ptr<bdi::core::IncrementalIntegrator> integrator_;
};

/// A `bdi serve --port 0` child process.
class ServerProcess {
 public:
  /// Starts `bdi serve` with `args` appended and BDI_NUM_THREADS set, and
  /// waits for its "listening on <port>" line.
  static Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& bdi, const std::vector<std::string>& args,
      size_t threads, const std::string& log_path);

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  /// Kills and reaps the process if Shutdown() did not.
  ~ServerProcess();

  int port() const { return port_; }
  Clock::time_point started() const { return started_; }
  /// Peak resident set of the process so far (VmHWM), in MiB.
  double PeakRssMb() const;
  /// Sends a shutdown request and reaps the process. Every other client
  /// connection must be closed first: the server joins them on exit.
  Status Shutdown();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int port_ = 0;
  Clock::time_point started_;
};

/// One blocking line-oriented TCP connection to the server.
class Connection {
 public:
  static Result<std::unique_ptr<Connection>> Open(int port);
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  /// Spin on the socket instead of sleeping while waiting for a response,
  /// so that a response is seen as soon as it arrives and the client's own
  /// wake-up latency stays out of sub-millisecond timings. Costs a core.
  void set_busy_poll(bool on) { busy_poll_ = on; }

  Status Send(const std::string& line);
  /// Reads one response line; times out after `timeout_ms`.
  Result<std::string> ReadLine(int timeout_ms);
  /// Waits up to `timeout` for data; true once a full response line is
  /// buffered.
  Result<bool> WaitReadable(std::chrono::nanoseconds timeout);
  Result<std::string> Call(const std::string& line, int timeout_ms = 60000);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  /// Appends what one recv returns; false when nothing was waiting.
  Result<bool> Receive(int flags);

  int fd_;
  bool busy_poll_ = false;
  std::string buffer_;
};

/// Polls `stats` until the server answers; returns the answer.
Result<std::string> WaitForStats(Connection* connection);

// ---------------------------------------------------------------- gates

struct Outcome;

/// Collects gate failures; a run with any failure is not correct.
class Gates {
 public:
  void Check(bool ok, const std::string& what);
  bool passed() const { return failures_.empty(); }

  /// Sets `out->correct` and lists the failures in the report.
  void Record(Outcome* out) const;

 private:
  std::vector<std::string> failures_;
};

/// Staged pipeline == Integrator::Run: same record labels and the same
/// chosen values (and confidences).
bool SameIntegration(const bdi::core::IntegrationReport& a,
                     const bdi::core::IntegrationReport& b);

/// A TCP response to a find/ask/stats request answers it exactly as the
/// snapshot does (fields compared after parsing, so the check does not
/// depend on the response's version tag). `batches` is the store's batch
/// count for stats.
bool ResponseMatchesSnapshot(const std::string& request,
                             const std::string& response,
                             const bdi::serve::Snapshot& snapshot,
                             uint64_t batches);

// ---------------------------------------------------------------- output

/// Metrics of one run, printed as the result line.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Free-form JSON members for the report line (settings, sample counts,
  /// generator lateness, gate failures).
  std::vector<std::pair<std::string, std::string>> notes;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Note(const std::string& key, const std::string& json) {
    notes.push_back({key, json});
  }
};

/// The outcome of a run that could not be carried out at all.
Outcome Aborted(const Status& status);

/// Everything a workload needs to run.
struct RunContext {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string bdi_path;  ///< the `bdi` CLI binary
  std::string work_dir;  ///< scratch directory for corpora, WALs, traces
  size_t nproc = 1;
};

Outcome RunIntegrate(const RunContext& ctx);
Outcome RunServeRead(const RunContext& ctx);
Outcome RunServeUpdate(const RunContext& ctx);
Outcome RunTraced(const RunContext& ctx);

/// Settings each workload runs with; recorded in every result.
struct WorkloadSettings {
  WorldShape shape;
  size_t program_threads = 1;  ///< BDI_NUM_THREADS / --threads
  size_t connections = 0;
  size_t generator_threads = 0;
  double tail_pct = 99.0;       ///< op_tail_ms percentile
  double read_tail_pct = 99.0;  ///< read_tail_ms percentile
  size_t window_ops = 1;        ///< ops per quiet-window (op_* metrics)
  size_t read_window_ops = 1;   ///< reads per quiet-window (read_* metrics)
  double read_rate_per_s = 0.0;
  size_t batch_records = 0;
  size_t pool_size = 0;
};
WorkloadSettings SettingsFor(const std::string& workload);
std::string SettingsJson(const WorkloadSettings& settings);

std::string JsonString(const std::string& s);
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_BENCH_H_
