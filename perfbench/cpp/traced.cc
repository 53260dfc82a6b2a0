// The traced run: per-layer times measured from outside, around calls into
// each layer's public functions. No instrumentation is added to the
// library; its own metrics registry is switched on and attached as counts.
//
// The ops of the phase a workload times alternate between tracing off and
// tracing on (spans and registry); each op is also timed with plain clock
// reads, so the difference of the two medians is the tracing overhead.
#include <algorithm>
#include <fstream>
#include <numeric>

#include "bdi/common/metrics.h"
#include "bdi/common/trace.h"
#include "bdi/fusion/accu_copy.h"
#include "bdi/linkage/linkage.h"
#include "bdi/schema/linkage_refinement.h"
#include "bdi/schema/matchers.h"
#include "bdi/serve/server.h"
#include "bdi/storage/dataset_reader.h"
#include "cpp/bench.h"

namespace perfbench {

namespace {

using bdi::core::IntegrationReport;

struct Staged {
  IntegrationReport report;
  size_t copy_dependencies = 0;
};

/// Integrator::Run's stages called one by one, each inside a span.
Staged RunStaged(const Dataset& dataset,
                 const bdi::core::IntegratorConfig& config, Tracer* tracer,
                 uint64_t request) {
  Staged out;
  IntegrationReport& report = out.report;
  {
    Tracer::Scope span = tracer->Open("schema.align", request);
    report.stats = bdi::schema::AttributeStatistics::Compute(dataset);
    std::vector<bdi::schema::AttrEdge> edges =
        bdi::schema::BuildCandidateEdges(report.stats, config.attr_match);
    report.schema = bdi::schema::BuildMediatedSchema(report.stats, edges,
                                                     config.mediated_schema);
    report.normalizer =
        bdi::schema::ValueNormalizer::Fit(report.stats, report.schema);
  }
  std::optional<bdi::linkage::Linker> linker;
  {
    Tracer::Scope span = tracer->Open("linkage.prepare", request);
    linker.emplace(&dataset, config.linker, &report.schema, &report.normalizer);
  }
  {
    Tracer::Scope span = tracer->Open("linkage.run", request);
    report.linkage = linker->Run();
  }
  if (config.linkage_feedback) {
    Tracer::Scope span = tracer->Open("schema.feedback", request);
    bdi::schema::LinkageRefinementReport refinement =
        bdi::schema::RefineSchemaWithLinkage(
            dataset, report.stats, report.schema, report.normalizer,
            report.linkage.clusters.label_of_record, config.refinement);
    report.feedback_merges = refinement.merges;
    if (refinement.merges > 0) {
      report.schema = std::move(refinement.schema);
      report.normalizer =
          bdi::schema::ValueNormalizer::Fit(report.stats, report.schema);
    }
  }
  {
    Tracer::Scope span = tracer->Open("fusion.claims", request);
    report.claims = bdi::fusion::ClaimDb::FromPipeline(
        dataset, report.linkage.clusters, report.schema, report.normalizer,
        &linker->roles());
    if (config.numeric_snap_tolerance > 0.0) {
      report.claims.CanonicalizeNumericValues(config.numeric_snap_tolerance);
    }
  }
  {
    Tracer::Scope span = tracer->Open("fusion.resolve", request);
    bdi::fusion::AccuCopyFusion fusion(config.accu_copy);
    report.fusion = fusion.Resolve(report.claims);
    for (const bdi::fusion::SourceDependence& d : fusion.last_dependencies()) {
      if (d.probability >= 0.5) ++out.copy_dependencies;
    }
  }
  return out;
}

/// The phase a workload times. Its ops alternate between untraced and
/// traced, so slow drift in machine speed cancels out of the overhead.
enum class Emphasis { kPipeline, kQueries, kBatches };

struct Sweep {
  std::optional<Staged> staged;
  std::vector<double> handle_us, transport_us, wal_ms, comparisons, find_hits;
  /// Wall time of each op of the emphasized phase, by tracing state.
  std::vector<double> traced_op_ms, untraced_op_ms;
  size_t ops = 0;
  /// Traced ops of the emphasized phase past its counted ones, and the
  /// registry counts they added. Both are left out of the totals (self
  /// times, span and registry counts), so the totals cover a fixed number
  /// of ops and do not grow with the speed of the machine.
  std::set<uint64_t> uncounted;
  std::map<std::string, uint64_t> uncounted_registry;
};

void SetTracing(Tracer* tracer, bool on) {
  tracer->set_enabled(on);
  bdi::metrics::SetEnabled(on);
}

std::map<std::string, uint64_t> RegistryCounters() {
  std::map<std::string, uint64_t> out;
  for (const bdi::metrics::CounterSample& counter :
       bdi::metrics::Registry::Get().TakeSnapshot().counters) {
    out[counter.name] = counter.value;
  }
  return out;
}

/// Runs one phase, whose first `counted` traced ops make up the totals. A
/// phase that is not emphasized runs just those ops, all traced. The
/// emphasized phase runs for `budget_s` and at least 2 × `counted` ops,
/// alternating untraced and traced; its later traced ops feed the medians
/// only. `op(request)` runs one op and returns false when there is nothing
/// left to do.
template <typename Op>
Status RunPhase(bool emphasized, size_t counted, double budget_s,
                Tracer* tracer, Sweep* sweep, uint64_t* request, Op op) {
  const Clock::time_point start = Clock::now();
  size_t traced_ops = 0;
  std::map<std::string, uint64_t> at_counted_end;
  Status status = Status::OK();
  for (size_t i = 0;; ++i) {
    if (emphasized ? i >= 2 * counted && MsSince(start) >= budget_s * 1000.0
                   : i >= counted) {
      break;
    }
    const bool traced = !emphasized || i % 2 == 1;
    if (traced && traced_ops == counted) at_counted_end = RegistryCounters();
    const uint64_t id = ++*request;
    SetTracing(tracer, traced);
    const Clock::time_point op_start = Clock::now();
    Result<bool> more = op(id);
    const double ms = MsSince(op_start);
    SetTracing(tracer, true);
    if (traced && traced_ops++ >= counted) sweep->uncounted.insert(id);
    if (!more.ok()) {
      status = more.status();
      break;
    }
    if (!*more) break;
    ++sweep->ops;
    if (emphasized) {
      (traced ? sweep->traced_op_ms : sweep->untraced_op_ms).push_back(ms);
    }
  }
  if (traced_ops > counted) {
    for (const auto& [name, value] : RegistryCounters()) {
      sweep->uncounted_registry[name] += value - at_counted_end[name];
    }
  }
  return status;
}

Result<Sweep> RunSweep(const RunContext& ctx, const WorkloadSettings& settings,
                       const std::string& corpus_path, const QueryPool& pool,
                       const std::vector<std::vector<bdi::serve::UpdateRecord>>&
                           batches,
                       Emphasis emphasis, Tracer* tracer, Gates* gates) {
  Sweep sweep;
  const size_t threads = settings.program_threads;
  const double budget_s = ctx.seconds * 0.6;
  uint64_t request = 0;
  std::optional<Dataset> corpus;

  // storage: the corpus load.
  BDI_RETURN_IF_ERROR(RunPhase(
      false, 5, budget_s, tracer, &sweep, &request,
      [&](uint64_t id) -> Result<bool> {
        Tracer::Scope span = tracer->Open("storage.read", id);
        BDI_ASSIGN_OR_RETURN(Dataset loaded,
                             bdi::storage::ReadDatasetAuto(corpus_path));
        corpus.emplace(std::move(loaded));
        return true;
      }));

  // schema, linkage, fusion: the staged pipeline.
  const bdi::core::IntegratorConfig config;
  BDI_RETURN_IF_ERROR(RunPhase(
      emphasis == Emphasis::kPipeline, 3, budget_s, tracer, &sweep, &request,
      [&](uint64_t id) -> Result<bool> {
        Tracer::Scope span = tracer->Open("pipeline.op", id);
        Staged staged = RunStaged(*corpus, config, tracer, id);
        if (tracer->enabled()) sweep.staged = std::move(staged);
        return true;
      }));

  // serve: store creation and the request path in process.
  BDI_ASSIGN_OR_RETURN(Dataset store_corpus,
                       bdi::storage::ReadDatasetAuto(corpus_path));
  const std::string wal = ctx.work_dir + "/traced-wal.log";
  std::remove(wal.c_str());
  std::unique_ptr<bdi::serve::EntityStore> store;
  {
    Tracer::Scope span = tracer->Open("serve.store_create", ++request);
    BDI_ASSIGN_OR_RETURN(
        store, bdi::serve::EntityStore::Create(std::move(store_corpus),
                                               CliStoreConfig(threads, wal)));
  }
  bdi::serve::ServerConfig server_config;
  server_config.num_threads = threads;
  bdi::serve::Server server(store.get(), server_config);

  bdi::Rng rng(ctx.seed * 31337);
  const QuerySampler sampler(pool);
  std::vector<size_t> asked;
  std::vector<std::string> answers;
  BDI_RETURN_IF_ERROR(RunPhase(
      emphasis == Emphasis::kQueries, 300, budget_s, tracer, &sweep, &request,
      [&](uint64_t id) -> Result<bool> {
        const size_t idx = sampler.Draw(&rng);
        const std::string& line = pool.lines[idx];
        // HandleLine does all of the request's work. The parse, find and
        // ask calls next to it repeat parts of that work to time them; they
        // form a layer of their own so serve's self time is not counted
        // twice.
        Tracer::Scope op = tracer->Open("serve.request", id);
        Result<bdi::serve::Request> parsed = [&]() {
          Tracer::Scope span = tracer->Open("serve_probe.parse", id);
          return bdi::serve::ParseRequest(line);
        }();
        const Clock::time_point handle_start = Clock::now();
        std::string answer;
        {
          Tracer::Scope span = tracer->Open("serve.handle", id);
          answer = server.HandleLine(line);
        }
        const double handle_us = MsSince(handle_start) * 1000.0;
        std::shared_ptr<const bdi::serve::Snapshot> snapshot = store->snapshot();
        if (parsed.ok() && parsed->op == bdi::serve::RequestOp::kFind) {
          Tracer::Scope span = tracer->Open("serve_probe.find", id);
          const size_t hits =
              snapshot->Find(parsed->entity, static_cast<size_t>(parsed->k))
                  .size();
          if (tracer->enabled()) {
            sweep.find_hits.push_back(static_cast<double>(hits));
          }
        } else if (parsed.ok() && parsed->op == bdi::serve::RequestOp::kAsk) {
          Tracer::Scope span = tracer->Open("serve_probe.ask", id);
          (void)snapshot->Ask(parsed->attribute, parsed->entity);
        }
        if (asked.size() < 300) {
          asked.push_back(idx);
          answers.push_back(std::move(answer));
          sweep.handle_us.push_back(handle_us);
        }
        return true;
      }));

  // Transport: the same requests through the real server over TCP. The
  // difference to the in-process handling time is wire + socket + server
  // loop.
  {
    BDI_ASSIGN_OR_RETURN(
        std::unique_ptr<ServerProcess> tcp_server,
        ServerProcess::Start(ctx.bdi_path,
                             {"--in", corpus_path, "--port", "0", "--threads",
                              std::to_string(threads)},
                             threads, ctx.work_dir + "/serve.log"));
    {
      BDI_ASSIGN_OR_RETURN(std::unique_ptr<Connection> connection,
                           Connection::Open(tcp_server->port()));
      BDI_RETURN_IF_ERROR(WaitForStats(connection.get()).status());
      size_t matched = 0;
      for (size_t q = 0; q < asked.size(); ++q) {
        const Clock::time_point sent = Clock::now();
        Result<std::string> response = [&]() {
          Tracer::Scope span = tracer->Open("client.roundtrip", ++request);
          return connection->Call(pool.lines[asked[q]]);
        }();
        sweep.transport_us.push_back(MsSince(sent) * 1000.0 -
                                     sweep.handle_us[q]);
        if (response.ok() && *response == answers[q]) ++matched;
      }
      gates->Check(matched == asked.size(),
                   "TCP answers byte-equal to in-process HandleLine (" +
                       std::to_string(matched) + "/" +
                       std::to_string(asked.size()) + ")");
    }
    BDI_RETURN_IF_ERROR(tcp_server->Shutdown());
  }

  // Updates: the store's write path, and a mirror running the same
  // IncrementalIntegrator refresh and snapshot build outside the store.
  BDI_ASSIGN_OR_RETURN(Dataset mirror_corpus,
                       bdi::storage::ReadDatasetAuto(corpus_path));
  Mirror mirror(std::move(mirror_corpus), threads);
  mirror.Refresh();
  std::shared_ptr<const bdi::serve::Snapshot> mirrored;
  size_t next_batch = 0;
  BDI_RETURN_IF_ERROR(RunPhase(
      emphasis == Emphasis::kBatches, 3, budget_s, tracer, &sweep, &request,
      [&](uint64_t id) -> Result<bool> {
        if (next_batch == batches.size()) return false;
        const std::vector<bdi::serve::UpdateRecord>& records =
            batches[next_batch++];
        Result<bdi::serve::BatchResult> applied = [&]() {
          Tracer::Scope span = tracer->Open("serve.apply", id);
          return store->ApplyBatch(records);
        }();
        if (!applied.ok()) return applied.status();
        if (tracer->enabled()) {
          sweep.wal_ms.push_back(applied->wal_ms);
          sweep.comparisons.push_back(static_cast<double>(applied->comparisons));
        }
        mirror.Append(records);
        {
          Tracer::Scope span = tracer->Open("core.refresh", id);
          mirror.Refresh();
        }
        {
          Tracer::Scope span = tracer->Open("serve.snapshot_build", id);
          mirrored = mirror.Build(applied->version);
        }
        return true;
      }));
  gates->Check(mirrored != nullptr && store->snapshot()->DebugString() ==
                                          mirrored->DebugString(),
               "mirror equals the store after the update batches");
  return sweep;
}

uint64_t CounterValue(const bdi::metrics::Snapshot& snapshot,
                      const std::string& name) {
  for (const bdi::metrics::CounterSample& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

}  // namespace

Outcome RunTraced(const RunContext& ctx) {
  WorkloadSettings settings = SettingsFor(ctx.workload);
  // Every traced run probes the update path, so keep a few records back
  // even where the workload itself sends none.
  settings.shape.held_out_share = std::max(settings.shape.held_out_share, 0.01);
  Outcome out;
  Gates gates;
  BenchWorld world = MakeWorld(ctx.seed, settings.shape);
  Result<std::string> written = WriteBootstrapCorpus(world, ctx.work_dir);
  if (!written.ok()) return Aborted(written.status());
  const std::string& corpus_path = *written;
  const QueryPool pool =
      MakeQueryPool(world, ctx.seed, std::max<size_t>(settings.pool_size, 1000));
  const std::vector<std::vector<bdi::serve::UpdateRecord>> batches =
      MakeBatches(world, std::max<size_t>(settings.batch_records, 2));

  const Emphasis emphasis = ctx.workload == "integrate" ? Emphasis::kPipeline
                            : ctx.workload == "serve_read"
                                ? Emphasis::kQueries
                                : Emphasis::kBatches;
  bdi::metrics::Registry::Get().Reset();
  bdi::trace::ResetSpans();
  Tracer tracer(true);
  Result<Sweep> traced = RunSweep(ctx, settings, corpus_path, pool, batches,
                                  emphasis, &tracer, &gates);
  SetTracing(&tracer, false);
  if (!traced.ok()) return Aborted(traced.status());
  const bdi::metrics::Snapshot registry =
      bdi::metrics::Registry::Get().TakeSnapshot();

  // Gate: the staged pipeline equals Integrator::Run on the same corpus.
  Result<Dataset> corpus = bdi::storage::ReadDatasetAuto(corpus_path);
  gates.Check(corpus.ok() && traced->staged.has_value() &&
                  SameIntegration(traced->staged->report,
                                  bdi::core::Integrator().Run(*corpus)),
              "staged pipeline equals Integrator::Run");

  const std::string stem =
      ctx.work_dir + "/trace-" + ctx.workload + "-" + std::to_string(ctx.seed);
  Status trace_written = tracer.Write(stem + ".jsonl");
  gates.Check(trace_written.ok(), "trace written: " + trace_written.ToString());
  {
    std::ofstream registry_file(stem + ".registry.json");
    registry_file << bdi::metrics::Registry::Get().ToJson() << "\n";
  }
  out.Note("trace_file", JsonString(stem + ".jsonl"));
  out.Note("overhead_ops", "{\"traced\":" +
                               std::to_string(traced->traced_op_ms.size()) +
                               ",\"untraced\":" +
                               std::to_string(traced->untraced_op_ms.size()) +
                               "}");

  auto ms = [&](const char* span) { return Median(tracer.DurationsMs(span)); };
  auto us = [&](const char* span) { return 1000.0 * ms(span); };
  const IntegrationReport& report = traced->staged->report;
  const bdi::linkage::LinkageResult& linkage = report.linkage;
  const double comparisons = static_cast<double>(
      linkage.num_scheduled > 0 ? linkage.num_scheduled
                                : linkage.num_candidates - linkage.num_prefiltered);

  out.Metric("storage.read_ms", ms("storage.read"), "ms");
  out.Metric("schema.align_ms", ms("schema.align"), "ms");
  out.Metric("schema.feedback_ms", ms("schema.feedback"), "ms");
  out.Metric("linkage.prepare_ms", ms("linkage.prepare"), "ms");
  out.Metric("linkage.run_ms", ms("linkage.run"), "ms");
  out.Metric("linkage.candidates", static_cast<double>(linkage.num_candidates),
             "count");
  out.Metric("linkage.comparisons", comparisons, "count");
  out.Metric("linkage.matches", static_cast<double>(linkage.num_matches),
             "count");
  out.Metric("linkage.prefilter_skip_ratio",
             linkage.num_candidates == 0
                 ? 0.0
                 : static_cast<double>(linkage.num_prefiltered) /
                       static_cast<double>(linkage.num_candidates),
             "ratio");
  out.Metric("linkage.match_yield",
             comparisons == 0 ? 0.0
                              : static_cast<double>(linkage.num_matches) /
                                    comparisons,
             "ratio");
  out.Metric("fusion.claims_ms", ms("fusion.claims"), "ms");
  out.Metric("fusion.resolve_ms", ms("fusion.resolve"), "ms");
  out.Metric("fusion.claims", static_cast<double>(report.claims.num_claims()),
             "count");
  out.Metric("fusion.items", static_cast<double>(report.claims.items().size()),
             "count");
  out.Metric("fusion.em_iterations", report.fusion.iterations, "count");
  out.Metric("fusion.copy_dependencies",
             static_cast<double>(traced->staged->copy_dependencies), "count");
  out.Metric("core.refresh_ms", ms("core.refresh"), "ms");
  out.Metric("serve.store_create_ms", ms("serve.store_create"), "ms");
  out.Metric("serve.parse_us", us("serve_probe.parse"), "us");
  out.Metric("serve.handle_us", us("serve.handle"), "us");
  out.Metric("serve.find_us", us("serve_probe.find"), "us");
  out.Metric("serve.ask_us", us("serve_probe.ask"), "us");
  out.Metric("serve.find_hits", Mean(traced->find_hits), "count");
  out.Metric("serve.transport_us", Median(traced->transport_us), "us");
  out.Metric("serve.apply_ms", ms("serve.apply"), "ms");
  out.Metric("serve.wal_ms", Median(traced->wal_ms), "ms");
  out.Metric("serve.snapshot_build_ms", ms("serve.snapshot_build"), "ms");
  out.Metric("serve.update_comparisons", Mean(traced->comparisons), "count");

  const std::map<std::string, double> self =
      tracer.SelfMsByLayer(traced->uncounted);
  for (const char* layer : {"storage", "schema", "linkage", "fusion", "core",
                            "serve", "pipeline", "client"}) {
    auto it = self.find(layer);
    out.Metric(std::string(layer) + ".self_ms",
               it == self.end() ? 0.0 : it->second, "ms");
  }
  out.Metric("trace.overhead_ms",
             Median(traced->traced_op_ms) - Median(traced->untraced_op_ms),
             "ms");
  const size_t counted_spans = static_cast<size_t>(std::count_if(
      tracer.spans().begin(), tracer.spans().end(), [&](const Span& span) {
        return traced->uncounted.count(span.request) == 0;
      }));
  out.Metric("trace.spans", static_cast<double>(counted_spans), "count");
  for (const auto& [metric, counter] :
       std::vector<std::pair<std::string, std::string>>{
           {"registry.linkage.comparisons", "bdi.linkage.comparisons"},
           {"registry.linkage.candidate_pairs", "bdi.linkage.candidate_pairs"},
           {"registry.fusion.em_iterations", "bdi.fusion.em.iterations"},
           {"registry.serve.queries", "bdi.serve.queries"},
           {"registry.serve.wal_appends", "bdi.serve.wal.appends"},
           {"registry.storage.row_groups_read", "bdi.storage.row_groups.read"}}) {
    out.Metric(metric,
               static_cast<double>(CounterValue(registry, counter) -
                                   traced->uncounted_registry[counter]),
               "count");
  }

  out.attempted = traced->ops;
  out.failed = 0;
  gates.Record(&out);
  return out;
}

}  // namespace perfbench
