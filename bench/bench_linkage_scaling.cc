// E8 — Linkage scalability on the shared-memory executor:
// runtime and throughput as the corpus grows, and the per-stage breakdown
// (blocking / matching / clustering). Matching parallelizes across the
// thread pool; the thread sweep shows the (machine-dependent) speedup.
// With `--json`, writes BENCH_linkage_scaling.json carrying the scaling
// rows, the thread sweep, and the pipeline metrics snapshot (interner
// size, chunk counts, scratch reuses).
#include <thread>

#include "bdi/common/executor.h"
#include "bdi/common/string_util.h"
#include "bdi/common/table.h"
#include "bdi/linkage/linkage.h"
#include "bench_util.h"
#include "support/linkage_oracle.h"

using namespace bdi;
using namespace bdi::linkage;

int main(int argc, char** argv) {
  bench::BenchMain bench_main("linkage_scaling", argc, argv);
  Executor::Configure(bench_main.threads());
  bench::JsonReporter& json = bench_main.json();
  // Metrics ride along in the JSON; instrumentation is bitwise-neutral.
  if (json.enabled()) metrics::SetEnabled(true);
  bench::Banner("E8", "linkage scalability (executor substrate)",
                "runtime grows near-linearly with candidate count (blocking "
                "keeps the pair space sparse); matching dominates and "
                "parallelizes across threads");

  TextTable table({"records", "candidates", "block ms", "match ms",
                   "cluster ms", "total ms", "records/s"});
  for (int entities : {250, 500, 1000, 2000}) {
    synth::WorldConfig config;
    config.seed = 7;
    config.num_entities = entities;
    config.num_sources = 14;
    synth::SyntheticWorld world = synth::GenerateWorld(config);
    Linker linker(&world.dataset, {});
    LinkageResult result = linker.Run();
    double total =
        result.blocking_seconds + result.matching_seconds +
        result.clustering_seconds;
    double records_per_sec =
        static_cast<double>(world.dataset.num_records()) /
        std::max(1e-9, total);
    table.AddRow(
        {std::to_string(world.dataset.num_records()),
         std::to_string(result.num_candidates),
         FormatDouble(1000 * result.blocking_seconds, 1),
         FormatDouble(1000 * result.matching_seconds, 1),
         FormatDouble(1000 * result.clustering_seconds, 1),
         FormatDouble(1000 * total, 1), FormatDouble(records_per_sec, 0)});
    json.Add("linkage_total_" + std::to_string(entities) + "_entities",
             total, Executor::Get().num_threads(), records_per_sec);
    json.Add("linkage_matching_" + std::to_string(entities) + "_entities",
             result.matching_seconds, Executor::Get().num_threads(),
             static_cast<double>(result.num_candidates) /
                 std::max(1e-9, result.matching_seconds));
  }
  table.Print("Figure E8: runtime vs corpus size");

  // Thread sweep on a fixed corpus (speedup depends on available cores:
  // this machine reports hardware_concurrency below).
  synth::WorldConfig config;
  config.seed = 7;
  config.num_entities = 1500;
  config.num_sources = 14;
  synth::SyntheticWorld world = synth::GenerateWorld(config);
  TextTable threads_table({"threads", "match ms", "speedup"});
  double baseline = 0.0;
  // Identity reference: the test-only per-pair cascade over the serial
  // run's candidates. Every sweep run (slab sweep, and the scheduler with
  // a budget covering every candidate, at any thread count) must
  // reproduce its match list and scores bit for bit — identical_output
  // below is the gate.
  std::vector<ScoredPair> reference;
  size_t num_candidates = 0;
  {
    LinkerConfig reference_config;
    reference_config.num_threads = 1;
    Linker linker(&world.dataset, reference_config);
    num_candidates = linker.Run().num_candidates;
    reference = ReferenceMatches(linker.extractor(), linker.scorer(),
                                 linker.last_candidates(),
                                 reference_config.use_prefilter);
  }
  bool identical_output = true;
  auto same_matches = [&reference](const LinkageResult& y) {
    if (reference.size() != y.matches.size()) return false;
    for (size_t i = 0; i < reference.size(); ++i) {
      if (reference[i].pair.a != y.matches[i].pair.a ||
          reference[i].pair.b != y.matches[i].pair.b ||
          reference[i].score != y.matches[i].score) {
        return false;
      }
    }
    return true;
  };
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    LinkerConfig linker_config;
    linker_config.num_threads = threads;
    Linker linker(&world.dataset, linker_config);
    LinkageResult result = linker.Run();
    identical_output = identical_output && same_matches(result);
    // The progressive scheduler with a budget covering every candidate
    // reorders the comparisons but must never change a score: same gate,
    // same reference, every thread count.
    {
      LinkerConfig progressive_config = linker_config;
      progressive_config.comparison_budget =
          static_cast<double>(num_candidates);
      Linker progressive_linker(&world.dataset, progressive_config);
      LinkageResult progressive_result = progressive_linker.Run();
      identical_output =
          identical_output && same_matches(progressive_result);
    }
    if (threads == 1) baseline = result.matching_seconds;
    threads_table.AddRow(
        {std::to_string(threads),
         FormatDouble(1000 * result.matching_seconds, 1),
         FormatDouble(baseline / std::max(1e-9, result.matching_seconds),
                      2)});
    json.Add("matching_sweep_" + std::to_string(threads) + "_threads",
             result.matching_seconds, threads,
             static_cast<double>(result.num_candidates) /
                 std::max(1e-9, result.matching_seconds));
  }
  threads_table.Print("Figure E8b: matching-stage thread scaling");
  std::printf("batched matching identical to per-pair reference: %s\n",
              identical_output ? "yes" : "NO");
  json.Note("identical_output", identical_output ? "true" : "false");
  std::printf("hardware_concurrency on this machine: %u\n",
              std::thread::hardware_concurrency());
  bench::AttachMetricsSnapshot(json);
  return 0;
}
