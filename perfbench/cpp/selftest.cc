// The benchmark's own tests: the tail-percentile rule, the quiet-window
// selection, generator determinism, the span self-time arithmetic, and that
// a wrong answer trips the correctness gates. Run with
// `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>

#include "bdi/serve/server.h"
#include "bdi/storage/dataset_reader.h"
#include "cpp/bench.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

void TestTailRule() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(Percentile(hundred, 50) == 50);
  EXPECT(Percentile(hundred, 99) == 99);
  EXPECT(Percentile(hundred, 100) == 100);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(SamplesBeyond(100, 90) == 10);
  EXPECT(SamplesBeyond(99, 90) == 9);
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(SamplesBeyond(999, 99) == 9);
  EXPECT(MinSamplesForTail(99) == 1000);
  EXPECT(MinSamplesForTail(95) == 200);
  EXPECT(MinSamplesForTail(80) == 50);
  for (double pct : {50.0, 75.0, 80.0, 90.0, 95.0, 99.0}) {
    size_t n = MinSamplesForTail(pct);
    EXPECT(SamplesBeyond(n, pct) >= kTailMinBeyond);
    EXPECT(SamplesBeyond(n - 1, pct) < kTailMinBeyond);
  }
}

void TestQuietWindows() {
  // Sixteen windows of four ops, one op every 100 ms; window w's ops take
  // w + 1 ms, except that window 7 is the fastest (0.5 ms).
  const Clock::time_point start = Clock::now();
  TimedSamples timed;
  for (int i = 0; i < 65; ++i) {
    const int w = i / 4;
    timed.Add(start + std::chrono::milliseconds(100 * (i + 1)),
              w == 7 ? 0.5 : w + 1.0);
  }
  EXPECT(QuietWindowsKept(16) == 2);
  EXPECT(QuietWindowsKept(17) == 3);
  EXPECT(QuietWindowsKept(1) == 1);
  QuietWindows quiet = SelectQuietWindows(timed, start, 4);
  EXPECT(quiet.windows == 16);  // the 65th op starts no whole window
  EXPECT(quiet.kept == 2);
  EXPECT(quiet.ms.size() == 8);
  EXPECT(Median(quiet.ms) == 0.5);
  EXPECT(Percentile(quiet.ms, 100) == 1.0);
  EXPECT(std::fabs(quiet.ops_per_s - 10.0) < 1e-6);
  // Completion order decides the windows, not the order of Add calls.
  TimedSamples shuffled;
  for (size_t i = timed.size(); i-- > 0;) {
    shuffled.Add(timed.samples[i].first, timed.samples[i].second);
  }
  EXPECT(SelectQuietWindows(shuffled, start, 4).ms == quiet.ms);
  for (double pct : {66.0, 90.0, 99.0}) {
    for (size_t ops : {1, 5, 200, 500}) {
      size_t n = MinOpsForQuietTail(pct, ops);
      TimedSamples loop;
      for (size_t i = 0; i < n; ++i) loop.Add(start + std::chrono::milliseconds(i + 1), 1.0);
      EXPECT(SamplesBeyond(SelectQuietWindows(loop, start, ops).ms.size(), pct) >=
             kTailMinBeyond);
      loop.samples.resize(n - ops);
      EXPECT(SamplesBeyond(SelectQuietWindows(loop, start, ops).ms.size(), pct) <
             kTailMinBeyond);
    }
  }
}

bool SameCorpus(const Dataset& a, const Dataset& b) {
  if (a.num_records() != b.num_records() || a.num_sources() != b.num_sources()) {
    return false;
  }
  for (size_t r = 0; r < a.num_records(); ++r) {
    const bdi::Record& x = a.record(r);
    const bdi::Record& y = b.record(r);
    if (x.source != y.source || x.fields.size() != y.fields.size()) return false;
    for (size_t f = 0; f < x.fields.size(); ++f) {
      if (a.attr_name(x.fields[f].attr) != b.attr_name(y.fields[f].attr) ||
          x.fields[f].value != y.fields[f].value) {
        return false;
      }
    }
  }
  return true;
}

WorldShape SmallShape() {
  WorldShape shape;
  shape.entities = 200;
  shape.sources = 8;
  shape.copiers = 2;
  shape.held_out_share = 0.1;
  return shape;
}

void TestGeneratorDeterminism() {
  BenchWorld a = MakeWorld(7, SmallShape());
  BenchWorld b = MakeWorld(7, SmallShape());
  BenchWorld c = MakeWorld(8, SmallShape());
  EXPECT(SameCorpus(a.world.dataset, b.world.dataset));
  EXPECT(a.bootstrap == b.bootstrap);
  EXPECT(a.held_out == b.held_out);
  EXPECT(!a.held_out.empty());
  const QueryPool pool = MakeQueryPool(a, 7, 500);
  EXPECT(pool.lines == MakeQueryPool(b, 7, 500).lines);
  EXPECT(pool.lines.size() <= 500 && pool.lines.size() > 400);
  EXPECT(pool.hub_queries > 0 && pool.entity_queries > pool.hub_queries);
  EXPECT(!SameCorpus(a.world.dataset, c.world.dataset));
  EXPECT(pool.lines != MakeQueryPool(c, 8, 500).lines);
  // Entity queries are drawn in proportion to their entity's record count.
  EXPECT(pool.entity_weights.size() == pool.entity_queries);
  const size_t half = pool.entity_queries / 2;
  const double head_weight =
      std::accumulate(pool.entity_weights.begin(),
                      pool.entity_weights.begin() + half, 0.0);
  const double head_share =
      head_weight / std::accumulate(pool.entity_weights.begin(),
                                    pool.entity_weights.end(), 0.0);
  EXPECT(head_share > 0.5);  // popular entities first
  // The sampler's draws repeat for a seed and keep the fixed mix.
  const QuerySampler sampler(pool);
  bdi::Rng r1(5), r2(5);
  size_t hub = 0, entity = 0, head = 0;
  for (int i = 0; i < 20000; ++i) {
    size_t idx = sampler.Draw(&r1);
    EXPECT(idx == sampler.Draw(&r2));
    hub += idx >= pool.entity_queries &&
           idx < pool.entity_queries + pool.hub_queries;
    entity += idx < pool.entity_queries;
    head += idx < half;
  }
  EXPECT(hub > 300 && hub < 500);  // kHubShare of 20000 is 400
  EXPECT(std::fabs(static_cast<double>(head) / static_cast<double>(entity) -
                   head_share) < 0.03);
  std::vector<bdi::serve::UpdateRecord> batch = {
      ToUpdateRecord(a.world.dataset, a.held_out[0])};
  EXPECT(EncodeUpdate(batch, 3) == EncodeUpdate(batch, 3));
  EXPECT(bdi::serve::ParseRequest(EncodeUpdate(batch, 3)).ok());
}

void TestSelfTime() {
  Tracer tracer(true);
  {
    Tracer::Scope outer = tracer.Open("serve.request", 1);
    { Tracer::Scope inner = tracer.Open("linkage.run", 1); }
    { Tracer::Scope inner = tracer.Open("linkage.run", 1); }
  }
  EXPECT(tracer.spans().size() == 3);
  EXPECT(tracer.spans()[1].parent == 0 && tracer.spans()[2].parent == 0);
  EXPECT(tracer.spans()[0].parent == -1);
  std::map<std::string, double> self = tracer.SelfMsByLayer();
  double total = tracer.DurationsMs("serve.request")[0];
  EXPECT(std::fabs(self["serve"] + self["linkage"] - total) < 1e-6);
  EXPECT(self["serve"] >= 0.0);
  // Spans of a skipped request count towards no layer.
  { Tracer::Scope later = tracer.Open("storage.read", 2); }
  EXPECT(tracer.SelfMsByLayer().count("storage") == 1);
  std::map<std::string, double> kept = tracer.SelfMsByLayer({2});
  EXPECT(kept.count("storage") == 0);
  EXPECT(kept["serve"] == self["serve"] && kept["linkage"] == self["linkage"]);
  Tracer off(false);
  { Tracer::Scope nothing = off.Open("serve.request"); }
  EXPECT(off.spans().empty());
}

void TestWrongAnswerTripsGates(const std::string& dir) {
  Gates gates;
  gates.Check(true, "fine");
  EXPECT(gates.passed());
  gates.Check(false, "deliberately wrong");
  EXPECT(!gates.passed());

  BenchWorld world = MakeWorld(11, SmallShape());
  std::filesystem::create_directories(dir);
  Result<std::string> path = WriteBootstrapCorpus(world, dir);
  EXPECT(path.ok());
  if (!path.ok()) return;
  Result<Dataset> store_corpus = bdi::storage::ReadDatasetAuto(*path);
  Result<Dataset> mirror_corpus = bdi::storage::ReadDatasetAuto(*path);
  EXPECT(store_corpus.ok() && mirror_corpus.ok());
  if (!store_corpus.ok() || !mirror_corpus.ok()) return;
  Result<std::unique_ptr<bdi::serve::EntityStore>> store =
      bdi::serve::EntityStore::Create(std::move(*store_corpus),
                                      CliStoreConfig(1, ""));
  EXPECT(store.ok());
  if (!store.ok()) return;
  bdi::serve::Server server((*store).get());
  Mirror mirror(std::move(*mirror_corpus), 1);
  mirror.Refresh();
  std::shared_ptr<const bdi::serve::Snapshot> snapshot = mirror.Build(1);

  // Right answers pass, for every request kind the gates compare.
  const std::vector<std::string> pool = MakeQueryPool(world, 11, 200).lines;
  size_t finds = 0, asks = 0;
  for (const std::string& line : pool) {
    EXPECT(ResponseMatchesSnapshot(line, server.HandleLine(line), *snapshot, 0));
    finds += line.find("\"find\"") != std::string::npos;
    asks += line.find("\"ask\"") != std::string::npos;
  }
  EXPECT(finds > 0 && asks > 0);
  const std::string stats = "{\"op\":\"stats\"}";
  EXPECT(ResponseMatchesSnapshot(stats, server.HandleLine(stats), *snapshot, 0));

  // A wrong answer fails: a changed hit text, score or value, a stats
  // count off by one, an error response.
  const std::string find = pool[0];
  std::string answer = server.HandleLine(find);
  std::string wrong_text = answer;
  size_t text_at = wrong_text.find("\"text\":\"");
  EXPECT(text_at != std::string::npos);
  if (text_at != std::string::npos) wrong_text[text_at + 8] ^= 1;
  EXPECT(!ResponseMatchesSnapshot(find, wrong_text, *snapshot, 0));
  std::string wrong_score = answer;
  size_t score_at = wrong_score.find("\"score\":0.");
  if (score_at != std::string::npos) {
    wrong_score[score_at + 10] = wrong_score[score_at + 10] == '1' ? '2' : '1';
    EXPECT(!ResponseMatchesSnapshot(find, wrong_score, *snapshot, 0));
  }
  EXPECT(!ResponseMatchesSnapshot(stats, server.HandleLine(stats), *snapshot, 1));
  EXPECT(!ResponseMatchesSnapshot(find, "{\"ok\":false,\"error\":\"x\"}",
                                  *snapshot, 0));

  // The staged-pipeline gate: a single changed fused value fails it.
  bdi::core::IntegrationReport report = mirror.report();
  EXPECT(SameIntegration(report, mirror.report()));
  EXPECT(!report.fusion.chosen.empty());
  if (!report.fusion.chosen.empty()) report.fusion.chosen[0] += "x";
  EXPECT(!SameIntegration(report, mirror.report()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <scratch-dir>\n");
    return 2;
  }
  perfbench::TestTailRule();
  perfbench::TestQuietWindows();
  perfbench::TestGeneratorDeterminism();
  perfbench::TestSelfTime();
  perfbench::TestWrongAnswerTripsGates(argv[1]);
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d failures\n",
                 perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
