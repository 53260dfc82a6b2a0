// perfbench runner: runs one workload of the benchmark and prints its
// metrics as the last line of standard output. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bdi/common/cpu.h"
#include "bdi/common/executor.h"
#include "cpp/bench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

WorkloadSettings SettingsFor(const std::string& workload) {
  // Thread budget: program threads + generator threads + connections stay
  // within 4, the nproc the settings were chosen on, so the client never
  // competes with the program under test for a core.
  WorkloadSettings s;
  if (workload == "integrate") {
    // One thread. On 4 vCPUs of a shared host, five seeds took 147-158 ms
    // per integration with one thread and 109-136 ms with four, run
    // alternately: four threads gain a fifth and spread three times as
    // much.
    s.program_threads = 1;
    s.tail_pct = 60.0;
    s.read_tail_pct = 60.0;
    s.window_ops = 5;
    s.read_window_ops = 5;
  } else if (workload == "serve_read") {
    s.program_threads = 1;
    s.connections = 1;
    s.generator_threads = s.connections;
    s.tail_pct = 99.0;
    s.read_tail_pct = 99.0;
    s.window_ops = 500;
    s.read_window_ops = 350;
    s.pool_size = 4000;
  } else if (workload == "serve_update") {
    s.shape.held_out_share = 0.15;
    s.program_threads = 1;
    s.connections = 2;
    s.generator_threads = 2;
    s.tail_pct = 66.0;
    s.read_tail_pct = 90.0;
    s.window_ops = 5;
    s.read_window_ops = 200;
    s.read_rate_per_s = 200.0;
    s.batch_records = 2;
    s.pool_size = 4000;
  }
  return s;
}

std::string SettingsJson(const WorkloadSettings& s) {
  return "{\"entities\":" + std::to_string(s.shape.entities) +
         ",\"sources\":" + std::to_string(s.shape.sources) +
         ",\"copiers\":" + std::to_string(s.shape.copiers) +
         ",\"held_out_share\":" + JsonNumber(s.shape.held_out_share) +
         ",\"program_threads\":" + std::to_string(s.program_threads) +
         ",\"connections\":" + std::to_string(s.connections) +
         ",\"generator_threads\":" + std::to_string(s.generator_threads) +
         ",\"tail_pct\":" + JsonNumber(s.tail_pct) +
         ",\"read_tail_pct\":" + JsonNumber(s.read_tail_pct) +
         ",\"window_ops\":" + std::to_string(s.window_ops) +
         ",\"read_window_ops\":" + std::to_string(s.read_window_ops) +
         ",\"quiet_share\":" + JsonNumber(kQuietShare) +
         ",\"read_rate_per_s\":" + JsonNumber(s.read_rate_per_s) +
         ",\"batch_records\":" + std::to_string(s.batch_records) +
         ",\"pool_size\":" + std::to_string(s.pool_size) + "}";
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload <integrate|serve_read|"
               "serve_update> --seed N --seconds S --trace 0|1 --bdi PATH "
               "--work-dir DIR [--git-sha SHA]\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  std::string git_sha = "unknown";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      ctx.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--bdi") {
      ctx.bdi_path = value;
    } else if (flag == "--work-dir") {
      ctx.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || ctx.seconds <= 0 || ctx.bdi_path.empty() ||
      ctx.work_dir.empty() ||
      (ctx.workload != "integrate" && ctx.workload != "serve_read" &&
       ctx.workload != "serve_update")) {
    return Usage();
  }
  unsigned hc = std::thread::hardware_concurrency();
  ctx.nproc = hc > 0 ? hc : 1;
  const WorkloadSettings settings = SettingsFor(ctx.workload);
  bdi::Executor::Configure(settings.program_threads);

  Outcome outcome = ctx.trace ? RunTraced(ctx)
                    : ctx.workload == "integrate"  ? RunIntegrate(ctx)
                    : ctx.workload == "serve_read" ? RunServeRead(ctx)
                                                   : RunServeUpdate(ctx);

  // Report line: the machine stamp, the settings and everything that is
  // not a metric. The result line follows it and is always last.
  std::string report = "{\"perfbench\":{\"workload\":" +
                       JsonString(ctx.workload) +
                       ",\"seed\":" + std::to_string(ctx.seed) +
                       ",\"trace\":" + (ctx.trace ? "1" : "0") +
                       ",\"seconds\":" + JsonNumber(ctx.seconds) +
                       ",\"machine\":{\"nproc\":" + std::to_string(ctx.nproc) +
                       ",\"simd\":" +
                       JsonString(bdi::cpu::SimdLevelName(
                           bdi::cpu::ActiveSimdLevel())) +
                       ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
                       ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                       ",\"git_sha\":" + JsonString(git_sha) +
                       "},\"settings\":" + SettingsJson(settings);
  for (const auto& [key, json] : outcome.notes) {
    report += "," + JsonString(key) + ":" + json;
  }
  report += "}}";
  std::printf("%s\n", report.c_str());

  std::string result = std::string("{\"correct\":") +
                       (outcome.correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(outcome.attempted) +
                       ",\"failed\":" + std::to_string(outcome.failed) +
                       ",\"metrics\":{";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& [name, value] = outcome.metrics[i];
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value.first);
    result += (i > 0 ? "," : "") + JsonString(name) + ":{\"value\":" + number +
              ",\"unit\":" + JsonString(value.second) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
