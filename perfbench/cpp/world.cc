#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

#include "bdi/fusion/evaluation.h"
#include "bdi/linkage/clustering.h"
#include "bdi/storage/bds_writer.h"
#include "bdi/text/tokenizer.h"
#include "cpp/bench.h"

namespace perfbench {

using bdi::RecordIdx;

BenchWorld MakeWorld(uint64_t seed, const WorldShape& shape) {
  bdi::synth::WorldConfig config;
  config.seed = seed;
  config.category = "camera";
  config.num_entities = shape.entities;
  config.num_sources = shape.sources;
  config.num_copiers = shape.copiers;
  config.source_accuracy_min = 0.8;
  config.source_accuracy_max = 0.9;
  config.copier_accuracy_min = 0.6;
  config.copier_accuracy_max = 0.7;
  BenchWorld out;
  out.world = bdi::synth::GenerateWorld(config);

  std::vector<RecordIdx> all(out.world.dataset.num_records());
  std::iota(all.begin(), all.end(), 0);
  bdi::Rng rng(seed ^ 0x5eedf00dULL);
  rng.Shuffle(&all);
  size_t held = static_cast<size_t>(shape.held_out_share *
                                    static_cast<double>(all.size()));
  out.held_out.assign(all.begin(), all.begin() + held);
  out.bootstrap.assign(all.begin() + held, all.end());
  std::sort(out.bootstrap.begin(), out.bootstrap.end());
  return out;
}

Dataset CopyRecords(const Dataset& from, const std::vector<RecordIdx>& records) {
  Dataset out;
  for (const bdi::SourceInfo& source : from.sources()) out.AddSource(source.name);
  for (RecordIdx idx : records) {
    const bdi::Record& record = from.record(idx);
    std::vector<std::pair<std::string, std::string>> fields;
    for (const bdi::Field& field : record.fields) {
      fields.emplace_back(from.attr_name(field.attr), field.value);
    }
    out.AddRecord(record.source, fields);
  }
  return out;
}

Result<std::string> WriteBootstrapCorpus(const BenchWorld& world,
                                         const std::string& dir) {
  std::string path = dir + "/corpus.bds";
  BDI_RETURN_IF_ERROR(bdi::storage::WriteDatasetBds(
      CopyRecords(world.world.dataset, world.bootstrap), path));
  return path;
}

std::vector<std::vector<bdi::serve::UpdateRecord>> MakeBatches(
    const BenchWorld& world, size_t batch_records) {
  std::vector<std::vector<bdi::serve::UpdateRecord>> batches;
  for (size_t i = 0; i + batch_records <= world.held_out.size();
       i += batch_records) {
    std::vector<bdi::serve::UpdateRecord> records;
    for (size_t j = i; j < i + batch_records; ++j) {
      records.push_back(ToUpdateRecord(world.world.dataset, world.held_out[j]));
    }
    batches.push_back(std::move(records));
  }
  return batches;
}

bdi::serve::UpdateRecord ToUpdateRecord(const Dataset& world, RecordIdx idx) {
  const bdi::Record& record = world.record(idx);
  bdi::serve::UpdateRecord out;
  out.source = world.source(record.source).name;
  for (const bdi::Field& field : record.fields) {
    out.fields.emplace_back(world.attr_name(field.attr), field.value);
  }
  return out;
}

std::string EncodeUpdate(const std::vector<bdi::serve::UpdateRecord>& records,
                         long long id) {
  std::string out = "{\"op\":\"update\",\"id\":" + std::to_string(id) +
                    ",\"records\":[";
  for (size_t r = 0; r < records.size(); ++r) {
    if (r > 0) out += ",";
    out += "{\"source\":";
    bdi::serve::AppendJsonString(&out, records[r].source);
    out += ",\"fields\":{";
    for (size_t f = 0; f < records[r].fields.size(); ++f) {
      if (f > 0) out += ",";
      bdi::serve::AppendJsonString(&out, records[r].fields[f].first);
      out += ":";
      bdi::serve::AppendJsonString(&out, records[r].fields[f].second);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

Quality EvaluateQuality(const BenchWorld& world, const Dataset& corpus,
                        const std::vector<RecordIdx>& order,
                        const bdi::core::IntegrationReport& report) {
  bdi::GroundTruth truth = bdi::RemapGroundTruth(
      world.world.truth, world.world.dataset, corpus);
  truth.entity_of_record.clear();
  for (RecordIdx idx : order) {
    truth.entity_of_record.push_back(world.world.truth.entity_of_record[idx]);
  }
  Quality quality;
  quality.linkage_f1 =
      bdi::linkage::EvaluateClusters(report.linkage.clusters.label_of_record,
                                     truth.entity_of_record)
          .f1;
  bdi::fusion::PipelineMappings mappings = bdi::fusion::MapPipelineToTruth(
      report.linkage.clusters, report.schema, truth);
  quality.fusion_precision =
      bdi::fusion::EvaluateFusionMapped(report.claims, report.fusion, mappings,
                                        truth)
          .precision;
  return quality;
}

namespace {

std::string FindLine(const std::string& entity, int k) {
  std::string out = "{\"op\":\"find\",\"entity\":";
  bdi::serve::AppendJsonString(&out, entity);
  out += ",\"k\":" + std::to_string(k) + "}";
  return out;
}

std::string AskLine(const std::string& entity, const std::string& attribute) {
  std::string out = "{\"op\":\"ask\",\"entity\":";
  bdi::serve::AppendJsonString(&out, entity);
  out += ",\"attribute\":";
  bdi::serve::AppendJsonString(&out, attribute);
  out += "}";
  return out;
}

std::string RandomWord(bdi::Rng* rng) {
  std::string word = "zq";
  for (int i = 0; i < 6; ++i) {
    word += static_cast<char>('a' + rng->UniformInt(0, 25));
  }
  return word;
}

}  // namespace

QueryPool MakeQueryPool(const BenchWorld& world, uint64_t seed, size_t size) {
  const Dataset& dataset = world.world.dataset;
  const std::vector<bdi::EntityId>& entity_of =
      world.world.truth.entity_of_record;
  bdi::Rng rng(seed ^ 0x9001ULL);

  // Bootstrap records per entity; popularity is the record count.
  std::unordered_map<bdi::EntityId, std::vector<RecordIdx>> records_of;
  std::unordered_map<std::string, size_t> token_count;
  for (RecordIdx idx : world.bootstrap) {
    records_of[entity_of[idx]].push_back(idx);
    for (const std::string& token :
         bdi::text::TokenSet(dataset.record(idx).fields[0].value)) {
      ++token_count[token];
    }
  }
  std::vector<bdi::EntityId> entities;
  for (const auto& [entity, records] : records_of) entities.push_back(entity);
  std::sort(entities.begin(), entities.end(),
            [&](bdi::EntityId a, bdi::EntityId b) {
              size_t na = records_of[a].size(), nb = records_of[b].size();
              return na != nb ? na > nb : a < b;
            });

  QueryPool pool;
  std::set<std::string> seen;
  auto add = [&](std::vector<std::string>* into, std::string line) {
    if (!seen.insert(line).second) return false;
    into->push_back(std::move(line));
    return true;
  };
  // Entity queries, popular entities first: the display name one source
  // uses, a two-token fragment of it, and an attribute question.
  constexpr size_t kHubTokens = 24;
  constexpr size_t kMissQueries = 50;
  const size_t entity_target = size - 2 * kHubTokens - kMissQueries;
  std::vector<bdi::EntityId> entity_of_line;
  auto add_entity_query = [&](bdi::EntityId entity, std::string line) {
    if (add(&pool.lines, std::move(line))) entity_of_line.push_back(entity);
  };
  for (bdi::EntityId entity : entities) {
    if (pool.lines.size() >= entity_target) break;
    const std::vector<RecordIdx>& records = records_of[entity];
    const bdi::Record& record = dataset.record(
        records[rng.UniformInt(0, static_cast<int64_t>(records.size()) - 1)]);
    const std::string& name = record.fields[0].value;
    add_entity_query(entity, FindLine(name, 5));
    std::vector<std::string> tokens = bdi::text::TokenSet(name);
    rng.Shuffle(&tokens);
    if (tokens.size() > 2) tokens.resize(2);
    std::string fragment;
    for (const std::string& token : tokens) {
      if (!fragment.empty()) fragment += " ";
      fragment += token;
    }
    if (!fragment.empty()) add_entity_query(entity, FindLine(fragment, 10));
    if (record.fields.size() > 1) {
      const bdi::Field& field = record.fields[rng.UniformInt(
          1, static_cast<int64_t>(record.fields.size()) - 1)];
      add_entity_query(entity, AskLine(name, dataset.attr_name(field.attr)));
    }
  }
  if (pool.lines.size() > entity_target) {
    pool.lines.resize(entity_target);
    entity_of_line.resize(entity_target);
  }
  pool.entity_queries = pool.lines.size();
  std::unordered_map<bdi::EntityId, size_t> lines_of;
  for (bdi::EntityId entity : entity_of_line) ++lines_of[entity];
  for (bdi::EntityId entity : entity_of_line) {
    pool.entity_weights.push_back(
        static_cast<double>(records_of[entity].size()) /
        static_cast<double>(lines_of[entity]));
  }

  // Hub-token queries: the most common name tokens match many entities.
  std::vector<std::pair<size_t, std::string>> by_count;
  for (const auto& [token, count] : token_count) by_count.push_back({count, token});
  std::sort(by_count.begin(), by_count.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first : a.second < b.second;
            });
  for (size_t i = 0; i < by_count.size() && i < kHubTokens; ++i) {
    add(&pool.lines, FindLine(by_count[i].second, 5));
    add(&pool.lines, FindLine(by_count[i].second, 20));
  }
  pool.hub_queries = pool.lines.size() - pool.entity_queries;
  // Queries that match nothing.
  for (size_t i = 0; i < kMissQueries; ++i) {
    std::string word = RandomWord(&rng);
    add(&pool.lines, i % 2 == 0 ? FindLine(word + " " + RandomWord(&rng), 5)
                                : AskLine(word, "weight"));
  }
  return pool;
}

QuerySampler::QuerySampler(const QueryPool& pool)
    : entity_queries_(pool.entity_queries),
      hub_queries_(pool.hub_queries),
      miss_queries_(pool.lines.size() - pool.entity_queries - pool.hub_queries) {
  double sum = 0.0;
  for (double weight : pool.entity_weights) {
    sum += weight;
    cumulative_.push_back(sum);
  }
}

size_t QuerySampler::Draw(bdi::Rng* rng) const {
  const double u = rng->UniformDouble();
  if (u < kHubShare && hub_queries_ > 0) {
    return entity_queries_ +
           static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(hub_queries_) - 1));
  }
  if (u < kHubShare + kMissShare && miss_queries_ > 0) {
    return entity_queries_ + hub_queries_ +
           static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(miss_queries_) - 1));
  }
  const double target = rng->UniformDouble() * cumulative_.back();
  const size_t idx = static_cast<size_t>(
      std::upper_bound(cumulative_.begin(), cumulative_.end(), target) -
      cumulative_.begin());
  return std::min(idx, cumulative_.size() - 1);
}

bdi::serve::StoreConfig CliStoreConfig(size_t threads,
                                       const std::string& wal_path) {
  // Mirrors CmdServe in tools/bdi_cli.cc with `--threads <threads>` and
  // every other flag at its default.
  bdi::serve::StoreConfig config;
  config.num_shards = 8;
  config.num_threads = threads;
  config.wal.path = wal_path;
  config.wal.rotate_bytes = 64ull << 20;
  config.max_pending_batches = 32;
  config.max_pending_records = 200000;
  return config;
}

Mirror::Mirror(Dataset bootstrap, size_t threads)
    : dataset_(std::move(bootstrap)), threads_(threads) {
  for (const bdi::SourceInfo& source : dataset_.sources()) {
    source_ids_.emplace(source.name, source.id);
  }
  // The configuration EntityStore::Create gives its integrator.
  const bdi::serve::StoreConfig store = CliStoreConfig(threads, "");
  bdi::core::IncrementalIntegrator::Config config;
  config.integrator = store.integrator;
  config.realign_schema_each_refresh = true;
  config.linker.scorer = store.integrator.linker.scorer;
  config.linker.threshold = store.integrator.linker.threshold;
  config.linker.use_prefilter = store.integrator.linker.use_prefilter;
  integrator_ =
      std::make_unique<bdi::core::IncrementalIntegrator>(&dataset_, config);
}

void Mirror::Append(const std::vector<bdi::serve::UpdateRecord>& records) {
  for (const bdi::serve::UpdateRecord& record : records) {
    auto [it, inserted] = source_ids_.emplace(record.source, bdi::kInvalidSource);
    if (inserted) it->second = dataset_.AddSource(record.source);
    dataset_.AddRecord(it->second, record.fields);
  }
}

std::shared_ptr<const bdi::serve::Snapshot> Mirror::Build(
    uint64_t version) const {
  return bdi::serve::Snapshot::Build(integrator_->report(), dataset_,
                                     CliStoreConfig(threads_, "").num_shards,
                                     version, threads_);
}

}  // namespace perfbench
