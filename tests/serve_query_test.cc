// Keyword answering over an integration result through the one query
// engine: a one-shard serve::Snapshot, as `bdi ask` and the examples
// build it. Covers ranking, attribute resolution, provenance, the
// no-answer cases, accuracy on head entities, and the no-shared-token
// candidate rule. Named Serve* so the tsan-serving preset picks it up.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bdi/core/integrator.h"
#include "bdi/serve/snapshot.h"
#include "bdi/synth/world.h"
#include "bdi/text/similarity.h"
#include "bdi/text/tokenizer.h"

namespace bdi::serve {
namespace {

struct Fixture {
  synth::SyntheticWorld world;
  core::IntegrationReport report;
  std::shared_ptr<const Snapshot> snapshot;

  Fixture() {
    synth::WorldConfig config;
    config.seed = 1001;
    config.category = "camera";
    config.num_entities = 100;
    config.num_sources = 10;
    world = synth::GenerateWorld(config);
    report = core::Integrator().Run(world.dataset);
    snapshot = Snapshot::Build(report, world.dataset, /*num_shards=*/1,
                               /*version=*/1, /*num_threads=*/1);
  }

  /// A head entity's display name and its true value for `canonical_attr`.
  std::pair<std::string, std::string> HeadEntityAndTruth(
      const std::string& canonical_attr) {
    int attr_index = -1;
    for (size_t a = 0; a < world.truth.canonical_attrs.size(); ++a) {
      if (world.truth.canonical_attrs[a] == canonical_attr) {
        attr_index = static_cast<int>(a);
      }
    }
    EXPECT_GE(attr_index, 0);
    for (size_t e = 0; e < world.truth.num_entities(); ++e) {
      const auto& values = world.truth.true_values[e];
      if (!values[attr_index].empty()) {
        return {values[0], values[attr_index]};  // values[0] = name
      }
    }
    ADD_FAILURE() << "no entity has " << canonical_attr;
    return {"", ""};
  }
};

TEST(ServeQueryTest, FindRanksExactNameFirst) {
  Fixture fx;
  auto [name, truth] = fx.HeadEntityAndTruth("brand");
  std::vector<FindHit> hits = fx.snapshot->Find(name, 3);
  ASSERT_FALSE(hits.empty());
  // The top hit's representative text should share the model token.
  EXPECT_GT(hits[0].score, 0.8);
}

TEST(ServeQueryTest, AskMatchesAttributeSynonyms) {
  Fixture fx;
  auto [name, truth] = fx.HeadEntityAndTruth("brand");
  AskAnswer answer = fx.snapshot->Ask("brand", name);
  ASSERT_TRUE(answer.found()) << "no answer for '" << name << "'";
  EXPECT_GE(answer.attribute_match, 0.8);
  EXPECT_NE(answer.attribute.find("brand"), std::string::npos)
      << answer.attribute;
}

TEST(ServeQueryTest, AskAnswersWithProvenance) {
  Fixture fx;
  auto [name, truth] = fx.HeadEntityAndTruth("brand");
  AskAnswer answer = fx.snapshot->Ask("brand", name);
  ASSERT_TRUE(answer.found()) << "no answer for '" << name << "'";
  EXPECT_EQ(answer.value, truth);
  EXPECT_FALSE(answer.support.empty());
  bool any_agrees = false;
  for (const ServedClaim& support : answer.support) {
    if (support.agrees) {
      any_agrees = true;
      EXPECT_EQ(support.value, answer.value);
    }
  }
  EXPECT_TRUE(any_agrees);
  EXPECT_GT(answer.confidence, 0.4);
}

TEST(ServeQueryTest, UnknownAttributeYieldsNoAnswer) {
  Fixture fx;
  auto [name, truth] = fx.HeadEntityAndTruth("brand");
  AskAnswer answer = fx.snapshot->Ask("zzzzqqqq", name);
  EXPECT_FALSE(answer.found());
}

TEST(ServeQueryTest, UnknownEntityYieldsNoAnswer) {
  Fixture fx;
  AskAnswer answer = fx.snapshot->Ask("brand", "nonexistent gizmo xq999");
  // Either no entity at all, or a weak match that still lacks the value —
  // but never a confident fabricated answer.
  if (answer.found()) {
    EXPECT_LT(answer.entity_match, 0.6);
  }
}

TEST(ServeQueryTest, MostQueriesAnswerCorrectlyOnHeadEntities) {
  Fixture fx;
  int attr_index = -1;
  for (size_t a = 0; a < fx.world.truth.canonical_attrs.size(); ++a) {
    if (fx.world.truth.canonical_attrs[a] == "color") {
      attr_index = static_cast<int>(a);
    }
  }
  ASSERT_GE(attr_index, 0);
  int asked = 0, correct = 0;
  for (size_t e = 0; e < 20; ++e) {  // head entities
    const auto& values = fx.world.truth.true_values[e];
    if (values[attr_index].empty()) continue;
    AskAnswer answer = fx.snapshot->Ask("color", values[0]);
    if (!answer.found()) continue;
    ++asked;
    if (answer.value == values[attr_index]) ++correct;
  }
  ASSERT_GE(asked, 10);
  EXPECT_GE(static_cast<double>(correct) / asked, 0.7);
}

// The candidate rule, pinned: an entity that shares no token with the
// query is never a candidate, however close the fuzzy Monge-Elkan
// similarity is. Every token of a head entity's text, suffixed with one
// letter, makes a query with high Monge-Elkan similarity and no shared
// token.
TEST(ServeQueryTest, FuzzyOnlyEntityIsNotACandidate) {
  Fixture fx;
  auto [name, truth] = fx.HeadEntityAndTruth("brand");
  std::vector<FindHit> exact = fx.snapshot->Find(name, 1);
  ASSERT_FALSE(exact.empty());
  const FindHit& target = exact[0];
  std::vector<std::string> target_tokens = text::TokenSet(target.text);
  std::string query;
  for (const std::string& token : target_tokens) {
    query += token + "q ";
  }
  for (const std::string& token : text::TokenSet(query)) {
    ASSERT_EQ(std::count(target_tokens.begin(), target_tokens.end(), token),
              0)
        << token;
  }
  ASSERT_GT(text::MongeElkanSimilarity(query, target.text), 0.5) << query;

  for (const FindHit& hit :
       fx.snapshot->Find(query, fx.snapshot->num_entities())) {
    EXPECT_NE(hit.cluster, target.cluster) << query;
  }
  EXPECT_NE(fx.snapshot->Ask("brand", query).cluster, target.cluster);
}

}  // namespace
}  // namespace bdi::serve
