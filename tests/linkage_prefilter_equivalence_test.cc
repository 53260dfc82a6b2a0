// Equivalence contract for the matcher's comparison cascade: the
// prefilter may only skip pairs whose true score provably cannot reach
// the threshold, so running with the prefilter on must produce the
// bitwise-identical match list (same pairs, bitwise equal scores) and
// identical clustering as the unfiltered path — serial and parallel.
// Named *ParallelEquivalence* so the tsan/asan equivalence ctest presets
// pick it up.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bdi/linkage/linkage.h"
#include "bdi/synth/world.h"
#include "bdi/text/interner.h"
#include "bdi/text/similarity.h"
#include "support/linkage_oracle.h"

namespace bdi::linkage {
namespace {

synth::SyntheticWorld MakeWorld() {
  synth::WorldConfig config;
  config.seed = 11;
  config.num_entities = 200;
  config.num_sources = 14;
  return synth::GenerateWorld(config);
}

void ExpectEquivalent(const LinkageResult& unfiltered,
                      const LinkageResult& cascaded) {
  EXPECT_EQ(unfiltered.num_candidates, cascaded.num_candidates);
  ASSERT_EQ(unfiltered.matches.size(), cascaded.matches.size());
  for (size_t i = 0; i < unfiltered.matches.size(); ++i) {
    EXPECT_EQ(unfiltered.matches[i].pair.a, cascaded.matches[i].pair.a)
        << "match " << i;
    EXPECT_EQ(unfiltered.matches[i].pair.b, cascaded.matches[i].pair.b)
        << "match " << i;
    // Bitwise equality: a surviving pair runs the exact same kernels in
    // the exact same order as the unfiltered path.
    EXPECT_EQ(unfiltered.matches[i].score, cascaded.matches[i].score)
        << "match " << i;
  }
  ASSERT_EQ(unfiltered.clusters.label_of_record.size(),
            cascaded.clusters.label_of_record.size());
  for (size_t r = 0; r < unfiltered.clusters.label_of_record.size(); ++r) {
    EXPECT_EQ(unfiltered.clusters.label_of_record[r],
              cascaded.clusters.label_of_record[r])
        << "record " << r;
  }
}

LinkageResult RunWith(const synth::SyntheticWorld& world, ScorerKind scorer,
                      size_t num_threads, bool use_prefilter) {
  LinkerConfig config;
  config.scorer = scorer;
  config.num_threads = num_threads;
  config.use_prefilter = use_prefilter;
  Linker linker(&world.dataset, config);
  return linker.Run();
}

TEST(LinkagePrefilterParallelEquivalenceTest, RuleScorerSerial) {
  synth::SyntheticWorld world = MakeWorld();
  LinkageResult off = RunWith(world, ScorerKind::kRule, 1, false);
  LinkageResult on = RunWith(world, ScorerKind::kRule, 1, true);
  EXPECT_EQ(off.num_prefiltered, 0u);
  ExpectEquivalent(off, on);
}

TEST(LinkagePrefilterParallelEquivalenceTest, RuleScorerParallel) {
  synth::SyntheticWorld world = MakeWorld();
  ExpectEquivalent(RunWith(world, ScorerKind::kRule, 1, false),
                   RunWith(world, ScorerKind::kRule, 8, true));
}

TEST(LinkagePrefilterParallelEquivalenceTest, LinearScorerSerial) {
  synth::SyntheticWorld world = MakeWorld();
  ExpectEquivalent(RunWith(world, ScorerKind::kLinear, 1, false),
                   RunWith(world, ScorerKind::kLinear, 1, true));
}

TEST(LinkagePrefilterParallelEquivalenceTest, LinearScorerParallel) {
  synth::SyntheticWorld world = MakeWorld();
  ExpectEquivalent(RunWith(world, ScorerKind::kLinear, 1, false),
                   RunWith(world, ScorerKind::kLinear, 8, true));
}

// Both cascade settings against the test-only per-pair reference over the
// run's own candidates: the parallel slab sweep must land on the oracle's
// match list bit for bit, with the prefilter on and off.
TEST(LinkagePrefilterParallelEquivalenceTest, MatchesPerPairReference) {
  synth::SyntheticWorld world = MakeWorld();
  for (bool use_prefilter : {false, true}) {
    LinkerConfig config;
    config.num_threads = 8;
    config.use_prefilter = use_prefilter;
    Linker linker(&world.dataset, config);
    LinkageResult result = linker.Run();
    std::vector<ScoredPair> reference =
        ReferenceMatches(linker.extractor(), linker.scorer(),
                         linker.last_candidates(), use_prefilter);
    ASSERT_EQ(reference.size(), result.matches.size()) << use_prefilter;
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].pair.a, result.matches[i].pair.a) << i;
      EXPECT_EQ(reference[i].pair.b, result.matches[i].pair.b) << i;
      EXPECT_EQ(reference[i].score, result.matches[i].score) << i;
    }
  }
}

// Every candidate the prefilter would skip must truly score below the
// threshold — checked against the full extractor over all candidates of
// the synthetic world, for each scorer kind.
TEST(LinkagePrefilterParallelEquivalenceTest, SkippedPairsScoreBelowThreshold) {
  synth::SyntheticWorld world = MakeWorld();
  for (ScorerKind kind :
       {ScorerKind::kRule, ScorerKind::kLinear, ScorerKind::kLearned}) {
    LinkerConfig config;
    config.scorer = kind;
    config.num_threads = 1;
    Linker linker(&world.dataset, config);
    LinkageResult result = linker.Run();
    const FeatureExtractor& extractor = linker.extractor();
    const PairScorer& scorer = linker.scorer();
    double threshold = scorer.threshold();
    size_t skipped = 0;
    text::SimilarityScratch scratch;
    for (const CandidatePair& pair : linker.last_candidates()) {
      PairFeatures bounds = extractor.ExtractBounds(pair.a, pair.b, scratch);
      double bound = scorer.ScoreUpperBound(bounds);
      PairFeatures features = extractor.Extract(pair.a, pair.b, scratch);
      double score = scorer.Score(features);
      // The bound contract itself: never below the true score.
      ASSERT_GE(bound, score)
          << "pair (" << pair.a << ", " << pair.b << ") scorer "
          << scorer.name();
      if (bound + kPrefilterSlack < threshold) {
        ++skipped;
        ASSERT_LT(score, threshold)
            << "pair (" << pair.a << ", " << pair.b << ") scorer "
            << scorer.name();
      }
    }
    EXPECT_EQ(skipped, result.num_prefiltered) << "scorer " << scorer.name();
  }
}

// Kernel-level fuzz for the signature bounds: on random token pairs the
// bounded kernels must never under-bound the true kernels.
TEST(LinkagePrefilterParallelEquivalenceTest, SignatureBoundsNeverUnderBound) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> len_dist(0, 14);
  // A narrow alphabet maximizes shared-character collisions (the hard
  // case for the histogram bounds); include digits and a non-alnum byte
  // to cover all three signature class families.
  const std::string alphabet = "abcde019-";
  std::uniform_int_distribution<size_t> char_dist(0, alphabet.size() - 1);
  auto random_token = [&]() {
    std::string t(static_cast<size_t>(len_dist(rng)), ' ');
    for (char& c : t) c = alphabet[char_dist(rng)];
    return t;
  };
  text::SimilarityScratch scratch;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string x = random_token();
    std::string y = random_token();
    text::TokenSignature sx = text::MakeTokenSignature(x);
    text::TokenSignature sy = text::MakeTokenSignature(y);
    ASSERT_GE(text::JaroWinklerUpperBound(sx, sy),
              text::JaroWinklerSimilarity(x, y))
        << '"' << x << "\" vs \"" << y << '"';
    ASSERT_LE(text::EditDistanceLowerBound(sx, sy), text::EditDistance(x, y))
        << '"' << x << "\" vs \"" << y << '"';
    ASSERT_GE(text::NormalizedEditSimilarityUpperBound(sx, sy),
              text::NormalizedEditSimilarity(x, y))
        << '"' << x << "\" vs \"" << y << '"';
  }
  // Monge-Elkan bound over random short token sequences.
  std::uniform_int_distribution<int> seq_dist(0, 5);
  for (int iter = 0; iter < 300; ++iter) {
    text::TokenInterner interner;
    std::vector<text::TokenId> a, b;
    for (int i = 0, n = seq_dist(rng); i < n; ++i) {
      a.push_back(interner.Intern(random_token()));
    }
    for (int i = 0, n = seq_dist(rng); i < n; ++i) {
      b.push_back(interner.Intern(random_token()));
    }
    std::vector<text::TokenSignature> signatures;
    for (text::TokenId id = 0; id < interner.size(); ++id) {
      signatures.push_back(text::MakeTokenSignature(interner.token(id)));
    }
    double truth = text::SymmetricMongeElkan(interner, a, b, scratch);
    double bound =
        text::SymmetricMongeElkanUpperBound(signatures, a, b, scratch);
    ASSERT_GE(bound, truth) << "iter " << iter;
  }
}

}  // namespace
}  // namespace bdi::linkage
