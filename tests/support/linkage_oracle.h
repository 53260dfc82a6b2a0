// Test-only reference for the matching stage: the per-pair comparison
// cascade, one candidate at a time through the single-pair extractor and
// scorer APIs (FeatureExtractor::Extract/ExtractBounds, PairScorer::Score/
// ScoreUpperBound). The library's one matching path (ScorePairs in
// bdi/linkage/progressive.h) runs the batched slab kernels instead; the
// equivalence tests and the benches' identical_output gates compare it
// against this independent reference bit for bit.
#ifndef BDI_TESTS_SUPPORT_LINKAGE_ORACLE_H_
#define BDI_TESTS_SUPPORT_LINKAGE_ORACLE_H_

#include <vector>

#include "bdi/linkage/blocking.h"
#include "bdi/linkage/clustering.h"
#include "bdi/linkage/matcher.h"
#include "bdi/text/similarity.h"

namespace bdi::linkage {

/// One score per candidate, in candidate order. With `use_prefilter`, a
/// candidate whose score upper bound cannot reach the scorer's threshold
/// (bound + kPrefilterSlack < threshold) records that bound instead of
/// running the full kernels — the cascade's skip rule, so a skipped slot
/// is below threshold by construction. `extractor` must be prepared (a
/// Linker after Run() has prepared its own).
inline std::vector<double> ReferenceScores(
    const FeatureExtractor& extractor, const PairScorer& scorer,
    const std::vector<CandidatePair>& candidates, bool use_prefilter) {
  const double threshold = scorer.threshold();
  text::SimilarityScratch scratch;
  std::vector<double> scores(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const CandidatePair& pair = candidates[i];
    if (use_prefilter) {
      double bound =
          scorer.ScoreUpperBound(extractor.ExtractBounds(pair.a, pair.b,
                                                         scratch));
      if (bound + kPrefilterSlack < threshold) {
        scores[i] = bound;
        continue;
      }
    }
    scores[i] = scorer.Score(extractor.Extract(pair.a, pair.b, scratch));
  }
  return scores;
}

/// The match list Linker::Run must report for `candidates`: every
/// candidate whose reference score clears the scorer's threshold, in
/// candidate order.
inline std::vector<ScoredPair> ReferenceMatches(
    const FeatureExtractor& extractor, const PairScorer& scorer,
    const std::vector<CandidatePair>& candidates, bool use_prefilter) {
  std::vector<double> scores =
      ReferenceScores(extractor, scorer, candidates, use_prefilter);
  std::vector<ScoredPair> matches;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (scores[i] >= scorer.threshold()) {
      matches.push_back(ScoredPair{candidates[i], scores[i]});
    }
  }
  return matches;
}

}  // namespace bdi::linkage

#endif  // BDI_TESTS_SUPPORT_LINKAGE_ORACLE_H_
