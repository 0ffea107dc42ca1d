#include "knn/query.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace diknn {

std::vector<NodeId> KnnResult::CandidateIds() const {
  std::vector<NodeId> ids;
  ids.reserve(candidates.size());
  for (const KnnCandidate& c : candidates) ids.push_back(c.id);
  return ids;
}

double Accuracy(const std::vector<NodeId>& returned,
                const std::vector<NodeId>& truth) {
  if (truth.empty()) return 1.0;
  std::unordered_set<NodeId> got(returned.begin(), returned.end());
  int hits = 0;
  for (NodeId id : truth) {
    if (got.contains(id)) ++hits;
  }
  return static_cast<double>(hits) / truth.size();
}

void PruneCandidates(std::vector<KnnCandidate>* candidates, const Point& q,
                     size_t count) {
  // Deduplicate by id, keeping the most recent report for each node.
  std::unordered_map<NodeId, KnnCandidate> freshest;
  for (const KnnCandidate& c : *candidates) {
    auto [it, inserted] = freshest.try_emplace(c.id, c);
    if (!inserted && c.sampled_at > it->second.sampled_at) it->second = c;
  }
  candidates->clear();
  candidates->reserve(freshest.size());
  for (auto& [id, c] : freshest) candidates->push_back(c);

  std::sort(candidates->begin(), candidates->end(),
            [&q](const KnnCandidate& a, const KnnCandidate& b) {
              const double da = SquaredDistance(a.position, q);
              const double db = SquaredDistance(b.position, q);
              if (da != db) return da < db;
              return a.id < b.id;
            });
  if (candidates->size() > count) candidates->resize(count);
}

}  // namespace diknn
