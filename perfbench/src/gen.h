// The benchmark's input generator. Every workload has a fixed shape: block
// sizes, fact counts and order, and the request mix with its request seeds.
// The run seed only renames constants, and the names keep their order. So
// the work of a run is the same at every seed, which makes runs at
// different seeds comparable, while no two seeds feed the program the same
// text.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct GenFact {
  std::string rel;
  std::vector<std::string> args;
};

/// An instance as structured data (what the oracle reads) and as text
/// (what the program reads).
struct GenInstance {
  /// Relation name -> 1-based key positions.
  std::vector<std::pair<std::string, std::vector<int>>> keys;
  std::vector<GenFact> facts;
  std::string Text() const;
  /// One fact in the instance text syntax, e.g. "R(a, b)".
  static std::string FactText(const GenFact& f);
};

struct GenAtom {
  std::string rel;
  std::vector<std::string> vars;
};

/// A self-join-free conjunctive query over variables only.
struct GenQuery {
  std::vector<std::string> answer_vars;
  std::vector<GenAtom> atoms;
  std::string Text() const;
};

/// `fpras`: one small inconsistent instance per query shape.
struct FprasCase {
  std::string shape;  // chain | star | triangle
  GenInstance instance;
  GenQuery query;
  /// Candidate answers; the last one has RF = 0, the others 0 < RF < 1.
  std::vector<std::string> answers;
};
std::vector<FprasCase> MakeFprasCases(uint64_t seed);

/// `exact_mc`: one static instance with bystander relations.
struct ExactMcCase {
  GenInstance instance;
  std::vector<GenQuery> queries;
  std::vector<std::string> answers;  // asked of every query
};
ExactMcCase MakeExactMcCase(uint64_t seed);

/// `live`: a base instance plus an ingest stream cut into snapshot deltas.
struct LiveCase {
  GenInstance base;
  std::vector<std::vector<GenFact>> deltas;
  /// True if the delta adds conflicting facts to the probed relations;
  /// false if it only adds conflict-free facts to the bystander relation.
  std::vector<bool> delta_conflicts;
  GenQuery probe_query;
  std::vector<std::string> probe_answers;
};
LiveCase MakeLiveCase(uint64_t seed);

/// A fixed request seed (a small positive integer) per salt. It does not
/// depend on the run seed: the randomized algorithms' work stays the same
/// at every run seed.
uint64_t RequestSeed(uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
