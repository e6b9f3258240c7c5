#include "gen.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

namespace {

/// Fresh constant names: a running number, so that names sort in the order
/// they are made whatever the seed, then letters drawn from the run seed.
/// Renaming alone then changes neither the interning order nor any
/// lexicographic order the program derives from the constants.
class Names {
 public:
  explicit Names(uint64_t seed) : rng_(seed) {}
  std::string Fresh() {
    char number[16];
    std::snprintf(number, sizeof(number), "c%05zu", next_++);
    std::string s = number;
    for (int i = 0; i < 4; ++i) s += static_cast<char>('a' + rng_.Below(26));
    return s;
  }

 private:
  SplitMix rng_;
  size_t next_ = 0;
};

/// Appends the block rel(key, live), rel(key, <fresh>)... of `size` facts:
/// one fact leads on to `live`, the others to fresh dead-end constants.
void AddBlock(GenInstance* inst, const std::string& rel, const std::string& key,
              const std::string& live, size_t size, Names* names) {
  inst->facts.push_back({rel, {key, live}});
  for (size_t i = 1; i < size; ++i) {
    inst->facts.push_back({rel, {key, names->Fresh()}});
  }
}

GenQuery MakeQuery(const std::vector<std::pair<std::string, std::vector<std::string>>>& atoms) {
  GenQuery q;
  q.answer_vars = {"x"};
  for (const auto& [rel, vars] : atoms) q.atoms.push_back({rel, vars});
  return q;
}

std::vector<std::pair<std::string, std::vector<int>>> KeyFirst(
    const std::vector<std::string>& rels) {
  std::vector<std::pair<std::string, std::vector<int>>> out;
  for (const std::string& r : rels) out.push_back({r, {1}});
  return out;
}

}  // namespace

std::string GenInstance::FactText(const GenFact& f) {
  std::string s = f.rel + "(";
  for (size_t i = 0; i < f.args.size(); ++i) {
    if (i > 0) s += ", ";
    s += f.args[i];
  }
  return s + ")";
}

std::string GenInstance::Text() const {
  std::string s;
  for (const auto& [rel, positions] : keys) {
    s += "key " + rel + " =";
    for (int p : positions) s += " " + std::to_string(p);
    s += "\n";
  }
  for (const GenFact& f : facts) s += FactText(f) + "\n";
  return s;
}

std::string GenQuery::Text() const {
  std::string s = "Ans(";
  for (size_t i = 0; i < answer_vars.size(); ++i) {
    if (i > 0) s += ", ";
    s += answer_vars[i];
  }
  s += ") :- ";
  for (size_t a = 0; a < atoms.size(); ++a) {
    if (a > 0) s += ", ";
    s += atoms[a].rel + "(";
    for (size_t i = 0; i < atoms[a].vars.size(); ++i) {
      if (i > 0) s += ", ";
      s += atoms[a].vars[i];
    }
    s += ")";
  }
  return s;
}

// The shape of every run: block structure, fact order and the bystander
// picks come from these fixed streams, and the run seed only renames
// constants. The work of a run is then the same at every seed.
constexpr uint64_t kFprasShape = 0x66707261, kExactMcShape = 0x65786163, kLiveShape = 0x6c697665;

// The three blocks of size 2 on each planted witness. The Seq[k] automaton
// grows steeply with the number of facts and block sizes, and its FPRAS
// dominates a request: this size puts a witness request at 0.05-0.25 s.
constexpr size_t kFprasBlock = 2;

std::vector<FprasCase> MakeFprasCases(uint64_t seed) {
  std::vector<FprasCase> out;
  SplitMix layout(kFprasShape);
  Names names(seed);
  for (const char* shape : {"chain", "star", "triangle"}) {
    FprasCase c;
    c.shape = shape;
    std::string s = shape;
    if (s == "chain") {
      c.query = MakeQuery({{"R", {"x", "y"}}, {"S", {"y", "z"}}, {"T", {"z", "w"}}});
      c.instance.keys = KeyFirst({"R", "S", "T"});
    } else if (s == "star") {
      c.query = MakeQuery({{"A", {"x", "y"}}, {"B", {"x", "z"}}, {"C", {"x", "w"}}});
      c.instance.keys = KeyFirst({"A", "B", "C"});
    } else {
      c.query = MakeQuery({{"R", {"x", "y"}}, {"S", {"y", "z"}}, {"T", {"z", "x"}}});
      c.instance.keys = KeyFirst({"R", "S", "T"});
    }
    GenInstance& inst = c.instance;
    std::string a = names.Fresh();
    c.answers.push_back(a);
    if (s == "chain") {
      std::string b = names.Fresh(), cc = names.Fresh();
      AddBlock(&inst, "R", a, b, kFprasBlock, &names);
      AddBlock(&inst, "S", b, cc, kFprasBlock, &names);
      AddBlock(&inst, "T", cc, names.Fresh(), kFprasBlock, &names);
    } else if (s == "star") {
      AddBlock(&inst, "A", a, names.Fresh(), kFprasBlock, &names);
      AddBlock(&inst, "B", a, names.Fresh(), kFprasBlock, &names);
      AddBlock(&inst, "C", a, names.Fresh(), kFprasBlock, &names);
    } else {
      // Only the live fact of the T-block closes the triangle.
      std::string b = names.Fresh(), cc = names.Fresh();
      AddBlock(&inst, "R", a, b, kFprasBlock, &names);
      AddBlock(&inst, "S", b, cc, kFprasBlock, &names);
      AddBlock(&inst, "T", cc, a, kFprasBlock, &names);
    }
    // The RF = 0 candidate: a partial witness that never completes.
    std::string a0 = names.Fresh();
    c.answers.push_back(a0);
    if (s == "chain") {
      AddBlock(&inst, "R", a0, names.Fresh(), 2, &names);
    } else if (s == "star") {
      AddBlock(&inst, "A", a0, names.Fresh(), 2, &names);
      AddBlock(&inst, "B", a0, names.Fresh(), 1, &names);
    } else {
      std::string b0 = names.Fresh(), c0 = names.Fresh();
      AddBlock(&inst, "R", a0, b0, 2, &names);
      AddBlock(&inst, "S", b0, c0, 1, &names);
      AddBlock(&inst, "T", c0, names.Fresh(), 1, &names);
    }
    layout.Shuffle(&inst.facts);
    out.push_back(std::move(c));
  }
  return out;
}

uint64_t RequestSeed(uint64_t salt) {
  SplitMix rng(salt * 0x100000001b3ull);
  return 1 + rng.Next() % 1000000;
}

// exact_mc: consistent filler over the query relations R, S, P, two
// bystander relations U and V that no query reads, and per answer a witness
// whose blocks conflict. Five conflicting blocks give |ORep| = 243.
struct ExactMcAnswerShape {
  size_t r, s, p;  // block sizes of R(a,.), S(y_live,.), P(a,.)
};
static const ExactMcAnswerShape kExactMcAnswers[] = {
    {2, 2, 1}, {2, 1, 2}, {1, 2, 1}};
static const size_t kExactMcFillR = 120, kExactMcFillS = 80,
                    kExactMcYPool = 100, kExactMcFillP = 60,
                    kExactMcBystanderU = 100, kExactMcBystanderV = 60;

ExactMcCase MakeExactMcCase(uint64_t seed) {
  ExactMcCase c;
  SplitMix layout(kExactMcShape);
  Names names(seed);
  GenInstance& inst = c.instance;
  inst.keys = KeyFirst({"R", "S", "P", "U", "V"});
  std::vector<std::string> ys;
  for (size_t i = 0; i < kExactMcYPool; ++i) ys.push_back(names.Fresh());
  for (size_t i = 0; i < kExactMcFillS; ++i) {
    inst.facts.push_back({"S", {ys[i], names.Fresh()}});
  }
  std::vector<std::string> xs;
  for (size_t i = 0; i < kExactMcFillR; ++i) {
    xs.push_back(names.Fresh());
    inst.facts.push_back({"R", {xs.back(), ys[layout.Below(ys.size())]}});
  }
  for (size_t i = 0; i < kExactMcFillP; ++i) {
    inst.facts.push_back({"P", {xs[i], names.Fresh()}});
  }
  for (size_t i = 0; i < kExactMcBystanderU; ++i) {
    inst.facts.push_back({"U", {names.Fresh(), names.Fresh()}});
  }
  for (size_t i = 0; i < kExactMcBystanderV; ++i) {
    inst.facts.push_back({"V", {names.Fresh(), names.Fresh(), names.Fresh()}});
  }
  for (const ExactMcAnswerShape& shape : kExactMcAnswers) {
    std::string a = names.Fresh(), y = names.Fresh();
    c.answers.push_back(a);
    AddBlock(&inst, "R", a, y, shape.r, &names);
    AddBlock(&inst, "S", y, names.Fresh(), shape.s, &names);
    AddBlock(&inst, "P", a, names.Fresh(), shape.p, &names);
  }
  // RF = 0 for both queries: R(a0, y) with no S-fact on y and no P-fact.
  std::string a0 = names.Fresh();
  c.answers.push_back(a0);
  inst.facts.push_back({"R", {a0, names.Fresh()}});
  layout.Shuffle(&inst.facts);
  c.queries.push_back(MakeQuery({{"R", {"x", "y"}}, {"S", {"y", "z"}}}));
  c.queries.push_back(MakeQuery({{"R", {"x", "y"}}, {"P", {"x", "u"}}}));
  return c;
}

// live: a base of R/S chains plus bystander U, then nine deltas of 100
// facts in the pattern conflict, conflict, bystander-only. Conflict deltas
// add facts under existing R and S keys (growing conflict blocks, including
// the probed answers' R-blocks) and a few conflict-free U facts.
static const size_t kLiveBaseChains = 150, kLiveBaseU = 100, kLiveDeltas = 9,
                    kLiveDeltaFacts = 100, kLiveConflictR = 45,
                    kLiveConflictS = 45, kLiveProbes = 3;

LiveCase MakeLiveCase(uint64_t seed) {
  LiveCase c;
  SplitMix layout(kLiveShape);
  Names names(seed);
  c.base.keys = KeyFirst({"R", "S", "U"});
  std::vector<std::string> xs, ys;
  for (size_t i = 0; i < kLiveBaseChains; ++i) {
    xs.push_back(names.Fresh());
    ys.push_back(names.Fresh());
    c.base.facts.push_back({"R", {xs[i], ys[i]}});
    c.base.facts.push_back({"S", {ys[i], names.Fresh()}});
  }
  for (size_t i = 0; i < kLiveBaseU; ++i) {
    c.base.facts.push_back({"U", {names.Fresh(), names.Fresh()}});
  }
  layout.Shuffle(&c.base.facts);
  for (size_t i = 0; i < kLiveProbes; ++i) c.probe_answers.push_back(xs[i]);
  c.probe_query = MakeQuery({{"R", {"x", "y"}}, {"S", {"y", "z"}}});
  for (size_t d = 0; d < kLiveDeltas; ++d) {
    bool conflicts = d % 3 != 2;
    std::vector<GenFact> delta;
    if (conflicts) {
      // One new fact in a probed answer's R-block, so the probes' RF moves.
      delta.push_back({"R", {xs[d % kLiveProbes], names.Fresh()}});
      for (size_t i = 1; i < kLiveConflictR; ++i) {
        delta.push_back({"R", {xs[kLiveProbes + layout.Below(xs.size() - kLiveProbes)],
                               ys[layout.Below(ys.size())]}});
      }
      for (size_t i = 0; i < kLiveConflictS; ++i) {
        delta.push_back({"S", {ys[layout.Below(ys.size())], names.Fresh()}});
      }
    }
    while (delta.size() < kLiveDeltaFacts) {
      delta.push_back({"U", {names.Fresh(), names.Fresh()}});
    }
    layout.Shuffle(&delta);
    c.deltas.push_back(std::move(delta));
    c.delta_conflicts.push_back(conflicts);
  }
  return c;
}

}  // namespace perfbench
