#include "oracle.h"

#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

using Poly = std::vector<u128>;  // index = sequence length

u128 Add(u128 a, u128 b) {
  u128 r;
  if (__builtin_add_overflow(a, b, &r)) throw std::overflow_error("oracle count overflows 128 bits");
  return r;
}

u128 Mul(u128 a, u128 b) {
  u128 r;
  if (__builtin_mul_overflow(a, b, &r)) throw std::overflow_error("oracle count overflows 128 bits");
  return r;
}

/// p shifted by one operation, scaled by `ways` (the choices of that
/// operation).
void AddShifted(Poly* out, const Poly& p, u128 ways) {
  if (ways == 0 || p.empty()) return;
  if (out->size() < p.size() + 1) out->resize(p.size() + 1, 0);
  for (size_t l = 0; l < p.size(); ++l) (*out)[l + 1] = Add((*out)[l + 1], Mul(p[l], ways));
}

/// Resolution sequences of one block, by length. An operation removes one
/// fact or one pair while at least two facts remain (every two facts of a
/// block violate the key).
///   keep_one[m]: m facts remain, one designated fact must survive;
///   keep_none[m]: m facts remain, all must go.
struct BlockPolys {
  std::vector<Poly> keep_one, keep_none;
  explicit BlockPolys(size_t max_size) : keep_one(max_size + 1), keep_none(max_size + 1) {
    keep_none[0] = {1};
    if (max_size >= 1) keep_one[1] = {1};
    for (size_t m = 2; m <= max_size; ++m) {
      u128 mm = m;
      // keep_one: remove one of the m-1 others, or a pair of them.
      AddShifted(&keep_one[m], keep_one[m - 1], mm - 1);
      if (m >= 3) AddShifted(&keep_one[m], keep_one[m - 2], (mm - 1) * (mm - 2) / 2);
      // keep_none: remove any one fact, or any pair.
      AddShifted(&keep_none[m], keep_none[m - 1], mm);
      AddShifted(&keep_none[m], keep_none[m - 2], mm * (mm - 1) / 2);
    }
  }
};

class Binomials {
 public:
  explicit Binomials(size_t n) : c_(n + 1) {
    for (size_t i = 0; i <= n; ++i) {
      c_[i].assign(i + 1, 1);
      for (size_t k = 1; k < i; ++k) c_[i][k] = Add(c_[i - 1][k - 1], c_[i - 1][k]);
    }
  }
  u128 operator()(size_t n, size_t k) const { return c_[n][k]; }

 private:
  std::vector<std::vector<u128>> c_;
};

/// Two independent sequence families merge in C(i+j, i) ways.
Poly Interleave(const Poly& a, const Poly& b, const Binomials& binom) {
  if (a.empty() || b.empty()) return {};
  Poly out(a.size() + b.size() - 1, 0);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (size_t j = 0; j < b.size(); ++j) {
      if (b[j] == 0) continue;
      out[i + j] = Add(out[i + j], Mul(Mul(a[i], b[j]), binom(i + j, i)));
    }
  }
  return out;
}

/// The oracle's own conjunctive-query evaluator over a kept-fact mask.
class Evaluator {
 public:
  Evaluator(const std::vector<GenFact>& facts, const GenQuery& query,
            const std::vector<std::string>& answer) {
    std::map<std::string, int> var_ids;
    for (const GenAtom& atom : query.atoms) {
      std::vector<int> vars;
      for (const std::string& v : atom.vars) {
        auto it = var_ids.emplace(v, static_cast<int>(var_ids.size())).first;
        vars.push_back(it->second);
      }
      atom_vars_.push_back(vars);
    }
    var_count_ = var_ids.size();
    for (size_t i = 0; i < query.answer_vars.size(); ++i) {
      seed_.push_back({var_ids.at(query.answer_vars[i]), Intern(answer[i])});
    }
    atom_facts_.resize(query.atoms.size());
    for (size_t f = 0; f < facts.size(); ++f) {
      for (size_t a = 0; a < query.atoms.size(); ++a) {
        if (facts[f].rel != query.atoms[a].rel) continue;
        std::vector<int> args;
        for (const std::string& s : facts[f].args) args.push_back(Intern(s));
        atom_facts_[a].push_back({f, args});
      }
    }
  }

  /// Is there a homomorphism extending the answer, using kept facts only?
  bool Entails(const std::vector<char>& kept) const {
    std::vector<int> assignment(var_count_, -1);
    for (const auto& [var, value] : seed_) {
      if (assignment[var] != -1 && assignment[var] != value) return false;
      assignment[var] = value;
    }
    std::vector<char> placed(atom_vars_.size(), 0);
    return Search(kept, &assignment, &placed, 0);
  }

 private:
  int Intern(const std::string& s) {
    return constants_.emplace(s, static_cast<int>(constants_.size())).first->second;
  }

  bool Search(const std::vector<char>& kept, std::vector<int>* assignment,
              std::vector<char>* placed, size_t depth) const {
    if (depth == atom_vars_.size()) return true;
    // Most-bound-first atom choice.
    size_t best = 0;
    int best_bound = -1;
    for (size_t a = 0; a < atom_vars_.size(); ++a) {
      if ((*placed)[a]) continue;
      int bound = 0;
      for (int v : atom_vars_[a]) bound += (*assignment)[v] != -1;
      if (bound > best_bound) {
        best_bound = bound;
        best = a;
      }
    }
    (*placed)[best] = 1;
    const std::vector<int>& vars = atom_vars_[best];
    for (const auto& [fact, args] : atom_facts_[best]) {
      if (!kept[fact]) continue;
      std::vector<int> saved = *assignment;
      bool match = true;
      for (size_t i = 0; i < vars.size() && match; ++i) {
        int& slot = (*assignment)[vars[i]];
        if (slot == -1) {
          slot = args[i];
        } else if (slot != args[i]) {
          match = false;
        }
      }
      if (match && Search(kept, assignment, placed, depth + 1)) return true;
      *assignment = std::move(saved);
    }
    (*placed)[best] = 0;
    return false;
  }

  std::unordered_map<std::string, int> constants_;
  std::vector<std::vector<int>> atom_vars_;
  size_t var_count_ = 0;
  std::vector<std::pair<int, int>> seed_;
  std::vector<std::vector<std::pair<size_t, std::vector<int>>>> atom_facts_;
};

}  // namespace

double OracleCounts::rf_ur() const {
  return repairs == 0 ? 0 : static_cast<double>(repairs_entailing) / static_cast<double>(repairs);
}

double OracleCounts::rf_us() const {
  return sequences == 0 ? 0
                        : static_cast<double>(sequences_entailing) / static_cast<double>(sequences);
}

std::string U128ToString(u128 v) {
  if (v == 0) return "0";
  std::string s;
  while (v > 0) {
    s.insert(s.begin(), static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  return s;
}

OracleCounts OracleCount(const GenInstance& instance, const GenQuery& query,
                         const std::vector<std::string>& answer) {
  // Deduplicate facts, then group them into blocks by (relation, key).
  std::vector<GenFact> facts;
  std::set<std::pair<std::string, std::vector<std::string>>> seen;
  for (const GenFact& f : instance.facts) {
    if (seen.insert({f.rel, f.args}).second) facts.push_back(f);
  }
  std::map<std::string, std::vector<int>> keys(instance.keys.begin(), instance.keys.end());
  std::map<std::pair<std::string, std::vector<std::string>>, std::vector<size_t>> by_key;
  std::vector<char> kept(facts.size(), 1);
  for (size_t f = 0; f < facts.size(); ++f) {
    auto it = keys.find(facts[f].rel);
    std::vector<std::string> key_value;
    if (it == keys.end()) {
      key_value = facts[f].args;  // keyless relation: singleton blocks
    } else {
      for (int p : it->second) key_value.push_back(facts[f].args[p - 1]);
    }
    by_key[{facts[f].rel, key_value}].push_back(f);
  }
  std::vector<std::vector<size_t>> blocks;  // conflicting blocks only
  size_t max_size = 1, total_facts = 0;
  for (auto& [key, members] : by_key) {
    if (members.size() < 2) continue;
    max_size = std::max(max_size, members.size());
    total_facts += members.size();
    blocks.push_back(members);
  }
  BlockPolys polys(max_size);
  Binomials binom(total_facts + 1);
  Evaluator eval(facts, query, answer);

  OracleCounts out;
  std::vector<size_t> outcome(blocks.size(), 0);  // kept index, or size = none
  for (;;) {
    Poly seqs = {1};
    for (size_t b = 0; b < blocks.size(); ++b) {
      size_t n = blocks[b].size();
      for (size_t i = 0; i < n; ++i) kept[blocks[b][i]] = outcome[b] == i;
      seqs = Interleave(seqs, outcome[b] == n ? polys.keep_none[n] : polys.keep_one[n], binom);
    }
    u128 count = 0;
    for (u128 c : seqs) count = Add(count, c);
    out.repairs = Add(out.repairs, 1);
    out.sequences = Add(out.sequences, count);
    if (eval.Entails(kept)) {
      out.repairs_entailing = Add(out.repairs_entailing, 1);
      out.sequences_entailing = Add(out.sequences_entailing, count);
    }
    size_t b = 0;
    while (b < blocks.size() && outcome[b] == blocks[b].size()) outcome[b++] = 0;
    if (b == blocks.size()) break;
    ++outcome[b];
  }
  return out;
}

}  // namespace perfbench
