#include "query/eval.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "base/hashing.h"

namespace uocqa {

std::vector<RelationId> ResolveAtomRelations(const Database& db,
                                             const ConjunctiveQuery& query) {
  std::vector<RelationId> atom_rels(query.atom_count(), kInvalidRelation);
  for (size_t i = 0; i < query.atom_count(); ++i) {
    const QueryAtom& atom = query.atoms()[i];
    const std::string& name = query.schema().name(atom.relation);
    RelationId db_rel = db.schema().Find(name);
    if (db_rel == kInvalidRelation) continue;
    assert(db.schema().arity(db_rel) == atom.terms.size());
    atom_rels[i] = db_rel;
  }
  return atom_rels;
}

std::vector<size_t> GreedyAtomOrder(const Database& db,
                                    const ConjunctiveQuery& query) {
  // Statistics-driven greedy atom order: repeatedly pick the atom with the
  // smallest estimated result size given the variables bound so far
  // (constant terms use exact posting lengths, bound variables the average
  // column selectivity), preferring atoms connected to already-placed ones.
  // Order only affects search cost, never the set of homomorphisms.
  const DatabaseIndex& index = db.index();
  std::vector<RelationId> atom_rels = ResolveAtomRelations(db, query);
  std::vector<size_t> order;
  std::vector<bool> placed(query.atom_count(), false);
  std::unordered_set<VarId> bound;
  for (VarId v : query.answer_vars()) bound.insert(v);
  while (order.size() < query.atom_count()) {
    size_t best = query.atom_count();
    bool best_connected = false;
    double best_est = 0;
    // Scanning atoms in index order with strict `est < best_est` makes the
    // tie-break deterministic: equal estimates keep the smallest atom index,
    // independent of platform or hash order.
    for (size_t i = 0; i < query.atom_count(); ++i) {
      if (placed[i]) continue;
      const QueryAtom& atom = query.atoms()[i];
      std::vector<BoundArg> consts;
      std::vector<uint32_t> bound_positions;
      for (size_t j = 0; j < atom.terms.size(); ++j) {
        const Term& t = atom.terms[j];
        if (t.is_const()) {
          consts.emplace_back(static_cast<uint32_t>(j), t.id);
        } else if (bound.count(t.id) > 0) {
          bound_positions.push_back(static_cast<uint32_t>(j));
        }
      }
      bool connected = !consts.empty() || !bound_positions.empty();
      double est = atom_rels[i] == kInvalidRelation
                       ? 0
                       : index.EstimateMatches(atom_rels[i], consts,
                                               bound_positions);
      if (best == query.atom_count() ||
          (connected && !best_connected) ||
          (connected == best_connected && est < best_est)) {
        best = i;
        best_connected = connected;
        best_est = est;
      }
    }
    placed[best] = true;
    order.push_back(best);
    for (const Term& t : query.atoms()[best].terms) {
      if (t.is_var()) bound.insert(t.id);
    }
  }
  return order;
}

QueryEvaluator::QueryEvaluator(const Database& db,
                               const ConjunctiveQuery& query)
    : QueryEvaluator(db, query, GreedyAtomOrder(db, query)) {}

QueryEvaluator::QueryEvaluator(const Database& db,
                               const ConjunctiveQuery& query,
                               std::vector<size_t> order)
    : db_(db),
      query_(query),
      atom_rels_(ResolveAtomRelations(db, query)),
      order_(std::move(order)) {
  assert(order_.size() == query.atom_count());
#ifndef NDEBUG
  std::vector<bool> seen(query.atom_count(), false);
  for (size_t i : order_) {
    assert(i < query.atom_count() && !seen[i]);
    seen[i] = true;
  }
#endif
}

bool QueryEvaluator::SeedAssignment(const std::vector<Value>& answer_tuple,
                                    Assignment* assignment) const {
  assert(answer_tuple.size() == query_.answer_vars().size());
  assignment->assign(query_.variable_count(), kUnassignedValue);
  for (size_t i = 0; i < answer_tuple.size(); ++i) {
    VarId v = query_.answer_vars()[i];
    if ((*assignment)[v] != kUnassignedValue &&
        (*assignment)[v] != answer_tuple[i]) {
      return false;
    }
    (*assignment)[v] = answer_tuple[i];
  }
  return true;
}

bool QueryEvaluator::Search(
    size_t depth, Assignment* assignment,
    std::vector<BoundArg>* bound_scratch, const std::vector<bool>* removed,
    const std::function<bool(const Assignment&)>& fn) const {
  if (depth == order_.size()) return fn(*assignment);
  size_t atom_idx = order_[depth];
  const QueryAtom& atom = query_.atoms()[atom_idx];
  // Resolve bound terms (constants and already-assigned variables) through
  // the inverted index: the shortest posting list is a candidate superset,
  // so only matching facts are enumerated instead of the whole relation.
  bound_scratch->clear();
  for (size_t j = 0; j < atom.terms.size(); ++j) {
    const Term& t = atom.terms[j];
    if (t.is_const()) {
      bound_scratch->emplace_back(static_cast<uint32_t>(j), t.id);
    } else if ((*assignment)[t.id] != kUnassignedValue) {
      bound_scratch->emplace_back(static_cast<uint32_t>(j),
                                  (*assignment)[t.id]);
    }
  }
  const std::vector<FactId>& candidates =
      db_.index().Candidates(atom_rels_[atom_idx], *bound_scratch);
  for (FactId fid : candidates) {
    if (removed != nullptr && (*removed)[fid]) continue;
    ++nodes_visited_;
    const Fact& fact = db_.fact(fid);
    // Try to unify atom terms with the fact, recording newly bound vars.
    std::vector<VarId> newly_bound;
    bool ok = true;
    for (size_t j = 0; j < atom.terms.size(); ++j) {
      const Term& t = atom.terms[j];
      Value c = fact.args[j];
      if (t.is_const()) {
        if (t.id != c) {
          ok = false;
          break;
        }
      } else {
        Value& slot = (*assignment)[t.id];
        if (slot == kUnassignedValue) {
          slot = c;
          newly_bound.push_back(t.id);
        } else if (slot != c) {
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      if (!Search(depth + 1, assignment, bound_scratch, removed, fn)) {
        for (VarId v : newly_bound) (*assignment)[v] = kUnassignedValue;
        return false;
      }
    }
    for (VarId v : newly_bound) (*assignment)[v] = kUnassignedValue;
  }
  return true;
}

bool QueryEvaluator::Entails(const std::vector<Value>& answer_tuple,
                             const std::vector<bool>* removed) const {
  assert(removed == nullptr || removed->size() == db_.size());
  Assignment assignment;
  if (!SeedAssignment(answer_tuple, &assignment)) return false;
  bool found = false;
  std::vector<BoundArg> scratch;
  Search(0, &assignment, &scratch, removed, [&found](const Assignment&) {
    found = true;
    return false;  // abort at first witness
  });
  return found;
}

std::optional<Assignment> QueryEvaluator::FindHomomorphism(
    const std::vector<Value>& answer_tuple) const {
  Assignment assignment;
  if (!SeedAssignment(answer_tuple, &assignment)) return std::nullopt;
  std::optional<Assignment> result;
  std::vector<BoundArg> scratch;
  Search(0, &assignment, &scratch, nullptr, [&result](const Assignment& a) {
    result = a;
    return false;
  });
  return result;
}

uint64_t QueryEvaluator::CountHomomorphisms(
    const std::vector<Value>& answer_tuple) const {
  // Count *total* variable assignments; homomorphisms that leave some
  // variable untouched (a variable whose atoms are unsatisfied cannot occur
  // because every atom must be matched) do not arise: every variable occurs
  // in some atom, and Search matches all atoms. Variables appearing in no
  // atom are impossible by construction of ConjunctiveQuery::AddVariable
  // use; if present they'd be unconstrained and we treat them as an error.
  Assignment assignment;
  if (!SeedAssignment(answer_tuple, &assignment)) return 0;
  uint64_t count = 0;
  std::vector<BoundArg> scratch;
  Search(0, &assignment, &scratch, nullptr, [&count](const Assignment&) {
    ++count;
    return true;
  });
  return count;
}

bool QueryEvaluator::ForEachHomomorphism(
    const std::vector<Value>& answer_tuple,
    const std::function<bool(const Assignment&)>& fn) const {
  Assignment assignment;
  if (!SeedAssignment(answer_tuple, &assignment)) return true;
  std::vector<BoundArg> scratch;
  return Search(0, &assignment, &scratch, nullptr, fn);
}

std::vector<std::vector<Value>> QueryEvaluator::Answers() const {
  std::unordered_set<std::vector<Value>, VectorHash<Value>> seen;
  std::vector<std::vector<Value>> out;
  Assignment assignment(query_.variable_count(), kUnassignedValue);
  std::vector<BoundArg> scratch;
  Search(0, &assignment, &scratch, nullptr, [&](const Assignment& a) {
    std::vector<Value> tuple;
    tuple.reserve(query_.answer_vars().size());
    for (VarId v : query_.answer_vars()) tuple.push_back(a[v]);
    if (seen.insert(tuple).second) out.push_back(std::move(tuple));
    return true;
  });
  return out;
}

bool Entails(const Database& db, const ConjunctiveQuery& query,
             const std::vector<Value>& answer_tuple) {
  QueryEvaluator eval(db, query);
  return eval.Entails(answer_tuple);
}

}  // namespace uocqa
