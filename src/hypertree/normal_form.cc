#include "hypertree/normal_form.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

namespace uocqa {

namespace {

std::vector<VarId> NonAnswerVars(const ConjunctiveQuery& query,
                                 size_t atom_idx) {
  std::unordered_set<VarId> answers(query.answer_vars().begin(),
                                    query.answer_vars().end());
  std::vector<VarId> out;
  for (VarId v : query.atoms()[atom_idx].Variables()) {
    if (answers.find(v) == answers.end()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Result<HypertreeDecomposition> CompleteDecomposition(
    const ConjunctiveQuery& query, const HypertreeDecomposition& h) {
  UOCQA_RETURN_IF_ERROR(h.Validate(query));
  // Copy h node-by-node in ≺T order (so parents precede children).
  HypertreeDecomposition out;
  std::unordered_map<DecompVertex, DecompVertex> remap;
  for (DecompVertex v : h.VerticesInOrder()) {
    const DecompositionNode& n = h.node(v);
    DecompVertex parent = n.parent == kInvalidVertex
                              ? kInvalidVertex
                              : remap.at(n.parent);
    remap[v] = out.AddNode(n.bag, n.lambda, parent);
  }
  for (size_t ai = 0; ai < query.atom_count(); ++ai) {
    if (out.MinimalCoveringVertex(query, ai) != kInvalidVertex) continue;
    std::vector<VarId> need = NonAnswerVars(query, ai);
    // Tree-decomposition condition (1) guarantees some bag contains `need`.
    DecompVertex host = kInvalidVertex;
    for (DecompVertex v = 0; v < out.size(); ++v) {
      const std::vector<VarId>& bag = out.node(v).bag;
      if (std::includes(bag.begin(), bag.end(), need.begin(), need.end())) {
        host = v;
        break;
      }
    }
    if (host == kInvalidVertex) {
      return Status::Internal(
          "no bag contains the variables of an uncovered atom");
    }
    out.AddNode(need, {ai}, host);
  }
  UOCQA_RETURN_IF_ERROR(out.Validate(query));
  if (!out.IsComplete(query)) {
    return Status::Internal("completion failed to produce a complete GHD");
  }
  return out;
}

Result<NormalFormInstance> ToNormalForm(const Database& db,
                                        const ConjunctiveQuery& query,
                                        const HypertreeDecomposition& h) {
  UOCQA_ASSIGN_OR_RETURN(HypertreeDecomposition complete,
                         CompleteDecomposition(query, h));

  NormalFormInstance out;
  out.query = query;  // copy; extended below
  ConjunctiveQuery& q = out.query;

  // --- relations of D that do not occur in Q -------------------------------
  std::unordered_set<std::string> query_rels;
  for (const QueryAtom& a : query.atoms()) {
    query_rels.insert(query.schema().name(a.relation));
  }
  std::vector<RelationId> missing;  // ids in db schema
  for (RelationId r = 0; r < db.schema().relation_count(); ++r) {
    if (query_rels.count(db.schema().name(r)) > 0) continue;
    if (db.index().RelationCardinality(r) == 0) continue;  // not "in D"
    missing.push_back(r);
  }

  // Fresh P_i(z̄_i) and P'_i(z'_i) atoms. Atom indices recorded for Ĥ.
  struct MissingRel {
    size_t p_atom;       // index of P_i(z̄_i) in q
    size_t pprime_atom;  // index of P'_i(z'_i) in q
  };
  std::vector<MissingRel> missing_atoms;
  for (RelationId r : missing) {
    const std::string& name = db.schema().name(r);
    uint32_t arity = db.schema().arity(r);
    UOCQA_ASSIGN_OR_RETURN(RelationId qr,
                           q.mutable_schema().AddRelation(name, arity));
    std::vector<Term> terms;
    for (uint32_t i = 0; i < arity; ++i) {
      terms.push_back(Term::Var(q.AddFreshVariable("z")));
    }
    MissingRel mr;
    mr.p_atom = q.atom_count();
    q.AddAtom(qr, std::move(terms));
    UOCQA_ASSIGN_OR_RETURN(
        RelationId pp, q.mutable_schema().AddRelation("__nfP_" + name, 1));
    mr.pprime_atom = q.atom_count();
    q.AddAtom(pp, {Term::Var(q.AddFreshVariable("zp"))});
    missing_atoms.push_back(mr);
  }

  // Fresh S_v^{(j)}(w_v^{(j)}) atoms, one per new chain vertex.
  // chain_atoms[v][j] = atom index of S_v^{(j+1)}.
  std::vector<std::vector<size_t>> chain_atoms(complete.size());
  for (DecompVertex v = 0; v < complete.size(); ++v) {
    size_t h_children = complete.node(v).children.size();
    for (size_t j = 0; j <= h_children; ++j) {
      std::string rel_name =
          "__nfS_" + std::to_string(v) + "_" + std::to_string(j);
      UOCQA_ASSIGN_OR_RETURN(RelationId sr,
                             q.mutable_schema().AddRelation(rel_name, 1));
      chain_atoms[v].push_back(q.atom_count());
      q.AddAtom(sr, {Term::Var(q.AddFreshVariable("w"))});
    }
  }

  // --- database D̂ ----------------------------------------------------------
  out.db = Database(q.schema());
  // The schemas may order relations differently; re-add facts by name.
  for (const Fact& f : db.facts()) {
    RelationId nr = q.schema().Find(db.schema().name(f.relation));
    assert(nr != kInvalidRelation);
    out.db.AddFact(Fact(nr, f.args));
  }
  const std::string kPadConstant = "__nf0";
  for (size_t i = 0; i < missing_atoms.size(); ++i) {
    RelationId pp = q.atoms()[missing_atoms[i].pprime_atom].relation;
    out.db.AddFact(Fact(pp, {ValuePool::Intern(kPadConstant)}));
    // Deviation from the paper's text (docs/ARCHITECTURE.md, "Deviations
    // and engineering notes"): we also add a pad fact P_i(c,...,c) over
    // the fresh constant. Without it, a repair that empties every block of
    // P_i would fail the fresh atom P_i(z̄_i) even though it entails Q,
    // breaking the count preservation claimed by Proposition E.1. The pad
    // fact forms a fresh singleton block (the constant occurs nowhere
    // else), so it is kept by every repair and adds no repair choices.
    RelationId pr = q.atoms()[missing_atoms[i].p_atom].relation;
    std::vector<Value> pad_args(q.schema().arity(pr),
                                ValuePool::Intern(kPadConstant));
    out.db.AddFact(Fact(pr, std::move(pad_args)));
  }
  for (DecompVertex v = 0; v < complete.size(); ++v) {
    for (size_t atom_idx : chain_atoms[v]) {
      RelationId sr = q.atoms()[atom_idx].relation;
      out.db.AddFact(Fact(sr, {ValuePool::Intern(kPadConstant)}));
    }
  }

  // --- decomposition Ĥ -----------------------------------------------------
  HypertreeDecomposition& nh = out.decomposition;
  // Top chain: v_{P_1} → {v_{P'_1}, v_{P_2}} → ... → v_{P_m} → {v_{P'_m},
  // root^{(1)}}.
  DecompVertex attach = kInvalidVertex;  // parent for the next chain element
  for (const MissingRel& mr : missing_atoms) {
    std::vector<VarId> p_bag;
    for (const Term& t : q.atoms()[mr.p_atom].terms) p_bag.push_back(t.id);
    DecompVertex vp = nh.AddNode(p_bag, {mr.p_atom}, attach);
    VarId zp = q.atoms()[mr.pprime_atom].terms[0].id;
    nh.AddNode({zp}, {mr.pprime_atom}, vp);
    attach = vp;
  }

  // Map each original vertex v to its chain v^{(1)}..v^{(h+1)}.
  // Process vertices in ≺T order so each parent chain exists first; record
  // for every original vertex the new vertex its chain hangs under.
  std::vector<std::vector<DecompVertex>> chains(complete.size());
  for (DecompVertex v : complete.VerticesInOrder()) {
    const DecompositionNode& n = complete.node(v);
    size_t h_children = n.children.size();
    DecompVertex parent_new;
    if (n.parent == kInvalidVertex) {
      parent_new = attach;  // under v_{P_m}, or root if no missing relations
    } else {
      // v is the i-th child of its parent; hangs under parent^{(i)}.
      const DecompositionNode& pn = complete.node(n.parent);
      size_t i = std::find(pn.children.begin(), pn.children.end(), v) -
                 pn.children.begin();
      parent_new = chains[n.parent][i];
    }
    DecompVertex prev = parent_new;
    for (size_t j = 0; j <= h_children; ++j) {
      std::vector<VarId> bag = n.bag;
      size_t s_atom = chain_atoms[v][j];
      bag.push_back(q.atoms()[s_atom].terms[0].id);
      std::vector<size_t> lambda = n.lambda;
      lambda.push_back(s_atom);
      DecompVertex nv = nh.AddNode(std::move(bag), std::move(lambda), prev);
      chains[v].push_back(nv);
      prev = nv;
    }
  }

  UOCQA_RETURN_IF_ERROR(nh.Validate(q));
  if (!IsInNormalForm(out.db, q, nh)) {
    return Status::Internal("normal-form construction failed invariants");
  }
  return out;
}

}  // namespace uocqa
