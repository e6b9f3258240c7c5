#include "repairs/denominators.h"

namespace uocqa {

bool RelationDenominatorEntry::SameCounts(
    const RelationDenominatorEntry& o) const {
  if (!(orep_factor == o.orep_factor)) return false;
  if (crs_poly.size() != o.crs_poly.size()) return false;
  for (size_t i = 0; i < crs_poly.size(); ++i) {
    if (!(crs_poly[i] == o.crs_poly[i])) return false;
  }
  return true;
}

RelationDenominatorEntry RelationDenominators::ComputeEntry(
    const Database& db, const BlockPartition& blocks, RelationId rel) {
  RelationDenominatorEntry out;
  out.fact_count = db.index().RelationCardinality(rel);
  for (size_t idx : blocks.BlocksOfRelation(rel)) {
    size_t n = blocks.block(idx).size();
    if (n < 2) continue;  // factor 1, poly {1}: both identities
    out.orep_factor *= static_cast<uint64_t>(n + 1);
    out.crs_poly = InterleavePolys(out.crs_poly, BlockTotalPoly(n));
  }
  return out;
}

void RelationDenominators::CombineTotals() {
  orep_ = BigInt(1);
  LenPoly poly = {BigInt(1)};
  for (const RelationDenominatorEntry& e : entries_) {
    orep_ = orep_ * e.orep_factor;
    poly = InterleavePolys(poly, e.crs_poly);
  }
  crs_ = PolySum(poly);
}

RelationDenominators RelationDenominators::Compute(
    const Database& db, const BlockPartition& blocks) {
  RelationDenominators out;
  size_t relation_count = db.schema().relation_count();
  out.entries_.reserve(relation_count);
  for (RelationId rel = 0; rel < relation_count; ++rel) {
    out.entries_.push_back(ComputeEntry(db, blocks, rel));
  }
  out.CombineTotals();
  return out;
}

RelationDenominators RelationDenominators::Update(
    const RelationDenominators& prev, const Database& db,
    const BlockPartition& blocks, FactId first_new,
    std::vector<RelationId>* changed) {
  size_t relation_count = db.schema().relation_count();
  std::vector<bool> touched(relation_count, false);
  for (FactId id = first_new; id < db.size(); ++id) {
    touched[db.fact(id).relation] = true;
  }
  RelationDenominators out;
  out.entries_.reserve(relation_count);
  bool any_changed = false;
  for (RelationId rel = 0; rel < relation_count; ++rel) {
    if (!touched[rel] && rel < prev.entries_.size()) {
      out.entries_.push_back(prev.entries_[rel]);
      continue;
    }
    RelationDenominatorEntry entry = ComputeEntry(db, blocks, rel);
    bool same = rel < prev.entries_.size() &&
                entry.SameCounts(prev.entries_[rel]);
    if (!same) {
      any_changed = true;
      if (changed != nullptr) changed->push_back(rel);
    }
    out.entries_.push_back(std::move(entry));
  }
  if (any_changed) {
    out.CombineTotals();
  } else {
    // Every touched relation kept its conflict structure (conflict-free
    // inserts only): both totals are bit-identical to the previous epoch's.
    out.orep_ = prev.orep_;
    out.crs_ = prev.crs_;
  }
  return out;
}

}  // namespace uocqa
