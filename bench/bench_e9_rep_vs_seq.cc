// E10a — Rep[k] versus Seq[k]: the two compiled automata on the same
// instances. Seq[k] carries operation budgets and interleaving amplifiers
// in its state, so it is substantially larger — the table quantifies the
// gap and cross-checks both exact counts against the brute-force/DP
// numerators.

#include <chrono>
#include <cstdio>

#include "automata/exact_count.h"
#include "hypertree/ghd_search.h"
#include "hypertree/normal_form.h"
#include "ocqa/engine.h"
#include "ocqa/rep_builder.h"
#include "ocqa/seq_builder.h"
#include "repairs/counting.h"
#include "workload/generators.h"

using namespace uocqa;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Sizes and exact-counting time of one automaton, as built and after
/// Nfta::Trim (the form CompiledQuery serves).
struct Sides {
  size_t states[2] = {};
  size_t transitions[2] = {};
  double ms[2] = {};
  bool counts_equal = false;
};

template <typename Count>
Sides Measure(const Nfta& built, Count count, BigInt* out) {
  Nfta trimmed = built;
  trimmed.Trim();
  Sides s;
  BigInt counts[2];
  const Nfta* forms[2] = {&built, &trimmed};
  for (int i = 0; i < 2; ++i) {
    s.states[i] = forms[i]->state_count();
    s.transitions[i] = forms[i]->transition_count();
    auto t0 = std::chrono::steady_clock::now();
    ExactTreeCounter counter(*forms[i]);
    counts[i] = count(&counter);
    s.ms[i] = MillisSince(t0);
  }
  s.counts_equal = counts[0] == counts[1];
  *out = counts[1];
  return s;
}

}  // namespace

int main() {
  std::printf(
      "E10a: Rep[k] vs Seq[k] automaton sizes and exact counting times,\n"
      "as built > after Nfta::Trim\n\n");
  std::printf("%6s %5s | %9s %9s %11s | %11s %11s %13s | %6s\n", "blocks",
              "facts", "repSt", "repTr", "rep(ms)", "seqSt", "seqTr",
              "seq(ms)", "checks");
  ConjunctiveQuery query = ChainQuery(2);
  for (size_t blocks_per_rel : {1, 2, 3}) {
    Rng rng(40 + blocks_per_rel);
    DbGenOptions gen;
    gen.blocks_per_relation = blocks_per_rel;
    gen.min_block_size = 1;
    gen.max_block_size = 3;
    gen.domain_size = 4;
    GeneratedInstance inst = GenerateDatabaseForQuery(rng, query, gen);

    auto h = DecomposeQuery(query);
    if (!h.ok()) return 1;
    auto nf = ToNormalForm(inst.db, query, *h);
    if (!nf.ok()) return 1;
    KeySet keys;
    for (const auto& [rel, positions] : inst.keys.Entries()) {
      RelationId nr = nf->db.schema().Find(inst.db.schema().name(rel));
      if (nr != kInvalidRelation) keys.SetKeyOrDie(nr, positions);
    }

    auto rep = BuildRepAutomaton(nf->db, keys, nf->query, nf->decomposition,
                                 {});
    if (!rep.ok()) return 1;
    BigInt rep_count;
    Sides r = Measure(
        rep->nfta,
        [&](ExactTreeCounter* c) { return c->CountExactSize(rep->tree_size); },
        &rep_count);

    auto seq = BuildSeqAutomaton(nf->db, keys, nf->query, nf->decomposition,
                                 {});
    if (!seq.ok()) return 1;
    BigInt seq_count;
    Sides q = Measure(
        seq->nfta,
        [&](ExactTreeCounter* c) { return c->CountUpTo(seq->max_tree_size); },
        &seq_count);

    BigInt rep_brute =
        CountRepairsEntailing(inst.db, inst.keys, query, {});
    BigInt seq_brute =
        CountSequencesEntailing(inst.db, inst.keys, query, {});
    BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
    bool ok = r.counts_equal && q.counts_equal && rep_count == rep_brute &&
              seq_count == seq_brute;
    std::printf(
        "%6zu %5zu | %4zu>%-4zu %4zu>%-4zu %5.1f>%-5.1f | %5zu>%-5zu "
        "%5zu>%-5zu %6.1f>%-6.1f | %6s\n",
        blocks.block_count(), inst.db.size(), r.states[0], r.states[1],
        r.transitions[0], r.transitions[1], r.ms[0], r.ms[1], q.states[0],
        q.states[1], q.transitions[0], q.transitions[1], q.ms[0], q.ms[1],
        ok ? "ok" : "FAIL");
  }
  std::printf(
      "\nSeq[k] is the heavier construction: its states thread (budget,\n"
      "ops-before, ops-after) counters and binary amplifier gadgets, the\n"
      "price of counting sequences rather than repairs. Most of the states\n"
      "it emits accept no tree or are unreachable; the trim drops them\n"
      "with equal counts.\n");
  return 0;
}
