// Differential suite for evaluation under a removed-fact mask: the exact
// counters and the Monte-Carlo baselines evaluate every repair on the full
// instance's index with the dropped facts masked out, instead of building a
// Database::Subset per repair or trial. Each case here compares the masked
// path against a test-local copy of the per-repair Subset loop:
//   (a) masked QueryEvaluator::Entails == Entails on Subset(kept), over
//       random instances, chain/star/triangle queries with constants and
//       repeated answer variables, and random masks;
//   (b) the one-pass numerators (both ExactRFs, the counting.h projections,
//       the classical-repair count) == the Subset loop and the automaton
//       counts, on random small instances;
//   (c) MC ur/us estimates bit-identical to a Subset-based reference at
//       several seeds and at 1, 4 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "db/blocks.h"
#include "db/database.h"
#include "db/keys.h"
#include "db/value.h"
#include "ocqa/engine.h"
#include "query/eval.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "repairs/operations.h"
#include "repairs/sampling.h"

namespace uocqa {
namespace {

const char* const kDomain[] = {"a", "b", "c", "d"};

struct Instance {
  Database db;
  KeySet keys;
};

/// `facts` random facts over R/2, S/2, T/2 (keys on position 0; a few
/// facts of the keyless bystander U/1), constants from a 3- or 4-value
/// domain so blocks conflict and joins hit.
Instance RandomInstance(uint64_t seed, size_t facts) {
  Rng rng(seed);
  Schema schema;
  for (const char* rel : {"R", "S", "T"}) schema.AddRelationOrDie(rel, 2);
  schema.AddRelationOrDie("U", 1);
  Instance inst{Database(schema), KeySet()};
  size_t domain = 3 + rng.UniformIndex(2);
  const char* const rels[] = {"R", "S", "T"};
  for (size_t i = 0; i < facts; ++i) {
    inst.db.Add(rels[rng.UniformIndex(3)],
                {kDomain[rng.UniformIndex(domain)],
                 kDomain[rng.UniformIndex(domain)]});
  }
  inst.db.Add("U", {kDomain[rng.UniformIndex(domain)]});
  for (const char* rel : rels) {
    inst.keys.SetKeyOrDie(inst.db.schema().Find(rel), {0});
  }
  return inst;
}

/// Chain, star and triangle shapes, with constants and (for the evaluator
/// cases) a repeated answer variable.
const char* const kQueries[] = {
    "Ans(x) :- R(x, y), S(y, z), T(z, w)",
    "Ans() :- R(x, y), S(y, 'b')",
    "Ans(x) :- R(x, y), S(x, z), T(x, w)",
    "Ans(x) :- R('a', x), S(x, y)",
    "Ans() :- R(x, y), S(y, z), T(z, x)",
    "Ans(x, y) :- R(x, y), T(y, z)",
};
const char* const kRepeatedAnswerQuery = "Ans(x, x) :- R(x, y), S(y, x)";

/// The answer tuples worth asking: every domain constant per answer slot.
std::vector<std::vector<Value>> AnswerTuples(const ConjunctiveQuery& q) {
  std::vector<std::vector<Value>> out = {{}};
  for (size_t slot = 0; slot < q.answer_vars().size(); ++slot) {
    std::vector<std::vector<Value>> next;
    for (const std::vector<Value>& prefix : out) {
      for (const char* c : kDomain) {
        std::vector<Value> t = prefix;
        t.push_back(ValuePool::Intern(c));
        next.push_back(std::move(t));
      }
    }
    out = std::move(next);
  }
  return out;
}

std::vector<FactId> KeptFacts(const std::vector<bool>& removed) {
  std::vector<FactId> kept;
  for (FactId f = 0; f < removed.size(); ++f) {
    if (!removed[f]) kept.push_back(f);
  }
  return kept;
}

bool EntailsOnSubset(const Database& db, const std::vector<FactId>& kept,
                     const ConjunctiveQuery& q,
                     const std::vector<Value>& answer) {
  Database repair = db.Subset(kept);
  return QueryEvaluator(repair, q).Entails(answer);
}

// --- (a) masked Entails == Entails on Subset --------------------------------

TEST(MaskedEntailmentTest, MaskedEntailsMatchesSubsetOnRandomMasks) {
  std::vector<std::string> queries(std::begin(kQueries), std::end(kQueries));
  queries.push_back(kRepeatedAnswerQuery);
  size_t entailed = 0, checks = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Instance inst = RandomInstance(seed, 14);
    Rng mask_rng(seed * 7919);
    for (const std::string& text : queries) {
      ConjunctiveQuery q = *ParseQuery(text, inst.db.schema());
      QueryEvaluator eval(inst.db, q);
      std::vector<std::vector<Value>> answers = AnswerTuples(q);
      for (int m = 0; m < 6; ++m) {
        std::vector<bool> removed(inst.db.size());
        // Mask densities from none to most facts.
        for (size_t f = 0; f < removed.size(); ++f) {
          removed[f] = mask_rng.UniformIndex(6) < static_cast<size_t>(m);
        }
        std::vector<FactId> kept = KeptFacts(removed);
        for (const std::vector<Value>& answer : answers) {
          bool want = EntailsOnSubset(inst.db, kept, q, answer);
          EXPECT_EQ(eval.Entails(answer, &removed), want)
              << "seed " << seed << " query " << text << " mask " << m;
          entailed += want;
          ++checks;
        }
      }
      // An all-clear mask is the unmasked evaluation.
      std::vector<bool> none(inst.db.size(), false);
      for (const std::vector<Value>& answer : answers) {
        EXPECT_EQ(eval.Entails(answer, &none), eval.Entails(answer));
      }
    }
  }
  // The cases exercise both outcomes, not a constant answer.
  EXPECT_GT(entailed, checks / 20);
  EXPECT_LT(entailed, checks - checks / 20);
}

TEST(MaskedEntailmentTest, RepeatedAnswerVariableClashIsNeverEntailed) {
  Instance inst = RandomInstance(3, 14);
  ConjunctiveQuery q = *ParseQuery(kRepeatedAnswerQuery, inst.db.schema());
  QueryEvaluator eval(inst.db, q);
  std::vector<bool> none(inst.db.size(), false);
  EXPECT_FALSE(eval.Entails({ValuePool::Intern("a"), ValuePool::Intern("b")},
                            &none));
}

TEST(MaskedEntailmentTest, MaskedCandidatesAreNotVisitedNodes) {
  // A fully masked relation leaves nothing to try: the search visits no
  // node, as it would on a Subset lacking the relation's facts.
  Instance inst = RandomInstance(5, 14);
  ConjunctiveQuery q = *ParseQuery("Ans() :- R(x, y)", inst.db.schema());
  QueryEvaluator eval(inst.db, q);
  std::vector<bool> removed(inst.db.size(), true);
  EXPECT_FALSE(eval.Entails({}, &removed));
  EXPECT_EQ(eval.nodes_visited(), 0u);
}

// --- (b) one-pass numerators == the Subset loop == the automata -------------

/// The per-repair Subset loop the exact counters used to run: both
/// numerators plus the classical (no-drop) repair count.
struct SubsetCounts {
  BigInt repairs, sequences, classical;
};

SubsetCounts SubsetLoop(const Instance& inst, const ConjunctiveQuery& q,
                        const std::vector<Value>& answer) {
  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  SubsetCounts out;
  ForEachRepair(blocks, [&](const std::vector<BlockOutcome>& outcomes,
                            const std::vector<FactId>& kept) {
    if (!EntailsOnSubset(inst.db, kept, q, answer)) return true;
    out.repairs += uint64_t{1};
    out.sequences += CountSequencesForOutcome(blocks, outcomes);
    bool classical = std::all_of(outcomes.begin(), outcomes.end(),
                                 [](const BlockOutcome& o) {
                                   return o.has_value();
                                 });
    if (classical) out.classical += uint64_t{1};
    return true;
  });
  return out;
}

TEST(MaskedEntailmentTest, OnePassNumeratorsMatchSubsetLoopAndAutomata) {
  size_t cases = 0, entailing = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Instance inst = RandomInstance(seed, 8 + seed % 4);
    OcqaEngine engine(inst.db, inst.keys);
    BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
    const std::string text = kQueries[seed % std::size(kQueries)];
    ConjunctiveQuery q = *ParseQuery(text, inst.db.schema());
    Rng answer_rng(seed);
    std::vector<std::vector<Value>> answers = AnswerTuples(q);
    const std::vector<Value>& answer =
        answers[answer_rng.UniformIndex(answers.size())];
    const std::string where = "seed " + std::to_string(seed) + " " + text;

    SubsetCounts want = SubsetLoop(inst, q, answer);
    ExactFrequencies exact = engine.Exact(q, answer);
    EXPECT_EQ(exact.ur.numerator, want.repairs) << where;
    EXPECT_EQ(exact.us.numerator, want.sequences) << where;
    EXPECT_EQ(exact.ur.denominator, CountOperationalRepairs(blocks)) << where;
    EXPECT_EQ(exact.us.denominator, CountCompleteSequencesExact(blocks))
        << where;
    EXPECT_EQ(exact.outcomes, CountOperationalRepairs(blocks).ToUint64())
        << where;
    EXPECT_EQ(CountRepairsEntailing(inst.db, inst.keys, q, answer),
              want.repairs)
        << where;
    EXPECT_EQ(CountSequencesEntailing(inst.db, inst.keys, q, answer),
              want.sequences)
        << where;
    EXPECT_EQ(engine.ClassicalRepairsEntailingBruteForce(q, answer),
              want.classical)
        << where;

    auto rep = engine.RepairsEntailingViaAutomaton(q, answer);
    ASSERT_TRUE(rep.ok()) << where << ": " << rep.status().ToString();
    EXPECT_EQ(*rep, want.repairs) << where;
    auto seq = engine.SequencesEntailingViaAutomaton(q, answer);
    ASSERT_TRUE(seq.ok()) << where << ": " << seq.status().ToString();
    EXPECT_EQ(*seq, want.sequences) << where;
    auto classical = engine.ClassicalRepairsEntailingViaAutomaton(q, answer);
    ASSERT_TRUE(classical.ok()) << where;
    EXPECT_EQ(*classical, want.classical) << where;
    ++cases;
    entailing += !want.repairs.IsZero();
  }
  EXPECT_GE(cases, 50u);
  EXPECT_GE(entailing, 15u);
  EXPECT_LE(entailing, cases - 15);
}

TEST(MaskedEntailmentTest, ConflictOutcomesAreTheRepairs) {
  // The odometer's masks are exactly ForEachRepair's kept sets, each once;
  // without drop outcomes, exactly the classical subset repairs.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Instance inst = RandomInstance(seed, 10);
    BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
    std::multiset<std::vector<FactId>> want_all, want_classical;
    ForEachRepair(blocks, [&](const std::vector<BlockOutcome>& outcomes,
                              const std::vector<FactId>& kept) {
      want_all.insert(kept);
      if (std::all_of(outcomes.begin(), outcomes.end(),
                      [](const BlockOutcome& o) { return o.has_value(); })) {
        want_classical.insert(kept);
      }
      return true;
    });
    for (bool with_drop : {true, false}) {
      std::multiset<std::vector<FactId>> got;
      uint64_t visited = ForEachConflictOutcome(
          inst.db, blocks, with_drop,
          [&](const std::vector<bool>& removed, const std::vector<size_t>&) {
            got.insert(KeptFacts(removed));
          });
      const auto& want = with_drop ? want_all : want_classical;
      EXPECT_EQ(visited, want.size()) << "seed " << seed;
      EXPECT_EQ(got, want) << "seed " << seed;
    }
  }
}

TEST(MaskedEntailmentTest, ConsistentInstanceVisitsOneOutcome) {
  Schema schema;
  schema.AddRelationOrDie("R", 2);
  Database db(schema);
  db.Add("R", {"a", "b"});
  db.Add("R", {"b", "c"});
  KeySet keys;
  keys.SetKeyOrDie(db.schema().Find("R"), {0});
  OcqaEngine engine(db, keys);
  ConjunctiveQuery q = *ParseQuery("Ans(x) :- R(x, y)", db.schema());
  ExactFrequencies exact = engine.Exact(q, {ValuePool::Intern("a")});
  EXPECT_EQ(exact.outcomes, 1u);
  EXPECT_EQ(exact.ur.numerator, BigInt(1));
  EXPECT_EQ(exact.us.numerator, BigInt(1));
  EXPECT_TRUE(engine.Exact(q, {ValuePool::Intern("c")}).ur.numerator.IsZero());
}

// --- (c) MC estimates == a Subset-based reference ---------------------------

/// OcqaEngine::MonteCarloUr/Us's chunk layout, evaluating each sample on a
/// materialized Subset.
double SubsetMonteCarlo(const Instance& inst, const ConjunctiveQuery& q,
                        const std::vector<Value>& answer, size_t samples,
                        uint64_t seed, bool sequences) {
  UniformRepairSampler repairs(inst.db, inst.keys);
  UniformSequenceSampler seqs(inst.db, inst.keys);
  size_t hits = 0;
  const size_t chunk = OcqaEngine::kMcChunk;
  for (size_t c = 0; c * chunk < samples; ++c) {
    Rng rng = Rng::Stream(seed, c);
    for (size_t i = c * chunk; i < std::min(samples, (c + 1) * chunk); ++i) {
      std::vector<FactId> kept =
          sequences ? ApplySequence(inst.db, seqs.Sample(rng))
                    : repairs.Sample(rng);
      if (EntailsOnSubset(inst.db, kept, q, answer)) ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(samples);
}

TEST(MaskedEntailmentTest, MonteCarloMatchesSubsetReferenceAtEveryThreadCount) {
  size_t strictly_between = 0;
  for (uint64_t inst_seed : {2, 9, 17}) {
    Instance inst = RandomInstance(inst_seed, 16);
    OcqaEngine engine(inst.db, inst.keys);
    for (const char* text : {kQueries[0], kQueries[4]}) {
      ConjunctiveQuery q = *ParseQuery(text, inst.db.schema());
      std::vector<std::vector<Value>> answers = AnswerTuples(q);
      const std::vector<Value>& answer = answers[inst_seed % answers.size()];
      for (uint64_t seed : {1, 7, 42}) {
        // 300 samples: four full chunks and a partial one.
        const size_t samples = 300;
        double want_ur = SubsetMonteCarlo(inst, q, answer, samples, seed,
                                          /*sequences=*/false);
        double want_us = SubsetMonteCarlo(inst, q, answer, samples, seed,
                                          /*sequences=*/true);
        strictly_between += (want_ur > 0 && want_ur < 1) +
                            (want_us > 0 && want_us < 1);
        for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
          EXPECT_EQ(engine.MonteCarloUr(q, answer, samples, seed, threads),
                    want_ur)
              << text << " seed " << seed << " threads " << threads;
          EXPECT_EQ(engine.MonteCarloUs(q, answer, samples, seed, threads),
                    want_us)
              << text << " seed " << seed << " threads " << threads;
        }
      }
    }
  }
  // Most estimates are fractions, so a trial miscount would move them.
  EXPECT_GE(strictly_between, 18u);
}

}  // namespace
}  // namespace uocqa
