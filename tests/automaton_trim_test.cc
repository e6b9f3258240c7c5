// Trimmed vs untrimmed Rep[k]/Seq[k] automata. CompiledQuery::Rep/Seq serve
// the builders' automata after Nfta::Trim; BuildRepAutomaton and
// BuildSeqAutomaton stay the paper's constructions and serve here as the
// untrimmed oracle. Exact counts must be equal and FPRAS estimates
// bit-identical at every seed and lane count, over Example 1.1
// and generated chain, star and triangle instances, for witness and RF = 0
// answers. An RF = 0 answer's Seq automaton trims to the empty
// shape, so its FPRAS returns 0 without a single union estimation.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "automata/exact_count.h"
#include "automata/fpras.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "db/textio.h"
#include "ocqa/engine.h"
#include "ocqa/rep_builder.h"
#include "ocqa/seq_builder.h"
#include "query/parser.h"

namespace uocqa {
namespace {

struct Case {
  std::string name;
  std::string instance;  // instance text (docs/FORMATS.md)
  std::string query;
  std::vector<std::string> witnesses;  // answers with RF > 0
  std::string zero;                    // an answer with RF = 0, or empty
};

/// Example 1.1: one employee with two conflicting names.
Case Example11() {
  return {"example_1_1",
          "key Emp = 1\nEmp(1, Alice)\nEmp(1, Tom)\n",
          "Ans(y) :- Emp(x, y)",
          {"Alice", "Tom"},
          ""};
}

/// A generated instance of `shape` (chain, star or triangle): a witness for
/// answer w whose blocks have random sizes 1-2, a partial witness for answer
/// z that never completes (RF = 0), and a few consistent filler facts.
Case Generated(const std::string& shape, uint64_t seed) {
  Rng rng(seed);
  std::string text;
  auto block = [&](const std::string& rel, const std::string& key,
                   const std::string& live, size_t size) {
    text += rel + "(" + key + ", " + live + ")\n";
    for (size_t i = 1; i < size; ++i) {
      text += rel + "(" + key + ", " + live + "_" + std::to_string(i) + ")\n";
    }
  };
  auto size = [&] { return 1 + rng.UniformIndex(2); };
  Case c;
  c.name = shape + "_" + std::to_string(seed);
  c.witnesses = {"w"};
  c.zero = "z";
  if (shape == "chain") {
    text = "key R = 1\nkey S = 1\nkey T = 1\n";
    c.query = "Ans(x) :- R(x, y), S(y, z), T(z, v)";
    block("R", "w", "b", 2);
    block("S", "b", "c", size());
    block("T", "c", "d", size());
    block("R", "z", "b0", 2);
    block("S", "f", "g", size());
  } else if (shape == "star") {
    text = "key A = 1\nkey B = 1\nkey C = 1\n";
    c.query = "Ans(x) :- A(x, y), B(x, u), C(x, v)";
    block("A", "w", "a", 2);
    block("B", "w", "b", size());
    block("C", "w", "c", size());
    block("A", "z", "a0", 2);
    block("B", "z", "b0", size());
  } else {
    text = "key R = 1\nkey S = 1\nkey T = 1\n";
    c.query = "Ans(x) :- R(x, y), S(y, u), T(u, x)";
    block("R", "w", "b", 2);
    block("S", "b", "c", size());
    block("T", "c", "w", 1);
    if (size() == 2) text += "T(c, other)\n";
    block("R", "z", "b0", 2);
    block("S", "b0", "c0", 1);
    block("T", "c0", "elsewhere", size());
  }
  c.instance = std::move(text);
  return c;
}

std::vector<Case> AllCases() {
  // Seed 2 gives each shape a Seq automaton of 600-700 states before the
  // trim, small enough to run the untrimmed FPRAS grid under sanitizers.
  // The paper's §5.1 instance (12381 states) is in paper_examples_test.
  std::vector<Case> out = {Example11()};
  for (const char* shape : {"chain", "star", "triangle"}) {
    out.push_back(Generated(shape, 2));
  }
  return out;
}

struct Loaded {
  ParsedInstance inst;
  ConjunctiveQuery query;
};

Loaded Load(const Case& c) {
  Result<ParsedInstance> inst = ParseInstanceText(c.instance);
  EXPECT_TRUE(inst.ok()) << c.name << ": " << inst.status().ToString();
  Result<ConjunctiveQuery> query = ParseQuery(c.query);
  EXPECT_TRUE(query.ok()) << c.name << ": " << query.status().ToString();
  return {std::move(inst).value(), std::move(query).value()};
}

std::vector<Value> Answer(const std::string& text) {
  return {ValuePool::Intern(text)};
}

// Estimates and union-estimation counts at seeds 1-5, 1 and 4 lanes; `estimate` runs one FPRAS call and returns its estimate.
template <typename Estimate>
void ExpectBitIdenticalEstimates(const Nfta& raw, const Nfta& trimmed,
                                 Estimate estimate, const std::string& what) {
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      FprasConfig config;
      config.epsilon = 0.5;
      config.delta = 0.25;
      config.seed = seed;
      config.threads = threads;
      ThreadPool* lanes = threads == 1 ? nullptr : &pool;
      NftaFpras a(raw, config, lanes);
      NftaFpras b(trimmed, config, lanes);
      double ea = estimate(&a);
      double eb = estimate(&b);
      EXPECT_EQ(ea, eb) << what << " seed " << seed << " threads " << threads;
      EXPECT_EQ(a.union_estimations(), b.union_estimations())
          << what << " seed " << seed << " threads " << threads;
    }
  }
}

TEST(AutomatonTrimTest, CompiledQueryMatchesRawBuilders) {
  for (const Case& c : AllCases()) {
    Loaded loaded = Load(c);
    OcqaEngine engine(loaded.inst.db, loaded.inst.keys);
    Result<CompiledQuery> compiled = engine.Compile(loaded.query);
    ASSERT_TRUE(compiled.ok()) << c.name << ": "
                               << compiled.status().ToString();
    const NormalFormInstance& nf = compiled->nf();
    std::vector<std::string> answers = c.witnesses;
    if (!c.zero.empty()) answers.push_back(c.zero);
    for (const std::string& text : answers) {
      const std::string what = c.name + " answer " + text;
      const bool zero = text == c.zero;
      std::vector<Value> answer = Answer(text);

      Result<RepAutomaton> raw_rep =
          BuildRepAutomaton(nf.db, compiled->keys(), nf.query,
                            nf.decomposition, answer);
      ASSERT_TRUE(raw_rep.ok()) << what;
      Result<const RepAutomaton*> rep = compiled->Rep(answer);
      ASSERT_TRUE(rep.ok()) << what;
      const Nfta& rep_trim = (*rep)->nfta;
      EXPECT_LE(rep_trim.state_count(), raw_rep->nfta.state_count()) << what;
      ASSERT_EQ((*rep)->tree_size, raw_rep->tree_size) << what;
      ExactTreeCounter rep_raw_count(raw_rep->nfta);
      ExactTreeCounter rep_trim_count(rep_trim);
      BigInt repairs = rep_raw_count.CountExactSize(raw_rep->tree_size);
      EXPECT_EQ(rep_trim_count.CountExactSize(raw_rep->tree_size), repairs)
          << what;
      EXPECT_EQ(repairs.IsZero(), zero) << what;
      const size_t tree_size = raw_rep->tree_size;
      ExpectBitIdenticalEstimates(
          raw_rep->nfta, rep_trim,
          [tree_size](NftaFpras* f) { return f->EstimateExactSize(tree_size); },
          what + " rep");

      Result<SeqAutomaton> raw_seq = BuildSeqAutomaton(
          nf.db, compiled->keys(), nf.query, nf.decomposition, answer);
      ASSERT_TRUE(raw_seq.ok()) << what;
      Result<const SeqAutomaton*> seq = compiled->Seq(answer);
      ASSERT_TRUE(seq.ok()) << what;
      const Nfta& seq_trim = (*seq)->nfta;
      EXPECT_LE(seq_trim.state_count(), raw_seq->nfta.state_count()) << what;
      ASSERT_EQ((*seq)->max_tree_size, raw_seq->max_tree_size) << what;
      ExactTreeCounter seq_raw_count(raw_seq->nfta);
      ExactTreeCounter seq_trim_count(seq_trim);
      BigInt sequences = seq_raw_count.CountUpTo(raw_seq->max_tree_size);
      EXPECT_EQ(seq_trim_count.CountUpTo(raw_seq->max_tree_size), sequences)
          << what;
      EXPECT_EQ(sequences.IsZero(), zero) << what;
      const size_t max_size = raw_seq->max_tree_size;
      ExpectBitIdenticalEstimates(
          raw_seq->nfta, seq_trim,
          [max_size](NftaFpras* f) { return f->EstimateUpTo(max_size); },
          what + " seq");
    }
  }
}

TEST(AutomatonTrimTest, RfZeroAnswerRunsNoSequenceFpras) {
  Case c = Generated("chain", 2);
  Loaded loaded = Load(c);
  OcqaEngine engine(loaded.inst.db, loaded.inst.keys);
  Result<CompiledQuery> compiled = engine.Compile(loaded.query);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::vector<Value> zero = Answer(c.zero);

  // The builder emits a sizeable automaton with a non-productive initial
  // state; the served one is the empty shape.
  const NormalFormInstance& nf = compiled->nf();
  Result<SeqAutomaton> raw = BuildSeqAutomaton(
      nf.db, compiled->keys(), nf.query, nf.decomposition, zero);
  ASSERT_TRUE(raw.ok());
  EXPECT_GT(raw->nfta.state_count(), 1u);
  Result<const SeqAutomaton*> seq = compiled->Seq(zero);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ((*seq)->nfta.state_count(), 1u);
  EXPECT_EQ((*seq)->nfta.transition_count(), 0u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    OcqaOptions options;
    options.threads = threads;
    Result<ApproxRF> us = engine.ApproxUs(*compiled, zero, options);
    ASSERT_TRUE(us.ok()) << us.status().ToString();
    EXPECT_EQ(us->numerator, 0.0);
    EXPECT_EQ(us->value, 0.0);
    EXPECT_GT(us->denominator, 0.0);
    EXPECT_EQ(us->union_trials, 0u);
    EXPECT_EQ(us->automaton_states, 1u);
    EXPECT_EQ(us->automaton_transitions, 0u);
  }
}

}  // namespace
}  // namespace uocqa
