#include <gtest/gtest.h>

#include "hypertree/ghd_search.h"
#include "hypertree/gyo.h"
#include "ocqa/engine.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

TEST(GeneratorsTest, QueryShapes) {
  ConjunctiveQuery chain = ChainQuery(4);
  EXPECT_EQ(chain.atom_count(), 4u);
  EXPECT_TRUE(chain.IsSelfJoinFree());
  EXPECT_TRUE(IsAcyclic(chain));

  ConjunctiveQuery star = StarQuery(5);
  EXPECT_TRUE(IsAcyclic(star));

  ConjunctiveQuery cycle = CycleQuery(5);
  EXPECT_FALSE(IsAcyclic(cycle));
  auto w = ComputeGhw(cycle);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->width, 2u);

  ConjunctiveQuery clique = CliqueQuery(4);
  EXPECT_EQ(clique.atom_count(), 6u);
  auto wc = ComputeGhw(clique);
  ASSERT_TRUE(wc.ok());
  EXPECT_EQ(wc->width, 2u);  // ceil(4/2)
}

TEST(GeneratorsTest, DatabaseRespectsBlockBounds) {
  Rng rng(3);
  ConjunctiveQuery q = ChainQuery(3);
  DbGenOptions options;
  options.blocks_per_relation = 5;
  options.min_block_size = 2;
  options.max_block_size = 4;
  options.domain_size = 50;  // large domain: block-key collisions unlikely
  GeneratedInstance inst = GenerateDatabaseForQuery(rng, q, options);
  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  EXPECT_EQ(blocks.block_count(), 15u);
  for (const Block& b : blocks.blocks()) {
    EXPECT_GE(b.size(), 1u);
    EXPECT_LE(b.size(), 4u);
  }
  EXPECT_FALSE(IsConsistent(inst.db, inst.keys));
}

TEST(GeneratorsTest, GeneratedInstancesHaveNontrivialRf) {
  // Across seeds, at least one instance should give 0 < RF < 1: the
  // generator exercises interesting cases, not just trivia.
  ConjunctiveQuery q = ChainQuery(2);
  bool found_fractional = false;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    DbGenOptions options;
    options.blocks_per_relation = 2;
    options.max_block_size = 2;
    options.domain_size = 3;
    GeneratedInstance inst = GenerateDatabaseForQuery(rng, q, options);
    OcqaEngine engine(inst.db, inst.keys);
    ExactRF rf = engine.Exact(q, {}).ur;
    double v = rf.value();
    if (v > 0.0 && v < 1.0) found_fractional = true;
  }
  EXPECT_TRUE(found_fractional);
}

TEST(GeneratorsTest, ZipfianIndicesDeterministicAndSkewed) {
  Rng a(42);
  Rng b(42);
  std::vector<size_t> draws = SampleZipfianIndices(a, 8, 2000, 1.5);
  // Bit-identical replay from the same seed: the cache benchmarks depend on
  // replaying the exact same request traffic across configurations.
  EXPECT_EQ(draws, SampleZipfianIndices(b, 8, 2000, 1.5));
  ASSERT_EQ(draws.size(), 2000u);
  std::vector<size_t> freq(8, 0);
  for (size_t r : draws) {
    ASSERT_LT(r, 8u);
    ++freq[r];
  }
  // Rank 0 carries ~48% of the Zipf(1.5) mass over 8 items vs ~2% for rank
  // 7 — with 2000 draws the ordering cannot plausibly invert.
  EXPECT_GT(freq[0], freq[7]);
  EXPECT_GT(freq[0], 2000u / 4);

  Rng c(7);
  std::vector<size_t> uniform = SampleZipfianIndices(c, 5, 100, 0.0);
  for (size_t r : uniform) ASSERT_LT(r, 5u);
}

TEST(GeneratorsTest, SkewedDatabaseDeterministicWithHotBlocks) {
  ConjunctiveQuery q = ChainQuery(3);
  SkewedDbGenOptions options;
  options.blocks_per_relation = 16;
  options.max_block_size = 6;
  options.block_skew = 1.0;
  options.domain_size = 200;  // large domain: block-key collisions unlikely
  EXPECT_EQ(ZipfianBlockSize(0, options), 6u);
  EXPECT_EQ(ZipfianBlockSize(1, options), 3u);
  EXPECT_EQ(ZipfianBlockSize(11, options), 1u);

  Rng a(5);
  GeneratedInstance inst = GenerateSkewedDatabaseForQuery(a, q, options);
  Rng b(5);
  GeneratedInstance again = GenerateSkewedDatabaseForQuery(b, q, options);
  EXPECT_EQ(inst.db, again.db);

  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  size_t hot = 0;
  size_t singleton = 0;
  for (const Block& blk : blocks.blocks()) {
    if (blk.size() >= 4) ++hot;
    if (blk.size() == 1) ++singleton;
  }
  // The histogram is skewed: a few hot blocks, a long consistent tail.
  EXPECT_GE(hot, 3u);
  EXPECT_GT(singleton, hot);
  EXPECT_FALSE(IsConsistent(inst.db, inst.keys));
}

TEST(GeneratorsTest, RandomBipartiteIsConnectedAndBipartite) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    UGraph g = RandomConnectedBipartite(rng, 3, 4, 0.3);
    EXPECT_TRUE(g.IsConnected());
    EXPECT_TRUE(g.BipartitionOrNull().has_value());
    EXPECT_EQ(g.vertex_count(), 7u);
  }
}

TEST(GeneratorsTest, RandomPos2CnfWellFormed) {
  Rng rng(5);
  Pos2Cnf f = RandomPos2Cnf(rng, 5, 7);
  EXPECT_EQ(f.clauses.size(), 7u);
  for (const auto& [a, b] : f.clauses) {
    EXPECT_LT(a, 5u);
    EXPECT_LT(b, 5u);
    EXPECT_NE(a, b);
  }
}

}  // namespace
}  // namespace uocqa
