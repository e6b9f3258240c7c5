// Differential tests for the live-instance subsystem (service/live.h).
//
// The contract under test: a LiveInstance that ingests a fact stream
// incrementally — copy-on-write merges, delta-maintained blocks and
// denominators, extended fingerprint chains — is indistinguishable from
// throwing everything away and loading the same fact stream from scratch.
// "Indistinguishable" is checked at full strength: identical fact sets and
// fingerprints, structurally identical block partitions, bit-identical
// exact counts, and bit-identical FPRAS / Monte-Carlo estimates at the same
// seed, after *every* prefix of randomized streams over chain, star and
// cycle queries. Stale snapshots must keep replaying their pre-ingest
// results byte-for-byte while newer epochs serve the grown instance.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "db/blocks.h"
#include "db/textio.h"
#include "ocqa/engine.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "repairs/denominators.h"
#include "service/canonical.h"
#include "service/live.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

// Replays fact `id` of `src` through the live protocol surface (relation
// name + constant strings), exactly as an add_fact verb would.
Status AddFactTo(LiveInstance& live, const Database& src, FactId id) {
  const Fact& fact = src.fact(id);
  std::vector<std::string> constants;
  constants.reserve(fact.args.size());
  for (Value v : fact.args) constants.push_back(ValuePool::Name(v));
  return live.Add(src.schema().name(fact.relation), constants);
}

Database PrefixLoad(const Database& src, size_t count) {
  std::vector<FactId> ids(count);
  std::iota(ids.begin(), ids.end(), FactId{0});
  return src.Subset(ids);
}

void ExpectSamePartition(const BlockPartition& got, const BlockPartition& want,
                         const Database& db) {
  ASSERT_EQ(got.block_count(), want.block_count());
  for (size_t b = 0; b < want.block_count(); ++b) {
    EXPECT_EQ(got.block(b).relation, want.block(b).relation);
    EXPECT_EQ(got.block(b).key_value, want.block(b).key_value);
    EXPECT_EQ(got.block(b).facts, want.block(b).facts);
  }
  for (FactId id = 0; id < db.size(); ++id) {
    EXPECT_EQ(got.BlockOf(id), want.BlockOf(id));
  }
  for (RelationId rel = 0; rel < db.schema().relation_count(); ++rel) {
    EXPECT_EQ(got.BlocksOfRelation(rel), want.BlocksOfRelation(rel));
  }
}

ConjunctiveQuery ShapeQuery(uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return ChainQuery(2);
    case 1:
      return StarQuery(2);
    default:
      return CycleQuery(3);
  }
}

// --- the differential guarantee, every prefix, many seeds ------------------

TEST(MvccDifferentialTest, IngestedPrefixesMatchFreshLoads) {
  const std::vector<Value> answer;  // Boolean queries
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ConjunctiveQuery query = ShapeQuery(seed);
    Rng rng = Rng::Stream(/*root_seed=*/0xd1f5u, seed);
    DbGenOptions gen;
    gen.blocks_per_relation = 3;
    gen.min_block_size = 1;
    gen.max_block_size = 3;
    gen.domain_size = 5;
    GeneratedInstance full = GenerateDatabaseForQuery(rng, query, gen);
    const size_t total = full.db.size();
    ASSERT_GE(total, 6u);
    const size_t start = total - 5;  // five ingested prefixes per stream

    LiveInstance live(PrefixLoad(full.db, start), full.keys);
    EXPECT_EQ(live.Current()->epoch, 0u);

    for (size_t count = start + 1; count <= total; ++count) {
      SCOPED_TRACE("prefix=" + std::to_string(count));
      ASSERT_TRUE(AddFactTo(live, full.db, count - 1).ok());
      std::shared_ptr<const InstanceSnapshot> snap = live.Snapshot();
      Database fresh = PrefixLoad(full.db, count);

      // Same fact set, ids and order: the merge is structurally a fresh
      // load of the concatenated stream.
      ASSERT_EQ(snap->db->size(), fresh.size());
      for (FactId id = 0; id < fresh.size(); ++id) {
        ASSERT_EQ(snap->db->fact(id), fresh.fact(id));
      }
      EXPECT_EQ(snap->fingerprint, InstanceFingerprint(fresh, full.keys));

      // Delta-maintained blocks == recomputed blocks.
      BlockPartition blocks = BlockPartition::Compute(fresh, full.keys);
      ExpectSamePartition(*snap->blocks, blocks, fresh);

      // Delta-maintained denominators == recomputed == the counting
      // oracles they stand in for.
      RelationDenominators denoms =
          RelationDenominators::Compute(fresh, blocks);
      EXPECT_EQ(snap->denominators->orep(), denoms.orep());
      EXPECT_EQ(snap->denominators->crs(), denoms.crs());
      EXPECT_EQ(snap->denominators->orep(), CountOperationalRepairs(blocks));
      EXPECT_EQ(snap->denominators->crs(),
                CountCompleteSequencesExact(blocks));

      // Solver-level equivalence: exact counts equal as BigInts, FPRAS and
      // Monte-Carlo estimates bit-identical at the same seed.
      OcqaEngine live_engine(*snap->db, full.keys);
      live_engine.SeedDenominators(snap->denominators->orep(),
                                   snap->denominators->crs());
      OcqaEngine fresh_engine(fresh, full.keys);

      ExactFrequencies live_exact = live_engine.Exact(query, answer);
      ExactFrequencies fresh_exact = fresh_engine.Exact(query, answer);
      EXPECT_TRUE(live_exact.ur == fresh_exact.ur);
      EXPECT_TRUE(live_exact.us == fresh_exact.us);

      OcqaOptions opt;
      opt.fpras.epsilon = 0.5;
      opt.fpras.delta = 0.25;
      opt.fpras.seed = seed;
      opt.threads = 1;
      Result<ApproxRF> live_f = live_engine.ApproxUr(query, answer, opt);
      Result<ApproxRF> fresh_f = fresh_engine.ApproxUr(query, answer, opt);
      ASSERT_EQ(live_f.ok(), fresh_f.ok());
      if (live_f.ok()) {
        EXPECT_EQ(live_f->value, fresh_f->value);  // bit-identical
        EXPECT_EQ(live_f->numerator, fresh_f->numerator);
        EXPECT_EQ(live_f->denominator, fresh_f->denominator);
      }

      EXPECT_EQ(live_engine.MonteCarloUr(query, answer, 128, seed, 1),
                fresh_engine.MonteCarloUr(query, answer, 128, seed, 1));
      EXPECT_EQ(live_engine.MonteCarloUs(query, answer, 128, seed, 1),
                fresh_engine.MonteCarloUs(query, answer, 128, seed, 1));
    }
  }
}

// --- delta maintenance as its own property, duplicate-heavy streams --------

TEST(MvccDeltaTest, UpdateMatchesRecomputationUnderDuplicates) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng = Rng::Stream(/*root_seed=*/0xb10cu, seed);
    ConjunctiveQuery query = ShapeQuery(seed);
    DbGenOptions gen;
    gen.blocks_per_relation = 4;
    gen.max_block_size = 4;
    gen.domain_size = 4;  // small domain: keys collide, conflicts grow
    GeneratedInstance full = GenerateDatabaseForQuery(rng, query, gen);
    const size_t total = full.db.size();
    const size_t start = total / 2;

    LiveInstance live(PrefixLoad(full.db, start), full.keys);
    // Replay the tail twice over, two facts per snapshot: every other add
    // is a duplicate, exercising the merged-size-unchanged and
    // partially-duplicate paths of Snapshot().
    std::vector<FactId> stream;
    for (FactId id = start; id < total; ++id) {
      stream.push_back(id);
      stream.push_back(id > start ? id - 1 : id);
    }
    for (size_t i = 0; i < stream.size(); i += 2) {
      ASSERT_TRUE(AddFactTo(live, full.db, stream[i]).ok());
      ASSERT_TRUE(AddFactTo(live, full.db, stream[i + 1]).ok());
      std::shared_ptr<const InstanceSnapshot> snap = live.Snapshot();
      EXPECT_EQ(live.pending(), 0u);

      BlockPartition blocks = BlockPartition::Compute(*snap->db, full.keys);
      ExpectSamePartition(*snap->blocks, blocks, *snap->db);
      RelationDenominators denoms =
          RelationDenominators::Compute(*snap->db, blocks);
      EXPECT_EQ(snap->denominators->orep(), denoms.orep());
      EXPECT_EQ(snap->denominators->crs(), denoms.crs());
      ASSERT_EQ(snap->denominators->relation_count(), denoms.relation_count());
      for (RelationId rel = 0; rel < denoms.relation_count(); ++rel) {
        EXPECT_TRUE(
            snap->denominators->entry(rel).SameCounts(denoms.entry(rel)));
        EXPECT_EQ(snap->denominators->entry(rel).fact_count,
                  denoms.entry(rel).fact_count);
      }
    }
  }
}

// --- epoch bookkeeping -----------------------------------------------------

constexpr const char* kInstance = R"(
key Emp = 1
Emp(e1, hw)
Emp(e1, sw)
Emp(e2, hw)
key Dept = 1
Dept(hw, alice)
Dept(sw, carol)
)";

ParsedInstance LoadInstance() {
  auto inst = ParseInstanceText(kInstance);
  EXPECT_TRUE(inst.ok());
  return *std::move(inst);
}

TEST(MvccTest, DuplicateOnlyDeltasDoNotAdvanceTheEpoch) {
  ParsedInstance inst = LoadInstance();
  LiveInstance live(std::move(inst.db), inst.keys);
  std::shared_ptr<const InstanceSnapshot> before = live.Current();

  ASSERT_TRUE(live.Add("Emp", {"e1", "hw"}).ok());  // already present
  EXPECT_EQ(live.pending(), 1u);
  std::shared_ptr<const InstanceSnapshot> after = live.Snapshot();
  EXPECT_EQ(after.get(), before.get());  // same published version
  EXPECT_EQ(after->epoch, 0u);
  EXPECT_EQ(live.pending(), 0u);

  // An empty delta is equally inert.
  EXPECT_EQ(live.Snapshot().get(), before.get());
}

TEST(MvccTest, ConflictEpochAdvancesOnlyWhenConflictStructureChanges) {
  ParsedInstance inst = LoadInstance();
  LiveInstance live(std::move(inst.db), inst.keys);

  // New key value => new singleton block => conflict-free: the epoch moves,
  // the conflict epoch and both denominators do not.
  std::shared_ptr<const InstanceSnapshot> base = live.Current();
  ASSERT_TRUE(live.Add("Dept", {"ops", "dave"}).ok());
  std::shared_ptr<const InstanceSnapshot> clean = live.Snapshot();
  EXPECT_EQ(clean->epoch, 1u);
  EXPECT_EQ(clean->conflict_epoch, 0u);
  EXPECT_EQ(clean->denominators->orep(), base->denominators->orep());
  EXPECT_EQ(clean->denominators->crs(), base->denominators->crs());
  EXPECT_NE(clean->fingerprint, base->fingerprint);
  EXPECT_EQ(clean->relation_epochs[clean->db->schema().Find("Dept")], 1u);
  EXPECT_EQ(clean->relation_epochs[clean->db->schema().Find("Emp")], 0u);

  // Existing key value, different tuple => the block grows: conflict epoch
  // jumps to the new epoch and the denominators change.
  ASSERT_TRUE(live.Add("Dept", {"hw", "erin"}).ok());
  std::shared_ptr<const InstanceSnapshot> dirty = live.Snapshot();
  EXPECT_EQ(dirty->epoch, 2u);
  EXPECT_EQ(dirty->conflict_epoch, 2u);
  EXPECT_NE(dirty->denominators->orep(), clean->denominators->orep());
}

TEST(MvccTest, AddValidatesRelationAndArity) {
  ParsedInstance inst = LoadInstance();
  LiveInstance live(std::move(inst.db), inst.keys);
  EXPECT_FALSE(live.Add("Nope", {"a", "b"}).ok());
  EXPECT_FALSE(live.Add("Emp", {"a"}).ok());
  EXPECT_FALSE(live.Add("Emp", {"a", "b", "c"}).ok());
  EXPECT_EQ(live.pending(), 0u);
  EXPECT_TRUE(live.Add("Emp", {"e9", "hw"}).ok());
  EXPECT_EQ(live.pending(), 1u);
}

// --- stale snapshots -------------------------------------------------------

TEST(MvccTest, StaleSnapshotsReplayPreIngestResultsBitIdentically) {
  ParsedInstance inst = LoadInstance();
  KeySet keys = inst.keys;
  LiveInstance live(std::move(inst.db), inst.keys);
  std::shared_ptr<const InstanceSnapshot> stale = live.Current();

  Result<ConjunctiveQuery> query = ParseQuery(
      "Ans() :- Emp(x, y), Dept(y, z)", stale->db->schema());
  ASSERT_TRUE(query.ok());
  const std::vector<Value> answer;

  OcqaEngine pinned(*stale->db, keys);
  pinned.SeedDenominators(stale->denominators->orep(),
                          stale->denominators->crs());
  ExactRF exact_before = pinned.Exact(*query, answer).ur;
  OcqaOptions opt;
  opt.fpras.epsilon = 0.5;
  opt.fpras.delta = 0.25;
  opt.fpras.seed = 7;
  opt.threads = 1;
  Result<ApproxRF> fpras_before = pinned.ApproxUr(*query, answer, opt);
  ASSERT_TRUE(fpras_before.ok());
  double mc_before = pinned.MonteCarloUr(*query, answer, 256, 7, 1);
  uint64_t fingerprint_before = stale->fingerprint;

  // Grow the live instance through several epochs, conflicting and not.
  ASSERT_TRUE(live.Add("Emp", {"e2", "sw"}).ok());   // conflicts with e2
  ASSERT_TRUE(live.Snapshot() != nullptr);
  ASSERT_TRUE(live.Add("Dept", {"ops", "dave"}).ok());  // conflict-free
  std::shared_ptr<const InstanceSnapshot> latest = live.Snapshot();
  EXPECT_EQ(latest->epoch, 2u);

  // The stale snapshot is frozen: same facts, same fingerprint, and the
  // same engine over it reproduces every pre-ingest result bit-for-bit.
  EXPECT_EQ(stale->epoch, 0u);
  EXPECT_EQ(stale->fingerprint, fingerprint_before);
  EXPECT_EQ(stale->db->size(), 5u);
  EXPECT_TRUE(pinned.Exact(*query, answer).ur == exact_before);
  Result<ApproxRF> fpras_again = pinned.ApproxUr(*query, answer, opt);
  ASSERT_TRUE(fpras_again.ok());
  EXPECT_EQ(fpras_again->value, fpras_before->value);
  EXPECT_EQ(pinned.MonteCarloUr(*query, answer, 256, 7, 1), mc_before);

  // A fresh engine over the stale snapshot agrees too (no hidden state in
  // the pinned engine).
  OcqaEngine rebuilt(*stale->db, keys);
  EXPECT_TRUE(rebuilt.Exact(*query, answer).ur == exact_before);
  Result<ApproxRF> fpras_rebuilt = rebuilt.ApproxUr(*query, answer, opt);
  ASSERT_TRUE(fpras_rebuilt.ok());
  EXPECT_EQ(fpras_rebuilt->value, fpras_before->value);

  // While the latest epoch genuinely serves the grown instance.
  OcqaEngine grown(*latest->db, keys);
  EXPECT_EQ(latest->db->size(), 7u);
  EXPECT_FALSE(grown.Exact(*query, answer).ur == exact_before);
}

// --- fingerprint memoization ----------------------------------------------

TEST(MvccTest, SnapshotFingerprintsMatchFullRehashPerEpoch) {
  ParsedInstance inst = LoadInstance();
  KeySet keys = inst.keys;
  LiveInstance live(std::move(inst.db), inst.keys);
  std::shared_ptr<const InstanceSnapshot> s0 = live.Current();
  EXPECT_EQ(s0->fingerprint, InstanceFingerprint(*s0->db, keys));

  ASSERT_TRUE(live.Add("Emp", {"e3", "hw"}).ok());
  std::shared_ptr<const InstanceSnapshot> s1 = live.Snapshot();
  EXPECT_EQ(s1->fingerprint, InstanceFingerprint(*s1->db, keys));
  EXPECT_NE(s1->fingerprint, s0->fingerprint);

  // The memoized chain is the real thing: extending the epoch-0 chain by
  // the delta equals hashing the merged instance from scratch.
  uint64_t chain = ExtendFactChain(s0->fact_chain, *s1->db, s0->db->size());
  EXPECT_EQ(chain, s1->fact_chain);
  EXPECT_EQ(FingerprintFromChain(chain, *s1->db, keys), s1->fingerprint);
}

}  // namespace
}  // namespace uocqa
