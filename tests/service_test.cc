#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/textio.h"
#include "query/parser.h"
#include "service/canonical.h"
#include "service/lru_cache.h"
#include "service/request.h"
#include "service/service.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

constexpr const char* kInstance = R"(
key Emp = 1
Emp(e1, hw)
Emp(e1, sw)
Emp(e2, hw)
key Dept = 1
Dept(hw, alice)
Dept(hw, bob)
Dept(sw, carol)
)";

ParsedInstance LoadInstance() {
  auto inst = ParseInstanceText(kInstance);
  EXPECT_TRUE(inst.ok());
  return *std::move(inst);
}

Request MakeRequest(const std::string& query, const std::string& answer,
                    RequestMode mode) {
  Request out;
  out.query_text = query;
  out.answer_text = answer;
  out.mode = mode;
  out.epsilon = 0.5;
  out.delta = 0.2;
  out.samples = 500;
  out.seed = 7;
  return out;
}

// --- canonicalization ------------------------------------------------------

TEST(CanonicalTest, RenamedVariablesShareCanonicalText) {
  auto q1 = ParseQuery("Ans(x) :- Emp(x, y), Dept(y, z)");
  auto q2 = ParseQuery("Ans(alpha) :- Emp(alpha, beta), Dept(beta, gamma)");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(CanonicalQueryText(*q1), CanonicalQueryText(*q2));
  EXPECT_EQ(CanonicalQueryText(*q1), "Ans(?0):-Emp(?0,?1),Dept(?1,?2)");
}

TEST(CanonicalTest, StructurallyDifferentQueriesDiffer) {
  auto join = ParseQuery("Ans() :- R(x, y), S(y, z)");
  auto cross = ParseQuery("Ans() :- R(x, y), S(w, z)");
  auto constant = ParseQuery("Ans() :- R(x, 'c'), S(x, z)");
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(cross.ok());
  ASSERT_TRUE(constant.ok());
  EXPECT_NE(CanonicalQueryText(*join), CanonicalQueryText(*cross));
  EXPECT_NE(CanonicalQueryText(*join), CanonicalQueryText(*constant));
}

TEST(CanonicalTest, InstanceFingerprintTracksContent) {
  ParsedInstance a = LoadInstance();
  ParsedInstance b = LoadInstance();
  EXPECT_EQ(InstanceFingerprint(a.db, a.keys),
            InstanceFingerprint(b.db, b.keys));
  b.db.Add("Emp", {"e3", "hw"});
  EXPECT_NE(InstanceFingerprint(a.db, a.keys),
            InstanceFingerprint(b.db, b.keys));
}

// --- the LRU cache ---------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "a");
  cache.Put(2, "b");
  EXPECT_TRUE(cache.Get(1).has_value());  // 1 is now most recent
  cache.Put(3, "c");                      // evicts 2, not 1
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  cache.Put(4, "d");  // evicts 1 (3 was touched more recently via Put)
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  LruCache<int, int> cache(0);
  cache.Put(1, 10);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

// --- request protocol ------------------------------------------------------

TEST(RequestTest, RoundTripsThroughProtocolLine) {
  Request r = MakeRequest("Ans(x) :- Emp(x, y)", "e1", RequestMode::kFpras);
  auto parsed = ParseRequestLine(FormatRequestLine(r));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->query_text, r.query_text);
  EXPECT_EQ(parsed->answer_text, r.answer_text);
  EXPECT_EQ(parsed->mode, r.mode);
  EXPECT_EQ(parsed->epsilon, r.epsilon);
  EXPECT_EQ(parsed->delta, r.delta);
  EXPECT_EQ(parsed->samples, r.samples);
  EXPECT_EQ(parsed->seed, r.seed);
}

TEST(RequestTest, DoubledQuotesCarryStringConstants) {
  // `''` inside a quoted value is a literal quote, so queries with string
  // constants survive the protocol.
  auto parsed =
      ParseRequestLine("query='Ans(x) :- Emp(x, ''h w'')' mode=exact");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->query_text, "Ans(x) :- Emp(x, 'h w')");

  Request r = MakeRequest("Ans() :- Emp(x, 'h w'), Dept('h w', z)", "",
                          RequestMode::kExact);
  auto round = ParseRequestLine(FormatRequestLine(r));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->query_text, r.query_text);
}

TEST(RequestTest, RejectsInvalidAccuracyAndShape) {
  EXPECT_FALSE(ParseRequestLine("query='Ans() :- R(x)' epsilon=0").ok());
  EXPECT_FALSE(ParseRequestLine("query='Ans() :- R(x)' epsilon=-1").ok());
  EXPECT_FALSE(ParseRequestLine("query='Ans() :- R(x)' epsilon=nan").ok());
  EXPECT_FALSE(ParseRequestLine("query='Ans() :- R(x)' delta=1.5").ok());
  EXPECT_FALSE(ParseRequestLine("query='Ans() :- R(x)' samples=0").ok());
  EXPECT_FALSE(ParseRequestLine("mode=mc").ok());  // missing query
  EXPECT_FALSE(ParseRequestLine("query='Ans() :- R(x)' mode=bogus").ok());
  EXPECT_FALSE(ParseRequestLine("query='Ans() :- R(x)' nonsense").ok());
  EXPECT_FALSE(ParseRequestLine("query='unterminated").ok());
  EXPECT_TRUE(ParseRequestLine("query='Ans() :- R(x)'").ok());
}

TEST(RequestTest, StatsVerbAndExplainFlagParse) {
  auto stats = ParseRequestLine("stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->verb, RequestVerb::kStats);
  EXPECT_EQ(FormatRequestLine(*stats), "stats");

  // stats takes no other fields; a stray bare token is still an error.
  EXPECT_FALSE(ParseRequestLine("stats mode=exact").ok());

  auto on = ParseRequestLine("query='Ans() :- R(x)' explain=1");
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_TRUE(on->explain);
  auto off = ParseRequestLine("query='Ans() :- R(x)' explain=0");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->explain);
  EXPECT_FALSE(ParseRequestLine("query='Ans() :- R(x)' explain=yes").ok());

  // explain survives the round trip; off is the default and stays implicit.
  auto round = ParseRequestLine(FormatRequestLine(*on));
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->explain);
  EXPECT_EQ(FormatRequestLine(*off).find("explain"), std::string::npos);
}

TEST(RequestTest, SeedSchemaParsesAndRoundTrips) {
  // One schema (2): the default, kept implicit in the wire format.
  auto plain = ParseRequestLine("query='Ans() :- R(x)'");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->seed_schema, 2);
  EXPECT_EQ(FormatRequestLine(*plain).find("seed_schema"),
            std::string::npos);

  auto two = ParseRequestLine("query='Ans() :- R(x)' seed_schema=2");
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ(two->seed_schema, 2);
  EXPECT_EQ(FormatRequestLine(*two), FormatRequestLine(*plain));

  // The retired schema 1 and anything else are structured errors.
  auto retired = ParseRequestLine("query='Ans() :- R(x)' seed_schema=1");
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(retired.status().message().find("retired"), std::string::npos)
      << retired.status().ToString();
  for (const char* bad : {"0", "3", "latest"}) {
    auto r = ParseRequestLine(
        std::string("query='Ans() :- R(x)' seed_schema=") + bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(LruCacheTest, ForEachVisitsMostRecentFirst) {
  LruCache<int, std::string> cache(3);
  cache.Put(1, "a");
  cache.Put(2, "b");
  cache.Put(3, "c");
  EXPECT_TRUE(cache.Get(1).has_value());  // 1 becomes most recent
  std::vector<int> keys;
  cache.ForEach([&keys](int k, const std::string&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 2}));
}

// --- cached vs. uncached bit-identity --------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : inst_(LoadInstance()) {}

  ServiceOptions CachesOff() {
    ServiceOptions options;
    options.plan_cache_capacity = 0;
    options.result_cache_capacity = 0;
    return options;
  }

  ParsedInstance inst_;
};

TEST_F(ServiceTest, CachedResultsBitIdenticalAcrossModes) {
  QueryService cached(inst_.db, inst_.keys);
  QueryService uncached(inst_.db, inst_.keys, CachesOff());
  for (RequestMode mode : {RequestMode::kExact, RequestMode::kFpras,
                           RequestMode::kMc, RequestMode::kAll}) {
    Request r =
        MakeRequest("Ans(x) :- Emp(x, y), Dept(y, z)", "e1", mode);
    ServiceResponse first = cached.Execute(r);
    ServiceResponse replay = cached.Execute(r);
    ServiceResponse fresh = uncached.Execute(r);
    ASSERT_TRUE(first.status.ok()) << first.status.ToString();
    EXPECT_FALSE(first.cache_hit);
    EXPECT_TRUE(replay.cache_hit) << RequestModeName(mode);
    // Byte-identical replay, and byte-identical to the cache-free pipeline.
    EXPECT_EQ(first.payload, replay.payload);
    EXPECT_EQ(first.payload, fresh.payload);
    EXPECT_FALSE(first.payload.empty());
  }
}

TEST_F(ServiceTest, RenamedQuerySharesPlanAndResults) {
  QueryService cached(inst_.db, inst_.keys);
  QueryService uncached(inst_.db, inst_.keys, CachesOff());
  Request original = MakeRequest("Ans(x) :- Emp(x, y), Dept(y, z)", "e1",
                                 RequestMode::kFpras);
  Request renamed = MakeRequest("Ans(a) :- Emp(a, b), Dept(b, c)", "e1",
                                RequestMode::kFpras);
  ServiceResponse first = cached.Execute(original);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(cached.stats().plan_misses, 1u);

  // The renamed query is the same plan *and* the same result key.
  ServiceResponse replay = cached.Execute(renamed);
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(first.payload, replay.payload);

  // A different answer tuple reuses the compiled plan (no new plan miss)
  // and still matches the cache-free pipeline byte for byte.
  Request other_answer = MakeRequest("Ans(a) :- Emp(a, b), Dept(b, c)", "e2",
                                     RequestMode::kFpras);
  ServiceResponse computed = cached.Execute(other_answer);
  ASSERT_TRUE(computed.status.ok());
  EXPECT_FALSE(computed.cache_hit);
  ServiceStats stats = cached.stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_GE(stats.plan_hits, 1u);
  EXPECT_EQ(computed.payload, uncached.Execute(other_answer).payload);
}

TEST_F(ServiceTest, ResultCacheEvictsInLruOrder) {
  ServiceOptions options;
  options.result_cache_capacity = 2;
  QueryService service(inst_.db, inst_.keys, options);
  Request a = MakeRequest("Ans(x) :- Emp(x, y)", "e1", RequestMode::kExact);
  Request b = MakeRequest("Ans(x) :- Emp(x, y)", "e2", RequestMode::kExact);
  Request c = MakeRequest("Ans(x) :- Dept(x, y)", "hw", RequestMode::kExact);
  service.Execute(a);
  service.Execute(b);
  EXPECT_TRUE(service.Execute(a).cache_hit);  // refresh a
  service.Execute(c);                         // evicts b (LRU), not a
  EXPECT_EQ(service.stats().result_evictions, 1u);
  EXPECT_TRUE(service.Execute(a).cache_hit);
  EXPECT_TRUE(service.Execute(c).cache_hit);
  EXPECT_FALSE(service.Execute(b).cache_hit);  // recomputed; evicts a
  EXPECT_EQ(service.stats().result_evictions, 2u);
  EXPECT_FALSE(service.Execute(a).cache_hit);
  EXPECT_TRUE(service.Execute(b).cache_hit);
}

TEST_F(ServiceTest, BatchOutputIndependentOfLaneCount) {
  std::vector<Request> requests;
  for (const char* answer : {"e1", "e2", "e1", "e2"}) {
    requests.push_back(MakeRequest("Ans(x) :- Emp(x, y), Dept(y, z)", answer,
                                   RequestMode::kAll));
    requests.push_back(
        MakeRequest("Ans(a) :- Emp(a, b), Dept(b, c)", answer,
                    RequestMode::kMc));
    requests.push_back(MakeRequest("Ans(x) :- Emp(x, y)", answer,
                                   RequestMode::kExact));
  }
  // A self-join: fpras reports an in-payload error, identically per lane.
  requests.push_back(
      MakeRequest("Ans() :- Emp(x, y), Emp(y, z)", "", RequestMode::kFpras));
  // Fresh, identically configured services per lane count: the response
  // vector must be bit-identical at every parallelism level.
  QueryService serial(inst_.db, inst_.keys);
  std::vector<ServiceResponse> base = serial.ExecuteBatch(requests, 1);
  ASSERT_EQ(base.size(), requests.size());
  for (size_t lanes : {2u, 8u}) {
    QueryService parallel(inst_.db, inst_.keys);
    std::vector<ServiceResponse> got = parallel.ExecuteBatch(requests, lanes);
    ASSERT_EQ(got.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      // Payloads are bit-identical; only the hit/miss marker may differ
      // (a duplicate request can race its twin's cache fill).
      EXPECT_EQ(got[i].payload, base[i].payload) << "lane count " << lanes
                                                 << ", request " << i;
      EXPECT_EQ(got[i].status.ok(), base[i].status.ok());
    }
  }
}

TEST_F(ServiceTest, ExecuteBatchLinesReportsPerLineErrors) {
  QueryService service(inst_.db, inst_.keys);
  std::vector<std::string> lines = {
      "query='Ans(x) :- Emp(x, y)' answer=e1 mode=exact",
      "query='Ans(x) :- Emp(x, y)' answer=e1,extra mode=exact",  // arity
      "epsilon=0.5",                                             // no query
      "query='Ans(x) :- Emp(x, y)' answer=e2 mode=exact",
  };
  std::vector<ServiceResponse> responses = service.ExecuteBatchLines(lines, 1);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_FALSE(responses[2].status.ok());
  EXPECT_TRUE(responses[3].status.ok());
  EXPECT_EQ(FormatResponseLine(1, responses[0]).substr(0, 9), "1 ok miss");
  EXPECT_EQ(FormatResponseLine(3, responses[2]).substr(0, 7), "3 error");
}

TEST_F(ServiceTest, ExplainAppendsDeterministicPlanFields) {
  QueryService cached(inst_.db, inst_.keys);
  QueryService uncached(inst_.db, inst_.keys, CachesOff());
  Request plain = MakeRequest("Ans(x) :- Emp(x, y), Dept(y, z)", "e1",
                              RequestMode::kExact);
  Request explained = plain;
  explained.explain = true;

  ServiceResponse base = cached.Execute(plain);
  ServiceResponse first = cached.Execute(explained);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  // The explain payload is the plain payload plus the plan_* fields.
  EXPECT_EQ(first.payload.substr(0, base.payload.size()), base.payload);
  for (const char* field : {"plan_order=", "plan_cost=", "plan_exact=",
                            "plan_width=", "plan_bags=", "plan_candidates="}) {
    EXPECT_NE(first.payload.find(field), std::string::npos) << field;
  }
  // No timing in the payload: explain results replay byte-identically and
  // match the cache-free pipeline, like every other mode.
  EXPECT_EQ(first.payload.find("planning_us"), std::string::npos);
  ServiceResponse replay = cached.Execute(explained);
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(first.payload, replay.payload);
  EXPECT_EQ(first.payload, uncached.Execute(explained).payload);
  // Explain and plain responses live under distinct result-cache keys.
  EXPECT_TRUE(cached.Execute(plain).cache_hit);
  EXPECT_NE(base.payload, first.payload);
}

TEST_F(ServiceTest, StatsVerbReportsCountersAndCachedPlans) {
  QueryService service(inst_.db, inst_.keys);
  Request query = MakeRequest("Ans(x) :- Emp(x, y), Dept(y, z)", "e1",
                              RequestMode::kFpras);
  ASSERT_TRUE(service.Execute(query).status.ok());

  Request stats;
  stats.verb = RequestVerb::kStats;
  ServiceResponse response = service.Execute(stats);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.cache_hit);
  EXPECT_NE(response.payload.find("requests=1"), std::string::npos)
      << response.payload;
  EXPECT_NE(response.payload.find("plan_misses=1"), std::string::npos);
  EXPECT_NE(response.payload.find("plans_cached=1"), std::string::npos);
  EXPECT_NE(response.payload.find("plan='Ans(?0):-Emp(?0,?1),Dept(?1,?2)'"),
            std::string::npos)
      << response.payload;
  EXPECT_NE(response.payload.find("planning_us="), std::string::npos);

  // Stats requests are introspection: not counted, not cached — the verb
  // round-trips through the line protocol and always recomputes.
  std::vector<ServiceResponse> again =
      service.ExecuteBatchLines({"stats"}, 1);
  ASSERT_EQ(again.size(), 1u);
  ASSERT_TRUE(again[0].status.ok());
  EXPECT_FALSE(again[0].cache_hit);
  EXPECT_NE(again[0].payload.find("requests=1"), std::string::npos)
      << again[0].payload;
  EXPECT_EQ(service.stats().requests, 1u);
}

TEST_F(ServiceTest, SelfJoinFailsFprasButServesExactAndMc) {
  QueryService service(inst_.db, inst_.keys);
  Request r = MakeRequest("Ans() :- Emp(x, y), Emp(x, z)", "",
                          RequestMode::kAll);
  ServiceResponse response = service.Execute(r);
  ASSERT_TRUE(response.status.ok());
  EXPECT_NE(response.payload.find("exact_ur="), std::string::npos);
  EXPECT_NE(response.payload.find("fpras_error="), std::string::npos);
  EXPECT_NE(response.payload.find("mc_ur="), std::string::npos);
}

}  // namespace
}  // namespace uocqa
