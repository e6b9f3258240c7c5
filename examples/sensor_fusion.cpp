// Sensor-fusion scenario with a cyclic (width-2) query and an FPRAS
// epsilon sweep.
//
// A mesh of sensors reports Reading(sensor, value); link tables LinkAB,
// LinkBC, LinkCA describe a triangular routing overlay whose consistency we
// interrogate: Ans() :- LinkAB(x,y), LinkBC(y,z), LinkCA(z,x) — a cyclic
// self-join-free query of generalized hypertreewidth 2, i.e. exactly the
// regime where Theorem 3.6's combined-complexity FPRAS applies and the
// paper's data-complexity techniques do not directly help. Duplicate
// detections make every relation key-inconsistent.
//
// The program compares the exact RF_ur with the FPRAS at several epsilon
// values, reporting the observed error and the automaton sizes.

#include <chrono>
#include <cstdio>

#include "hypertree/ghd_search.h"
#include "ocqa/engine.h"
#include "query/parser.h"

using namespace uocqa;

int main() {
  Schema schema;
  schema.AddRelationOrDie("LinkAB", 2);
  schema.AddRelationOrDie("LinkBC", 2);
  schema.AddRelationOrDie("LinkCA", 2);
  Database db(schema);

  // Conflicting link detections: each sensor reported by two observers.
  db.Add("LinkAB", {"a1", "b1"});
  db.Add("LinkAB", {"a1", "b2"});  // a1's partner contested
  db.Add("LinkAB", {"a2", "b2"});
  db.Add("LinkBC", {"b1", "c1"});
  db.Add("LinkBC", {"b2", "c1"});
  db.Add("LinkBC", {"b2", "c2"});  // b2's partner contested (same key b2)
  db.Add("LinkCA", {"c1", "a1"});
  db.Add("LinkCA", {"c1", "a2"});  // c1's partner contested
  db.Add("LinkCA", {"c2", "a2"});
  KeySet keys;
  for (const char* r : {"LinkAB", "LinkBC", "LinkCA"}) {
    keys.SetKeyOrDie(schema.Find(r), {0});
  }

  auto query = ParseQuery("Ans() :- LinkAB(x,y), LinkBC(y,z), LinkCA(z,x)");
  if (!query.ok()) return 1;
  auto ghw = ComputeGhw(*query);
  std::printf("query: %s\n", query->ToString().c_str());
  std::printf("generalized hypertreewidth: %zu (cyclic triangle)\n\n",
              ghw.ok() ? ghw->width : 0);

  OcqaEngine engine(db, keys);
  ExactRF exact = engine.Exact(*query, {}).ur;
  std::printf("exact RF_ur = %s / %s = %.6f\n\n",
              exact.numerator.ToString().c_str(),
              exact.denominator.ToString().c_str(), exact.value());

  std::printf("%8s %12s %12s %10s %10s %14s\n", "epsilon", "estimate",
              "rel.err", "states", "trans", "time(ms)");
  for (double eps : {0.5, 0.25, 0.1, 0.05}) {
    OcqaOptions options;
    options.fpras.epsilon = eps;
    options.fpras.seed = 42;
    auto start = std::chrono::steady_clock::now();
    auto approx = engine.ApproxUr(*query, {}, options);
    auto ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    if (!approx.ok()) {
      std::fprintf(stderr, "FPRAS failed: %s\n",
                   approx.status().ToString().c_str());
      return 1;
    }
    double rel_err = exact.value() > 0
                         ? std::abs(approx->value - exact.value()) /
                               exact.value()
                         : 0.0;
    std::printf("%8.2f %12.6f %12.4f %10zu %10zu %14.2f\n", eps,
                approx->value, rel_err, approx->automaton_states,
                approx->automaton_transitions, ms);
  }
  std::printf(
      "\nThe estimate tightens as epsilon shrinks while the automaton (built"
      "\nonce per instance) stays fixed — only the union-estimation sample"
      "\nbudget grows, exactly the FPRAS trade-off of Theorem 4.6.\n");
  return 0;
}
