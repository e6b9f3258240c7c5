// Data-integration scenario: ranking candidate answers by their repair
// relative frequency.
//
// Three partially-trusted feeds loaded a small CRM: Customer(id, city) and
// Order(order_id, customer_id). Conflicting ingests left key violations in
// both relations. The analyst asks: "which cities have a customer with an
// order?" — Ans(c) :- Customer(x, c), Order(o, x). Instead of certain
// answers (true in *all* repairs — often empty under conflicting feeds),
// uniform operational CQA grades every candidate city by the fraction of
// operational repairs (RF_ur) and repairing sequences (RF_us) supporting
// it, computed exactly and by Monte-Carlo over the exact-uniform samplers.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "ocqa/engine.h"
#include "query/eval.h"
#include "query/parser.h"

using namespace uocqa;

int main() {
  Schema schema;
  schema.AddRelationOrDie("Customer", 2);
  schema.AddRelationOrDie("Ord", 2);
  Database db(schema);

  // Feed A and feed B disagree about customers 17 and 23; feed C added a
  // clean customer 31.
  db.Add("Customer", {"17", "paris"});
  db.Add("Customer", {"17", "london"});   // conflict on id 17
  db.Add("Customer", {"23", "berlin"});
  db.Add("Customer", {"23", "madrid"});
  db.Add("Customer", {"23", "lisbon"});   // three-way conflict on id 23
  db.Add("Customer", {"31", "oslo"});     // consistent
  // Orders; order 901's customer reference is itself conflicted.
  db.Add("Ord", {"901", "17"});
  db.Add("Ord", {"901", "23"});           // conflict on order 901
  db.Add("Ord", {"902", "23"});
  db.Add("Ord", {"903", "31"});

  KeySet keys;
  keys.SetKeyOrDie(schema.Find("Customer"), {0});
  keys.SetKeyOrDie(schema.Find("Ord"), {0});

  auto query = ParseQuery("Ans(c) :- Customer(x, c), Ord(o, x)");
  if (!query.ok()) return 1;

  OcqaEngine engine(db, keys);
  std::printf("query: %s\n", query->ToString().c_str());
  ExactFrequencies oslo = engine.Exact(*query, {ValuePool::Intern("oslo")});
  std::printf("|ORep| = %s   |CRS| = %s\n\n",
              oslo.ur.denominator.ToString().c_str(),
              oslo.us.denominator.ToString().c_str());

  // Candidate answers: all cities in the active domain.
  std::vector<std::string> cities = {"paris",  "london", "berlin",
                                     "madrid", "lisbon", "oslo"};
  struct Row {
    std::string city;
    double ur, us, mc;
  };
  std::vector<Row> rows;
  for (const std::string& city : cities) {
    std::vector<Value> answer = {ValuePool::Intern(city)};
    Row row;
    row.city = city;
    ExactFrequencies exact = engine.Exact(*query, answer);
    row.ur = exact.ur.value();
    row.us = exact.us.value();
    row.mc = engine.MonteCarloUr(*query, answer, 20000, 11);
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.ur > b.ur; });

  std::printf("%-10s %12s %12s %14s\n", "city", "RF_ur", "RF_us",
              "RF_ur (MC)");
  for (const Row& r : rows) {
    std::printf("%-10s %12.6f %12.6f %14.6f\n", r.city.c_str(), r.ur, r.us,
                r.mc);
  }
  std::printf(
      "\nInterpretation: oslo is a *certain* answer (RF = 1: customer 31 and"
      "\norder 903 are conflict-free); the graded answers below it reflect"
      "\nhow much of the repair space supports each city. Note RF_ur and"
      "\nRF_us differ: sequence counting weights repairs by how many"
      "\nrepairing processes reach them.\n");
  return 0;
}
