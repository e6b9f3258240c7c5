// Bit-identity pins for the FPRAS over engine-served automata and one raw
// overlap automaton. The constants below were recorded on the estimator as
// it was before unions of pairwise-disjoint components were decided
// without sampling, and before the composition walk was pruned: both are
// cost-only changes, so every estimate (as a bit pattern) and every
// union-estimation count must stay exactly as recorded.
//
// Grid: seeds 1-8 x disjoint grouping on and off, each run at 1 and at 4
// lanes against the same row. Inputs whose unions
// are all disjoint: the CLI smoke instance, chain / star / triangle
// instances, and ocqa_test's Example 1.1, answer-variable chain and §5.1
// instances. Inputs with overlapping unions (the Karp–Luby–Madras path):
// service_live_test's instance before and after its ingest,
// engine_sampling_test's two-block instance, and the OverlapChains
// automaton of bench_e15 (EstimateUpTo(10) on NftaFpras directly).
//
// A row that does not match is printed in the table's own syntax, which is
// how the table was recorded.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "automata/fpras.h"
#include "base/thread_pool.h"
#include "db/textio.h"
#include "ocqa/engine.h"
#include "query/parser.h"

namespace uocqa {
namespace {

constexpr int kSeeds = 8;

struct Pin {
  const char* input;
  const char* side;  // "ur", "us", or "upto" (raw automaton)
  bool grouped;
  uint64_t bits[kSeeds];
  size_t unions[kSeeds];
};

// clang-format off
const Pin kPins[] = {
    {"smoke", "ur", true,
     {0x402e000000000000, 0x402e000000000000, 0x402e000000000000,
      0x402e000000000000, 0x402e000000000000, 0x402e000000000000,
      0x402e000000000000, 0x402e000000000000},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"smoke", "ur", false,
     {0x402e000000000000, 0x402e000000000000, 0x402e000000000000,
      0x402e000000000000, 0x402e000000000000, 0x402e000000000000,
      0x402e000000000000, 0x402e000000000000},
     {4, 4, 4, 4, 4, 4, 4, 4}},
    {"smoke", "us", true,
     {0x4056800000000000, 0x4056800000000000, 0x4056800000000000,
      0x4056800000000000, 0x4056800000000000, 0x4056800000000000,
      0x4056800000000000, 0x4056800000000000},
     {5, 5, 5, 5, 5, 5, 5, 5}},
    {"smoke", "us", false,
     {0x4056800000000000, 0x4056800000000000, 0x4056800000000000,
      0x4056800000000000, 0x4056800000000000, 0x4056800000000000,
      0x4056800000000000, 0x4056800000000000},
     {19, 19, 19, 19, 19, 19, 19, 19}},
    {"chain", "ur", true,
     {0x4018000000000000, 0x4018000000000000, 0x4018000000000000,
      0x4018000000000000, 0x4018000000000000, 0x4018000000000000,
      0x4018000000000000, 0x4018000000000000},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"chain", "ur", false,
     {0x4018000000000000, 0x4018000000000000, 0x4018000000000000,
      0x4018000000000000, 0x4018000000000000, 0x4018000000000000,
      0x4018000000000000, 0x4018000000000000},
     {2, 2, 2, 2, 2, 2, 2, 2}},
    {"chain", "us", true,
     {0x4062000000000000, 0x4062000000000000, 0x4062000000000000,
      0x4062000000000000, 0x4062000000000000, 0x4062000000000000,
      0x4062000000000000, 0x4062000000000000},
     {3, 3, 3, 3, 3, 3, 3, 3}},
    {"chain", "us", false,
     {0x4062000000000000, 0x4062000000000000, 0x4062000000000000,
      0x4062000000000000, 0x4062000000000000, 0x4062000000000000,
      0x4062000000000000, 0x4062000000000000},
     {16, 16, 16, 16, 16, 16, 16, 16}},
    {"star", "ur", true,
     {0x4028000000000000, 0x4028000000000000, 0x4028000000000000,
      0x4028000000000000, 0x4028000000000000, 0x4028000000000000,
      0x4028000000000000, 0x4028000000000000},
     {3, 3, 3, 3, 3, 3, 3, 3}},
    {"star", "ur", false,
     {0x4028000000000000, 0x4028000000000000, 0x4028000000000000,
      0x4028000000000000, 0x4028000000000000, 0x4028000000000000,
      0x4028000000000000, 0x4028000000000000},
     {5, 5, 5, 5, 5, 5, 5, 5}},
    {"star", "us", true,
     {0x4052000000000000, 0x4052000000000000, 0x4052000000000000,
      0x4052000000000000, 0x4052000000000000, 0x4052000000000000,
      0x4052000000000000, 0x4052000000000000},
     {7, 7, 7, 7, 7, 7, 7, 7}},
    {"star", "us", false,
     {0x4052000000000000, 0x4052000000000000, 0x4052000000000000,
      0x4052000000000000, 0x4052000000000000, 0x4052000000000000,
      0x4052000000000000, 0x4052000000000000},
     {21, 21, 21, 21, 21, 21, 21, 21}},
    {"triangle", "ur", true,
     {0x4008000000000000, 0x4008000000000000, 0x4008000000000000,
      0x4008000000000000, 0x4008000000000000, 0x4008000000000000,
      0x4008000000000000, 0x4008000000000000},
     {0, 0, 0, 0, 0, 0, 0, 0}},
    {"triangle", "ur", false,
     {0x4008000000000000, 0x4008000000000000, 0x4008000000000000,
      0x4008000000000000, 0x4008000000000000, 0x4008000000000000,
      0x4008000000000000, 0x4008000000000000},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"triangle", "us", true,
     {0x4052000000000000, 0x4052000000000000, 0x4052000000000000,
      0x4052000000000000, 0x4052000000000000, 0x4052000000000000,
      0x4052000000000000, 0x4052000000000000},
     {3, 3, 3, 3, 3, 3, 3, 3}},
    {"triangle", "us", false,
     {0x4052000000000000, 0x4052000000000000, 0x4052000000000000,
      0x4052000000000000, 0x4052000000000000, 0x4052000000000000,
      0x4052000000000000, 0x4052000000000000},
     {13, 13, 13, 13, 13, 13, 13, 13}},
    {"example_1_1", "ur", true,
     {0x4000000000000000, 0x4000000000000000, 0x4000000000000000,
      0x4000000000000000, 0x4000000000000000, 0x4000000000000000,
      0x4000000000000000, 0x4000000000000000},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"example_1_1", "ur", false,
     {0x4000000000000000, 0x4000000000000000, 0x4000000000000000,
      0x4000000000000000, 0x4000000000000000, 0x4000000000000000,
      0x4000000000000000, 0x4000000000000000},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"example_1_1", "us", true,
     {0x4000000000000000, 0x4000000000000000, 0x4000000000000000,
      0x4000000000000000, 0x4000000000000000, 0x4000000000000000,
      0x4000000000000000, 0x4000000000000000},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"example_1_1", "us", false,
     {0x4000000000000000, 0x4000000000000000, 0x4000000000000000,
      0x4000000000000000, 0x4000000000000000, 0x4000000000000000,
      0x4000000000000000, 0x4000000000000000},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"answer_chain", "ur", true,
     {0x4014000000000000, 0x4014000000000000, 0x4014000000000000,
      0x4014000000000000, 0x4014000000000000, 0x4014000000000000,
      0x4014000000000000, 0x4014000000000000},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"answer_chain", "ur", false,
     {0x4014000000000000, 0x4014000000000000, 0x4014000000000000,
      0x4014000000000000, 0x4014000000000000, 0x4014000000000000,
      0x4014000000000000, 0x4014000000000000},
     {2, 2, 2, 2, 2, 2, 2, 2}},
    {"answer_chain", "us", true,
     {0x4024000000000000, 0x4024000000000000, 0x4024000000000000,
      0x4024000000000000, 0x4024000000000000, 0x4024000000000000,
      0x4024000000000000, 0x4024000000000000},
     {2, 2, 2, 2, 2, 2, 2, 2}},
    {"answer_chain", "us", false,
     {0x4024000000000000, 0x4024000000000000, 0x4024000000000000,
      0x4024000000000000, 0x4024000000000000, 0x4024000000000000,
      0x4024000000000000, 0x4024000000000000},
     {4, 4, 4, 4, 4, 4, 4, 4}},
    {"paper_5_1", "ur", true,
     {0x4040000000000000, 0x4040000000000000, 0x4040000000000000,
      0x4040000000000000, 0x4040000000000000, 0x4040000000000000,
      0x4040000000000000, 0x4040000000000000},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"paper_5_1", "ur", false,
     {0x4040000000000000, 0x4040000000000000, 0x4040000000000000,
      0x4040000000000000, 0x4040000000000000, 0x4040000000000000,
      0x4040000000000000, 0x4040000000000000},
     {4, 4, 4, 4, 4, 4, 4, 4}},
    {"paper_5_1", "us", true,
     {0x410ded4000000000, 0x410ded4000000000, 0x410ded4000000000,
      0x410ded4000000000, 0x410ded4000000000, 0x410ded4000000000,
      0x410ded4000000000, 0x410ded4000000000},
     {33, 33, 33, 33, 33, 33, 33, 33}},
    {"paper_5_1", "us", false,
     {0x410ded4000000000, 0x410ded4000000000, 0x410ded4000000000,
      0x410ded4000000000, 0x410ded4000000000, 0x410ded4000000000,
      0x410ded4000000000, 0x410ded4000000000},
     {245, 245, 245, 245, 245, 245, 245, 245}},
    {"service_emp", "ur", true,
     {0x4022ea936e8e9699, 0x40237b8b9e57edc3, 0x402227f077d16775,
      0x4020f7521e284dfc, 0x40226c932cbfc4b0, 0x40221cdbcd35bf0c,
      0x4022c754d2df406b, 0x4021bdc5cf2bf6e1},
     {5, 5, 5, 5, 5, 5, 5, 5}},
    {"service_emp", "ur", false,
     {0x402141c7e48fdfa3, 0x4021d68f134952d6, 0x4022ad042c8327e1,
      0x402138294ad34a9f, 0x40238ebe6dcae57a, 0x40210f28ef0a6938,
      0x40229ca384bed92a, 0x40207d22969ff5d3},
     {8, 8, 8, 8, 8, 8, 8, 8}},
    {"service_emp", "us", true,
     {0x40318405113fa273, 0x4031d8693edadf29, 0x4030fa5d3a0c2612,
      0x4032aee5c93bbc90, 0x403174cd29ef9042, 0x4031e711b40de71e,
      0x403269b346537b57, 0x4030a9ce4cfc3311},
     {7, 7, 7, 7, 7, 7, 7, 7}},
    {"service_emp", "us", false,
     {0x403128b8c3adc0a8, 0x403199073e6673b4, 0x4032a02ba84b9ef0,
      0x4032200746b74528, 0x4030ad97144d4f5c, 0x4031b422b129ce4d,
      0x403265ac20df7bfe, 0x4032627e3acb68e3},
     {12, 12, 12, 12, 12, 12, 12, 12}},
    {"service_emp_ops", "ur", true,
     {0x4021e173397567c0, 0x40210fc1c29099c5, 0x4021ccc45371428f,
      0x4021d9f154d4d67f, 0x4022bd6b85b7d9e3, 0x40210ac7e1fcdbcc,
      0x4021fea16825b272, 0x4021b8bcf851cc54},
     {6, 6, 6, 6, 6, 6, 6, 6}},
    {"service_emp_ops", "ur", false,
     {0x4020e39c40da7f65, 0x4022f9596f738700, 0x402189cfc0ede1fb,
      0x40228b8fd37bc887, 0x40225e342872f5e3, 0x4021e934cfb6f5b3,
      0x40214acc972fb6d2, 0x4021b13b13b13b14},
     {10, 10, 10, 10, 10, 10, 10, 10}},
    {"service_emp_ops", "us", true,
     {0x40337e3db5932ad3, 0x40318bfac3998674, 0x40329bf3734b66d4,
      0x403007f3ddacee71, 0x403172c7c155bfb7, 0x4032a5d8a5b8bbaa,
      0x40303e5d1ffa041d, 0x403035c7b160b82c},
     {9, 9, 9, 9, 9, 9, 9, 9}},
    {"service_emp_ops", "us", false,
     {0x403243b7c6fc87b8, 0x4032071e70680dcc, 0x402fe4e8a011f3a8,
      0x4030bf97f23426d0, 0x4030e1db63d60786, 0x40316fb4b3c468f9,
      0x4033701899c0f602, 0x40323011f3a87c2b},
     {14, 14, 14, 14, 14, 14, 14, 14}},
    {"ungrouped_r", "ur", true,
     {0x400756ef3082a443, 0x40082a4433df56ef, 0x4006aa06b96557e5,
      0x400850b0c01ebd3d, 0x4008ea62f11c5674, 0x4007f0a161803d7a,
      0x400743b8ea62f11c, 0x40088a53927dd6b2},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"ungrouped_r", "ur", false,
     {0x4007909202e1bdb8, 0x4006d07345a4be33, 0x4007dd6b1b608a54,
      0x40089d89d89d89d9, 0x40092405c37b6fe9, 0x4006d07345a4be33,
      0x40070a161803d7a8, 0x40070a161803d7a8},
     {2, 2, 2, 2, 2, 2, 2, 2}},
    {"ungrouped_r", "us", true,
     {0x4007d42e2049cd43, 0x4006350b88127351, 0x4007b195e8efdb19,
      0x40086a171024e6a1, 0x40088127350b8812, 0x40086a171024e6a1,
      0x4007d42e2049cd43, 0x400657a3bf6c657a},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"ungrouped_r", "us", false,
     {0x4007d42e2049cd43, 0x4006350b88127351, 0x4007b195e8efdb19,
      0x40086a171024e6a1, 0x40088127350b8812, 0x40086a171024e6a1,
      0x4007d42e2049cd43, 0x400657a3bf6c657a},
     {1, 1, 1, 1, 1, 1, 1, 1}},
    {"overlap_chains", "upto", true,
     {0x40a717357a215a8e, 0x40a7388ab902e0c6, 0x40a6ff17a92727be,
      0x40a7d4923c6e8552, 0x40a7502214d40636, 0x40a72cd20c9dd0fa,
      0x40a735c9af532332, 0x40a7e9aedc3917aa},
     {45, 45, 45, 45, 45, 45, 45, 45}},
    {"overlap_chains", "upto", false,
     {0x40a77c44ec431a7a, 0x40a77055cf132e30, 0x40a7789708e49da0,
      0x40a7473162b55f62, 0x40a71a77ec9f8db4, 0x40a783c32514f1b6,
      0x40a76028cc4c0a35, 0x40a728258d1af4ea},
     {36, 36, 36, 36, 36, 36, 36, 36}},
};
// clang-format on

struct Input {
  std::string name;
  std::string instance;  // instance text (docs/FORMATS.md)
  std::string query;
  std::string answer;    // one value, or empty for a Boolean query
  bool overlaps = false;  // some union has overlapping components
};

std::vector<Input> Inputs() {
  return {
      {"smoke",
       "key Emp = 1\nkey Dept = 1\n"
       "Emp(e1, d1)\nEmp(e1, d2)\nEmp(e2, d1)\nEmp(e2, d3)\nEmp(e3, d2)\n"
       "Dept(d1, f1)\nDept(d1, f2)\nDept(d2, f1)\nDept(d3, f3)\n",
       "Ans(x) :- Emp(x, y), Dept(y, z)", "e1"},
      {"chain",
       "key R = 1\nkey S = 1\nkey T = 1\n"
       "R(w, b)\nR(w, b_1)\nS(b, c)\nS(b, c_1)\nT(c, d)\nT(c, d_1)\n"
       "R(z, b0)\nR(z, b0_1)\nS(f, g)\n",
       "Ans(x) :- R(x, y), S(y, z), T(z, v)", "w"},
      {"star",
       "key A = 1\nkey B = 1\nkey C = 1\n"
       "A(w, a)\nA(w, a_1)\nB(w, b)\nB(w, b_1)\nC(w, c)\n"
       "A(z, a0)\nA(z, a0_1)\nB(z, b0)\n",
       "Ans(x) :- A(x, y), B(x, u), C(x, v)", "w"},
      {"triangle",
       "key R = 1\nkey S = 1\nkey T = 1\n"
       "R(w, b)\nR(w, b_1)\nS(b, c)\nS(b, c_1)\nT(c, w)\nT(c, other)\n"
       "R(z, b0)\nR(z, b0_1)\nS(b0, c0)\nT(c0, elsewhere)\n",
       "Ans(x) :- R(x, y), S(y, u), T(u, x)", "w"},
      // ocqa_test's EmpInstance, ChainInstance and Paper51Instance (their
      // unions turn out disjoint too).
      {"example_1_1", "key Emp = 1\nEmp(1, Alice)\nEmp(1, Tom)\n",
       "Ans() :- Emp(x, y)", ""},
      {"answer_chain",
       "key R = 1\nkey W = 1\n"
       "R(1, a)\nR(1, b)\nR(2, a)\nW(a, x)\nW(a, y)\nW(b, z)\n",
       "Ans(u) :- R(u, v), W(v, t)", "1"},
      {"paper_5_1",
       "key P = 1\nkey S = 1\nkey T = 1\nkey U = 1\n"
       "P(a1, b)\nP(a1, c)\nP(a2, b)\nP(a2, c)\nP(a2, d)\n"
       "S(c, d)\nS(c, e)\nT(d, a1)\n"
       "U(c, f)\nU(c, g)\nU(h, i)\nU(h, j)\nU(h, k)\n",
       "Ans() :- P(x, y), S(y, z), T(z, x), U(y, w)", ""},
      // service_live_test's instance, as first loaded and after its
      // Dept(ops, dave) ingest: Emp's automaton has overlapping unions.
      {"service_emp",
       "key Emp = 1\nkey Dept = 1\n"
       "Emp(e1, hw)\nEmp(e1, sw)\nEmp(e2, hw)\n"
       "Dept(hw, alice)\nDept(hw, bob)\nDept(sw, carol)\n",
       "Ans() :- Emp(x, y)", "", true},
      {"service_emp_ops",
       "key Emp = 1\nkey Dept = 1\n"
       "Emp(e1, hw)\nEmp(e1, sw)\nEmp(e2, hw)\n"
       "Dept(hw, alice)\nDept(hw, bob)\nDept(sw, carol)\nDept(ops, dave)\n",
       "Ans() :- Emp(x, y)", "", true},
      // engine_sampling_test's ungrouped case.
      {"ungrouped_r", "key R = 1\nR(1, a)\nR(1, b)\nR(2, a)\n",
       "Ans() :- R(x, y)", "", true},
  };
}

/// bench_e15's union-heavy automaton: w overlapping chain states under one
/// root, plus binary branches.
Nfta OverlapChains(size_t w) {
  Nfta a;
  NftaState q0 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  NftaSymbol sc = a.InternSymbol("c");
  std::vector<NftaState> chain(w);
  for (size_t i = 0; i < w; ++i) {
    chain[i] = a.AddState();
    a.AddTransition(q0, sa, {chain[i]});
    a.AddTransition(chain[i], sb, {chain[i]});
    a.AddTransition(chain[i], sb, {});
    if (i % 2 == 0) {
      a.AddTransition(chain[i], sc, {chain[i]});
      a.AddTransition(chain[i], sc, {});
    }
  }
  for (size_t i = 0; i + 1 < w; ++i) {
    a.AddTransition(q0, sa, {chain[i], chain[i + 1]});
  }
  a.SetInitial(q0);
  return a;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

const Pin* FindPin(const std::string& input, const std::string& side,
                   bool grouped) {
  for (const Pin& pin : kPins) {
    if (input == pin.input && side == pin.side && grouped == pin.grouped) {
      return &pin;
    }
  }
  return nullptr;
}

/// One (estimate, union estimations) result of an FPRAS run.
struct Outcome {
  double estimate;
  size_t unions;
};

/// Checks one row of the grid; `run(config, lanes)` runs at one seed.
void CheckRow(const std::string& input, const std::string& side,
              bool grouped,
              const std::function<Outcome(const FprasConfig&, size_t)>& run) {
  const Pin* pin = FindPin(input, side, grouped);
  for (size_t lanes : {size_t{1}, size_t{4}}) {
    uint64_t bits[kSeeds];
    size_t unions[kSeeds];
    bool match = pin != nullptr;
    for (int s = 0; s < kSeeds; ++s) {
      FprasConfig config;
      config.epsilon = 0.5;
      config.delta = 0.25;
      config.seed = static_cast<uint64_t>(s + 1);
      config.group_disjoint_components = grouped;
      Outcome r = run(config, lanes);
      bits[s] = Bits(r.estimate);
      unions[s] = r.unions;
      match = match && bits[s] == pin->bits[s] && unions[s] == pin->unions[s];
    }
    if (match) continue;
    std::string row = "    {\"" + input + "\", \"" + side + "\", " +
                      (grouped ? "true" : "false") + ",\n     {";
    char hex[24];
    for (int s = 0; s < kSeeds; ++s) {
      std::snprintf(hex, sizeof hex, "0x%016" PRIx64, bits[s]);
      row += hex;
      row += s + 1 == kSeeds ? "},\n     {" : s % 3 == 2 ? ",\n      " : ", ";
    }
    for (int s = 0; s < kSeeds; ++s) {
      row += std::to_string(unions[s]) + (s + 1 < kSeeds ? ", " : "}},");
    }
    ADD_FAILURE() << (pin == nullptr ? "no pin" : "pin differs") << " at "
                  << lanes << " lane(s):\n"
                  << row;
  }
}

/// Parses and compiles `input`, then hands its engine to `serve`.
void Serve(const Input& input,
           const std::function<void(OcqaEngine&, const CompiledQuery&,
                                    const std::vector<Value>&)>& serve) {
  Result<ParsedInstance> inst = ParseInstanceText(input.instance);
  ASSERT_TRUE(inst.ok()) << input.name << ": " << inst.status().ToString();
  Result<ConjunctiveQuery> query = ParseQuery(input.query);
  ASSERT_TRUE(query.ok()) << input.name << ": " << query.status().ToString();
  std::vector<Value> answer;
  if (!input.answer.empty()) answer = {ValuePool::Intern(input.answer)};
  OcqaEngine engine(inst->db, inst->keys);
  Result<CompiledQuery> compiled = engine.Compile(*query);
  ASSERT_TRUE(compiled.ok()) << input.name << ": "
                             << compiled.status().ToString();
  serve(engine, *compiled, answer);
}

TEST(FprasPinTest, EngineEstimatesMatchTheRecordedBits) {
  for (const Input& input : Inputs()) {
    Serve(input, [&](OcqaEngine& engine, const CompiledQuery& compiled,
                     const std::vector<Value>& answer) {
      for (bool us : {false, true}) {
        for (bool grouped : {true, false}) {
          CheckRow(input.name, us ? "us" : "ur", grouped,
                   [&](const FprasConfig& config, size_t lanes) {
                     OcqaOptions options;
                     options.fpras = config;
                     options.threads = lanes;
                     Result<ApproxRF> rf =
                         us ? engine.ApproxUs(compiled, answer, options)
                            : engine.ApproxUr(compiled, answer, options);
                     EXPECT_TRUE(rf.ok()) << rf.status().ToString();
                     return rf.ok() ? Outcome{rf->numerator, rf->union_trials}
                                    : Outcome{-1, 0};
                   });
        }
      }
    });
  }
}

// The KLM sample count (ApproxRF::fpras_samples) is a function of the
// automaton and config only: equal at 1 and 4 lanes, 0 where every union
// is disjoint (including the chain / star / triangle shapes the fpras
// benchmark serves), above 0 where some union overlaps.
TEST(FprasPinTest, KlmSampleCountsAreLaneInvariant) {
  for (const Input& input : Inputs()) {
    Serve(input, [&](OcqaEngine& engine, const CompiledQuery& compiled,
                     const std::vector<Value>& answer) {
      size_t samples[2] = {0, 0};  // at 1 and 4 lanes, both sides summed
      for (size_t lanes : {size_t{1}, size_t{4}}) {
        OcqaOptions options;
        options.fpras.epsilon = 0.5;
        options.fpras.delta = 0.25;
        options.fpras.seed = 1;
        options.threads = lanes;
        Result<ApproxRF> ur = engine.ApproxUr(compiled, answer, options);
        Result<ApproxRF> us = engine.ApproxUs(compiled, answer, options);
        ASSERT_TRUE(ur.ok() && us.ok()) << input.name;
        samples[lanes == 4] = ur->fpras_samples + us->fpras_samples;
      }
      EXPECT_EQ(samples[0], samples[1]) << input.name;
      EXPECT_EQ(samples[0] > 0, input.overlaps)
          << input.name << ": " << samples[0] << " samples";
    });
  }
}

TEST(FprasPinTest, OverlapChainsEstimatesMatchTheRecordedBits) {
  Nfta a = OverlapChains(6);
  ThreadPool pool(4);
  for (bool grouped : {true, false}) {
    CheckRow("overlap_chains", "upto", grouped,
             [&](FprasConfig config, size_t lanes) {
               config.threads = lanes;
               NftaFpras f(a, config, lanes == 1 ? nullptr : &pool);
               double estimate = f.EstimateUpTo(10);
               return Outcome{estimate, f.union_estimations()};
             });
  }
}

}  // namespace
}  // namespace uocqa
