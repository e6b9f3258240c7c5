// Small hand-built automata shared by the automaton test suites
// (automata_test, compiled_nfta_test, guarantee_test).

#ifndef UOCQA_TESTS_TEST_AUTOMATA_H_
#define UOCQA_TESTS_TEST_AUTOMATA_H_

#include "automata/nfta.h"

namespace uocqa {

/// Highly ambiguous automaton: k parallel states all accepting the same
/// unary {b}-trees under an 'a' root. Distinct trees: 1 per size.
inline Nfta AmbiguousAutomaton(int k) {
  Nfta a;
  NftaState q0 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  for (int i = 0; i < k; ++i) {
    NftaState qi = a.AddState();
    a.AddTransition(q0, sa, {qi});
    a.AddTransition(qi, sb, {qi});
    a.AddTransition(qi, sb, {});
  }
  a.SetInitial(q0);
  return a;
}

/// Full binary trees over a single symbol: sizes 1,3,5,... counted by
/// Catalan numbers 1,1,2,5,14,...
inline Nfta FullBinaryTreeAutomaton() {
  Nfta a;
  NftaState q = a.AddState();
  NftaSymbol x = a.InternSymbol("x");
  a.AddTransition(q, x, {q, q});
  a.AddTransition(q, x, {});
  a.SetInitial(q);
  return a;
}

/// Overlap-rich: q0 -a-> q1 (b-chains), q0 -a-> q2 (b|c chains), plus both
/// binary branches; unions at every size and rank.
inline Nfta OverlapAutomaton() {
  Nfta a;
  NftaState q0 = a.AddState();
  NftaState q1 = a.AddState();
  NftaState q2 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  NftaSymbol sc = a.InternSymbol("c");
  a.AddTransition(q0, sa, {q1});
  a.AddTransition(q0, sa, {q2});
  a.AddTransition(q0, sa, {q1, q2});
  a.AddTransition(q0, sa, {q2, q1});
  a.AddTransition(q1, sb, {q1});
  a.AddTransition(q1, sb, {});
  a.AddTransition(q2, sb, {q2});
  a.AddTransition(q2, sc, {q2});
  a.AddTransition(q2, sb, {});
  a.AddTransition(q2, sc, {});
  a.SetInitial(q0);
  return a;
}

}  // namespace uocqa

#endif  // UOCQA_TESTS_TEST_AUTOMATA_H_
