// Differential tests for the fixpoint strategies: naive re-evaluation and
// semi-naive delta evaluation must materialize byte-identical relation
// contents (compared through the printer's canonical sorted fact dump) on
// recursive, negation-bearing, and builtin-heavy programs. Guards the
// delta bookkeeping (RoundRange over TupleStore round marks) against
// silent divergence from the reference semantics.

#include <gtest/gtest.h>

#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/printer.h"
#include "datalog/relation.h"
#include "datalog/value.h"

namespace sparqlog::datalog {
namespace {

class FixpointDifferentialTest : public ::testing::Test {
 protected:
  /// Evaluates `program` over `edb_facts` under naive and semi-naive
  /// evaluation and asserts the canonical dumps of every IDB relation are
  /// identical across both.
  void ExpectModesAgree(
      const Program& program,
      const std::vector<std::pair<PredicateId, std::vector<Value>>>&
          edb_facts,
      const std::vector<std::string>& skolem_fns = {}) {
    std::string reference;
    for (FixpointMode mode : {FixpointMode::kNaive, FixpointMode::kSemiNaive}) {
      Database edb, idb;
      for (const auto& [pred, tuple] : edb_facts) {
        edb.relation(pred, static_cast<uint32_t>(tuple.size()))
            .Insert(tuple, 0);
      }
      // Function ids in the rules are positional: re-interning the names
      // in order reproduces them in this run's store.
      SkolemStore skolems;
      for (const std::string& fn : skolem_fns) skolems.InternFunction(fn);
      Evaluator evaluator(&dict_, &skolems);
      evaluator.set_mode(mode);
      ExecContext ctx;
      ASSERT_TRUE(evaluator.Evaluate(program, &edb, &idb, &ctx).ok());
      std::string dump = ToString(idb, program.predicates, dict_, skolems);
      ASSERT_FALSE(dump.empty()) << "fixpoint derived nothing";
      if (reference.empty()) {
        reference = dump;
      } else {
        EXPECT_EQ(reference, dump)
            << "divergence at mode="
            << (mode == FixpointMode::kNaive ? "naive" : "semi-naive");
      }
    }
  }

  /// Interned integer term as a Datalog value (facts are rendered by
  /// the printer, so raw uninterned ids would be out of dictionary range).
  Value V(int64_t i) { return ValueFromTerm(dict_.InternInteger(i)); }

  rdf::TermDictionary dict_;
};

TEST_F(FixpointDifferentialTest, RecursiveClosureWithCycles) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  rb.Head("tc", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("tc", {rb.Var("X"), rb.Var("Z")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  rb.Body("tc", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  // Two interlocking cycles plus a tail.
  for (int64_t i = 1; i <= 12; ++i) {
    facts.push_back({edge, {V(i), V(i % 12 + 1)}});
    if (i % 3 == 0) facts.push_back({edge, {V(i), V((i + 5) % 12 + 1)}});
  }
  facts.push_back({edge, {V(12), V(20)}});
  facts.push_back({edge, {V(20), V(21)}});
  ExpectModesAgree(program, facts);
}

TEST_F(FixpointDifferentialTest, MutualRecursion) {
  Program program;
  PredicateId link = program.predicates.Intern("link", 2);
  RuleBuilder rb(&program.predicates);
  // odd/even path lengths via mutually recursive predicates.
  rb.Head("odd", {rb.Var("X"), rb.Var("Y")});
  rb.Body("link", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("even", {rb.Var("X"), rb.Var("Z")});
  rb.Body("link", {rb.Var("X"), rb.Var("Y")});
  rb.Body("odd", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());
  rb.Head("odd", {rb.Var("X"), rb.Var("Z")});
  rb.Body("link", {rb.Var("X"), rb.Var("Y")});
  rb.Body("even", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  for (int64_t i = 1; i <= 10; ++i) {
    facts.push_back({link, {V(i), V(i % 10 + 1)}});
  }
  ExpectModesAgree(program, facts);
}

TEST_F(FixpointDifferentialTest, StratifiedNegationOverRecursion) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  RuleBuilder rb(&program.predicates);
  // reach from node 1; unreachable = nodes that appear but aren't reached.
  rb.Head("reach", {rb.Var("Y")});
  rb.Body("edge", {RuleBuilder::Const(V(1)), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("reach", {rb.Var("Z")});
  rb.Body("reach", {rb.Var("Y")});
  rb.Body("edge", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());
  rb.Head("node", {rb.Var("X")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("node", {rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("unreachable", {rb.Var("X")});
  rb.Body("node", {rb.Var("X")});
  rb.NegBody("reach", {rb.Var("X")});
  program.rules.push_back(rb.Build());

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts = {
      {edge, {V(1), V(2)}}, {edge, {V(2), V(3)}}, {edge, {V(3), V(1)}},
      {edge, {V(5), V(6)}}, {edge, {V(6), V(5)}}, {edge, {V(3), V(4)}},
  };
  ExpectModesAgree(program, facts);
}

TEST_F(FixpointDifferentialTest, BuiltinHeavyRecursionWithSkolems) {
  Program program;
  PredicateId edge = program.predicates.Intern("edge", 2);
  SkolemStore naming;  // function ids are interned per-run by name
  uint32_t f = naming.InternFunction("f1");
  RuleBuilder rb(&program.predicates);
  // Paths with Skolem-tagged provenance, a disequality filter, and a
  // constant assignment: tag(ID, X, Y, C) for X != Y, C = 7.
  rb.Head("path", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());
  rb.Head("path", {rb.Var("X"), rb.Var("Z")});
  rb.Body("path", {rb.Var("X"), rb.Var("Y")});
  rb.Body("edge", {rb.Var("Y"), rb.Var("Z")});
  program.rules.push_back(rb.Build());
  rb.Head("tag", {rb.Var("ID"), rb.Var("X"), rb.Var("Y"), rb.Var("C")});
  rb.Body("path", {rb.Var("X"), rb.Var("Y")});
  rb.Ne(rb.Var("X"), rb.Var("Y"));
  rb.Eq(rb.Var("C"), RuleBuilder::Const(V(7)));
  rb.Skolem(rb.Var("ID"), f, {rb.Var("X"), rb.Var("Y")});
  program.rules.push_back(rb.Build());

  std::vector<std::pair<PredicateId, std::vector<Value>>> facts;
  for (int64_t i = 1; i <= 8; ++i) {
    facts.push_back({edge, {V(i), V(i % 8 + 1)}});
  }
  facts.push_back({edge, {V(4), V(4)}});  // self-loop: X != Y filters it
  ExpectModesAgree(program, facts, {"f1"});
}

}  // namespace
}  // namespace sparqlog::datalog
