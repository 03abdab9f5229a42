#include "oid/oid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <unordered_set>

namespace xsql {
namespace {

TEST(OidTest, KindsAndAccessors) {
  EXPECT_TRUE(Oid::Nil().is_nil());
  EXPECT_TRUE(Oid().is_nil());
  EXPECT_TRUE(Oid::Bool(true).bool_value());
  EXPECT_FALSE(Oid::Bool(false).bool_value());
  EXPECT_EQ(Oid::Int(42).int_value(), 42);
  EXPECT_DOUBLE_EQ(Oid::Real(2.5).real_value(), 2.5);
  EXPECT_EQ(Oid::String("ford").str(), "ford");
  EXPECT_EQ(Oid::Atom("mary123").str(), "mary123");
  Oid term = Oid::Term("secretary", {Oid::Atom("dept77")});
  EXPECT_EQ(term.term_fn(), "secretary");
  ASSERT_EQ(term.term_args().size(), 1u);
  EXPECT_EQ(term.term_args()[0], Oid::Atom("dept77"));
}

TEST(OidTest, NumericValueMixesIntAndReal) {
  EXPECT_TRUE(Oid::Int(3).is_numeric());
  EXPECT_TRUE(Oid::Real(3.5).is_numeric());
  EXPECT_FALSE(Oid::String("3").is_numeric());
  EXPECT_DOUBLE_EQ(Oid::Int(3).numeric_value(), 3.0);
}

TEST(OidTest, EqualityIsStructural) {
  EXPECT_EQ(Oid::Atom("a"), Oid::Atom("a"));
  EXPECT_NE(Oid::Atom("a"), Oid::String("a"));
  EXPECT_NE(Oid::Int(1), Oid::Real(1.0));  // distinct logical ids
  EXPECT_EQ(Oid::Term("f", {Oid::Int(1)}), Oid::Term("f", {Oid::Int(1)}));
  EXPECT_NE(Oid::Term("f", {Oid::Int(1)}), Oid::Term("f", {Oid::Int(2)}));
  EXPECT_NE(Oid::Term("f", {}), Oid::Term("g", {}));
}

TEST(OidTest, TotalOrderIsConsistent) {
  std::vector<Oid> oids = {Oid::Nil(),        Oid::Bool(false),
                           Oid::Int(5),       Oid::Real(1.5),
                           Oid::String("x"),  Oid::Atom("x"),
                           Oid::Term("f", {})};
  for (const Oid& a : oids) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const Oid& b : oids) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a));
    }
  }
}

TEST(OidTest, HashAgreesWithEquality) {
  EXPECT_EQ(Oid::Atom("x").Hash(), Oid::Atom("x").Hash());
  EXPECT_EQ(Oid::Term("f", {Oid::Int(1), Oid::Atom("a")}).Hash(),
            Oid::Term("f", {Oid::Int(1), Oid::Atom("a")}).Hash());
  std::unordered_set<Oid, OidHash> set;
  set.insert(Oid::Atom("x"));
  set.insert(Oid::Atom("x"));
  EXPECT_EQ(set.size(), 1u);
}

TEST(OidTest, HashAgreesWithEqualityOnNaNAndSignedZero) {
  // Compare treats every NaN as one value, so equal NaNs of another
  // sign or payload must share a hash bucket; likewise -0.0 and 0.0.
  const Oid payload = Oid::Real(std::nan("1"));
  const Oid negative_quiet =
      Oid::Real(-std::numeric_limits<double>::quiet_NaN());
  ASSERT_EQ(payload, negative_quiet);
  EXPECT_EQ(payload.Hash(), negative_quiet.Hash());
  ASSERT_EQ(Oid::Real(-0.0), Oid::Real(0.0));
  EXPECT_EQ(Oid::Real(-0.0).Hash(), Oid::Real(0.0).Hash());
  std::unordered_set<Oid, OidHash> set = {payload, negative_quiet,
                                          Oid::Real(std::nan("7"))};
  EXPECT_EQ(set.size(), 1u);
}

TEST(OidTest, ToStringMatchesPaperNotation) {
  EXPECT_EQ(Oid::Int(20).ToString(), "20");
  EXPECT_EQ(Oid::String("newyork").ToString(), "'newyork'");
  EXPECT_EQ(Oid::Atom("mary123").ToString(), "mary123");
  EXPECT_EQ(Oid::Term("secretary", {Oid::Atom("dept77")}).ToString(),
            "secretary(dept77)");
  EXPECT_EQ(Oid::Nil().ToString(), "nil");
}

TEST(OidSetTest, InsertSortsAndDedupes) {
  OidSet set;
  set.Insert(Oid::Int(2));
  set.Insert(Oid::Int(1));
  set.Insert(Oid::Int(2));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(Oid::Int(1)));
  EXPECT_FALSE(set.Contains(Oid::Int(3)));
}

TEST(OidSetTest, ConstructorNormalizes) {
  OidSet set({Oid::Int(3), Oid::Int(1), Oid::Int(3)});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.elems()[0], Oid::Int(1));
  EXPECT_EQ(set.elems()[1], Oid::Int(3));
}

TEST(OidSetTest, Algebra) {
  OidSet a({Oid::Int(1), Oid::Int(2)});
  OidSet b({Oid::Int(2), Oid::Int(3)});
  EXPECT_EQ(OidSet::Union(a, b).size(), 3u);
  OidSet inter = OidSet::Intersect(a, b);
  EXPECT_EQ(inter.size(), 1u);
  EXPECT_TRUE(inter.Contains(Oid::Int(2)));
  OidSet diff = OidSet::Difference(a, b);
  EXPECT_EQ(diff.size(), 1u);
  EXPECT_TRUE(diff.Contains(Oid::Int(1)));
}

TEST(OidSetTest, SubsetOf) {
  OidSet a({Oid::Int(1)});
  OidSet b({Oid::Int(1), Oid::Int(2)});
  EXPECT_TRUE(a.SubsetOf(b));
  EXPECT_FALSE(b.SubsetOf(a));
  EXPECT_TRUE(OidSet().SubsetOf(a));
  EXPECT_TRUE(a.SubsetOf(a));
}

}  // namespace
}  // namespace xsql
