#include "oid/oid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

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

// ------------------------------------------------ the interned value

static_assert(sizeof(Oid) == 16);
static_assert(std::is_trivially_copyable_v<Oid>);

/// Oid::Hash() as it was computed before interning, from the payload.
size_t ReferenceHash(const Oid& oid) {
  size_t h = static_cast<size_t>(oid.kind()) * 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](size_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  };
  switch (oid.kind()) {
    case OidKind::kNil:
      break;
    case OidKind::kBool:
    case OidKind::kInt:
      mix(std::hash<int64_t>{}(oid.int_value()));
      break;
    case OidKind::kReal:
      if (std::isnan(oid.real_value())) {
        mix(0x7FF8000000000000ULL);
      } else {
        mix(std::hash<double>{}(oid.real_value() == 0.0 ? 0.0
                                                        : oid.real_value()));
      }
      break;
    case OidKind::kString:
    case OidKind::kAtom:
      mix(std::hash<std::string>{}(oid.str()));
      break;
    case OidKind::kTerm:
      mix(std::hash<std::string>{}(oid.term_fn()));
      for (const Oid& a : oid.term_args()) mix(ReferenceHash(a));
      break;
  }
  return h;
}

TEST(OidInternTest, HashKeepsTheFormulaOfThePayload) {
  // Shard placement and unordered iteration order depend on these values.
  const std::vector<Oid> oids = {
      Oid::Nil(),
      Oid::Bool(true),
      Oid::Int(-42),
      Oid::Real(2.5),
      Oid::Atom("mary123"),
      Oid::Atom(""),
      Oid::String("Ford Motor Co."),
      Oid::String(std::string(100, 'x')),
      Oid::Term("secretary", {Oid::Atom("dept77")}),
      Oid::Term("f", {}),
      Oid::Term("g", {Oid::Term("h", {Oid::Int(1), Oid::String("s")}),
                      Oid::Real(0.5), Oid::Nil()}),
  };
  for (const Oid& oid : oids) {
    EXPECT_EQ(oid.Hash(), ReferenceHash(oid)) << oid.ToString();
  }
}

TEST(OidInternTest, CompareKeepsStringOrder) {
  const std::vector<std::string> words = {
      "", "a", "A", "ab", "b", "abc", "ab\x7f", "ab\x80", "z", "Zebra",
      std::string(40, 'q'), std::string(40, 'q') + "r"};
  for (const std::string& x : words) {
    for (const std::string& y : words) {
      const int want = x < y ? -1 : (y < x ? 1 : 0);
      EXPECT_EQ(Oid::Atom(x).Compare(Oid::Atom(y)), want) << x << " " << y;
      EXPECT_EQ(Oid::String(x).Compare(Oid::String(y)), want);
      EXPECT_EQ(Oid::Term(x, {}).Compare(Oid::Term(y, {})), want);
      EXPECT_EQ(Oid::Atom(x) == Oid::Atom(y), x == y);
    }
  }
  // Id-terms: function symbol first, then arguments left to right, then
  // the shorter argument list first.
  EXPECT_LT(Oid::Term("f", {Oid::Int(9)}), Oid::Term("g", {Oid::Int(1)}));
  EXPECT_LT(Oid::Term("f", {Oid::Int(1)}), Oid::Term("f", {Oid::Int(2)}));
  EXPECT_LT(Oid::Term("f", {Oid::Int(1)}),
            Oid::Term("f", {Oid::Int(1), Oid::Int(0)}));
}

TEST(OidInternTest, IdTermsWithNaNOrSignedZeroAgreeAndArePinned) {
  const double nans[] = {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::nan("7")};
  const Oid nan_term = Oid::Term("f", {Oid::Real(nans[0])});
  for (double nan : nans) {
    const Oid t = Oid::Term("f", {Oid::Real(nan)});
    EXPECT_EQ(t, nan_term);
    EXPECT_EQ(t.Compare(nan_term), 0);
    EXPECT_EQ(t.Hash(), nan_term.Hash());
    EXPECT_EQ(t.ToString(), "f(nan)");
  }
  const Oid zero = Oid::Term("f", {Oid::Real(0.0)});
  const Oid negative_zero = Oid::Term("f", {Oid::Real(-0.0)});
  EXPECT_EQ(zero, negative_zero);
  EXPECT_EQ(zero.Compare(negative_zero), 0);
  EXPECT_EQ(zero.Hash(), negative_zero.Hash());
  // Equal ids share one Rep, so one spelling, whichever came first.
  EXPECT_EQ(negative_zero.ToString(), "f(0)");
  EXPECT_EQ(Oid::Term("g", {Oid::Real(-0.0)}).ToString(), "g(0)");
  // A bare real keeps its own sign.
  EXPECT_EQ(Oid::Real(-0.0).ToString(), "-0");
  EXPECT_EQ(zero.term_args()[0].Compare(Oid::Real(-0.0)), 0);
}

TEST(OidInternTest, EqualValuesShareOneRep) {
  const Oid a = Oid::Atom("shared_rep_probe");
  const Oid b = Oid::Atom(std::string("shared_rep_") + "probe");
  EXPECT_EQ(&a.str(), &b.str());
  EXPECT_NE(&a.str(), &Oid::String("shared_rep_probe").str());
  const Oid t = Oid::Term("f", {a, Oid::Int(1)});
  EXPECT_EQ(&t.term_fn(), &Oid::Term("f", {b, Oid::Int(1)}).term_fn());
}

TEST(OidInternTest, CountsOnlyNewValues) {
  const size_t count = Oid::InternedCount();
  const size_t bytes = Oid::InternedBytes();
  (void)Oid::Atom("counts_only_new_values_probe");
  EXPECT_EQ(Oid::InternedCount(), count + 1);
  EXPECT_GT(Oid::InternedBytes(), bytes);
  (void)Oid::Atom("counts_only_new_values_probe");
  (void)Oid::Int(123456789);
  EXPECT_EQ(Oid::InternedCount(), count + 1);
}

TEST(OidInternTest, ConcurrentInterningReturnsOneRepPerValue) {
  // Eight threads intern the same names (and terms over them) in
  // different orders; every thread must get the same Rep for a name.
  constexpr int kThreads = 8;
  constexpr int kNames = 2000;
  std::vector<std::vector<const std::string*>> seen(
      kThreads, std::vector<const std::string*>(kNames));
  std::vector<std::vector<Oid>> terms(kThreads, std::vector<Oid>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen, &terms] {
      for (int k = 0; k < kNames; ++k) {
        const int i = (k * 7919 + t * 131) % kNames;  // a per-thread order
        const Oid atom = Oid::Atom("concurrent_" + std::to_string(i));
        seen[t][i] = &atom.str();
        terms[t][i] = Oid::Term("pair", {atom, Oid::Int(i)});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    for (int i = 0; i < kNames; ++i) {
      ASSERT_EQ(seen[t][i], seen[0][i]) << i;
      ASSERT_EQ(&terms[t][i].term_fn(), &terms[0][i].term_fn());
      ASSERT_EQ(terms[t][i], terms[0][i]);
    }
  }
  EXPECT_EQ(*seen[0][17], "concurrent_17");
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
