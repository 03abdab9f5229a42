#include "eval/comparator.h"

#include <cmath>

namespace xsql {

std::optional<int> CompareOids(const Oid& a, const Oid& b) {
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.numeric_value();
    double y = b.numeric_value();
    // NaN is unordered against everything (itself included): report
    // "incomparable" rather than a bogus 0, which would make both
    // `NaN <= v` and `NaN >= v` hold.
    if (std::isnan(x) || std::isnan(y)) return std::nullopt;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.is_string() && b.is_string()) {
    int c = a.str().compare(b.str());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.is_bool() && b.is_bool()) {
    int x = a.bool_value() ? 1 : 0;
    int y = b.bool_value() ? 1 : 0;
    return x - y;
  }
  return std::nullopt;
}

bool OidsRelate(const Oid& a, CompOp op, const Oid& b) {
  if (op == CompOp::kEq) return a == b;
  if (op == CompOp::kNe) return !(a == b);
  std::optional<int> c = CompareOids(a, b);
  if (!c.has_value()) return false;
  switch (op) {
    case CompOp::kLt:
      return *c < 0;
    case CompOp::kLe:
      return *c <= 0;
    case CompOp::kGt:
      return *c > 0;
    case CompOp::kGe:
      return *c >= 0;
    default:
      return false;
  }
}

namespace {

/// Tests `a op RHS` where RHS is quantified.
bool RelateToSet(const Oid& a, CompOp op, Quant rq,
                 std::span<const Oid> rhs) {
  switch (rq) {
    case Quant::kNone:
      return rhs.size() == 1 && OidsRelate(a, op, rhs.front());
    case Quant::kSome:
      for (const Oid& b : rhs) {
        if (OidsRelate(a, op, b)) return true;
      }
      return false;
    case Quant::kAll:
      for (const Oid& b : rhs) {
        if (!OidsRelate(a, op, b)) return false;
      }
      return true;
  }
  return false;
}

}  // namespace

bool EvalComparison(std::span<const Oid> lhs, Quant lq, CompOp op, Quant rq,
                    std::span<const Oid> rhs) {
  switch (lq) {
    case Quant::kNone:
      return lhs.size() == 1 && RelateToSet(lhs.front(), op, rq, rhs);
    case Quant::kSome:
      for (const Oid& a : lhs) {
        if (RelateToSet(a, op, rq, rhs)) return true;
      }
      return false;
    case Quant::kAll:
      for (const Oid& a : lhs) {
        if (!RelateToSet(a, op, rq, rhs)) return false;
      }
      return true;
  }
  return false;
}

bool EvalSetComparison(const OidSet& lhs, SetOp op, const OidSet& rhs) {
  switch (op) {
    case SetOp::kContains:
      return rhs.SubsetOf(lhs) && lhs.size() > rhs.size();
    case SetOp::kContainsEq:
      return rhs.SubsetOf(lhs);
    case SetOp::kSubset:
      return lhs.SubsetOf(rhs) && lhs.size() < rhs.size();
    case SetOp::kSubsetEq:
      return lhs.SubsetOf(rhs);
    case SetOp::kSetEq:
      return lhs == rhs;
  }
  return false;
}

}  // namespace xsql
