#ifndef XSQL_EVAL_COMPARATOR_H_
#define XSQL_EVAL_COMPARATOR_H_

#include <optional>
#include <span>

#include "ast/ast.h"
#include "oid/oid.h"

namespace xsql {

/// Comparable-value comparison: numerals compare numerically (ints and
/// reals mix), strings lexicographically, booleans false<true; atoms and
/// id-terms support only equality. nullopt means "not comparable under
/// an ordered comparator" (the comparison is then simply not satisfied —
/// at runtime an inapplicable comparison yields no answers; *static*
/// type errors are the type checker's business, §6).
std::optional<int> CompareOids(const Oid& a, const Oid& b);

/// True if the single pair (a, b) stands in relation `op`.
bool OidsRelate(const Oid& a, CompOp op, const Oid& b);

/// Quantified comparison of two value sets (§3.2): each side is a path
/// expression's value; `some`/`all` quantify over the side's elements.
/// An unquantified side must be a singleton (the paper only omits the
/// quantifier when the value is known to be a singleton, e.g. `20`);
/// empty or multi-valued unquantified sides make the comparison false.
/// A side is any sorted, duplicate-free run of oids: an OidSet's
/// elements, or a single oid viewed in place.
bool EvalComparison(std::span<const Oid> lhs, Quant lq, CompOp op, Quant rq,
                    std::span<const Oid> rhs);
inline bool EvalComparison(const OidSet& lhs, Quant lq, CompOp op, Quant rq,
                           const OidSet& rhs) {
  return EvalComparison(lhs.elems(), lq, op, rq, rhs.elems());
}

/// Set comparators (§3.2): contains / containsEq / subset / subsetEq /
/// setEq on value sets.
bool EvalSetComparison(const OidSet& lhs, SetOp op, const OidSet& rhs);

}  // namespace xsql

#endif  // XSQL_EVAL_COMPARATOR_H_
