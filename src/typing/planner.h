#ifndef XSQL_TYPING_PLANNER_H_
#define XSQL_TYPING_PLANNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "store/database.h"
#include "store/index.h"
#include "typing/range.h"

namespace xsql {

/// The product of cost-based planning for one simple query: how to
/// order the FROM extents, how to rank the top-level WHERE conjuncts,
/// and which conjuncts can run as hash joins. Slots index into
/// `FlattenAnd(*query.where)` and `query.from` respectively; the
/// evaluator validates both sizes against the query it is running and
/// falls back to the greedy ready-first order on any mismatch, so a
/// plan can never be *applied* to the wrong query.
struct QueryPlan {
  /// FROM-entry indices, smallest estimated candidate set first.
  std::vector<size_t> from_order;
  /// Estimated candidate cardinality per FROM entry, declaration order.
  /// SIZE_MAX marks "unknown" (class-variable FROM entries).
  std::vector<size_t> from_card;
  /// Cost rank per top-level conjunct: among simultaneously-ready
  /// conjuncts the lowest rank runs first.
  std::vector<int> conjunct_rank;
  /// Conjuncts evaluable as hash joins: variable-variable equality
  /// under any quantifiers, or a set comparison (both head variables
  /// FROM-declared over constant classes).
  std::vector<bool> hash_joinable;
  /// False when §5 semantics pin declaration order: a nested UPDATE
  /// anywhere in the condition relies on left-to-right evaluation, so
  /// the evaluator must ignore the plan entirely.
  bool allow_reorder = true;
  /// True when no evaluation step of this query can mutate the
  /// database: no UPDATE conditions, no id-function applications (view
  /// materialization), no method-variable or path-variable steps, no
  /// invocations of registry-defined methods (query bodies may contain
  /// UPDATE clauses, native bodies take a mutable database), and no
  /// OID-function subqueries. Pure queries may cache materialized
  /// candidate arrays across re-entries and filter them batch-at-a-time
  /// (the tuple-at-a-time path re-reads extents precisely because a
  /// conjunct could mutate them mid-statement).
  bool batch_eligible = false;
  /// batch_eligible AND the outermost planned FROM entry is a constant
  /// class whose extent can be partitioned across workers.
  bool parallel_eligible = false;
  /// FROM-entry index (declaration order) to partition when
  /// parallel_eligible: the first constant-class entry in from_order.
  size_t parallel_from = 0;
  /// Human-readable decisions for EXPLAIN / EXPLAIN ANALYZE.
  std::vector<std::string> decisions;
};

/// The sides through which a hash-joinable condition can hold although
/// its two terminal value sets share no element: it then holds only
/// through an empty side. `lhs`/`rhs` mark a side whose emptiness may
/// satisfy it whatever the other side is — an `all`-quantified side of
/// `=`, the right side of contains/containsEq, the left side of
/// subset/subsetEq. `both` marks setEq, which needs both sides empty.
struct VacuousSides {
  bool lhs = false;
  bool rhs = false;
  bool both = false;
};

/// Selectivity-driven planner: turns the Theorem 6.1(2) range witness
/// and the [BERT89] path-index statistics into (a) an enumeration order
/// over the FROM extents, (b) a cost rank over WHERE conjuncts, and
/// (c) hash-join markings for variable-variable equality and set
/// comparison conjuncts.
/// Planning is advisory — every decision only reorders or re-implements
/// work the evaluator would do anyway, never changes the §3.4 answer.
class Planner {
 public:
  explicit Planner(const Database& db, const PathIndexSet* indexes = nullptr)
      : db_(db), indexes_(indexes) {}

  /// Plans a simple query. `ranges` (from a strict-typing witness)
  /// refines raw extent sizes to Theorem 6.1(2) candidate-set sizes;
  /// null plans from extents alone.
  QueryPlan Plan(const Query& query, const RangeMap* ranges = nullptr) const;

  /// True when `cond` has the shape a hash join can serve: an equality
  /// `P1 q=q P2` under any quantifiers, or a set comparison `P1 setop
  /// P2`, both sides plain path expressions whose only variable is the
  /// (distinct) head variable. The join's candidate pairs are those
  /// sharing a terminal value plus those VacuousSidesOf admits, which
  /// together are complete: a pair sharing nothing holds only through
  /// an empty side.
  static bool HashJoinableShape(const Condition& cond);

  /// The empty sides that can satisfy a hash-joinable `cond` (§3.2).
  static VacuousSides VacuousSidesOf(const Condition& cond);

 private:
  const Database& db_;
  const PathIndexSet* indexes_;
};

}  // namespace xsql

#endif  // XSQL_TYPING_PLANNER_H_
