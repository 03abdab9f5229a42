#ifndef XSQL_EVAL_VIEW_H_
#define XSQL_EVAL_VIEW_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ast/ast.h"
#include "common/savepoint.h"
#include "common/status.h"
#include "eval/evaluator.h"
#include "store/database.h"

namespace xsql {

/// One registered view (§4.2): a virtual class, its declared signatures,
/// and the defining query whose OID FUNCTION gives view objects their
/// identity.
struct ViewDef {
  Oid name;
  Oid superclass;
  std::vector<SignatureDecl> signatures;
  Query query;
  uint64_t materialized_at = 0;  // db version stamp; 0 = never
  std::vector<Oid> created;      // oids created by the last materialization
};

/// Manages views: creation, on-demand materialization (id-terms like
/// `CompSalaries(c, w)` resolve against materialized view objects), and
/// the §4.2 view-update translation.
///
/// Views are constructed via queries, exactly like relations in the
/// relational model; because the id-function records which base objects
/// each view object was generated from, updates through the view can be
/// translated to base updates whenever the updated attribute's value is
/// drawn from an OID FUNCTION variable's object (the paper's one-to-one
/// correspondence condition).
class ViewManager : public ViewResolver {
 public:
  explicit ViewManager(Database* db) : db_(db) {}

  /// Rebinds a copy of `src`'s catalog (definitions, materialization
  /// stamps, created-oid bookkeeping) to `db`. MVCC snapshots carry a
  /// clone of the primary catalog bound to the snapshot database, so
  /// latch-free readers resolve views against frozen state.
  ViewManager(Database* db, const ViewManager& src)
      : db_(db), views_(src.views_) {}

  /// Guardrail context applied to view materialization (the defining
  /// query runs under it, and nested view expansion counts against the
  /// recursion-depth policy). Null restores unlimited execution.
  void set_exec_context(ExecutionContext* ctx) { ctx_ = ctx; }

  /// Declares the view class (a subclass of the given superclass), adds
  /// its signatures, and registers the defining query.
  Status Create(const CreateViewStmt& stmt);

  /// A rollback point for the definitions map, captured at the map's
  /// first change after it (see Session::Savepoint). Restoring it
  /// withdraws any view the statement created and any materialization
  /// bookkeeping it did; the Database savepoint taken alongside it
  /// restores the view class, signatures and materialized objects.
  using Savepoint = SavepointHandle<ViewManager>;
  Savepoint TakeSavepoint() {
    savepoints_.Arm();
    return Savepoint(this);
  }
  void PopSavepoint(bool restore) {
    auto saved = savepoints_.Pop();
    if (restore && saved != nullptr) views_ = *saved;
  }

  bool IsView(const std::string& fn) const override {
    return views_.contains(fn);
  }

  /// True when `fn` is a view whose last materialization is still valid
  /// at the bound database's current version: reading it is a pure read
  /// (EnsureMaterialized is a no-op). The server's statement classifier
  /// uses this to keep reads of fresh views on the latch-free snapshot
  /// path instead of escalating them.
  bool IsMaterializedFresh(const std::string& fn) const {
    auto it = views_.find(fn);
    return it != views_.end() && it->second.materialized_at != 0 &&
           it->second.materialized_at >= db_->version();
  }

  /// Materializes the view if it was never computed or the database has
  /// changed since (objects from the previous materialization are
  /// detached from the view class first).
  Status EnsureMaterialized(const std::string& fn) override;

  /// Forces recomputation.
  Status Materialize(const std::string& name);

  const ViewDef* Get(const std::string& name) const {
    auto it = views_.find(name);
    return it == views_.end() ? nullptr : &it->second;
  }

  /// §4.2 view update: sets attribute `attr` of the view object
  /// `view_oid` (an id-term of this view's function) to `value`,
  /// translated to an update of the base object the attribute's value
  /// came from. Fails when the attribute's provenance is not a direct
  /// attribute of an OID FUNCTION variable (not updatable).
  Status UpdateThroughView(const Oid& view_oid, const Oid& attr,
                           const Oid& value);

  std::vector<std::string> ViewNames() const;

 private:
  /// The definitions for writing: armed savepoints capture them first.
  std::map<std::string, ViewDef>& MutableViews() {
    if (savepoints_.NeedsCapture()) {
      savepoints_.Capture(
          std::make_shared<std::map<std::string, ViewDef>>(views_));
    }
    return views_;
  }

  Database* db_;
  ExecutionContext* ctx_ = nullptr;
  std::map<std::string, ViewDef> views_;
  SavepointStack<std::map<std::string, ViewDef>> savepoints_;
  bool materializing_ = false;
};

}  // namespace xsql

#endif  // XSQL_EVAL_VIEW_H_
