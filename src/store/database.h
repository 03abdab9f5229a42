#ifndef XSQL_STORE_DATABASE_H_
#define XSQL_STORE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/savepoint.h"
#include "common/status.h"
#include "oid/oid.h"
#include "store/class_graph.h"
#include "store/cow_map.h"
#include "store/method.h"
#include "store/object.h"
#include "store/signature.h"

namespace xsql {

/// The object-oriented database of §2: objects, classes, signatures,
/// methods and the instance-of / IS-A relationships, with the system
/// catalogue folded into the class hierarchy.
///
/// Key semantics implemented here rather than in sub-stores:
///  * literals (`20`, `'austin'`, `true`, `nil`) are instances of the
///    builtin classes Numeral/String/Boolean/Nil without registration;
///  * attribute lookup applies *behavioral inheritance of defaults*:
///    a value undefined on an object is inherited from the nearest
///    class-object (classes are objects and can carry default values);
///  * class extents for the literal classes use the *active domain*
///    (every oid occurring in the database), the standard logic-database
///    reading of an otherwise infinite extent. Every mutator keeps a
///    count of each oid's occurrences, so membership is an O(1) probe
///    and the sorted view is built only when it is asked for;
///  * attribute names used in data are auto-registered as method-objects
///    (instances of `Method`) so that method variables can range over
///    them — the paper's schema-browsing feature.
///
/// MVCC support: `Fork()` produces a structurally-shared copy in O(1):
/// the object, instance-of and occurrence-count maps are sharded, and
/// every shard, class node and schema store is held by shared_ptr.
/// After a fork, the first write to a shared piece in the new
/// copy-on-write epoch clones it (see ClassGraph for the rule). A fork taken under the writer latch and
/// never mutated again is an immutable snapshot that concurrent readers
/// can use with no synchronization at all.
///
/// Statement atomicity uses savepoints (TakeSavepoint), restored in
/// place so every holder of a `Database*` keeps a valid pointer.
class Database {
 public:
  Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// A structurally-shared copy for MVCC: shares every piece, and the
  /// active-domain view when one is built, with `this`. The fork starts
  /// a new COW epoch, so its first write to any shared piece clones it.
  ///
  /// If *this* database keeps mutating after the fork (the writer path:
  /// master forks a snapshot, then executes the next statement), the
  /// caller must call `BeginNewEpoch()` on it after forking — otherwise
  /// in-place writes would reach shards the fork shares.
  std::unique_ptr<Database> Fork() const;

  /// Starts a new COW epoch on this side of a fork (writer-path master).
  void BeginNewEpoch();

  /// A rollback point, armed in O(1). The next mutation (every mutator
  /// Touch()es first) captures the class graph and the signature and
  /// method stores copy-on-write, in O(1) like Fork(). Objects are not
  /// shared with it: it keeps a copy of each object before the first
  /// change to it, so a write costs one object copy at any instance
  /// size. A restore puts those copies back and corrects the occurrence
  /// counts from them. Savepoints nest; each restores independently.
  /// One armed around a statement that writes nothing captures nothing.
  using Savepoint = SavepointHandle<Database>;
  Savepoint TakeSavepoint() {
    savepoints_.Arm();
    return Savepoint(this);
  }

  /// Disarms the innermost savepoint. With `restore` it also moves this
  /// database back, in place, to the capture. `version()` then moves
  /// forward past every value seen since, so nothing stamped in between
  /// (cached plans, dispatch memos, view materializations) matches
  /// again, and so does catalog_version(); the COW epoch never moves
  /// back. With nothing captured the restore is a no-op and every cache
  /// stays warm.
  void PopSavepoint(bool restore);

  // ---- Schema -------------------------------------------------------

  /// Declares a class. If `supers` is empty the class is made a direct
  /// subclass of `Object` (classes of individuals live under Object).
  Status DeclareClass(const Oid& cls, const std::vector<Oid>& supers = {});

  /// Adds an IS-A edge between existing or new classes.
  Status AddSubclass(const Oid& sub, const Oid& super);

  /// Declares signature `attr => result` (or `=>>`) on `cls` and
  /// registers `attr` as a method-object.
  Status DeclareAttribute(const Oid& cls, const Oid& attr, const Oid& result,
                          bool set_valued);

  /// Declares a full method signature on `cls`.
  Status DeclareSignature(const Oid& cls, Signature sig);

  /// Defines/overrides a method body on a class (see MethodRegistry).
  Status DefineMethod(const Oid& cls, const Oid& method, int arity,
                      std::shared_ptr<const MethodBody> body);

  /// Explicit multiple-inheritance conflict resolution [MEY88].
  Status ResolveMethodConflict(const Oid& cls, const Oid& method,
                               const Oid& from_super);

  // ---- Data ---------------------------------------------------------

  /// Creates an object with the given direct classes. The object record
  /// is created on first use even for class-objects.
  Status NewObject(const Oid& oid, const std::vector<Oid>& classes);

  /// Adds `oid` to further classes.
  Status AddInstanceOf(const Oid& oid, const Oid& cls);

  /// Sets a scalar attribute; registers `attr` as a method-object.
  Status SetScalar(const Oid& obj, const Oid& attr, const Oid& value);

  /// Sets a set-valued attribute wholesale.
  Status SetSet(const Oid& obj, const Oid& attr, OidSet values);

  /// Adds an element to a set-valued attribute.
  Status AddToSet(const Oid& obj, const Oid& attr, const Oid& value);

  /// Removes an attribute from an object (making it undefined there).
  Status ClearAttribute(const Oid& obj, const Oid& attr);

  /// Removes `oid` from the direct extent of `cls`.
  Status RemoveInstanceOf(const Oid& oid, const Oid& cls);

  // ---- Lookup -------------------------------------------------------

  bool HasObject(const Oid& oid) const { return objects_.Contains(oid); }
  const Object* GetObject(const Oid& oid) const;

  /// The value of `attr` on `obj`, applying default-value inheritance
  /// from class-objects (nearest class wins; among incomparable nearest
  /// providers the smallest class oid wins — a deterministic stand-in
  /// for the schema-level conflict resolution the paper requires).
  /// Returns nullptr when the attribute is undefined (a null, not an
  /// error — see §2 on undefined vs. inapplicable).
  const AttrValue* GetAttribute(const Oid& obj, const Oid& attr) const;

  /// The default `attr` inherits from the class-objects above direct
  /// classes `classes` — GetAttribute's walk for an object with no value
  /// of its own. Stable until the next mutation.
  const AttrValue* InheritedDefault(const std::vector<Oid>& classes,
                                    const Oid& attr) const;

  /// True if `oid` denotes an instance of `cls`, including literal
  /// instances of the builtin classes and upward IS-A closure.
  bool IsInstanceOf(const Oid& oid, const Oid& cls) const;

  /// Deep extent of `cls`. For Numeral/String/Boolean this is the set of
  /// matching literals in the active domain.
  OidSet Extent(const Oid& cls) const;

  /// Every oid that occurs in the database: object ids, attribute names,
  /// attribute values (recursing into id-term arguments is not needed —
  /// a term occurrence is itself a domain element) and classes.
  const OidSet& ActiveDomain() const { return *ActiveDomainShared(); }

  /// The same set as a shared snapshot: callers that hold the domain
  /// across candidate probes (the path evaluator's unbound-variable
  /// fallback) take the pointer instead of copying the set per probe.
  /// Built from the occurrence counts on first use after the domain
  /// changed (counted by `xsql.store.active_domain_builds`), under a
  /// mutex, so concurrent readers of one snapshot may all call it.
  /// Stable until the next mutation.
  std::shared_ptr<const OidSet> ActiveDomainShared() const;

  /// True when `oid` is in ActiveDomain(), in O(1) without building it.
  bool InActiveDomain(const Oid& oid) const {
    return domain_counts_.Contains(oid) || graph_.IsClass(oid);
  }

  // ---- Components ---------------------------------------------------

  const ClassGraph& graph() const { return graph_; }
  /// Raw graph access for loading a snapshot into a fresh database. It
  /// bypasses Touch(), so an armed savepoint captures nothing: never use
  /// it inside a statement. It moves version() and catalog_version().
  ClassGraph& mutable_graph() {
    ++version_;
    TouchCatalog();
    return graph_;
  }
  const SignatureStore& signatures() const { return *signatures_; }
  const MethodRegistry& methods() const { return *methods_; }

  /// Number of data objects (including class-objects).
  size_t object_count() const { return objects_.size(); }

  /// Visits every data object (including class-objects), unordered:
  /// `fn(const Oid&, const Object&)`. Replaces the old `objects()`
  /// accessor — the map is sharded for copy-on-write and no longer
  /// exists as one container.
  template <typename Fn>
  void ForEachObject(Fn&& fn) const {
    objects_.ForEach(fn);
  }

  /// Monotone counter bumped before every mutation and by a restore;
  /// used for cache invalidation by higher layers.
  uint64_t version() const { return version_; }

  /// The version() of the last mutation that statement preparation
  /// reads (name resolution, typing, planning): schema mutators,
  /// instance-of changes, object creation, a new method-object, an atom
  /// entering or leaving the active domain, an attribute write on a
  /// class-object, a restore and mutable_graph(). A write of data
  /// attributes leaves it alone. Stamps the prepared-plan cache. Never
  /// above version(), and equal to it until the next data write, so a
  /// cache stamped with version() instead is still never stale, only
  /// quicker to drop entries.
  uint64_t catalog_version() const { return catalog_version_; }

 private:
  struct ForkTag {};
  Database(ForkTag, const Database& src);

  /// COW-aware raw lookup for the mutators; does not Touch().
  Object* FindMutableRaw(const Oid& oid);

  Status RegisterMethodObject(const Oid& attr);
  Object& GetOrCreate(const Oid& oid);
  /// Every mutator calls this before its first change, so an armed
  /// savepoint captures the state unchanged and a mutator that fails
  /// part-way has still moved version().
  void Touch() {
    if (savepoints_.NeedsCapture()) CaptureSavepoints();
    ++version_;
  }
  /// A change preparation reads, made by the mutation whose Touch()
  /// moved version() last; it may also change the domain's classes.
  void TouchCatalog() {
    catalog_version_ = version_;
    ++domain_version_;
  }
  /// Moves catalog_version() when the attribute write about to happen
  /// on `obj` changes a class-object (inheritable defaults).
  void TouchIfClassObject(const Oid& obj) {
    if (graph_.IsClass(obj)) TouchCatalog();
  }
  /// Adds `delta` (±1) occurrences of `oid` to the domain counts.
  void Count(const Oid& oid, int delta);
  /// Counts the values of one attribute entry (not its name).
  void CountValue(const AttrValue& value, int delta);
  /// Counts one attribute entry: its name and every value.
  void CountAttr(const Oid& attr, const AttrValue& value, int delta);
  /// Counts a whole object: its id and every attribute entry.
  void CountObject(const Object& object, int delta);
  void CaptureSavepoints();
  /// Before `oid`'s object changes: captures lacking it keep a copy.
  void SaveObject(const Oid& oid);

  /// Fault-injection hook for the mutation domain (see common/fault.h).
  static Status FaultCheck(const char* site);

  ClassGraph graph_;
  CowBox<SignatureStore> signatures_;
  CowBox<MethodRegistry> methods_;
  CowShardedMap<Object> objects_;
  /// Occurrences of each oid in objects_ (ids, attribute names, values);
  /// an oid is absent exactly when its count is zero.
  CowShardedMap<uint32_t> domain_counts_;
  uint64_t version_ = 0;
  uint64_t catalog_version_ = 0;
  /// Moves whenever the active domain's membership may have changed.
  uint64_t domain_version_ = 0;
  /// Copy-on-write epoch: shards/nodes stamped with an older epoch are
  /// shared with some fork and must be cloned before a write.
  uint64_t cow_epoch_ = 0;
  /// What a statement savepoint captures (see TakeSavepoint).
  struct SavedState {
    ClassGraph graph;
    CowBox<SignatureStore> signatures;
    CowBox<MethodRegistry> methods;
    /// Changed objects as they were before; nullopt: did not exist.
    std::unordered_map<Oid, std::optional<Object>, OidHash> objects;
  };
  /// Armed statement savepoints; never copied into a fork.
  SavepointStack<SavedState> savepoints_;

  /// The sorted view, built by ActiveDomainShared() at domain_version_
  /// `domain_view_at_`; shared (not copied) with forks.
  mutable std::mutex domain_view_mu_;
  mutable std::shared_ptr<const OidSet> domain_view_;
  mutable uint64_t domain_view_at_ = 0;
};

}  // namespace xsql

#endif  // XSQL_STORE_DATABASE_H_
