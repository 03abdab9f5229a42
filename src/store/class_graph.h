#ifndef XSQL_STORE_CLASS_GRAPH_H_
#define XSQL_STORE_CLASS_GRAPH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "oid/oid.h"
#include "store/cow_map.h"

namespace xsql {

/// The IS-A hierarchy and the instance-of relationship of §2.
///
/// Classes are identified by their class-oids (atoms like `Person`). The
/// IS-A (subclass) relation is a DAG — `AddSubclass` rejects edges that
/// would create a cycle. `instance-of` relates individual oids to the
/// classes they directly belong to; membership is closed upward along
/// IS-A (an instance of `Employee` is an instance of `Person`), exactly
/// the paper's containment rule, while the converse (extensional equality
/// does not imply IS-A) is naturally respected because IS-A is only what
/// was declared.
///
/// Storage is copy-on-write to support MVCC snapshots: the class table,
/// each class node in it (IS-A edges + direct extent) and the shards of
/// the instance-of map are held by shared_ptr, so copying a ClassGraph
/// shares all of them structurally. Mutators clone a piece before the
/// first write in the current *epoch*; `BumpEpoch` (called on both sides
/// of a database fork) starts a new epoch. A piece stamped with the
/// current epoch is cloned only when it has another owner, a statement
/// savepoint on the writer's thread. The owner count is read only for
/// such pieces, which no fork and so no other thread can hold, so a
/// snapshot released on another thread never races that decision.
class ClassGraph {
 public:
  /// Copying shares every piece with the source. A fork must BumpEpoch
  /// both sides before their next mutation; the Database fork path does.

  /// Starts a new copy-on-write epoch: every node/shard created before
  /// this call is treated as shared and cloned before the next write.
  void BumpEpoch() { ++epoch_; }

  /// Takes the contents of `saved`, an earlier copy of this graph, but
  /// keeps this graph's epoch, so epochs never move back.
  void Restore(ClassGraph saved) {
    const uint64_t epoch = epoch_;
    *this = std::move(saved);
    epoch_ = epoch;
  }

  /// Registers `cls` as a class with no superclasses (yet).
  /// Idempotent for already-declared classes.
  Status DeclareClass(const Oid& cls);

  /// Declares `sub` IS-A `super`. Both are auto-declared if new.
  /// Fails with InvalidArgument if the edge would create a cycle.
  Status AddSubclass(const Oid& sub, const Oid& super);

  /// Makes `obj` a direct instance of `cls` (declared on demand).
  Status AddInstance(const Oid& obj, const Oid& cls);

  /// Removes `obj` from the direct extent of `cls`.
  void RemoveInstance(const Oid& obj, const Oid& cls);

  bool IsClass(const Oid& oid) const;

  /// The paper's `subclassOf` is *strict*: `C subclassOf C` is false.
  bool IsStrictSubclass(const Oid& sub, const Oid& super) const;
  /// Reflexive subclass test.
  bool IsSubclassEq(const Oid& sub, const Oid& super) const;

  /// True if `obj` was declared an instance of `cls` or of a subclass.
  bool IsInstanceOf(const Oid& obj, const Oid& cls) const;

  /// All declared classes, in declaration order.
  const std::vector<Oid>& classes() const { return classes_->list; }

  std::vector<Oid> DirectSuperclasses(const Oid& cls) const;
  std::vector<Oid> DirectSubclasses(const Oid& cls) const;

  /// All strict ancestors (resp. descendants) of `cls`.
  OidSet Ancestors(const Oid& cls) const;
  OidSet Descendants(const Oid& cls) const;

  /// Direct instances only.
  const OidSet& DirectExtent(const Oid& cls) const;

  /// Deep extent: direct instances of `cls` and of every descendant.
  OidSet Extent(const Oid& cls) const;

  /// The classes `obj` directly belongs to.
  std::vector<Oid> DirectClassesOf(const Oid& obj) const;

  /// Every (object, direct class) pair — snapshot/export support.
  std::vector<std::pair<Oid, Oid>> AllInstancePairs() const;

  /// The classes `obj` directly belongs to, viewed in place (null when
  /// none); valid until the next instance-of write.
  const std::vector<Oid>* FindInstance(const Oid& obj) const;

  /// All classes `obj` belongs to (direct classes + their ancestors).
  OidSet AllClassesOf(const Oid& obj) const;

  /// True if some declared class is a (non-strict) subclass of every class
  /// in `classes`. Used for the §6.2 range-emptiness test: a range with no
  /// common subclass (e.g. {Person, Company}) can never contain an oid.
  bool HaveCommonSubclass(const std::vector<Oid>& classes) const;

  /// §6.2 subrange test: a range `R` (set of classes) is a subrange of `T`
  /// if every oid that could belong to all of `R` is an instance of `T`;
  /// statically, every common (non-strict) subclass of `R` must be a
  /// subclass of `T`. Vacuously true when `R` has no common subclass.
  bool IsSubrange(const std::vector<Oid>& range, const Oid& of_class) const;

 private:
  struct Node {
    std::vector<Oid> supers;
    std::vector<Oid> subs;
    OidSet direct_extent;
    uint64_t epoch = 0;
  };

  const Node* Find(const Oid& cls) const;
  /// COW: makes the table and the node private first.
  Node* FindMutable(const Oid& cls);

  struct ClassTable {
    std::unordered_map<Oid, std::shared_ptr<Node>, OidHash> nodes;
    std::vector<Oid> list;  // declaration order
  };
  CowBox<ClassTable> classes_;
  // obj -> direct classes; sharded so a membership write copies one
  // shard, not the whole data-sized map.
  CowShardedMap<std::vector<Oid>> instance_of_;
  uint64_t epoch_ = 0;
};

}  // namespace xsql

#endif  // XSQL_STORE_CLASS_GRAPH_H_
