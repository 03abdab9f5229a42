#include "store/database.h"

#include <algorithm>
#include <deque>

#include "common/fault.h"
#include "obs/metrics.h"
#include "store/catalog.h"

namespace xsql {

Database::Database() {
  for (auto& shard : objects_) {
    shard = std::make_shared<ObjectShard>();
  }
  // Builtin hierarchy: individual classes live under Object; the two
  // meta-classes (Class, Method) stand apart, making the catalog part of
  // the hierarchy without mixing the class universe into individuals.
  (void)graph_.DeclareClass(builtin::Object());
  (void)graph_.AddSubclass(builtin::Numeral(), builtin::Object());
  (void)graph_.AddSubclass(builtin::String(), builtin::Object());
  (void)graph_.AddSubclass(builtin::Boolean(), builtin::Object());
  (void)graph_.AddSubclass(builtin::NilClass(), builtin::Object());
  (void)graph_.DeclareClass(builtin::MetaClass());
  (void)graph_.DeclareClass(builtin::MetaMethod());
  for (const Oid& cls : builtin::All()) {
    (void)graph_.AddInstance(cls, builtin::MetaClass());
  }
}

Database::Database(ForkTag, const Database& src)
    : graph_(src.graph_),
      signatures_(src.signatures_),
      methods_(src.methods_),
      objects_(src.objects_),
      version_(src.version_),
      cow_epoch_(src.cow_epoch_ + 1),
      active_domain_(src.active_domain_),
      active_domain_dirty_(src.active_domain_dirty_) {
  // The fork's first write to any shared node/shard must clone it.
  graph_.BumpEpoch();
}

std::unique_ptr<Database> Database::Fork() const {
  // Prewarm the lazy active-domain cache so the fork is born clean:
  // concurrent readers of an immutable snapshot must never trigger a
  // rebuild of a mutable member.
  (void)ActiveDomain();
  return std::unique_ptr<Database>(new Database(ForkTag{}, *this));
}

void Database::BeginNewEpoch() {
  ++cow_epoch_;
  graph_.BumpEpoch();
}

Database::ObjectShard& Database::WritableShard(const Oid& oid) {
  std::shared_ptr<ObjectShard>& slot = objects_[ShardIndexOf(oid)];
  if (slot->epoch != cow_epoch_) {
    auto clone = std::make_shared<ObjectShard>(*slot);
    clone->epoch = cow_epoch_;
    static obs::Counter& clones =
        obs::MetricsRegistry::Global().GetCounter("xsql.mvcc.cow_clones");
    static obs::Counter& bytes =
        obs::MetricsRegistry::Global().GetCounter("xsql.mvcc.cow_bytes");
    clones.Inc();
    bytes.Inc(static_cast<uint64_t>(sizeof(ObjectShard) +
                                    clone->map.size() *
                                        (sizeof(Oid) + sizeof(Object))));
    slot = std::move(clone);
  }
  return *slot;
}

Object* Database::FindMutableRaw(const Oid& oid) {
  // Probe the const view first: cloning a whole shard to discover the
  // object is absent would be a wasted copy.
  if (!HasObject(oid)) return nullptr;
  ObjectShard& shard = WritableShard(oid);
  auto it = shard.map.find(oid);
  return it == shard.map.end() ? nullptr : &it->second;
}

void Database::EraseObjectRaw(const Oid& oid) {
  if (!HasObject(oid)) return;
  WritableShard(oid).map.erase(oid);
}

Status Database::DeclareClass(const Oid& cls, const std::vector<Oid>& supers) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::DeclareClass"));
  if (!cls.is_atom()) {
    return Status::InvalidArgument("class oid must be an atom: " +
                                   cls.ToString());
  }
  XSQL_RETURN_IF_ERROR(GraphDeclareClass(cls));
  if (supers.empty()) {
    XSQL_RETURN_IF_ERROR(GraphAddSubclass(cls, builtin::Object()));
  } else {
    for (const Oid& super : supers) {
      XSQL_RETURN_IF_ERROR(FaultCheck("Database::DeclareClass#super"));
      XSQL_RETURN_IF_ERROR(GraphAddSubclass(cls, super));
    }
  }
  // Classes are objects: register in the meta-class and give them a
  // (possibly empty) tuple-object record.
  XSQL_RETURN_IF_ERROR(GraphAddInstance(cls, builtin::MetaClass()));
  GetOrCreate(cls);
  Touch();
  return Status::OK();
}

Status Database::AddSubclass(const Oid& sub, const Oid& super) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddSubclass"));
  XSQL_RETURN_IF_ERROR(GraphAddSubclass(sub, super));
  XSQL_RETURN_IF_ERROR(GraphAddInstance(sub, builtin::MetaClass()));
  XSQL_RETURN_IF_ERROR(GraphAddInstance(super, builtin::MetaClass()));
  Touch();
  return Status::OK();
}

Status Database::DeclareAttribute(const Oid& cls, const Oid& attr,
                                  const Oid& result, bool set_valued) {
  Signature sig;
  sig.method = attr;
  sig.result = result;
  sig.set_valued = set_valued;
  return DeclareSignature(cls, std::move(sig));
}

Status Database::DeclareSignature(const Oid& cls, Signature sig) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::DeclareSignature"));
  if (!graph_.IsClass(cls)) {
    XSQL_RETURN_IF_ERROR(DeclareClass(cls));
  }
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(sig.method));
  if (undo_ != nullptr && !signatures_.Has(cls, sig)) {
    Signature saved = sig;
    undo_->Record([cls, saved](Database* db) {
      db->signatures_.Remove(cls, saved);
    });
  }
  XSQL_RETURN_IF_ERROR(signatures_.Add(cls, std::move(sig)));
  Touch();
  return Status::OK();
}

Status Database::DefineMethod(const Oid& cls, const Oid& method, int arity,
                              std::shared_ptr<const MethodBody> body) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::DefineMethod"));
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(method));
  if (undo_ != nullptr) {
    std::shared_ptr<const MethodBody> prior =
        methods_.Definition(cls, method, arity);
    undo_->Record([cls, method, arity, prior](Database* db) {
      db->methods_.Restore(cls, method, arity, prior);
    });
  }
  XSQL_RETURN_IF_ERROR(methods_.Define(cls, method, arity, std::move(body)));
  Touch();
  return Status::OK();
}

Status Database::ResolveMethodConflict(const Oid& cls, const Oid& method,
                                       const Oid& from_super) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::ResolveMethodConflict"));
  if (undo_ != nullptr) {
    std::optional<Oid> prior = methods_.ConflictChoice(cls, method);
    undo_->Record([cls, method, prior](Database* db) {
      db->methods_.RestoreConflictChoice(cls, method, prior);
    });
  }
  XSQL_RETURN_IF_ERROR(methods_.ResolveConflict(cls, method, from_super));
  Touch();
  return Status::OK();
}

Status Database::NewObject(const Oid& oid, const std::vector<Oid>& classes) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::NewObject"));
  GetOrCreate(oid);
  for (const Oid& cls : classes) {
    XSQL_RETURN_IF_ERROR(FaultCheck("Database::NewObject#class"));
    if (!graph_.IsClass(cls)) {
      return Status::NotFound("unknown class " + cls.ToString());
    }
    XSQL_RETURN_IF_ERROR(GraphAddInstance(oid, cls));
  }
  Touch();
  return Status::OK();
}

Status Database::AddInstanceOf(const Oid& oid, const Oid& cls) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddInstanceOf"));
  if (!graph_.IsClass(cls)) {
    return Status::NotFound("unknown class " + cls.ToString());
  }
  GetOrCreate(oid);
  XSQL_RETURN_IF_ERROR(GraphAddInstance(oid, cls));
  Touch();
  return Status::OK();
}

Status Database::SetScalar(const Oid& obj, const Oid& attr, const Oid& value) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::SetScalar"));
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  RecordUndoAttr(obj, attr);
  GetOrCreate(obj).SetScalar(attr, value);
  Touch();
  return Status::OK();
}

Status Database::SetSet(const Oid& obj, const Oid& attr, OidSet values) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::SetSet"));
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  RecordUndoAttr(obj, attr);
  GetOrCreate(obj).SetSet(attr, std::move(values));
  Touch();
  return Status::OK();
}

Status Database::AddToSet(const Oid& obj, const Oid& attr, const Oid& value) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddToSet"));
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  RecordUndoAttr(obj, attr);
  XSQL_RETURN_IF_ERROR(GetOrCreate(obj).AddToSet(attr, value));
  Touch();
  return Status::OK();
}

Status Database::ClearAttribute(const Oid& obj, const Oid& attr) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::ClearAttribute"));
  if (!HasObject(obj)) {
    return Status::NotFound("no object " + obj.ToString());
  }
  RecordUndoAttr(obj, attr);
  FindMutableRaw(obj)->Remove(attr);
  Touch();
  return Status::OK();
}

Status Database::RemoveInstanceOf(const Oid& oid, const Oid& cls) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::RemoveInstanceOf"));
  if (undo_ != nullptr) {
    std::vector<Oid> classes = graph_.DirectClassesOf(oid);
    if (std::find(classes.begin(), classes.end(), cls) != classes.end()) {
      undo_->Record([oid, cls](Database* db) {
        (void)db->graph_.AddInstance(oid, cls);
      });
    }
  }
  graph_.RemoveInstance(oid, cls);
  Touch();
  return Status::OK();
}

void Database::Rollback(UndoLog* log) {
  UndoLog* saved = undo_;
  undo_ = nullptr;  // inverses go through raw primitives; never re-record
  log->Rollback(this);
  undo_ = saved;
  Touch();
}

const Object* Database::GetObject(const Oid& oid) const {
  const ObjectShard& shard = *objects_[ShardIndexOf(oid)];
  auto it = shard.map.find(oid);
  return it == shard.map.end() ? nullptr : &it->second;
}

Object* Database::GetMutableObject(const Oid& oid) {
  Object* obj = FindMutableRaw(oid);
  if (obj == nullptr) return nullptr;
  Touch();
  return obj;
}

const AttrValue* Database::GetAttribute(const Oid& obj, const Oid& attr) const {
  if (const Object* o = GetObject(obj)) {
    if (const AttrValue* v = o->Get(attr)) return v;
  }
  const std::vector<Oid>* classes = graph_.FindInstance(obj);
  return classes == nullptr ? nullptr : InheritedDefault(*classes, attr);
}

const AttrValue* Database::InheritedDefault(const std::vector<Oid>& classes,
                                            const Oid& attr) const {
  // Behavioral inheritance of defaults: walk classes upward, level by
  // level, and take the nearest class-object that defines the attribute.
  std::deque<Oid> frontier(classes.begin(), classes.end());
  OidSet visited;
  while (!frontier.empty()) {
    std::vector<const AttrValue*> hits;
    std::vector<Oid> hit_classes;
    std::deque<Oid> next;
    for (const Oid& cls : frontier) {
      if (visited.Contains(cls)) continue;
      visited.Insert(cls);
      const Object* class_obj = GetObject(cls);
      const AttrValue* v =
          class_obj == nullptr ? nullptr : class_obj->Get(attr);
      if (v != nullptr) {
        hits.push_back(v);
        hit_classes.push_back(cls);
      } else {
        for (const Oid& super : graph_.DirectSuperclasses(cls)) {
          next.push_back(super);
        }
      }
    }
    if (!hits.empty()) {
      // Deterministic pick among incomparable providers: smallest oid.
      size_t best = 0;
      for (size_t i = 1; i < hit_classes.size(); ++i) {
        if (hit_classes[i] < hit_classes[best]) best = i;
      }
      return hits[best];
    }
    frontier = next;
  }
  return nullptr;
}

bool Database::IsInstanceOf(const Oid& oid, const Oid& cls) const {
  // Literal instances of the builtin classes.
  if (oid.is_numeric()) {
    if (graph_.IsSubclassEq(builtin::Numeral(), cls)) return true;
  } else if (oid.is_string()) {
    if (graph_.IsSubclassEq(builtin::String(), cls)) return true;
  } else if (oid.is_bool()) {
    if (graph_.IsSubclassEq(builtin::Boolean(), cls)) return true;
  } else if (oid.is_nil()) {
    if (graph_.IsSubclassEq(builtin::NilClass(), cls)) return true;
  }
  return graph_.IsInstanceOf(oid, cls);
}

OidSet Database::Extent(const Oid& cls) const {
  OidSet out = graph_.Extent(cls);
  // Literal classes draw their extent from the active domain.
  const bool wants_numeral = graph_.IsSubclassEq(builtin::Numeral(), cls);
  const bool wants_string = graph_.IsSubclassEq(builtin::String(), cls);
  const bool wants_bool = graph_.IsSubclassEq(builtin::Boolean(), cls);
  const bool wants_nil = graph_.IsSubclassEq(builtin::NilClass(), cls);
  if (wants_numeral || wants_string || wants_bool || wants_nil) {
    for (const Oid& oid : ActiveDomain()) {
      if ((wants_numeral && oid.is_numeric()) ||
          (wants_string && oid.is_string()) ||
          (wants_bool && oid.is_bool()) || (wants_nil && oid.is_nil())) {
        out.Insert(oid);
      }
    }
  }
  return out;
}

const OidSet& Database::ActiveDomain() const {
  if (active_domain_dirty_ || active_domain_ == nullptr) {
    auto domain = std::make_shared<OidSet>();
    ForEachObject([&](const Oid& oid, const Object& object) {
      domain->Insert(oid);
      for (const auto& [attr, value] : object.attrs()) {
        domain->Insert(attr);
        if (value.set_valued()) {
          for (const Oid& v : value.set()) domain->Insert(v);
        } else {
          domain->Insert(value.scalar());
        }
      }
    });
    for (const Oid& cls : graph_.classes()) domain->Insert(cls);
    active_domain_ = std::move(domain);
    active_domain_dirty_ = false;
  }
  return *active_domain_;
}

std::shared_ptr<const OidSet> Database::ActiveDomainShared() const {
  (void)ActiveDomain();  // rebuild if dirty
  return active_domain_;
}

Status Database::RegisterMethodObject(const Oid& attr) {
  if (!attr.is_atom()) {
    return Status::InvalidArgument("attribute/method name must be an atom: " +
                                   attr.ToString());
  }
  return GraphAddInstance(attr, builtin::MetaMethod());
}

Object& Database::GetOrCreate(const Oid& oid) {
  if (Object* existing = FindMutableRaw(oid)) return *existing;
  if (undo_ != nullptr) {
    undo_->Record([oid](Database* db) { db->EraseObjectRaw(oid); });
  }
  ObjectShard& shard = WritableShard(oid);
  return shard.map.emplace(oid, Object(oid)).first->second;
}

Status Database::FaultCheck(const char* site) {
  FaultInjector& fi = FaultInjector::Global();
  if (!fi.armed()) return Status::OK();
  return fi.Check(FaultInjector::Domain::kMutation, site);
}

Status Database::GraphDeclareClass(const Oid& cls) {
  if (undo_ != nullptr && !graph_.IsClass(cls)) {
    undo_->Record([cls](Database* db) { db->graph_.RemoveClass(cls); });
  }
  return graph_.DeclareClass(cls);
}

Status Database::GraphAddSubclass(const Oid& sub, const Oid& super) {
  if (undo_ != nullptr) {
    // AddSubclass auto-declares both endpoints before its cycle check can
    // fail, so the declarations must be undoable even on failure.
    if (!graph_.IsClass(sub)) {
      undo_->Record([sub](Database* db) { db->graph_.RemoveClass(sub); });
    }
    if (!graph_.IsClass(super)) {
      undo_->Record([super](Database* db) { db->graph_.RemoveClass(super); });
    }
    std::vector<Oid> supers = graph_.DirectSuperclasses(sub);
    if (std::find(supers.begin(), supers.end(), super) == supers.end()) {
      undo_->Record([sub, super](Database* db) {
        db->graph_.RemoveSubclassEdge(sub, super);
      });
    }
  }
  return graph_.AddSubclass(sub, super);
}

Status Database::GraphAddInstance(const Oid& obj, const Oid& cls) {
  if (undo_ != nullptr) {
    if (!graph_.IsClass(cls)) {
      undo_->Record([cls](Database* db) { db->graph_.RemoveClass(cls); });
    }
    std::vector<Oid> classes = graph_.DirectClassesOf(obj);
    if (std::find(classes.begin(), classes.end(), cls) == classes.end()) {
      undo_->Record([obj, cls](Database* db) {
        db->graph_.RemoveInstance(obj, cls);
      });
    }
  }
  return graph_.AddInstance(obj, cls);
}

void Database::RecordUndoAttr(const Oid& obj, const Oid& attr) {
  if (undo_ == nullptr) return;
  const Object* existing = GetObject(obj);
  if (existing == nullptr) {
    // The whole object record is about to be created; GetOrCreate records
    // its erasure, which discards any attribute written to it.
    return;
  }
  const AttrValue* prior = existing->Get(attr);
  if (prior == nullptr) {
    undo_->Record([obj, attr](Database* db) {
      if (Object* o = db->FindMutableRaw(obj)) o->Remove(attr);
    });
  } else if (prior->set_valued()) {
    OidSet saved = prior->set();
    undo_->Record([obj, attr, saved](Database* db) {
      if (Object* o = db->FindMutableRaw(obj)) o->SetSet(attr, saved);
    });
  } else {
    Oid saved = prior->scalar();
    undo_->Record([obj, attr, saved](Database* db) {
      if (Object* o = db->FindMutableRaw(obj)) o->SetScalar(attr, saved);
    });
  }
}

}  // namespace xsql
