#include "store/database.h"

#include <deque>

#include "common/fault.h"
#include "store/catalog.h"

namespace xsql {

Database::Database() {
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

void Database::CaptureSavepoints() {
  savepoints_.Capture(std::make_shared<SavedState>(
      SavedState{graph_, signatures_, methods_, active_domain_,
                 active_domain_dirty_, {}}));
}

void Database::SaveObject(const Oid& oid) {
  // A capture that already holds `oid` took it first, and so did every
  // capture outside it: stop there.
  savepoints_.ForEachCapture([&](SavedState& saved) {
    auto [it, inserted] = saved.objects.try_emplace(oid);
    if (inserted) {
      if (const Object* object = GetObject(oid)) it->second = *object;
    }
    return inserted;
  });
}

void Database::PopSavepoint(bool restore) {
  std::shared_ptr<const SavedState> saved = savepoints_.Pop();
  if (!restore || saved == nullptr) return;
  // The restored pieces keep their stamps and this side keeps its
  // epoch: a piece a fork shares predates the epoch, and one an
  // enclosing savepoint shares has another owner, so either is cloned
  // before its next write.
  graph_.Restore(saved->graph);
  signatures_ = saved->signatures;
  methods_ = saved->methods;
  for (const auto& [oid, object] : saved->objects) {
    auto& shard = objects_.Writable(oid, cow_epoch_);
    if (object.has_value()) {
      shard.insert_or_assign(oid, *object);
    } else {
      shard.erase(oid);
    }
  }
  active_domain_ = saved->active_domain;
  active_domain_dirty_ = saved->active_domain_dirty;
  ++version_;
}

Object* Database::FindMutableRaw(const Oid& oid) {
  // Probe the const view first: cloning a whole shard to discover the
  // object is absent would be a wasted copy.
  if (!HasObject(oid)) return nullptr;
  SaveObject(oid);
  return &objects_.Writable(oid, cow_epoch_).find(oid)->second;
}

Status Database::DeclareClass(const Oid& cls, const std::vector<Oid>& supers) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::DeclareClass"));
  if (!cls.is_atom()) {
    return Status::InvalidArgument("class oid must be an atom: " +
                                   cls.ToString());
  }
  Touch();
  XSQL_RETURN_IF_ERROR(graph_.DeclareClass(cls));
  if (supers.empty()) {
    XSQL_RETURN_IF_ERROR(graph_.AddSubclass(cls, builtin::Object()));
  } else {
    for (const Oid& super : supers) {
      XSQL_RETURN_IF_ERROR(FaultCheck("Database::DeclareClass#super"));
      XSQL_RETURN_IF_ERROR(graph_.AddSubclass(cls, super));
    }
  }
  // Classes are objects: register in the meta-class and give them a
  // (possibly empty) tuple-object record.
  XSQL_RETURN_IF_ERROR(graph_.AddInstance(cls, builtin::MetaClass()));
  GetOrCreate(cls);
  return Status::OK();
}

Status Database::AddSubclass(const Oid& sub, const Oid& super) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddSubclass"));
  Touch();
  XSQL_RETURN_IF_ERROR(graph_.AddSubclass(sub, super));
  XSQL_RETURN_IF_ERROR(graph_.AddInstance(sub, builtin::MetaClass()));
  return graph_.AddInstance(super, builtin::MetaClass());
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
  Touch();
  if (!graph_.IsClass(cls)) {
    XSQL_RETURN_IF_ERROR(DeclareClass(cls));
  }
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(sig.method));
  return signatures_.Writable(cow_epoch_).Add(cls, std::move(sig));
}

Status Database::DefineMethod(const Oid& cls, const Oid& method, int arity,
                              std::shared_ptr<const MethodBody> body) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::DefineMethod"));
  Touch();
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(method));
  return methods_.Writable(cow_epoch_).Define(cls, method, arity,
                                              std::move(body));
}

Status Database::ResolveMethodConflict(const Oid& cls, const Oid& method,
                                       const Oid& from_super) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::ResolveMethodConflict"));
  Touch();
  return methods_.Writable(cow_epoch_).ResolveConflict(cls, method,
                                                       from_super);
}

Status Database::NewObject(const Oid& oid, const std::vector<Oid>& classes) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::NewObject"));
  Touch();
  GetOrCreate(oid);
  for (const Oid& cls : classes) {
    XSQL_RETURN_IF_ERROR(FaultCheck("Database::NewObject#class"));
    if (!graph_.IsClass(cls)) {
      return Status::NotFound("unknown class " + cls.ToString());
    }
    XSQL_RETURN_IF_ERROR(graph_.AddInstance(oid, cls));
  }
  return Status::OK();
}

Status Database::AddInstanceOf(const Oid& oid, const Oid& cls) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddInstanceOf"));
  if (!graph_.IsClass(cls)) {
    return Status::NotFound("unknown class " + cls.ToString());
  }
  Touch();
  GetOrCreate(oid);
  return graph_.AddInstance(oid, cls);
}

Status Database::SetScalar(const Oid& obj, const Oid& attr, const Oid& value) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::SetScalar"));
  Touch();
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  GetOrCreate(obj).SetScalar(attr, value);
  return Status::OK();
}

Status Database::SetSet(const Oid& obj, const Oid& attr, OidSet values) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::SetSet"));
  Touch();
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  GetOrCreate(obj).SetSet(attr, std::move(values));
  return Status::OK();
}

Status Database::AddToSet(const Oid& obj, const Oid& attr, const Oid& value) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddToSet"));
  Touch();
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  return GetOrCreate(obj).AddToSet(attr, value);
}

Status Database::ClearAttribute(const Oid& obj, const Oid& attr) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::ClearAttribute"));
  if (!HasObject(obj)) {
    return Status::NotFound("no object " + obj.ToString());
  }
  Touch();
  FindMutableRaw(obj)->Remove(attr);
  return Status::OK();
}

Status Database::RemoveInstanceOf(const Oid& oid, const Oid& cls) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::RemoveInstanceOf"));
  Touch();
  graph_.RemoveInstance(oid, cls);
  return Status::OK();
}

const Object* Database::GetObject(const Oid& oid) const {
  return objects_.Find(oid);
}

Object* Database::GetMutableObject(const Oid& oid) {
  if (!HasObject(oid)) return nullptr;
  Touch();
  return FindMutableRaw(oid);
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
  return graph_.AddInstance(attr, builtin::MetaMethod());
}

Object& Database::GetOrCreate(const Oid& oid) {
  SaveObject(oid);
  return objects_.Writable(oid, cow_epoch_).try_emplace(oid, oid).first->second;
}

Status Database::FaultCheck(const char* site) {
  FaultInjector& fi = FaultInjector::Global();
  if (!fi.armed()) return Status::OK();
  return fi.Check(FaultInjector::Domain::kMutation, site);
}

}  // namespace xsql
