#include "store/database.h"

#include <algorithm>
#include <deque>

#include "common/fault.h"
#include "obs/metrics.h"
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
      domain_counts_(src.domain_counts_),
      version_(src.version_),
      catalog_version_(src.catalog_version_),
      domain_version_(src.domain_version_),
      cow_epoch_(src.cow_epoch_ + 1) {
  // The fork's first write to any shared node/shard must clone it.
  graph_.BumpEpoch();
  std::lock_guard<std::mutex> lock(src.domain_view_mu_);
  domain_view_ = src.domain_view_;
  domain_view_at_ = src.domain_view_at_;
}

std::unique_ptr<Database> Database::Fork() const {
  return std::unique_ptr<Database>(new Database(ForkTag{}, *this));
}

void Database::BeginNewEpoch() {
  ++cow_epoch_;
  graph_.BumpEpoch();
}

void Database::CaptureSavepoints() {
  savepoints_.Capture(std::make_shared<SavedState>(
      SavedState{graph_, signatures_, methods_, {}}));
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
    // Count the pre-image in before the current object out, so an oid
    // in both never passes through zero.
    if (object.has_value()) CountObject(*object, +1);
    if (const Object* now = GetObject(oid)) CountObject(*now, -1);
    auto& shard = objects_.Writable(oid, cow_epoch_);
    if (object.has_value()) {
      shard.insert_or_assign(oid, *object);
    } else {
      shard.erase(oid);
    }
  }
  ++version_;
  TouchCatalog();
}

void Database::Count(const Oid& oid, int delta) {
  auto& shard = domain_counts_.Writable(oid, cow_epoch_);
  auto [it, entered] = shard.try_emplace(oid, 0);
  it->second += delta;
  const bool left = it->second == 0;
  if (left) shard.erase(it);
  if (entered || left) {
    ++domain_version_;
    if (oid.is_atom()) catalog_version_ = version_;  // name resolution
  }
}

void Database::CountValue(const AttrValue& value, int delta) {
  if (value.set_valued()) {
    for (const Oid& v : value.set()) Count(v, delta);
  } else {
    Count(value.scalar(), delta);
  }
}

void Database::CountAttr(const Oid& attr, const AttrValue& value,
                         int delta) {
  Count(attr, delta);
  CountValue(value, delta);
}

void Database::CountObject(const Object& object, int delta) {
  Count(object.id(), delta);
  for (const auto& [attr, value] : object.attrs()) {
    CountAttr(attr, value, delta);
  }
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
  TouchCatalog();
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
  TouchCatalog();
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
  TouchCatalog();
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
  TouchCatalog();
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(method));
  return methods_.Writable(cow_epoch_).Define(cls, method, arity,
                                              std::move(body));
}

Status Database::ResolveMethodConflict(const Oid& cls, const Oid& method,
                                       const Oid& from_super) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::ResolveMethodConflict"));
  Touch();
  TouchCatalog();
  return methods_.Writable(cow_epoch_).ResolveConflict(cls, method,
                                                       from_super);
}

Status Database::NewObject(const Oid& oid, const std::vector<Oid>& classes) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::NewObject"));
  Touch();
  TouchCatalog();
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
  TouchCatalog();
  GetOrCreate(oid);
  return graph_.AddInstance(oid, cls);
}

Status Database::SetScalar(const Oid& obj, const Oid& attr, const Oid& value) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::SetScalar"));
  Touch();
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  TouchIfClassObject(obj);
  Object& object = GetOrCreate(obj);
  // New occurrences are counted before the old are dropped, so a value
  // kept by the write never leaves the domain.
  Count(value, +1);
  if (const AttrValue* old = object.Get(attr)) {
    CountValue(*old, -1);
  } else {
    Count(attr, +1);
  }
  object.SetScalar(attr, value);
  return Status::OK();
}

Status Database::SetSet(const Oid& obj, const Oid& attr, OidSet values) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::SetSet"));
  Touch();
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  TouchIfClassObject(obj);
  Object& object = GetOrCreate(obj);
  for (const Oid& v : values) Count(v, +1);
  if (const AttrValue* old = object.Get(attr)) {
    CountValue(*old, -1);
  } else {
    Count(attr, +1);
  }
  object.SetSet(attr, std::move(values));
  return Status::OK();
}

Status Database::AddToSet(const Oid& obj, const Oid& attr, const Oid& value) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::AddToSet"));
  Touch();
  XSQL_RETURN_IF_ERROR(RegisterMethodObject(attr));
  TouchIfClassObject(obj);
  Object& object = GetOrCreate(obj);
  const AttrValue* old = object.Get(attr);
  if (old == nullptr) {
    Count(attr, +1);
    Count(value, +1);
  } else if (old->set_valued() && !old->set().Contains(value)) {
    Count(value, +1);
  }
  return object.AddToSet(attr, value);
}

Status Database::ClearAttribute(const Oid& obj, const Oid& attr) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::ClearAttribute"));
  if (!HasObject(obj)) {
    return Status::NotFound("no object " + obj.ToString());
  }
  Touch();
  TouchIfClassObject(obj);
  Object* object = FindMutableRaw(obj);
  if (const AttrValue* old = object->Get(attr)) CountAttr(attr, *old, -1);
  object->Remove(attr);
  return Status::OK();
}

Status Database::RemoveInstanceOf(const Oid& oid, const Oid& cls) {
  XSQL_RETURN_IF_ERROR(FaultCheck("Database::RemoveInstanceOf"));
  Touch();
  TouchCatalog();
  graph_.RemoveInstance(oid, cls);
  return Status::OK();
}

const Object* Database::GetObject(const Oid& oid) const {
  return objects_.Find(oid);
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

std::shared_ptr<const OidSet> Database::ActiveDomainShared() const {
  static obs::Counter& builds = obs::MetricsRegistry::Global().GetCounter(
      "xsql.store.active_domain_builds");
  std::lock_guard<std::mutex> lock(domain_view_mu_);
  if (domain_view_ == nullptr || domain_view_at_ != domain_version_) {
    std::vector<Oid> elems;
    elems.reserve(domain_counts_.size() + graph_.classes().size());
    domain_counts_.ForEach(
        [&](const Oid& oid, uint32_t) { elems.push_back(oid); });
    elems.insert(elems.end(), graph_.classes().begin(),
                 graph_.classes().end());
    domain_view_ = std::make_shared<const OidSet>(std::move(elems));
    domain_view_at_ = domain_version_;
    builds.Inc();
  }
  return domain_view_;
}

Status Database::RegisterMethodObject(const Oid& attr) {
  if (!attr.is_atom()) {
    return Status::InvalidArgument("attribute/method name must be an atom: " +
                                   attr.ToString());
  }
  const std::vector<Oid>* classes = graph_.FindInstance(attr);
  if (classes == nullptr || std::find(classes->begin(), classes->end(),
                                      builtin::MetaMethod()) == classes->end()) {
    TouchCatalog();  // a new method-object
  }
  return graph_.AddInstance(attr, builtin::MetaMethod());
}

Object& Database::GetOrCreate(const Oid& oid) {
  SaveObject(oid);
  auto [it, created] = objects_.Writable(oid, cow_epoch_).try_emplace(oid, oid);
  if (created) {
    TouchCatalog();
    Count(oid, +1);
  }
  return it->second;
}

Status Database::FaultCheck(const char* site) {
  FaultInjector& fi = FaultInjector::Global();
  if (!fi.armed()) return Status::OK();
  return fi.Check(FaultInjector::Domain::kMutation, site);
}

}  // namespace xsql
