#include "store/signature.h"

namespace xsql {

std::string Signature::ToString() const {
  std::string out = method.ToString();
  if (!args.empty()) {
    out += " : ";
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) out += ',';
      out += args[i].ToString();
    }
  }
  out += set_valued ? " =>> " : " => ";
  out += result.ToString();
  return out;
}

Status SignatureStore::Add(const Oid& cls, Signature sig) {
  auto& sigs = by_class_[cls];
  for (const Signature& existing : sigs) {
    if (existing == sig) return Status::OK();
  }
  sigs.push_back(std::move(sig));
  return Status::OK();
}

std::vector<Signature> SignatureStore::Declared(const Oid& cls,
                                                const Oid& method) const {
  std::vector<Signature> out;
  auto it = by_class_.find(cls);
  if (it == by_class_.end()) return out;
  for (const Signature& sig : it->second) {
    if (sig.method == method) out.push_back(sig);
  }
  return out;
}

std::vector<Signature> SignatureStore::Inherited(const ClassGraph& graph,
                                                 const Oid& cls,
                                                 const Oid& method) const {
  std::vector<Signature> out = Declared(cls, method);
  for (const Oid& ancestor : graph.Ancestors(cls)) {
    for (Signature& sig : Declared(ancestor, method)) {
      bool dup = false;
      for (const Signature& have : out) {
        if (have == sig) {
          dup = true;
          break;
        }
      }
      if (!dup) out.push_back(std::move(sig));
    }
  }
  return out;
}

OidSet SignatureStore::VisibleMethods(const ClassGraph& graph,
                                      const Oid& cls) const {
  OidSet out = DeclaredMethods(cls);
  for (const Oid& ancestor : graph.Ancestors(cls)) {
    out = OidSet::Union(out, DeclaredMethods(ancestor));
  }
  return out;
}

OidSet SignatureStore::DeclaredMethods(const Oid& cls) const {
  OidSet out;
  auto it = by_class_.find(cls);
  if (it == by_class_.end()) return out;
  for (const Signature& sig : it->second) out.Insert(sig.method);
  return out;
}

std::vector<std::pair<Oid, Signature>> SignatureStore::AllFor(
    const Oid& method) const {
  std::vector<std::pair<Oid, Signature>> out;
  for (const auto& [cls, sigs] : by_class_) {
    for (const Signature& sig : sigs) {
      if (sig.method == method) out.emplace_back(cls, sig);
    }
  }
  return out;
}

std::vector<Oid> SignatureStore::DeclaringClasses() const {
  std::vector<Oid> out;
  out.reserve(by_class_.size());
  for (const auto& [cls, sigs] : by_class_) {
    if (!sigs.empty()) out.push_back(cls);
  }
  return out;
}

}  // namespace xsql
