#include "store/method.h"

#include <deque>

namespace xsql {

Status MethodRegistry::Define(const Oid& cls, const Oid& method, int arity,
                              std::shared_ptr<const MethodBody> body) {
  if (body == nullptr) {
    return Status::InvalidArgument("null method body for " + method.ToString());
  }
  if (body->arity() != arity) {
    return Status::InvalidArgument("body arity mismatch for " +
                                   method.ToString());
  }
  defs_[Key{cls, method, arity}] = std::move(body);
  return Status::OK();
}

Status MethodRegistry::ResolveConflict(const Oid& cls, const Oid& method,
                                       const Oid& from_super) {
  conflict_choice_[Key{cls, method, /*arity=*/-1}] = from_super;
  return Status::OK();
}

bool MethodRegistry::DefinedOn(const Oid& cls, const Oid& method,
                               int arity) const {
  return defs_.contains(Key{cls, method, arity});
}

Result<MethodRegistry::Resolution> MethodRegistry::Resolve(
    const ClassGraph& graph, const std::vector<Oid>& classes,
    const Oid& method, int arity) const {
  // Breadth-first search upward from the direct classes: the nearest
  // definition wins (overriding); two *incomparable* nearest definitions
  // are a conflict unless the schema resolved it.
  std::deque<Oid> frontier(classes.begin(), classes.end());
  OidSet visited;
  std::vector<Oid> hits;          // classes at the shallowest level with defs
  std::deque<Oid> next;
  while (!frontier.empty() && hits.empty()) {
    // Process one BFS level at a time so "nearest" is well defined.
    next.clear();
    for (const Oid& cls : frontier) {
      if (visited.Contains(cls)) continue;
      visited.Insert(cls);
      auto it = defs_.find(Key{cls, method, arity});
      if (it != defs_.end()) {
        hits.push_back(cls);
      } else {
        for (const Oid& super : graph.DirectSuperclasses(cls)) {
          next.push_back(super);
        }
      }
    }
    frontier = next;
  }
  if (hits.empty()) {
    return Status::NotFound("no definition of " + method.ToString() + "/" +
                            std::to_string(arity) + " visible");
  }
  if (hits.size() == 1) {
    return Resolution{hits[0], defs_.at(Key{hits[0], method, arity})};
  }
  // Multiple incomparable definitions at the same depth: the nearest
  // class (upward BFS from the direct classes) whose recorded choice
  // selects one of them decides, so subclasses inherit a resolution.
  std::deque<Oid> pending(classes.begin(), classes.end());
  visited = OidSet();
  while (!pending.empty()) {
    const Oid cls = pending.front();
    pending.pop_front();
    if (visited.Contains(cls)) continue;
    visited.Insert(cls);
    auto choice = conflict_choice_.find(Key{cls, method, /*arity=*/-1});
    if (choice != conflict_choice_.end()) {
      for (const Oid& hit : hits) {
        if (hit == choice->second ||
            graph.IsStrictSubclass(choice->second, hit)) {
          return Resolution{hit, defs_.at(Key{hit, method, arity})};
        }
      }
    }
    for (const Oid& super : graph.DirectSuperclasses(cls)) {
      pending.push_back(super);
    }
  }
  std::string msg = "unresolved multiple-inheritance conflict for " +
                    method.ToString() + " among {";
  for (size_t i = 0; i < hits.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += hits[i].ToString();
  }
  msg += "}; add an explicit resolution (MEY88)";
  return Status::RuntimeError(std::move(msg));
}

Result<MethodRegistry::Resolution> MethodRegistry::ResolveForClass(
    const ClassGraph& graph, const Oid& cls, const Oid& method,
    int arity) const {
  return Resolve(graph, {cls}, method, arity);
}

std::shared_ptr<const MethodBody> MethodRegistry::Definition(
    const Oid& cls, const Oid& method, int arity) const {
  auto it = defs_.find(Key{cls, method, arity});
  return it == defs_.end() ? nullptr : it->second;
}

std::optional<Oid> MethodRegistry::ConflictChoice(const Oid& cls,
                                                  const Oid& method) const {
  auto it = conflict_choice_.find(Key{cls, method, /*arity=*/-1});
  if (it == conflict_choice_.end()) return std::nullopt;
  return it->second;
}

std::vector<MethodRegistry::Entry> MethodRegistry::AllDefinitions() const {
  std::vector<Entry> out;
  out.reserve(defs_.size());
  for (const auto& [key, body] : defs_) {
    out.push_back(Entry{key.cls, key.method, key.arity});
  }
  return out;
}

}  // namespace xsql
