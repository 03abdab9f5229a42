#include "store/class_graph.h"

#include <algorithm>
#include <deque>

namespace xsql {

const ClassGraph::Node* ClassGraph::Find(const Oid& cls) const {
  auto it = classes_->nodes.find(cls);
  return it == classes_->nodes.end() ? nullptr : it->second.get();
}

ClassGraph::Node* ClassGraph::FindMutable(const Oid& cls) {
  const Node* node = Find(cls);
  if (node == nullptr) return nullptr;
  // A snapshot or a savepoint may share the table or the node: clone
  // before the write (class-extent granularity COW).
  std::shared_ptr<Node>& slot = classes_.Writable(epoch_).nodes[cls];
  MakePrivate(&slot, epoch_,
              sizeof(Node) + (node->supers.size() + node->subs.size() +
                              node->direct_extent.size()) *
                                 sizeof(Oid));
  return slot.get();
}

const std::vector<Oid>* ClassGraph::FindInstance(const Oid& obj) const {
  return instance_of_.Find(obj);
}

Status ClassGraph::DeclareClass(const Oid& cls) {
  if (IsClass(cls)) return Status::OK();
  auto node = std::make_shared<Node>();
  node->epoch = epoch_;
  ClassTable& table = classes_.Writable(epoch_);
  table.nodes.emplace(cls, std::move(node));
  table.list.push_back(cls);
  return Status::OK();
}

Status ClassGraph::AddSubclass(const Oid& sub, const Oid& super) {
  if (sub == super) {
    return Status::InvalidArgument("IS-A is acyclic: " + sub.ToString() +
                                   " cannot be its own subclass");
  }
  XSQL_RETURN_IF_ERROR(DeclareClass(sub));
  XSQL_RETURN_IF_ERROR(DeclareClass(super));
  // Reject cycles: super must not already be a descendant of sub.
  if (IsStrictSubclass(super, sub)) {
    return Status::InvalidArgument("IS-A edge " + sub.ToString() + " -> " +
                                   super.ToString() + " would create a cycle");
  }
  {
    const Node* s = Find(sub);
    if (std::find(s->supers.begin(), s->supers.end(), super) !=
        s->supers.end()) {
      return Status::OK();
    }
  }
  FindMutable(sub)->supers.push_back(super);
  FindMutable(super)->subs.push_back(sub);
  return Status::OK();
}

Status ClassGraph::AddInstance(const Oid& obj, const Oid& cls) {
  XSQL_RETURN_IF_ERROR(DeclareClass(cls));
  {
    const std::vector<Oid>* classes = FindInstance(obj);
    if (classes != nullptr &&
        std::find(classes->begin(), classes->end(), cls) != classes->end()) {
      return Status::OK();
    }
  }
  instance_of_.Writable(obj, epoch_)[obj].push_back(cls);
  FindMutable(cls)->direct_extent.Insert(obj);
  return Status::OK();
}

void ClassGraph::RemoveInstance(const Oid& obj, const Oid& cls) {
  {
    const std::vector<Oid>* classes = FindInstance(obj);
    if (classes == nullptr ||
        std::find(classes->begin(), classes->end(), cls) == classes->end()) {
      return;
    }
  }
  auto& classes = instance_of_.Writable(obj, epoch_)[obj];
  classes.erase(std::find(classes.begin(), classes.end(), cls));
  if (Node* n = FindMutable(cls)) {
    OidSet pruned;
    for (const Oid& o : n->direct_extent) {
      if (!(o == obj)) pruned.Insert(o);
    }
    n->direct_extent = std::move(pruned);
  }
}

bool ClassGraph::IsClass(const Oid& oid) const {
  return classes_->nodes.contains(oid);
}

bool ClassGraph::IsStrictSubclass(const Oid& sub, const Oid& super) const {
  if (sub == super) return false;
  const Node* start = Find(sub);
  if (start == nullptr || Find(super) == nullptr) return false;
  // Upward BFS from sub.
  std::deque<Oid> queue(start->supers.begin(), start->supers.end());
  OidSet seen;
  while (!queue.empty()) {
    Oid cur = queue.front();
    queue.pop_front();
    if (cur == super) return true;
    if (seen.Contains(cur)) continue;
    seen.Insert(cur);
    if (const Node* n = Find(cur)) {
      for (const Oid& s : n->supers) queue.push_back(s);
    }
  }
  return false;
}

bool ClassGraph::IsSubclassEq(const Oid& sub, const Oid& super) const {
  return (sub == super && IsClass(sub)) || IsStrictSubclass(sub, super);
}

bool ClassGraph::IsInstanceOf(const Oid& obj, const Oid& cls) const {
  const std::vector<Oid>* classes = FindInstance(obj);
  if (classes == nullptr) return false;
  for (const Oid& direct : *classes) {
    if (IsSubclassEq(direct, cls)) return true;
  }
  return false;
}

std::vector<Oid> ClassGraph::DirectSuperclasses(const Oid& cls) const {
  const Node* n = Find(cls);
  return n == nullptr ? std::vector<Oid>{} : n->supers;
}

std::vector<Oid> ClassGraph::DirectSubclasses(const Oid& cls) const {
  const Node* n = Find(cls);
  return n == nullptr ? std::vector<Oid>{} : n->subs;
}

OidSet ClassGraph::Ancestors(const Oid& cls) const {
  OidSet out;
  const Node* start = Find(cls);
  if (start == nullptr) return out;
  std::deque<Oid> queue(start->supers.begin(), start->supers.end());
  while (!queue.empty()) {
    Oid cur = queue.front();
    queue.pop_front();
    if (out.Contains(cur)) continue;
    out.Insert(cur);
    if (const Node* n = Find(cur)) {
      for (const Oid& s : n->supers) queue.push_back(s);
    }
  }
  return out;
}

OidSet ClassGraph::Descendants(const Oid& cls) const {
  OidSet out;
  const Node* start = Find(cls);
  if (start == nullptr) return out;
  std::deque<Oid> queue(start->subs.begin(), start->subs.end());
  while (!queue.empty()) {
    Oid cur = queue.front();
    queue.pop_front();
    if (out.Contains(cur)) continue;
    out.Insert(cur);
    if (const Node* n = Find(cur)) {
      for (const Oid& s : n->subs) queue.push_back(s);
    }
  }
  return out;
}

const OidSet& ClassGraph::DirectExtent(const Oid& cls) const {
  static const OidSet kEmpty;
  const Node* n = Find(cls);
  return n == nullptr ? kEmpty : n->direct_extent;
}

OidSet ClassGraph::Extent(const Oid& cls) const {
  OidSet out = DirectExtent(cls);
  for (const Oid& sub : Descendants(cls)) {
    out = OidSet::Union(out, DirectExtent(sub));
  }
  return out;
}

std::vector<Oid> ClassGraph::DirectClassesOf(const Oid& obj) const {
  const std::vector<Oid>* classes = FindInstance(obj);
  return classes == nullptr ? std::vector<Oid>{} : *classes;
}

std::vector<std::pair<Oid, Oid>> ClassGraph::AllInstancePairs() const {
  std::vector<std::pair<Oid, Oid>> out;
  instance_of_.ForEach([&](const Oid& obj, const std::vector<Oid>& classes) {
    for (const Oid& cls : classes) out.emplace_back(obj, cls);
  });
  return out;
}

OidSet ClassGraph::AllClassesOf(const Oid& obj) const {
  OidSet out;
  for (const Oid& direct : DirectClassesOf(obj)) {
    out.Insert(direct);
    out = OidSet::Union(out, Ancestors(direct));
  }
  return out;
}

bool ClassGraph::HaveCommonSubclass(const std::vector<Oid>& classes) const {
  if (classes.empty()) return true;
  for (const Oid& candidate : classes_->list) {
    bool below_all = true;
    for (const Oid& cls : classes) {
      if (!IsSubclassEq(candidate, cls)) {
        below_all = false;
        break;
      }
    }
    if (below_all) return true;
  }
  return false;
}

bool ClassGraph::IsSubrange(const std::vector<Oid>& range,
                            const Oid& of_class) const {
  for (const Oid& candidate : classes_->list) {
    bool below_all = true;
    for (const Oid& cls : range) {
      if (!IsSubclassEq(candidate, cls)) {
        below_all = false;
        break;
      }
    }
    if (below_all && !IsSubclassEq(candidate, of_class)) return false;
  }
  return true;
}

}  // namespace xsql
