#include "oid/oid.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>

#include "obs/metrics.h"

namespace xsql {

namespace {

constexpr size_t kGolden = 0x9E3779B97F4A7C15ULL;

void Mix(size_t* h, size_t v) { *h ^= v + kGolden + (*h << 6) + (*h >> 2); }

/// The process-wide intern table: 64 shards, each an open-addressed set
/// of Rep pointers under its own mutex. Reps live in a deque per shard
/// so their addresses are stable; nothing is ever removed.
class InternTable {
 public:
  static InternTable& Global() {
    // Leaked on purpose: oids may be built and compared by threads and
    // static destructors that outlive any orderly teardown.
    static InternTable* table = new InternTable();
    return *table;
  }

  const Oid::Rep* Intern(OidKind kind, size_t hash, std::string text,
                         std::vector<Oid> args) {
    Shard& shard = shards_[hash % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t mask = shard.slots.size() - 1;
    size_t i = (hash >> 6) & mask;
    for (; shard.slots[i] != nullptr; i = (i + 1) & mask) {
      const Oid::Rep* rep = shard.slots[i];
      if (rep->hash == hash && rep->kind == kind && rep->text == text &&
          rep->args == args) {
        return rep;
      }
    }
    const Oid::Rep* rep = &shard.reps.emplace_back(
        Oid::Rep{kind, hash, std::move(text), std::move(args)});
    shard.slots[i] = rep;
    if (2 * ++shard.used > shard.slots.size()) Grow(&shard);
    Account(*rep);
    return rep;
  }

  size_t count() const { return count_.load(std::memory_order_relaxed); }
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  static constexpr size_t kShards = 64;
  struct Shard {
    std::mutex mu;
    std::deque<Oid::Rep> reps;
    std::vector<const Oid::Rep*> slots = std::vector<const Oid::Rep*>(16);
    size_t used = 0;
  };

  static void Grow(Shard* shard) {
    std::vector<const Oid::Rep*> slots(shard->slots.size() * 2);
    const size_t mask = slots.size() - 1;
    for (const Oid::Rep* rep : shard->slots) {
      if (rep == nullptr) continue;
      size_t i = (rep->hash >> 6) & mask;
      while (slots[i] != nullptr) i = (i + 1) & mask;
      slots[i] = rep;
    }
    shard->slots = std::move(slots);
  }

  void Account(const Oid::Rep& rep) {
    static obs::Gauge& interned =
        obs::MetricsRegistry::Global().GetGauge("xsql.oid.interned");
    static obs::Gauge& interned_bytes =
        obs::MetricsRegistry::Global().GetGauge("xsql.oid.interned_bytes");
    // A Rep in its deque plus its slot (at most half the slots are in
    // use), plus the heap the text and argument list own.
    size_t size = sizeof(Oid::Rep) + 2 * sizeof(const Oid::Rep*) +
                  rep.args.capacity() * sizeof(Oid);
    if (rep.text.capacity() > std::string().capacity()) {
      size += rep.text.capacity() + 1;
    }
    interned.Set(static_cast<int64_t>(
        count_.fetch_add(1, std::memory_order_relaxed) + 1));
    interned_bytes.Set(static_cast<int64_t>(
        bytes_.fetch_add(size, std::memory_order_relaxed) + size));
  }

  Shard shards_[kShards];
  std::atomic<size_t> count_{0};
  std::atomic<size_t> bytes_{0};
};

double CanonicalReal(double v) {
  if (std::isnan(v)) return std::numeric_limits<double>::quiet_NaN();
  return v == 0.0 ? 0.0 : v;
}

}  // namespace

Oid Oid::Bool(bool b) {
  Oid o;
  o.kind_ = OidKind::kBool;
  o.int_ = b ? 1 : 0;
  return o;
}

Oid Oid::Int(int64_t v) {
  Oid o;
  o.kind_ = OidKind::kInt;
  o.int_ = v;
  return o;
}

Oid Oid::Real(double v) {
  Oid o;
  o.kind_ = OidKind::kReal;
  o.real_ = v;
  return o;
}

Oid Oid::String(std::string s) {
  return Interned(OidKind::kString, std::move(s), {});
}

Oid Oid::Atom(std::string name) {
  return Interned(OidKind::kAtom, std::move(name), {});
}

Oid Oid::Term(std::string fn, std::vector<Oid> args) {
  for (Oid& arg : args) {
    if (arg.is_real()) arg.real_ = CanonicalReal(arg.real_);
  }
  return Interned(OidKind::kTerm, std::move(fn), std::move(args));
}

Oid Oid::Interned(OidKind kind, std::string text, std::vector<Oid> args) {
  size_t h = static_cast<size_t>(kind) * kGolden;
  Mix(&h, std::hash<std::string>{}(text));
  for (const Oid& arg : args) Mix(&h, arg.Hash());
  Oid o;
  o.kind_ = kind;
  o.rep_ = InternTable::Global().Intern(kind, h, std::move(text),
                                        std::move(args));
  return o;
}

size_t Oid::InternedCount() { return InternTable::Global().count(); }
size_t Oid::InternedBytes() { return InternTable::Global().bytes(); }

int Oid::Compare(const Oid& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_ ? -1 : 1;
  switch (kind_) {
    case OidKind::kNil:
      return 0;
    case OidKind::kBool:
    case OidKind::kInt:
      return int_ < other.int_ ? -1 : (int_ > other.int_ ? 1 : 0);
    case OidKind::kReal: {
      // Compare is a TOTAL order (OidSet dedup and sorting depend on
      // it), so NaN cannot be "unordered" here the way CompareOids
      // reports it: a bare IEEE compare returns 0 for NaN vs anything,
      // which used to merge NaN with arbitrary reals on set insertion.
      // Order NaN after every ordered real instead.
      const bool a_nan = std::isnan(real_);
      const bool b_nan = std::isnan(other.real_);
      if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
      return real_ < other.real_ ? -1 : (real_ > other.real_ ? 1 : 0);
    }
    case OidKind::kString:
    case OidKind::kAtom: {
      if (rep_ == other.rep_) return 0;
      int c = rep_->text.compare(other.rep_->text);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case OidKind::kTerm: {
      if (rep_ == other.rep_) return 0;
      int c = rep_->text.compare(other.rep_->text);
      if (c != 0) return c < 0 ? -1 : 1;
      const auto& a = rep_->args;
      const auto& b = other.rep_->args;
      for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
        int e = a[i].Compare(b[i]);
        if (e != 0) return e;
      }
      return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
    }
  }
  return 0;
}

size_t Oid::ScalarHash() const {
  size_t h = static_cast<size_t>(kind_) * kGolden;
  switch (kind_) {
    case OidKind::kBool:
    case OidKind::kInt:
      Mix(&h, std::hash<int64_t>{}(int_));
      break;
    case OidKind::kReal:
      // Hash must agree with Compare: every NaN compares equal to every
      // other NaN (and -0.0 to 0.0), whatever its sign or payload bits.
      if (std::isnan(real_)) {
        Mix(&h, 0x7FF8000000000000ULL);
      } else {
        Mix(&h, std::hash<double>{}(real_ == 0.0 ? 0.0 : real_));
      }
      break;
    default:
      break;
  }
  return h;
}

std::string Oid::ToString() const {
  switch (kind_) {
    case OidKind::kNil:
      return "nil";
    case OidKind::kBool:
      return int_ ? "true" : "false";
    case OidKind::kInt:
      return std::to_string(int_);
    case OidKind::kReal: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", real_);
      return buf;
    }
    case OidKind::kString:
      return "'" + rep_->text + "'";
    case OidKind::kAtom:
      return rep_->text;
    case OidKind::kTerm: {
      std::string out = rep_->text;
      out += '(';
      for (size_t i = 0; i < rep_->args.size(); ++i) {
        if (i > 0) out += ',';
        out += rep_->args[i].ToString();
      }
      out += ')';
      return out;
    }
  }
  return "?";
}

OidSet::OidSet(std::vector<Oid> elems) : elems_(std::move(elems)) {
  std::sort(elems_.begin(), elems_.end());
  elems_.erase(std::unique(elems_.begin(), elems_.end()), elems_.end());
}

void OidSet::Insert(const Oid& oid) {
  auto it = std::lower_bound(elems_.begin(), elems_.end(), oid);
  if (it == elems_.end() || !(*it == oid)) elems_.insert(it, oid);
}

bool OidSet::Contains(const Oid& oid) const {
  return std::binary_search(elems_.begin(), elems_.end(), oid);
}

bool OidSet::SubsetOf(const OidSet& other) const {
  return std::includes(other.elems_.begin(), other.elems_.end(),
                       elems_.begin(), elems_.end());
}

OidSet OidSet::Union(const OidSet& a, const OidSet& b) {
  OidSet out;
  out.elems_.reserve(a.size() + b.size());
  std::set_union(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
                 b.elems_.end(), std::back_inserter(out.elems_));
  return out;
}

OidSet OidSet::Intersect(const OidSet& a, const OidSet& b) {
  OidSet out;
  std::set_intersection(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
                        b.elems_.end(), std::back_inserter(out.elems_));
  return out;
}

OidSet OidSet::Difference(const OidSet& a, const OidSet& b) {
  OidSet out;
  std::set_difference(a.elems_.begin(), a.elems_.end(), b.elems_.begin(),
                      b.elems_.end(), std::back_inserter(out.elems_));
  return out;
}

std::string OidSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < elems_.size(); ++i) {
    if (i > 0) out += ", ";
    out += elems_[i].ToString();
  }
  out += '}';
  return out;
}

}  // namespace xsql
