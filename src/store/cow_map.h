#ifndef XSQL_STORE_COW_MAP_H_
#define XSQL_STORE_COW_MAP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "obs/metrics.h"
#include "oid/oid.h"

namespace xsql {

/// COW accounting (xsql.mvcc.*): how often a write had to clone a
/// shared piece, and roughly how many bytes the clones copied. The byte
/// figure is an estimate (container footprints, not deep oid payloads)
/// — it is a *trend* metric for snapshot churn, not an allocator audit.
inline void CountCowClone(size_t approx_bytes) {
  static obs::Counter& clones =
      obs::MetricsRegistry::Global().GetCounter("xsql.mvcc.cow_clones");
  static obs::Counter& bytes =
      obs::MetricsRegistry::Global().GetCounter("xsql.mvcc.cow_bytes");
  clones.Inc();
  bytes.Inc(static_cast<uint64_t>(approx_bytes));
}

/// Makes the piece in `slot` private before a write: clones it when it
/// predates the owner's COW `epoch` (a fork may share it) or has another
/// owner (a savepoint does). The epoch is tested first: only a current
/// piece is sure to be held by no other thread (see ClassGraph).
template <typename Piece>
void MakePrivate(std::shared_ptr<Piece>* slot, uint64_t epoch,
                 size_t approx_bytes) {
  if ((*slot)->epoch == epoch && slot->use_count() == 1) return;
  auto clone = std::make_shared<Piece>(**slot);
  clone->epoch = epoch;
  CountCowClone(approx_bytes);
  *slot = std::move(clone);
}

/// One value (a schema-sized store) held copy-on-write: copying the box
/// shares the value, and Writable() makes it private first.
template <typename T>
class CowBox {
 public:
  CowBox() : piece_(std::make_shared<Piece>()) {}

  const T& operator*() const { return piece_->value; }
  const T* operator->() const { return &piece_->value; }

  T& Writable(uint64_t epoch) {
    MakePrivate(&piece_, epoch, sizeof(Piece));
    return piece_->value;
  }

 private:
  struct Piece {
    T value;
    uint64_t epoch = 0;
  };
  std::shared_ptr<Piece> piece_;
};

/// An oid-keyed map stored copy-on-write for MVCC forks: 32 shards,
/// each held by shared_ptr, so copying the map copies 32 pointers and a
/// write after a fork clones the one shard it reaches (see ClassGraph
/// for the epoch rule), ~1/32 of the entries.
template <typename V>
class CowShardedMap {
 public:
  using Map = std::unordered_map<Oid, V, OidHash>;

  CowShardedMap() {
    for (auto& shard : shards_) shard = std::make_shared<Shard>();
  }

  const V* Find(const Oid& key) const {
    const Map& map = shards_[ShardIndexOf(key)]->map;
    auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
  }
  bool Contains(const Oid& key) const {
    return shards_[ShardIndexOf(key)]->map.contains(key);
  }

  /// The shard map that holds (or will hold) `key`, private to this
  /// copy: cloned first when it predates `epoch` or has another owner.
  Map& Writable(const Oid& key, uint64_t epoch) {
    std::shared_ptr<Shard>& shard = shards_[ShardIndexOf(key)];
    MakePrivate(&shard, epoch,
                sizeof(Shard) +
                    shard->map.size() * sizeof(typename Map::value_type));
    return shard->map;
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& shard : shards_) n += shard->map.size();
    return n;
  }

  /// Visits every entry, unordered: `fn(const Oid&, const V&)`.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& shard : shards_) {
      for (const auto& [key, value] : shard->map) fn(key, value);
    }
  }

 private:
  static constexpr size_t kShards = 32;
  struct Shard {
    Map map;
    uint64_t epoch = 0;
  };

  static size_t ShardIndexOf(const Oid& key) {
    return OidHash{}(key) % kShards;
  }

  std::array<std::shared_ptr<Shard>, kShards> shards_;
};

}  // namespace xsql

#endif  // XSQL_STORE_COW_MAP_H_
