// The three workloads: their shapes, the seeded Figure-1 instance each
// runs on, the per-connection statement streams, and the reply checks.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "oid/oid.h"
#include "stats.h"
#include "storage/recovery.h"

namespace perfbench {

/// YCSB's skew for every key stream.
constexpr double kZipfTheta = 0.99;

struct WorkloadSpec {
  std::string name;
  /// WorkloadParams::Scaled factor (employees = 60 * scale).
  size_t scale = 1;
  /// Closed-loop connections, never more than the host's cores.
  int connections = 1;
  /// The first `writers` connections send durable updates; the rest
  /// read.
  int writers = 0;
  /// xsql_server --checkpoint-every (0 leaves the server default).
  uint64_t checkpoint_every = 0;
  /// Human-readable statement mix for the run fingerprint.
  std::string mix;
};

/// The named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Builds the seeded Figure-1 instance at `spec.scale` into a fresh
/// durable directory `dir` and checkpoints it, so a server opening the
/// directory recovers it from the snapshot. `*generate_s` receives the
/// time spent in GenerateFig1Data alone.
xsql::Status BuildInstanceDir(const WorkloadSpec& spec, uint64_t seed,
                              const std::string& dir, double* generate_s);

enum class OpKind { kRead, kWrite };

struct Op {
  OpKind kind = OpKind::kRead;
  /// Template index into Instance::templates (reads).
  int tmpl = 0;
  /// Key index into Instance::keys (point reads and writes).
  size_t key = 0;
  /// The salary a write sets.
  int64_t value = 0;
  std::string text;
};

/// One read template with its checked answer.
struct Template {
  std::string id;
  std::string text;
  /// Canonical expected reply (analytics templates; see Canonical()).
  std::string expected;
  /// Which oracle produced `expected`: "naive" (Evaluator::RunNaive at
  /// the workload's scale), or "tuple" (the tuple-at-a-time evaluator,
  /// itself checked against RunNaive at scale 1 where that fits).
  std::string oracle;
};

/// The generated instance as the server loads it, plus everything the
/// reply checks need. Built from a durable directory (a copy of the one
/// the server opens), so the oracle sees exactly the server's state.
class Instance {
 public:
  /// Opens `dir` and derives keys, expected values and, for
  /// path_analytics, the oracle answers (computed once, here).
  static xsql::Result<std::unique_ptr<Instance>> Load(
      const WorkloadSpec& spec, uint64_t seed, const std::string& dir);

  const WorkloadSpec& spec() const { return spec_; }
  /// Employee atoms in the seeded key order: rank r of the Zipfian
  /// stream is keys[r], so the hot keys are spread over the instance.
  const std::vector<std::string>& keys() const { return keys_; }
  const std::vector<Template>& templates() const { return templates_; }
  /// The opened directory: the in-process replay runs on it too.
  xsql::storage::DurableDatabase& durable() { return *dd_; }

  /// Whether `reply` is a correct answer to `op`; `*why` says how not.
  /// Salary reads on mixed_rw are checked for range only (the writers
  /// move them); every other read is checked exactly.
  bool CheckReply(const Op& op, const std::string& reply,
                  std::string* why) const;

  /// Expected reply of a Salary point read for `key` holding `value`.
  static std::string SalaryReply(const xsql::Oid& value);

 private:
  Instance() = default;
  xsql::Status BuildAnalyticsOracle(uint64_t seed);

  WorkloadSpec spec_;
  std::unique_ptr<xsql::storage::DurableDatabase> dd_;
  std::vector<std::string> keys_;
  std::vector<xsql::Oid> salary_;
  std::vector<xsql::Oid> city_;
  std::vector<Template> templates_;
};

/// A reply with its row lines sorted: the server, the naive evaluator
/// and the tuple evaluator may list the same rows in different orders.
std::string Canonical(const std::string& reply);

/// Client identity of connection `conn` (RetryingClientOptions::uuid);
/// the in-process replay keys its request spans with the same ids.
std::array<uint8_t, 16> ConnectionUuid(uint64_t seed, int conn);

/// The statement stream of one connection: a pure function of (seed,
/// workload, connection), so the traced replay sees the same requests
/// as the timed run.
class Stream {
 public:
  Stream(const Instance& instance, uint64_t seed, int conn);
  Op Next();

 private:
  const Instance& instance_;
  bool writer_;
  int writer_index_;
  int writers_;
  SplitMix rng_;
  Zipf zipf_;
  /// Templates still to deal from the current deck (path_analytics).
  std::vector<int> deck_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
