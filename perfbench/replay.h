// The traced run: the timed run's requests replayed in-process through
// the layers' public entry points, in the order xsql_server calls them,
// with one span per call under a root span per request.
//
// Reads:  dedup claim → PinSnapshot → classify → session set-up →
//         plan-cache lookup → [parse → prepare on a miss] → execute →
//         render.
// Writes: dedup claim → PinSnapshot → classify → latch → apply
//         (DurableDatabase::ExecuteForCommit, which enqueues the WAL
//         record) → ActiveDomain (the rebuild Database::Fork starts
//         with) → Fork → WaitDurable → install, plus a checkpoint
//         every `checkpoint_every` writes, as the server does.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/session.h"
#include "server/concurrency.h"
#include "storage/version.h"
#include "storage/wal.h"
#include "workload.h"

namespace perfbench {

struct ReplayReport {
  /// Layer self times, mean microseconds per request of the kind the
  /// layer serves (see replay.cc: kLayers).
  std::map<std::string, double> layer_us;
  /// p50 of the read requests' root spans.
  double request_read_p50_us = 0;
  uint64_t requests = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t checkpoints = 0;
  double requests_per_s = 0;
  uint64_t wrong = 0;
  std::string first_error;
  /// Preparations Session::ExecuteReadOnly made itself: 0 unless the
  /// replay's plan-cache key has drifted from Session::CacheKey, which
  /// would move prepare time from typing.prepare_us into eval.read_us.
  uint64_t session_prepares = 0;
};

class Replayer {
 public:
  /// Replays on `instance->durable()`; requests are keyed by the timed
  /// run's connection ids for `seed`.
  Replayer(Instance* instance, uint64_t seed);

  /// Replays the connection streams from their first request for
  /// `seconds`, one request at a time, interleaved in the proportions
  /// `weights` (the statements each connection sent in the timed run),
  /// so reads and writes mix as they did over the wire. With `traced`
  /// every call gets a span and the spans are written to
  /// `<spans_prefix>.spans.tsv` and `<spans_prefix>.requests.tsv`;
  /// without, the same calls run bare (the overhead baseline).
  /// `id_salt` varies the request ids of a second pass, whose writes
  /// would otherwise hit the dedup table.
  ReplayReport Run(double seconds, bool traced, uint64_t id_salt,
                   const std::vector<uint64_t>& weights,
                   const std::string& spans_prefix);

 private:
  Instance* instance_;
  uint64_t seed_;
  xsql::storage::DurableDatabase& dd_;
  xsql::storage::GroupCommitter committer_;
  xsql::server::StatementLatch latch_;
  xsql::storage::VersionChain chain_;
  /// One per connection, as ConcurrencyManager::CreateSession makes.
  std::vector<std::unique_ptr<xsql::Session>> sessions_;
  uint64_t writes_since_checkpoint_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
