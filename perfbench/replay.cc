#include "replay.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>

#include "eval/plan_cache.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/recovery.h"
#include "typing/planner.h"
#include "typing/type_checker.h"

namespace perfbench {

namespace {

enum SpanName : uint8_t {
  kRequest,
  kDedup,
  kPin,
  kClassify,
  kSession,
  kPlanLookup,
  kParse,
  kPrepare,
  kExecute,
  kRender,
  kLatch,
  kApply,
  kFork,
  kActiveDomain,
  kCommitWait,
  kInstall,
  kCheckpoint,
  kSpanNames,
};

const char* const kSpanNameText[kSpanNames] = {
    "request", "dedup",   "pin",    "classify",      "session",
    "plan_lookup", "parse", "prepare", "execute",    "render",
    "latch",   "apply",   "fork",   "active_domain", "commit_wait",
    "install", "checkpoint"};

/// Which requests a layer's mean is taken over.
enum class Per { kRequest, kRead, kWrite, kCheckpoint };

/// Layer metrics: name, the spans whose self time it sums, and the
/// requests it is averaged over. eval.read_us is computed separately
/// (p50 per template).
struct Layer {
  const char* metric;
  std::vector<SpanName> spans;
  Per per;
};

const Layer kLayers[] = {
    {"server.classify_us", {kClassify}, Per::kRequest},
    {"server.exec_us",
     {kDedup, kPin, kSession, kPlanLookup, kRender, kLatch, kInstall},
     Per::kRequest},
    {"parser.parse_us", {kParse}, Per::kRead},
    {"typing.prepare_us", {kPrepare}, Per::kRead},
    {"eval.apply_us", {kApply}, Per::kWrite},
    {"store.fork_us", {kFork}, Per::kWrite},
    {"store.active_domain_us", {kActiveDomain}, Per::kWrite},
    {"storage.commit_wait_us", {kCommitWait}, Per::kWrite},
    {"storage.checkpoint_us", {kCheckpoint}, Per::kCheckpoint},
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRec {
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;
  uint32_t request;
  SpanName name;
};

struct RequestRec {
  int conn;
  uint64_t seq;
  OpKind kind;
  int tmpl;
};

/// Spans kept in memory for the whole run; a disabled log records
/// nothing and reads no clock.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int64_t Open(SpanName name, int64_t parent, uint32_t request) {
    if (!enabled_) return -1;
    spans_.push_back({NowNs(), 0, parent, request, name});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRec> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanName name, int64_t parent, uint32_t request)
      : log_(log), index_(log.Open(name, parent, request)) {}
  ~ScopedSpan() { log_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int64_t index_;
};

std::string Hex(const std::array<uint8_t, 16>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

}  // namespace

Replayer::Replayer(Instance* instance, uint64_t seed)
    : instance_(instance),
      seed_(seed),
      dd_(instance->durable()),
      committer_(instance->durable().wal()) {
  // As ConcurrencyManager's constructor: warm the active domain, then
  // install the recovered state as the first version.
  (void)dd_.db().ActiveDomain();
  std::unique_ptr<xsql::Database> db = dd_.db().Fork();
  dd_.db().BeginNewEpoch();
  auto views =
      std::make_unique<xsql::ViewManager>(db.get(), dd_.session().views());
  chain_.Install(chain_.Prepare(std::move(db), std::move(views)));
  for (int c = 0; c < instance->spec().connections; ++c) {
    sessions_.push_back(std::make_unique<xsql::Session>(
        &dd_.db(), xsql::SessionOptions{}, &dd_.session().views(),
        &dd_.session().plan_cache()));
  }
}

ReplayReport Replayer::Run(double seconds, bool traced, uint64_t id_salt,
                           const std::vector<uint64_t>& weights,
                           const std::string& spans_prefix) {
  using xsql::server::StatementMode;
  const WorkloadSpec& spec = instance_->spec();
  xsql::PlanCache& plans = dd_.session().plan_cache();
  // Both passes start from the same cold cache.
  plans.Clear();

  std::vector<Stream> streams;
  std::vector<std::array<uint8_t, 16>> uuids;
  for (int c = 0; c < spec.connections; ++c) {
    streams.emplace_back(*instance_, seed_, c);
    std::array<uint8_t, 16> uuid = ConnectionUuid(seed_, c);
    uuid[0] ^= static_cast<uint8_t>(id_salt);
    uuids.push_back(uuid);
  }
  std::vector<uint64_t> seqs(static_cast<size_t>(spec.connections), 0);

  SpanLog log(traced);
  std::vector<RequestRec> requests;
  ReplayReport report;

  auto fail = [&](const std::string& why) {
    ++report.wrong;
    if (report.first_error.empty()) report.first_error = why;
  };

  // Session::Prepare counts its own preparations; the replay prepares
  // misses itself, so any it counts mean the two cache keys disagree.
  xsql::obs::Counter& session_prepares =
      xsql::obs::MetricsRegistry::Global().GetCounter("xsql.plan.prepares");
  const uint64_t prepares_before = session_prepares.value();

  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    // The connection furthest behind its share of the timed run.
    int c = 0;
    for (int k = 1; k < spec.connections; ++k) {
      const size_t a = static_cast<size_t>(k);
      const size_t b = static_cast<size_t>(c);
      if ((seqs[a] + 1) * weights[b] < (seqs[b] + 1) * weights[a]) c = k;
    }
    const Op op = streams[static_cast<size_t>(c)].Next();
    xsql::storage::RequestId rid;
    rid.uuid = uuids[static_cast<size_t>(c)];
    rid.seq = ++seqs[static_cast<size_t>(c)];
    const uint32_t r = static_cast<uint32_t>(requests.size());
    requests.push_back({c, rid.seq, op.kind, op.tmpl});
    xsql::Session& conn = *sessions_[static_cast<size_t>(c)];
    const xsql::ExecLimits limits = conn.options().limits;
    const std::shared_ptr<xsql::CancelToken> cancel = conn.options().cancel;

    const int64_t root = log.Open(kRequest, -1, r);
    std::string reply;
    std::string cached;
    xsql::storage::DedupTable::ClaimResult claim;
    {
      ScopedSpan s(log, kDedup, root, r);
      claim = dd_.dedup().Claim(rid, limits, cancel, &cached);
    }
    std::shared_ptr<const xsql::storage::DatabaseVersion> snap;
    {
      ScopedSpan s(log, kPin, root, r);
      snap = chain_.Head();
    }
    StatementMode mode;
    {
      ScopedSpan s(log, kClassify, root, r);
      const xsql::storage::StatementClass cls =
          xsql::storage::ClassifyStatement(op.text, *snap->db);
      mode = xsql::server::ClassifyMode(op.text, cls, *snap->db,
                                        *snap->views);
    }
    if (claim != xsql::storage::DedupTable::ClaimResult::kExecute) {
      log.Close(root);
      fail("replay: request id already claimed: " + rid.ToString());
      continue;
    }

    if (op.kind == OpKind::kRead) {
      ++report.reads;
      if (mode != StatementMode::kSharedRead) {
        dd_.dedup().Abandon(rid);
        log.Close(root);
        fail("replay: a read did not classify as a shared read: " +
             op.text);
        continue;
      }
      std::optional<xsql::Session> reader;
      {
        ScopedSpan s(log, kSession, root, r);
        reader.emplace(snap->db.get(), conn.options(), snap->views.get(),
                       &plans);
      }
      // The server's session keys its cache by normalized text and
      // typing mode (Session::CacheKey with default options).
      const std::string key = xsql::PlanCache::NormalizeText(op.text) +
                              "|strict";
      const uint64_t version = snap->db->version();
      bool hit;
      {
        ScopedSpan s(log, kPlanLookup, root, r);
        hit = plans.Lookup(key, version) != nullptr;
      }
      if (!hit) {
        auto prepared = std::make_shared<xsql::PreparedPlan>();
        prepared->db_version = version;
        xsql::Result<xsql::Statement> stmt =
            xsql::Status::RuntimeError("not parsed");
        {
          ScopedSpan s(log, kParse, root, r);
          stmt = xsql::ParseAndResolve(op.text, *snap->db);
        }
        if (stmt.ok() && stmt->query != nullptr &&
            stmt->query->simple != nullptr) {
          ScopedSpan s(log, kPrepare, root, r);
          prepared->stmt = std::move(*stmt);
          const xsql::Query& query = *prepared->stmt.query->simple;
          xsql::TypeChecker checker(*snap->db);
          prepared->typing = checker.Check(query, conn.options().typing_mode,
                                           conn.options().exemptions);
          prepared->has_typing = true;
          xsql::Planner planner(*snap->db, conn.options().indexes);
          const xsql::RangeMap* ranges =
              prepared->typing.well_typed && prepared->typing.in_fragment
                  ? &prepared->typing.ranges
                  : nullptr;
          prepared->plan = planner.Plan(query, ranges);
          prepared->has_plan = true;
          plans.Insert(key, std::move(prepared));
        }
      }
      xsql::Result<xsql::EvalOutput> out =
        xsql::Status::RuntimeError("not executed");
      {
        ScopedSpan s(log, kExecute, root, r);
        out = reader->ExecuteReadOnly(op.text);
      }
      {
        ScopedSpan s(log, kRender, root, r);
        dd_.dedup().Abandon(rid);
        if (out.ok()) reply = xsql::RenderEvalOutput(*out);
      }
      log.Close(root);
      std::string why;
      if (!out.ok()) {
        fail("replay: " + op.text + ": " + out.status().ToString());
      } else if (!instance_->CheckReply(op, reply, &why)) {
        fail("replay: wrong answer: " + why);
      }
      continue;
    }

    ++report.writes;
    if (mode != StatementMode::kWrite) {
      dd_.dedup().Abandon(rid);
      log.Close(root);
      fail("replay: a write did not classify as a write: " + op.text);
      continue;
    }
    {
      ScopedSpan s(log, kLatch, root, r);
      xsql::Status st = latch_.AcquireExclusive(limits, cancel);
      if (!st.ok()) fail("replay: latch: " + st.ToString());
    }
    uint64_t ticket = 0;
    xsql::Result<xsql::EvalOutput> out =
        xsql::Status::RuntimeError("not executed");
    {
      ScopedSpan s(log, kApply, root, r);
      out = dd_.ExecuteForCommit(&conn, op.text, &committer_, &ticket, &rid);
    }
    {
      // Database::Fork's first step: the fork must be born with a warm
      // active domain, so a commit rebuilds it here. Its own span, so
      // the rebuild is not hidden inside the fork.
      ScopedSpan s(log, kActiveDomain, root, r);
      (void)dd_.db().ActiveDomain();
    }
    std::shared_ptr<xsql::storage::DatabaseVersion> next;
    if (ticket != 0) {
      ScopedSpan s(log, kFork, root, r);
      std::unique_ptr<xsql::Database> db = dd_.db().Fork();
      dd_.db().BeginNewEpoch();
      auto views = std::make_unique<xsql::ViewManager>(
          db.get(), dd_.session().views());
      next = chain_.Prepare(std::move(db), std::move(views));
    }
    latch_.ReleaseExclusive();
    xsql::Status durable = xsql::Status::OK();
    if (ticket != 0) {
      ScopedSpan s(log, kCommitWait, root, r);
      durable = committer_.WaitDurable(ticket);
    }
    {
      ScopedSpan s(log, kInstall, root, r);
      if (ticket != 0 && durable.ok()) {
        chain_.Install(std::move(next));
        dd_.dedup().Complete(rid, xsql::RenderEvalOutput(*out));
      } else {
        dd_.dedup().Abandon(rid);
      }
    }
    if (!out.ok() || ticket == 0 || !durable.ok()) {
      log.Close(root);
      fail("replay: write not committed: " + op.text + ": " +
           (out.ok() ? durable.ToString() : out.status().ToString()));
      continue;
    }
    if (spec.checkpoint_every != 0 &&
        ++writes_since_checkpoint_ >= spec.checkpoint_every) {
      // ConcurrencyManager::Checkpoint: drain, rotate, rebind, warm.
      writes_since_checkpoint_ = 0;
      ++report.checkpoints;
      ScopedSpan s(log, kCheckpoint, root, r);
      xsql::Status st = latch_.AcquireExclusive(xsql::ExecLimits{}, nullptr);
      if (st.ok()) st = committer_.Drain();
      if (st.ok()) st = dd_.Checkpoint();
      if (st.ok()) committer_.Rebind(dd_.wal());
      (void)dd_.db().ActiveDomain();
      latch_.ReleaseExclusive();
      if (!st.ok()) fail("replay: checkpoint: " + st.ToString());
    }
    log.Close(root);
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  report.requests = requests.size();
  report.session_prepares = session_prepares.value() - prepares_before;
  report.requests_per_s = report.requests / elapsed;
  if (!traced) return report;

  // Self time of every span, then the per-layer means.
  const std::vector<SpanRec>& spans = log.spans();
  std::vector<SpanTimes> times;
  times.reserve(spans.size());
  for (const SpanRec& s : spans) {
    times.push_back({s.start_ns, s.end_ns, s.parent});
  }
  const std::vector<int64_t> self = SelfTimes(times);

  std::vector<double> by_name(kSpanNames, 0);
  std::vector<double> read_roots;
  std::vector<std::vector<double>> execute_by_template(
      instance_->templates().size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const double self_us = static_cast<double>(self[i]) / 1000.0;
    by_name[s.name] += self_us;
    const RequestRec& req = requests[s.request];
    if (s.name == kRequest && req.kind == OpKind::kRead) {
      read_roots.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                           1000.0);
    }
    if (s.name == kExecute) {
      execute_by_template[static_cast<size_t>(req.tmpl)].push_back(self_us);
    }
  }
  for (const Layer& layer : kLayers) {
    double sum = 0;
    for (SpanName n : layer.spans) sum += by_name[n];
    double per = 0;
    switch (layer.per) {
      case Per::kRequest: per = static_cast<double>(report.requests); break;
      case Per::kRead: per = static_cast<double>(report.reads); break;
      case Per::kWrite: per = static_cast<double>(report.writes); break;
      case Per::kCheckpoint:
        per = static_cast<double>(report.checkpoints);
        break;
    }
    report.layer_us[layer.metric] = Ratio(sum, per);
  }
  // eval.read_us: ExecuteReadOnly's p50 per template, averaged over the
  // templates the run drew.
  double template_sum = 0;
  size_t template_count = 0;
  for (const std::vector<double>& v : execute_by_template) {
    if (v.empty()) continue;
    template_sum += Median(v);
    ++template_count;
  }
  report.layer_us["eval.read_us"] = Ratio(template_sum, template_count);
  report.request_read_p50_us = Median(read_roots);

  // Spans go to disk only now, at the end of the run.
  std::ofstream req_out(spans_prefix + ".requests.tsv");
  req_out << "request\tuuid\tseq\tkind\ttemplate\n";
  for (size_t i = 0; i < requests.size(); ++i) {
    const RequestRec& q = requests[i];
    req_out << i << '\t' << Hex(uuids[static_cast<size_t>(q.conn)]) << '\t'
            << q.seq << '\t'
            << (q.kind == OpKind::kRead
                    ? "read\t" +
                          instance_->templates()[static_cast<size_t>(q.tmpl)].id
                    : std::string("write\tupdate"))
            << '\n';
  }
  std::ofstream span_out(spans_prefix + ".spans.tsv");
  span_out << "request\tspan\tparent\tstart_ns\tend_ns\tself_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    span_out << s.request << '\t' << kSpanNameText[s.name] << '\t'
             << s.parent << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
             << self[i] << '\n';
  }
  return report;
}

}  // namespace perfbench
