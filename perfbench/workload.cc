#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "ast/ast.h"
#include "eval/evaluator.h"
#include "eval/session.h"
#include "parser/parser.h"
#include "store/catalog.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace perfbench {

using xsql::Oid;
using xsql::Result;
using xsql::Status;

namespace {

const WorkloadSpec kWorkloads[] = {
    {"point_lookup", 64, 4, 0, 0,
     "100% reads: 50% SELECT S WHERE <emp>.Salary[S], "
     "50% SELECT C WHERE <emp>.Residence.City[C]; Zipfian keys"},
    {"path_analytics", 8, 2, 0, 0,
     "100% reads: uniform over Q3 Q4 Q5 Q6 Q7 Q8 Q10 Q11 Q12 and the two "
     "B16 =all joins"},
    {"mixed_rw", 4, 4, 2, 100,
     "2 writer connections: durable UPDATE CLASS Employee SET "
     "<emp>.Salary = <v> with request ids; 2 reader connections: the "
     "point_lookup templates; Zipfian keys"},
};

/// The paper templates of bench_paper_queries (Q3-Q12) and the two B16
/// `=all` joins of bench_exec.
const std::pair<const char*, const char*> kAnalyticTemplates[] = {
    {"Q3_selection",
     "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']"},
    {"Q4_deep_path",
     "SELECT Z FROM Employee X, Automobile Y "
     "WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]"},
    {"Q5_attr_variable",
     "SELECT \"Y FROM Person X WHERE X.\"Y.City['newyork']"},
    {"Q6_schema", "SELECT $X WHERE TurboEngine subclassOf $X"},
    {"Q7_some_gt", "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20"},
    {"Q8_contains_eq",
     "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] "
     "and X.President.OwnedVehicles.Color containsEq {'blue', 'red'} "
     "and X.President.Age < 30"},
    {"Q10_aggregate",
     "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 "
     "and X.Salary < 35000"},
    {"Q11_relation",
     "SELECT X.Name, W.Salary FROM Company X "
     "WHERE X.Divisions.Employees[W]"},
    {"Q12_explicit_join",
     "SELECT X, Y FROM Company X "
     "WHERE X.Name =some X.Divisions.Employees[Y].Name"},
    {"B16_W0_all_self_join",
     "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =all Y.Salary"},
    {"B16_W1_all_cross_join",
     "SELECT X, Y FROM Employee X, Person Y WHERE X.Salary =all Y.Age"},
};

constexpr int kSalaryTemplate = 0;
constexpr int kCityTemplate = 1;

/// RunNaive enumerates every substitution over the active domain, so it
/// is only run where the substitution count stays below this.
constexpr double kNaiveBudget = 4e6;

std::string SalaryText(const std::string& key) {
  return "SELECT S WHERE " + key + ".Salary[S]";
}
std::string CityText(const std::string& key) {
  return "SELECT C WHERE " + key + ".Residence.City[C]";
}

std::string OneRowReply(const std::string& column, const Oid& value) {
  return column + "\n" + value.ToString() + "\n(1 rows)\n";
}

/// The naive evaluator's substitution count for `query` on `db`.
double NaiveCost(const xsql::Query& query, const xsql::Database& db) {
  double cost = 1;
  for (const xsql::Variable& v : xsql::CollectVariables(query)) {
    switch (v.sort) {
      case xsql::VarSort::kClass:
        cost *= static_cast<double>(
            db.graph().Extent(xsql::builtin::MetaClass()).size());
        break;
      case xsql::VarSort::kMethod:
        cost *= static_cast<double>(
            db.graph().Extent(xsql::builtin::MetaMethod()).size());
        break;
      default:
        cost *= static_cast<double>(db.ActiveDomain().size());
        break;
    }
  }
  return cost;
}

Result<std::string> NaiveAnswer(xsql::Database* db, const std::string& text) {
  XSQL_ASSIGN_OR_RETURN(xsql::Statement stmt, xsql::ParseAndResolve(text, *db));
  if (stmt.query == nullptr || stmt.query->simple == nullptr) {
    return Status::InvalidArgument("not a simple query: " + text);
  }
  xsql::Evaluator naive(db);
  XSQL_ASSIGN_OR_RETURN(xsql::EvalOutput out,
                        naive.RunNaive(*stmt.query->simple));
  return Canonical(xsql::RenderEvalOutput(out));
}

Result<std::string> TupleAnswer(xsql::Database* db, const std::string& text) {
  xsql::SessionOptions options;
  options.exec_batch = false;
  options.plan_cache_capacity = 0;
  xsql::Session tuple(db, options);
  XSQL_ASSIGN_OR_RETURN(xsql::EvalOutput out, tuple.Execute(text));
  return Canonical(xsql::RenderEvalOutput(out));
}

Result<double> NaiveCostOf(const xsql::Database& db, const std::string& text) {
  XSQL_ASSIGN_OR_RETURN(xsql::Statement stmt, xsql::ParseAndResolve(text, db));
  if (stmt.query == nullptr || stmt.query->simple == nullptr) {
    return Status::InvalidArgument("not a simple query: " + text);
  }
  return NaiveCost(*stmt.query->simple, db);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Status BuildInstanceDir(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& dir, double* generate_s) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  XSQL_ASSIGN_OR_RETURN(std::unique_ptr<xsql::storage::DurableDatabase> dd,
                        xsql::storage::DurableDatabase::Open(dir));
  XSQL_RETURN_IF_ERROR(xsql::workload::BuildFig1Schema(&dd->db()));
  xsql::workload::WorkloadParams params;
  params.seed = seed;
  params = params.Scaled(spec.scale);
  const auto start = std::chrono::steady_clock::now();
  XSQL_RETURN_IF_ERROR(
      xsql::workload::GenerateFig1Data(&dd->db(), params).status());
  *generate_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return dd->Checkpoint();
}

std::string Canonical(const std::string& reply) {
  std::vector<std::string> lines;
  std::istringstream in(reply);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // Header first, "(n rows)" last; rows in between in any order.
  if (lines.size() >= 2) {
    std::sort(lines.begin() + 1, lines.end() - 1);
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

std::array<uint8_t, 16> ConnectionUuid(uint64_t seed, int conn) {
  SplitMix mix(StreamSeed(seed, 1000 + static_cast<uint64_t>(conn)));
  std::array<uint8_t, 16> uuid{};
  for (size_t i = 0; i < uuid.size(); i += 8) {
    const uint64_t word = mix.Next();
    for (size_t b = 0; b < 8; ++b) uuid[i + b] = (word >> (8 * b)) & 0xff;
  }
  return uuid;
}

std::string Instance::SalaryReply(const Oid& value) {
  return OneRowReply("S", value);
}

Result<std::unique_ptr<Instance>> Instance::Load(const WorkloadSpec& spec,
                                                 uint64_t seed,
                                                 const std::string& dir) {
  std::unique_ptr<Instance> inst(new Instance());
  inst->spec_ = spec;
  XSQL_ASSIGN_OR_RETURN(inst->dd_, xsql::storage::DurableDatabase::Open(dir));
  xsql::Database& db = inst->dd_->db();

  // Generated employees only (emp_<company>_<division>_<n>): the named
  // individuals of the paper's examples are not keys.
  for (const Oid& emp : db.graph().Extent(xsql::workload::fig1::Employee())) {
    const std::string name = emp.ToString();
    if (name.rfind("emp_", 0) == 0) inst->keys_.push_back(name);
  }
  std::sort(inst->keys_.begin(), inst->keys_.end());
  SplitMix shuffle(StreamSeed(seed, 1));
  for (size_t i = inst->keys_.size(); i > 1; --i) {
    std::swap(inst->keys_[i - 1], inst->keys_[shuffle.Below(i)]);
  }
  const Oid salary = Oid::Atom("Salary");
  const Oid residence = Oid::Atom("Residence");
  const Oid city = Oid::Atom("City");
  for (const std::string& key : inst->keys_) {
    const Oid emp = Oid::Atom(key);
    const xsql::AttrValue* s = db.GetAttribute(emp, salary);
    const xsql::AttrValue* r = db.GetAttribute(emp, residence);
    const xsql::AttrValue* c =
        r == nullptr ? nullptr : db.GetAttribute(r->scalar(), city);
    if (s == nullptr || c == nullptr) {
      return Status::RuntimeError("generated employee " + key +
                                  " lacks Salary or Residence.City");
    }
    inst->salary_.push_back(s->scalar());
    inst->city_.push_back(c->scalar());
  }
  if (inst->keys_.empty()) {
    return Status::RuntimeError("instance has no generated employees");
  }

  if (spec.name == "path_analytics") {
    XSQL_RETURN_IF_ERROR(inst->BuildAnalyticsOracle(seed));
  } else {
    inst->templates_ = {{"salary", SalaryText("<emp>"), "", "instance"},
                        {"city", CityText("<emp>"), "", "instance"}};
  }
  return inst;
}

Status Instance::BuildAnalyticsOracle(uint64_t seed) {
  xsql::Database& db = dd_->db();
  // The small instance the tuple oracle is cross-checked on.
  xsql::Database small;
  XSQL_RETURN_IF_ERROR(xsql::workload::BuildFig1Schema(&small));
  xsql::workload::WorkloadParams params;
  params.seed = seed;
  XSQL_RETURN_IF_ERROR(
      xsql::workload::GenerateFig1Data(&small, params).status());

  for (const auto& [id, text] : kAnalyticTemplates) {
    Template t{id, text, "", ""};
    XSQL_ASSIGN_OR_RETURN(double cost, NaiveCostOf(db, text));
    if (cost <= kNaiveBudget) {
      XSQL_ASSIGN_OR_RETURN(t.expected, NaiveAnswer(&db, text));
      t.oracle = "naive";
    } else {
      XSQL_ASSIGN_OR_RETURN(t.expected, TupleAnswer(&db, text));
      t.oracle = "tuple";
      XSQL_ASSIGN_OR_RETURN(double small_cost, NaiveCostOf(small, text));
      if (small_cost <= kNaiveBudget) {
        XSQL_ASSIGN_OR_RETURN(std::string naive, NaiveAnswer(&small, text));
        XSQL_ASSIGN_OR_RETURN(std::string tuple, TupleAnswer(&small, text));
        if (naive != tuple) {
          return Status::RuntimeError(
              "oracle check: the tuple evaluator disagrees with RunNaive "
              "at scale 1 on " + std::string(id));
        }
        t.oracle = "tuple, checked against naive at scale 1";
      }
    }
    templates_.push_back(std::move(t));
  }
  return Status::OK();
}

bool Instance::CheckReply(const Op& op, const std::string& reply,
                          std::string* why) const {
  if (op.kind == OpKind::kWrite) return true;  // a kResult is the ack
  std::string expected;
  if (spec_.name == "path_analytics") {
    expected = templates_[op.tmpl].expected;
    if (Canonical(reply) == expected) return true;
  } else if (op.tmpl == kCityTemplate) {
    expected = OneRowReply("C", city_[op.key]);
    if (reply == expected) return true;
  } else if (spec_.writers > 0) {
    // Writers move salaries; any value they could have written is right.
    const std::string prefix = "S\n";
    const std::string suffix = "\n(1 rows)\n";
    if (reply.size() > prefix.size() + suffix.size() &&
        reply.compare(0, prefix.size(), prefix) == 0 &&
        reply.compare(reply.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      const std::string digits = reply.substr(
          prefix.size(), reply.size() - prefix.size() - suffix.size());
      char* end = nullptr;
      const long long v = std::strtoll(digits.c_str(), &end, 10);
      if (end != nullptr && *end == '\0' && v >= 20000 && v < 120000) {
        return true;
      }
    }
    expected = "S\n<a salary in [20000, 120000)>\n(1 rows)\n";
  } else {
    expected = SalaryReply(salary_[op.key]);
    if (reply == expected) return true;
  }
  *why = "statement: " + op.text + "\nexpected:\n" + expected + "got:\n" +
         reply;
  return false;
}

Stream::Stream(const Instance& instance, uint64_t seed, int conn)
    : instance_(instance),
      writer_(conn < instance.spec().writers),
      writer_index_(conn),
      writers_(instance.spec().writers),
      rng_(StreamSeed(seed, 100 + static_cast<uint64_t>(conn))),
      zipf_(writer_ ? (instance.keys().size() - static_cast<size_t>(conn) +
                       static_cast<size_t>(writers_) - 1) /
                          static_cast<size_t>(writers_)
                    : instance.keys().size(),
            kZipfTheta) {}

Op Stream::Next() {
  Op op;
  const std::vector<std::string>& keys = instance_.keys();
  if (writer_) {
    // Writer w owns keys w, w + W, w + 2W, ...: each key has one writer,
    // so its last acknowledged value is well defined for the durability
    // check.
    op.kind = OpKind::kWrite;
    op.key = static_cast<size_t>(writer_index_) +
             static_cast<size_t>(writers_) * zipf_.Sample(rng_);
    op.value = 20000 + static_cast<int64_t>(rng_.Below(100000));
    op.text = "UPDATE CLASS Employee SET " + keys[op.key] +
              ".Salary = " + std::to_string(op.value);
    return op;
  }
  if (instance_.spec().name == "path_analytics") {
    // Uniform over the templates, dealt from shuffled decks: every
    // template appears once per deck, so a run's mix never drifts from
    // uniform by more than one deck.
    if (deck_.empty()) {
      for (size_t i = 0; i < instance_.templates().size(); ++i) {
        deck_.push_back(static_cast<int>(i));
      }
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.Below(i)]);
      }
    }
    op.tmpl = deck_.back();
    deck_.pop_back();
    op.text = instance_.templates()[op.tmpl].text;
    return op;
  }
  op.key = zipf_.Sample(rng_);
  op.tmpl = rng_.Below(2) == 0 ? kSalaryTemplate : kCityTemplate;
  op.text = op.tmpl == kSalaryTemplate ? SalaryText(keys[op.key])
                                       : CityText(keys[op.key]);
  return op;
}

}  // namespace perfbench
