#ifndef XSQL_OID_OID_H_
#define XSQL_OID_OID_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace xsql {

/// The syntactic category of a logical object id (§2, "Objects and object
/// identity").
///
/// Logical oids are *terms in the query language*: atoms such as
/// `mary123`, literals such as `20` or `'Ford Motor Co.'` (a number or a
/// string is the logical id of the abstract object with the usual
/// properties of that number/string), the special object `nil` (§5), and
/// functional *id-terms* `f(t1,...,tn)` built from id-functions [KW89],
/// which the language uses to mint ids for view/query-result objects (§4).
enum class OidKind : uint8_t {
  kNil = 0,
  kBool,
  kInt,
  kReal,
  kString,
  kAtom,
  kTerm,
};

/// An immutable logical object id.
///
/// `Oid` is a 16-byte trivially copyable value: a kind tag and one
/// payload word. Booleans, integers and reals are held inline. Strings,
/// atoms and id-terms are *interned*: the payload points at the one
/// process-wide `Rep` for that value, so equality is a pointer compare
/// and `Hash()` a load. Reps are never freed (see `InternedCount`).
/// Oids are totally ordered (kind-major, then value: strings and atoms
/// lexicographically, id-terms structurally) so they can key sorted
/// containers. Identity of the *object* is identity of the logical id;
/// two distinct ids may denote the same conceptual entity (the paper
/// explicitly permits `_mary65 == secretary(dept77)` at the conceptual
/// level), but the store — like the paper's semantics — works with
/// logical ids.
class Oid {
 public:
  /// Default-constructs `nil`.
  Oid() : kind_(OidKind::kNil), int_(0) {}

  static Oid Nil() { return Oid(); }
  static Oid Bool(bool b);
  static Oid Int(int64_t v);
  static Oid Real(double v);
  static Oid String(std::string s);
  static Oid Atom(std::string name);
  /// Functional id-term `fn(args...)`. `fn` is the id-function symbol.
  /// A real argument is stored canonically (-0.0 as 0, every NaN as
  /// the quiet NaN), because equal ids must intern to one Rep.
  static Oid Term(std::string fn, std::vector<Oid> args);

  OidKind kind() const { return kind_; }
  bool is_nil() const { return kind_ == OidKind::kNil; }
  bool is_bool() const { return kind_ == OidKind::kBool; }
  bool is_int() const { return kind_ == OidKind::kInt; }
  bool is_real() const { return kind_ == OidKind::kReal; }
  bool is_string() const { return kind_ == OidKind::kString; }
  bool is_atom() const { return kind_ == OidKind::kAtom; }
  bool is_term() const { return kind_ == OidKind::kTerm; }
  /// Int or Real.
  bool is_numeric() const { return is_int() || is_real(); }

  bool bool_value() const { return int_ != 0; }
  int64_t int_value() const { return int_; }
  double real_value() const { return real_; }
  /// Numeric value as double (valid when is_numeric()).
  double numeric_value() const { return is_int() ? static_cast<double>(int_) : real_; }
  /// String payload (valid for kString and kAtom).
  inline const std::string& str() const;
  /// Function symbol of an id-term (valid for kTerm).
  inline const std::string& term_fn() const;
  /// Argument list of an id-term (valid for kTerm).
  inline const std::vector<Oid>& term_args() const;

  /// Structural equality of logical ids.
  bool operator==(const Oid& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
      case OidKind::kNil:
        return true;
      case OidKind::kBool:
      case OidKind::kInt:
        return int_ == other.int_;
      case OidKind::kReal:
        return Compare(other) == 0;
      default:
        return rep_ == other.rep_;
    }
  }
  bool operator!=(const Oid& other) const { return !(*this == other); }
  /// Total order: kind-major, then value; for use in sorted containers.
  bool operator<(const Oid& other) const { return Compare(other) < 0; }
  /// Three-way structural comparison (-1/0/+1).
  int Compare(const Oid& other) const;

  inline size_t Hash() const;

  /// Renders the id the way the paper writes it: atoms bare, strings in
  /// single quotes, id-terms as `f(a,b)`.
  std::string ToString() const;

  /// Distinct interned strings, atoms and id-terms in this process, and
  /// their approximate footprint in bytes (also the gauges
  /// `xsql.oid.interned` and `xsql.oid.interned_bytes`).
  static size_t InternedCount();
  static size_t InternedBytes();

  /// The shared body of an interned string, atom or id-term.
  struct Rep {
    OidKind kind;
    /// Hash() of the oid, computed once at interning.
    size_t hash;
    /// The string or atom text, or the id-term's function symbol.
    std::string text;
    std::vector<Oid> args;
  };

 private:
  bool interned() const { return kind_ >= OidKind::kString; }
  /// Hash() of an inline (nil, bool, int or real) oid.
  size_t ScalarHash() const;
  static Oid Interned(OidKind kind, std::string text, std::vector<Oid> args);

  OidKind kind_;
  union {
    int64_t int_;  // also stores bool
    double real_;
    const Rep* rep_;
  };
};

static_assert(sizeof(Oid) == 16, "Oid is a tag and one payload word");
static_assert(std::is_trivially_copyable_v<Oid>);

const std::string& Oid::str() const { return rep_->text; }
const std::string& Oid::term_fn() const { return rep_->text; }
const std::vector<Oid>& Oid::term_args() const { return rep_->args; }
size_t Oid::Hash() const { return interned() ? rep_->hash : ScalarHash(); }

/// Hash functor for unordered containers keyed by Oid.
struct OidHash {
  size_t operator()(const Oid& oid) const { return oid.Hash(); }
};

/// A set of oids as a sorted, deduplicated vector.
///
/// Attribute values, path-expression values, and query answers are all
/// oid sets; sorted vectors keep them cache-friendly and make set algebra
/// (union/intersection/difference, §3.2) linear merges.
class OidSet {
 public:
  OidSet() = default;
  explicit OidSet(std::vector<Oid> elems);

  void Insert(const Oid& oid);
  bool Contains(const Oid& oid) const;
  bool empty() const { return elems_.empty(); }
  size_t size() const { return elems_.size(); }
  const std::vector<Oid>& elems() const { return elems_; }
  auto begin() const { return elems_.begin(); }
  auto end() const { return elems_.end(); }

  bool operator==(const OidSet& other) const { return elems_ == other.elems_; }

  /// True if every element of this set is in `other` (subsetEq).
  bool SubsetOf(const OidSet& other) const;

  static OidSet Union(const OidSet& a, const OidSet& b);
  static OidSet Intersect(const OidSet& a, const OidSet& b);
  static OidSet Difference(const OidSet& a, const OidSet& b);

  std::string ToString() const;

 private:
  std::vector<Oid> elems_;
};

}  // namespace xsql

#endif  // XSQL_OID_OID_H_
