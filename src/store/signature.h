#ifndef XSQL_STORE_SIGNATURE_H_
#define XSQL_STORE_SIGNATURE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "oid/oid.h"
#include "store/class_graph.h"

namespace xsql {

/// One declared signature `Mthd : Arg1,...,Argk => Result` attached to a
/// class (§2 "Types", §6.1).
///
/// Attributes are 0-ary methods, so `attr => class` is just a Signature
/// with empty `args`. A method may carry several signatures, even for the
/// same argument classes (`workstudy : semester ->> {student, employee}`
/// is stored as two signatures).
struct Signature {
  Oid method;             // method-name oid (an atom)
  std::vector<Oid> args;  // argument classes, excluding the receiver
  Oid result;             // result class
  bool set_valued = false;

  bool operator==(const Signature& other) const {
    return method == other.method && args == other.args &&
           result == other.result && set_valued == other.set_valued;
  }

  /// Paper rendering, e.g. `Mthd : A,B => R` or `attr =>> R`.
  std::string ToString() const;
};

/// All signature declarations of a schema, indexed by declaring class.
///
/// Implements *structural inheritance* (§6.1, covariance): the signatures
/// of method M in class C' are all signatures declared for M in C' plus
/// all signatures declared in every ancestor of C'. Signatures are never
/// overridden, only accumulated — overriding applies to behaviour, not to
/// types.
class SignatureStore {
 public:
  /// Declares `sig` on `cls`.
  Status Add(const Oid& cls, Signature sig);

  /// Signatures of `method` declared *directly* on `cls`.
  std::vector<Signature> Declared(const Oid& cls, const Oid& method) const;

  /// All signatures of `method` visible in `cls` under structural
  /// inheritance: declared on `cls` or any ancestor.
  std::vector<Signature> Inherited(const ClassGraph& graph, const Oid& cls,
                                   const Oid& method) const;

  /// All method names with at least one signature visible in `cls`
  /// (declared or inherited).
  OidSet VisibleMethods(const ClassGraph& graph, const Oid& cls) const;

  /// All method names declared directly on `cls`.
  OidSet DeclaredMethods(const Oid& cls) const;

  /// Every (declaring class, signature) pair for `method`, across the
  /// whole schema. Used by the typing module to enumerate the candidate
  /// type expressions a method occurrence may be assigned.
  std::vector<std::pair<Oid, Signature>> AllFor(const Oid& method) const;

  /// All classes that declare at least one signature.
  std::vector<Oid> DeclaringClasses() const;

 private:
  // class -> its declared signatures.
  std::unordered_map<Oid, std::vector<Signature>, OidHash> by_class_;
};

}  // namespace xsql

#endif  // XSQL_STORE_SIGNATURE_H_
