#include "store/catalog.h"

#include "store/database.h"

namespace xsql {

namespace builtin {

// Interned once: every later call is a 16-byte copy.
Oid Object() {
  static const Oid oid = Oid::Atom("Object");
  return oid;
}
Oid Numeral() {
  static const Oid oid = Oid::Atom("Numeral");
  return oid;
}
Oid String() {
  static const Oid oid = Oid::Atom("String");
  return oid;
}
Oid Boolean() {
  static const Oid oid = Oid::Atom("Boolean");
  return oid;
}
Oid NilClass() {
  static const Oid oid = Oid::Atom("Nil");
  return oid;
}
Oid MetaClass() {
  static const Oid oid = Oid::Atom("Class");
  return oid;
}
Oid MetaMethod() {
  static const Oid oid = Oid::Atom("Method");
  return oid;
}

std::vector<Oid> All() {
  return {Object(),   Numeral(),   String(),    Boolean(),
          NilClass(), MetaClass(), MetaMethod()};
}

}  // namespace builtin

namespace catalog {

OidSet AttributesOf(const Database& db, const Oid& cls) {
  return db.signatures().VisibleMethods(db.graph(), cls);
}

std::vector<Oid> ClassesDeclaring(const Database& db, const Oid& method) {
  std::vector<Oid> out;
  for (const auto& [cls, sig] : db.signatures().AllFor(method)) {
    bool dup = false;
    for (const Oid& have : out) {
      if (have == cls) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(cls);
  }
  return out;
}

OidSet MethodNameUniverse(const Database& db) {
  return db.graph().Extent(builtin::MetaMethod());
}

OidSet ClassUniverse(const Database& db) {
  return db.graph().Extent(builtin::MetaClass());
}

std::string DumpSchema(const Database& db) {
  std::string out;
  for (const Oid& cls : db.graph().classes()) {
    out += "class ";
    out += cls.ToString();
    auto supers = db.graph().DirectSuperclasses(cls);
    if (!supers.empty()) {
      out += " isa ";
      for (size_t i = 0; i < supers.size(); ++i) {
        if (i > 0) out += ", ";
        out += supers[i].ToString();
      }
    }
    out += '\n';
    for (const Oid& method : db.signatures().DeclaredMethods(cls)) {
      for (const Signature& sig : db.signatures().Declared(cls, method)) {
        out += "  ";
        out += sig.ToString();
        out += '\n';
      }
    }
  }
  return out;
}

}  // namespace catalog

}  // namespace xsql
