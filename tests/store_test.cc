#include <gtest/gtest.h>

#include "store/catalog.h"
#include "store/database.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

TEST(ClassGraphTest, DeclareAndSubclass) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Employee"), A("Person")).ok());
  EXPECT_TRUE(graph.IsClass(A("Employee")));
  EXPECT_TRUE(graph.IsClass(A("Person")));
  EXPECT_TRUE(graph.IsStrictSubclass(A("Employee"), A("Person")));
  EXPECT_FALSE(graph.IsStrictSubclass(A("Person"), A("Employee")));
  // subclassOf is strict (§3.1).
  EXPECT_FALSE(graph.IsStrictSubclass(A("Person"), A("Person")));
  EXPECT_TRUE(graph.IsSubclassEq(A("Person"), A("Person")));
}

TEST(ClassGraphTest, TransitiveSubclass) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Turbo"), A("FourStroke")).ok());
  ASSERT_TRUE(graph.AddSubclass(A("FourStroke"), A("Piston")).ok());
  EXPECT_TRUE(graph.IsStrictSubclass(A("Turbo"), A("Piston")));
  OidSet ancestors = graph.Ancestors(A("Turbo"));
  EXPECT_TRUE(ancestors.Contains(A("FourStroke")));
  EXPECT_TRUE(ancestors.Contains(A("Piston")));
  EXPECT_EQ(ancestors.size(), 2u);
  OidSet descendants = graph.Descendants(A("Piston"));
  EXPECT_TRUE(descendants.Contains(A("Turbo")));
}

TEST(ClassGraphTest, RejectsCycles) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("B"), A("A")).ok());
  ASSERT_TRUE(graph.AddSubclass(A("C"), A("B")).ok());
  EXPECT_FALSE(graph.AddSubclass(A("A"), A("C")).ok());
  EXPECT_FALSE(graph.AddSubclass(A("A"), A("A")).ok());
}

TEST(ClassGraphTest, InstancesAndExtents) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Employee"), A("Person")).ok());
  ASSERT_TRUE(graph.AddInstance(A("john"), A("Employee")).ok());
  ASSERT_TRUE(graph.AddInstance(A("mary"), A("Person")).ok());
  // Membership closes upward, not downward.
  EXPECT_TRUE(graph.IsInstanceOf(A("john"), A("Person")));
  EXPECT_FALSE(graph.IsInstanceOf(A("mary"), A("Employee")));
  EXPECT_EQ(graph.DirectExtent(A("Person")).size(), 1u);
  EXPECT_EQ(graph.Extent(A("Person")).size(), 2u);
}

TEST(ClassGraphTest, RemoveInstance) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddInstance(A("x"), A("C")).ok());
  EXPECT_TRUE(graph.IsInstanceOf(A("x"), A("C")));
  graph.RemoveInstance(A("x"), A("C"));
  EXPECT_FALSE(graph.IsInstanceOf(A("x"), A("C")));
  EXPECT_TRUE(graph.Extent(A("C")).empty());
}

TEST(ClassGraphTest, CommonSubclassAndSubrange) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Employee"), A("Person")).ok());
  ASSERT_TRUE(graph.AddSubclass(A("Company"), A("Org")).ok());
  // {Person, Company}: no common subclass (the §6.2 emptiness example).
  EXPECT_FALSE(graph.HaveCommonSubclass({A("Person"), A("Company")}));
  EXPECT_TRUE(graph.HaveCommonSubclass({A("Person"), A("Employee")}));
  EXPECT_TRUE(graph.HaveCommonSubclass({A("Person")}));
  // Subrange: {Employee} is a subrange of Person.
  EXPECT_TRUE(graph.IsSubrange({A("Employee")}, A("Person")));
  EXPECT_FALSE(graph.IsSubrange({A("Person")}, A("Employee")));
  // Vacuous subrange when the range is empty.
  EXPECT_TRUE(graph.IsSubrange({A("Person"), A("Company")}, A("Employee")));
}

TEST(ObjectTest, ScalarAndSetAttributes) {
  Object obj(A("john"));
  obj.SetScalar(A("Age"), Oid::Int(30));
  ASSERT_NE(obj.Get(A("Age")), nullptr);
  EXPECT_EQ(obj.Get(A("Age"))->scalar(), Oid::Int(30));
  EXPECT_EQ(obj.Get(A("Missing")), nullptr);
  ASSERT_TRUE(obj.AddToSet(A("Kids"), A("kid1")).ok());
  ASSERT_TRUE(obj.AddToSet(A("Kids"), A("kid2")).ok());
  EXPECT_EQ(obj.Get(A("Kids"))->set().size(), 2u);
  // Adding to a scalar attribute is an error.
  EXPECT_FALSE(obj.AddToSet(A("Age"), Oid::Int(1)).ok());
  obj.Remove(A("Age"));
  EXPECT_EQ(obj.Get(A("Age")), nullptr);
}

TEST(ObjectTest, AttrValueAsSet) {
  AttrValue scalar = AttrValue::Scalar(Oid::Int(1));
  EXPECT_EQ(scalar.AsSet().size(), 1u);
  AttrValue set = AttrValue::Set(OidSet({Oid::Int(1), Oid::Int(2)}));
  EXPECT_EQ(set.AsSet().size(), 2u);
}

TEST(SignatureTest, StructuralInheritanceAccumulates) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Student")).ok());
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Employee")).ok());
  SignatureStore sigs;
  // The paper's earns example: two incomparable signatures.
  Signature earns_student{A("earns"), {A("course")}, A("grade"), false};
  Signature earns_employee{A("earns"), {A("project")}, A("pay"), false};
  ASSERT_TRUE(sigs.Add(A("Student"), earns_student).ok());
  ASSERT_TRUE(sigs.Add(A("Employee"), earns_employee).ok());
  // Workstudy inherits both signatures (covariance, §6.1) — never
  // overridden, only accumulated.
  auto inherited = sigs.Inherited(graph, A("Workstudy"), A("earns"));
  EXPECT_EQ(inherited.size(), 2u);
  EXPECT_EQ(sigs.Declared(A("Workstudy"), A("earns")).size(), 0u);
  EXPECT_TRUE(
      sigs.VisibleMethods(graph, A("Workstudy")).Contains(A("earns")));
}

class CountBody : public MethodBody {
 public:
  explicit CountBody(std::string tag) : tag_(std::move(tag)) {}
  int arity() const override { return 0; }
  bool set_valued() const override { return false; }
  std::string kind() const override { return tag_; }

 private:
  std::string tag_;
};

TEST(MethodRegistryTest, OverridingPicksNearestDefinition) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Employee"), A("Person")).ok());
  MethodRegistry registry;
  ASSERT_TRUE(
      registry.Define(A("Person"), A("greet"), 0,
                      std::make_shared<CountBody>("person")).ok());
  ASSERT_TRUE(
      registry.Define(A("Employee"), A("greet"), 0,
                      std::make_shared<CountBody>("employee")).ok());
  auto via_employee = registry.Resolve(graph, {A("Employee")}, A("greet"), 0);
  ASSERT_TRUE(via_employee.ok());
  EXPECT_EQ(via_employee->defining_class, A("Employee"));
  auto via_person = registry.Resolve(graph, {A("Person")}, A("greet"), 0);
  ASSERT_TRUE(via_person.ok());
  EXPECT_EQ(via_person->defining_class, A("Person"));
}

TEST(MethodRegistryTest, ConflictRequiresExplicitResolution) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Student")).ok());
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Employee")).ok());
  MethodRegistry registry;
  ASSERT_TRUE(registry.Define(A("Student"), A("id"), 0,
                              std::make_shared<CountBody>("s")).ok());
  ASSERT_TRUE(registry.Define(A("Employee"), A("id"), 0,
                              std::make_shared<CountBody>("e")).ok());
  auto conflict = registry.Resolve(graph, {A("Workstudy")}, A("id"), 0);
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kRuntimeError);
  // [MEY88]: the schema resolves the conflict explicitly.
  ASSERT_TRUE(
      registry.ResolveConflict(A("Workstudy"), A("id"), A("Student")).ok());
  auto resolved = registry.Resolve(graph, {A("Workstudy")}, A("id"), 0);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->defining_class, A("Student"));
}

TEST(MethodRegistryTest, ConflictResolutionIsInheritedBySubclasses) {
  ClassGraph graph;
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Student")).ok());
  ASSERT_TRUE(graph.AddSubclass(A("Workstudy"), A("Employee")).ok());
  ASSERT_TRUE(graph.AddSubclass(A("TA"), A("Workstudy")).ok());
  ASSERT_TRUE(graph.AddSubclass(A("Tutor"), A("TA")).ok());
  MethodRegistry registry;
  ASSERT_TRUE(registry.Define(A("Student"), A("id"), 0,
                              std::make_shared<CountBody>("s")).ok());
  ASSERT_TRUE(registry.Define(A("Employee"), A("id"), 0,
                              std::make_shared<CountBody>("e")).ok());
  EXPECT_EQ(registry.Resolve(graph, {A("TA")}, A("id"), 0).status().code(),
            StatusCode::kRuntimeError);
  ASSERT_TRUE(
      registry.ResolveConflict(A("Workstudy"), A("id"), A("Student")).ok());
  for (const char* cls : {"Workstudy", "TA", "Tutor"}) {
    auto resolved = registry.Resolve(graph, {A(cls)}, A("id"), 0);
    ASSERT_TRUE(resolved.ok()) << cls << ": " << resolved.status().ToString();
    EXPECT_EQ(resolved->defining_class, A("Student")) << cls;
  }
  // The nearest recorded choice wins over one further up.
  ASSERT_TRUE(registry.ResolveConflict(A("TA"), A("id"), A("Employee")).ok());
  auto nearer = registry.Resolve(graph, {A("Tutor")}, A("id"), 0);
  ASSERT_TRUE(nearer.ok());
  EXPECT_EQ(nearer->defining_class, A("Employee"));
  auto own = registry.Resolve(graph, {A("Workstudy")}, A("id"), 0);
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->defining_class, A("Student"));
}

TEST(MethodRegistryTest, NotFoundWhenUndefined) {
  ClassGraph graph;
  MethodRegistry registry;
  auto missing = registry.Resolve(graph, {A("Person")}, A("greet"), 0);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, BuiltinsInstalled) {
  Database db;
  EXPECT_TRUE(db.graph().IsClass(builtin::Object()));
  EXPECT_TRUE(db.graph().IsStrictSubclass(builtin::Numeral(),
                                          builtin::Object()));
  // Classes are objects: instances of the meta-class Class.
  EXPECT_TRUE(
      db.graph().IsInstanceOf(builtin::Numeral(), builtin::MetaClass()));
}

TEST(DatabaseTest, LiteralsAreInstancesOfBuiltins) {
  Database db;
  EXPECT_TRUE(db.IsInstanceOf(Oid::Int(20), builtin::Numeral()));
  EXPECT_TRUE(db.IsInstanceOf(Oid::Int(20), builtin::Object()));
  EXPECT_TRUE(db.IsInstanceOf(Oid::String("x"), builtin::String()));
  EXPECT_TRUE(db.IsInstanceOf(Oid::Bool(true), builtin::Boolean()));
  EXPECT_TRUE(db.IsInstanceOf(Oid::Nil(), builtin::NilClass()));
  EXPECT_FALSE(db.IsInstanceOf(Oid::Int(20), builtin::String()));
}

TEST(DatabaseTest, AttributeNamesBecomeMethodObjects) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Person")}).ok());
  ASSERT_TRUE(db.SetScalar(A("john"), A("Age"), Oid::Int(30)).ok());
  EXPECT_TRUE(db.graph().IsInstanceOf(A("Age"), builtin::MetaMethod()));
}

TEST(DatabaseTest, DefaultAttributeInheritanceFromClassObjects) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.DeclareClass(A("Employee"), {A("Person")}).ok());
  // Classes are objects: give Person a default LegCount.
  ASSERT_TRUE(db.SetScalar(A("Person"), A("LegCount"), Oid::Int(2)).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Employee")}).ok());
  const AttrValue* inherited = db.GetAttribute(A("john"), A("LegCount"));
  ASSERT_NE(inherited, nullptr);
  EXPECT_EQ(inherited->scalar(), Oid::Int(2));
  // A local value overrides the default.
  ASSERT_TRUE(db.SetScalar(A("john"), A("LegCount"), Oid::Int(1)).ok());
  EXPECT_EQ(db.GetAttribute(A("john"), A("LegCount"))->scalar(), Oid::Int(1));
  // The nearest class wins over a farther one.
  ASSERT_TRUE(db.SetScalar(A("Employee"), A("Badge"), Oid::Int(7)).ok());
  ASSERT_TRUE(db.SetScalar(A("Person"), A("Badge"), Oid::Int(9)).ok());
  EXPECT_EQ(db.GetAttribute(A("john"), A("Badge"))->scalar(), Oid::Int(7));
}

TEST(DatabaseTest, ExtentOfLiteralClassesUsesActiveDomain) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Person")}).ok());
  ASSERT_TRUE(db.SetScalar(A("john"), A("Age"), Oid::Int(30)).ok());
  ASSERT_TRUE(db.SetScalar(A("john"), A("Name"), Oid::String("john")).ok());
  OidSet numerals = db.Extent(builtin::Numeral());
  EXPECT_TRUE(numerals.Contains(Oid::Int(30)));
  OidSet strings = db.Extent(builtin::String());
  EXPECT_TRUE(strings.Contains(Oid::String("john")));
  // Object extent covers individuals, including literals in use.
  OidSet objects = db.Extent(builtin::Object());
  EXPECT_TRUE(objects.Contains(A("john")));
  EXPECT_TRUE(objects.Contains(Oid::Int(30)));
}

TEST(DatabaseTest, VersionBumpsOnMutation) {
  Database db;
  uint64_t v0 = db.version();
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  EXPECT_GT(db.version(), v0);
}

TEST(CatalogTest, SchemaBrowsingHelpers) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person")).ok());
  ASSERT_TRUE(db.DeclareAttribute(A("Person"), A("Name"), builtin::String(),
                                  false).ok());
  ASSERT_TRUE(db.DeclareClass(A("Employee"), {A("Person")}).ok());
  ASSERT_TRUE(db.DeclareAttribute(A("Employee"), A("Salary"),
                                  builtin::Numeral(), false).ok());
  OidSet attrs = catalog::AttributesOf(db, A("Employee"));
  EXPECT_TRUE(attrs.Contains(A("Name")));  // structurally inherited
  EXPECT_TRUE(attrs.Contains(A("Salary")));
  auto classes = catalog::ClassesDeclaring(db, A("Name"));
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], A("Person"));
  EXPECT_TRUE(catalog::ClassUniverse(db).Contains(A("Employee")));
  EXPECT_TRUE(catalog::MethodNameUniverse(db).Contains(A("Salary")));
  EXPECT_FALSE(catalog::DumpSchema(db).empty());
}

}  // namespace
}  // namespace xsql
