// Unit tests for the EvalContext term algebra and signatures — the runtime
// core of the paper's evaluation-context concept (table 3).

#include "measure/context.h"

#include "gtest/gtest.h"

namespace msql {
namespace {

std::shared_ptr<const BoundExpr> Dim(const std::string& name) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kColumnRef;
  e->depth = 0;
  e->column = 0;
  e->name = name;
  e->type = DataType::String();
  return std::shared_ptr<const BoundExpr>(e.release());
}

TEST(EvalContextTest, SetDimReplacesSameKey) {
  EvalContext ctx;
  ctx.SetDim("prodName", Dim("prodName"), Value::String("Happy"));
  ctx.SetDim("prodName", Dim("prodName"), Value::String("Acme"));
  ASSERT_EQ(ctx.terms().size(), 1u);
  EXPECT_EQ(ctx.terms()[0].value.str(), "Acme");
}

TEST(EvalContextTest, KeyMatchingIsCaseInsensitive) {
  EvalContext ctx;
  ctx.SetDim("prodName", Dim("prodName"), Value::String("Happy"));
  ctx.RemoveDim("PRODNAME");
  EXPECT_TRUE(ctx.empty());
}

TEST(EvalContextTest, RemoveOnlyNamedDim) {
  EvalContext ctx;
  ctx.SetDim("a", Dim("a"), Value::Int(1));
  ctx.SetDim("b", Dim("b"), Value::Int(2));
  ctx.RemoveDim("a");
  ASSERT_EQ(ctx.terms().size(), 1u);
  EXPECT_EQ(ctx.terms()[0].key, "b");
}

TEST(EvalContextTest, ClearRemovesEverything) {
  EvalContext ctx;
  ctx.SetDim("a", Dim("a"), Value::Int(1));
  ctx.AddPredicate(Dim("p"));
  auto ids = std::make_shared<std::vector<int64_t>>(std::vector<int64_t>{1});
  ctx.AddRowIds(ids);
  ctx.Clear();
  EXPECT_TRUE(ctx.empty());
}

TEST(EvalContextTest, CurrentValue) {
  EvalContext ctx;
  ctx.SetDim("year", Dim("year"), Value::Int(2024));
  ASSERT_TRUE(ctx.CurrentValue("year").has_value());
  EXPECT_EQ(ctx.CurrentValue("year")->int_val(), 2024);
  EXPECT_FALSE(ctx.CurrentValue("month").has_value());
  // Predicates do not pin values.
  ctx.Clear();
  ctx.AddPredicate(Dim("year"));
  EXPECT_FALSE(ctx.CurrentValue("year").has_value());
}

TEST(EvalContextTest, SignatureIsOrderInsensitive) {
  EvalContext a;
  a.SetDim("x", Dim("x"), Value::Int(1));
  a.SetDim("y", Dim("y"), Value::Int(2));
  EvalContext b;
  b.SetDim("y", Dim("y"), Value::Int(2));
  b.SetDim("x", Dim("x"), Value::Int(1));
  EXPECT_EQ(a.Signature(), b.Signature());
}

TEST(EvalContextTest, SignatureDistinguishesValues) {
  EvalContext a;
  a.SetDim("x", Dim("x"), Value::Int(1));
  EvalContext b;
  b.SetDim("x", Dim("x"), Value::Int(2));
  EXPECT_NE(a.Signature(), b.Signature());
  // NULL vs 0 vs '' are distinct.
  EvalContext n0, nn, ns;
  n0.SetDim("x", Dim("x"), Value::Int(0));
  nn.SetDim("x", Dim("x"), Value::Null());
  ns.SetDim("x", Dim("x"), Value::String(""));
  EXPECT_NE(n0.Signature(), nn.Signature());
  EXPECT_NE(nn.Signature(), ns.Signature());
  EXPECT_NE(n0.Signature(), ns.Signature());
}

TEST(EvalContextTest, SignatureDistinguishesTermKinds) {
  EvalContext dim;
  dim.SetDim("x", Dim("x"), Value::Int(1));
  EvalContext pred;
  pred.AddPredicate(Dim("x"));
  EXPECT_NE(dim.Signature(), pred.Signature());
}

TEST(EvalContextTest, RowIdSignatureHashesContent) {
  auto ids1 = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{1, 2, 3});
  auto ids2 = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{1, 2, 4});
  auto ids3 = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{1, 2, 3});
  EvalContext a, b, c;
  a.AddRowIds(ids1);
  b.AddRowIds(ids2);
  c.AddRowIds(ids3);
  EXPECT_NE(a.Signature(), b.Signature());
  EXPECT_EQ(a.Signature(), c.Signature());
}

TEST(EvalContextTest, ReAddingTheSameRowIdSetIsANoOp) {
  auto ids = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{1, 2, 3});
  auto same_content = std::make_shared<std::vector<int64_t>>(*ids);
  EvalContext ctx;
  ctx.AddRowIds(ids);
  const std::string signature = ctx.Signature();
  ctx.AddRowIds(ids);
  ctx.AddRowIds(same_content);
  ASSERT_EQ(ctx.terms().size(), 1u);
  EXPECT_EQ(ctx.terms()[0].rowids, ids);
  EXPECT_EQ(ctx.Signature(), signature);
}

TEST(EvalContextTest, DifferentRowIdSetsIntersectIntoOneTerm) {
  auto a = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{1, 2, 3, 5, 8});
  auto b = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{2, 3, 4, 8, 9});
  EvalContext ctx;
  ctx.SetDim("x", Dim("x"), Value::Int(1));
  ctx.AddRowIds(a);
  ctx.AddRowIds(b);
  ASSERT_EQ(ctx.terms().size(), 2u);
  const ContextTerm& rowids = ctx.terms()[1];
  ASSERT_EQ(rowids.kind, ContextTerm::Kind::kRowIds);
  EXPECT_EQ(*rowids.rowids, (std::vector<int64_t>{2, 3, 8}));
  // The inputs are shared with other contexts and stay untouched.
  EXPECT_EQ(a->size(), 5u);
  EXPECT_EQ(b->size(), 5u);
  // Same admitted rows, same signature as adding the intersection alone.
  EvalContext direct;
  direct.SetDim("x", Dim("x"), Value::Int(1));
  direct.AddRowIds(std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{2, 3, 8}));
  EXPECT_EQ(ctx.Signature(), direct.Signature());
}

TEST(EvalContextTest, EmptySignature) {
  EvalContext ctx;
  EXPECT_EQ(ctx.Signature(), "");
  ctx.SetDim("x", Dim("x"), Value::Int(1));
  ctx.RemoveDim("x");
  EXPECT_EQ(ctx.Signature(), "");
}

TEST(EvalContextTest, EscapedValuesDoNotCollide) {
  // A string value that looks like another term's rendering must not make
  // two different contexts collide.
  EvalContext a;
  a.SetDim("x", Dim("x"), Value::String("1&d:y=2"));
  EvalContext b;
  b.SetDim("x", Dim("x"), Value::String("1"));
  b.SetDim("y", Dim("y"), Value::Int(2));
  EXPECT_NE(a.Signature(), b.Signature());
}

}  // namespace
}  // namespace msql
