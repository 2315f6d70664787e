#include "expr/expression.h"

#include <cmath>

#include "util/logging.h"

namespace relopt {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
      return "count(*)";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

const char* ScalarFuncToString(ScalarFunc f) {
  switch (f) {
    case ScalarFunc::kAbs:
      return "abs";
    case ScalarFunc::kLength:
      return "length";
    case ScalarFunc::kUpper:
      return "upper";
    case ScalarFunc::kLower:
      return "lower";
    case ScalarFunc::kCoalesce:
      return "coalesce";
    case ScalarFunc::kNullIf:
      return "nullif";
  }
  return "?";
}

bool LookupScalarFunc(const std::string& name, ScalarFunc* out) {
  if (name == "abs") *out = ScalarFunc::kAbs;
  else if (name == "length") *out = ScalarFunc::kLength;
  else if (name == "upper") *out = ScalarFunc::kUpper;
  else if (name == "lower") *out = ScalarFunc::kLower;
  else if (name == "coalesce") *out = ScalarFunc::kCoalesce;
  else if (name == "nullif") *out = ScalarFunc::kNullIf;
  else return false;
  return true;
}

CompareOp SwapCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

CompareOp NegateCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

std::set<std::string> Expression::ReferencedTables() const {
  std::vector<const ColumnRefExpr*> refs;
  CollectColumnRefs(&refs);
  std::set<std::string> tables;
  for (const ColumnRefExpr* ref : refs) tables.insert(ref->table());
  return tables;
}

bool Expression::ContainsAggregate() const {
  if (kind_ == ExprKind::kAggregateCall) return true;
  // Walk via column-ref collection? Aggregates have no dedicated walker;
  // handle per-kind below.
  switch (kind_) {
    case ExprKind::kComparison: {
      auto* e = static_cast<const ComparisonExpr*>(this);
      return e->left()->ContainsAggregate() || e->right()->ContainsAggregate();
    }
    case ExprKind::kLogical: {
      auto* e = static_cast<const LogicalExpr*>(this);
      for (const ExprPtr& c : e->children()) {
        if (c->ContainsAggregate()) return true;
      }
      return false;
    }
    case ExprKind::kArithmetic: {
      auto* e = static_cast<const ArithmeticExpr*>(this);
      return e->left()->ContainsAggregate() || e->right()->ContainsAggregate();
    }
    case ExprKind::kIsNull: {
      auto* e = static_cast<const IsNullExpr*>(this);
      return e->child()->ContainsAggregate();
    }
    case ExprKind::kCase: {
      auto* e = static_cast<const CaseExpr*>(this);
      for (size_t i = 0; i < e->num_arms(); ++i) {
        if (e->when_at(i)->ContainsAggregate() || e->then_at(i)->ContainsAggregate()) return true;
      }
      return e->else_expr() != nullptr && e->else_expr()->ContainsAggregate();
    }
    case ExprKind::kFunctionCall: {
      auto* e = static_cast<const FunctionCallExpr*>(this);
      for (const ExprPtr& a : e->args()) {
        if (a->ContainsAggregate()) return true;
      }
      return false;
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------- Literal --

Result<Value> LiteralExpr::Eval(const Tuple&) const { return value_; }
Status LiteralExpr::Bind(const Schema&) {
  result_type_ = value_.type();
  return Status::OK();
}
ExprPtr LiteralExpr::Clone() const { return std::make_unique<LiteralExpr>(value_); }
std::string LiteralExpr::ToString() const { return value_.ToString(); }
void LiteralExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>*) const {}
void LiteralExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>*) {}

// -------------------------------------------------------------- ColumnRef --

Result<Value> ColumnRefExpr::Eval(const Tuple& tuple) const {
  if (bound_index_ < 0) {
    return Status::Internal("evaluating unbound column reference " + ToString());
  }
  if (static_cast<size_t>(bound_index_) >= tuple.NumValues()) {
    return Status::Internal("column reference " + ToString() + " out of range");
  }
  return tuple.At(static_cast<size_t>(bound_index_));
}

Status ColumnRefExpr::Bind(const Schema& schema) {
  RELOPT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(table_, name_));
  bound_index_ = static_cast<int>(idx);
  result_type_ = schema.ColumnAt(idx).type;
  // Backfill the qualifier for unqualified references so downstream
  // consumers (selectivity estimation, join-edge detection, EXPLAIN) see the
  // resolved relation.
  if (table_.empty()) table_ = schema.ColumnAt(idx).table;
  return Status::OK();
}

ExprPtr ColumnRefExpr::Clone() const {
  auto c = std::make_unique<ColumnRefExpr>(table_, name_);
  c->bound_index_ = bound_index_;
  c->result_type_ = result_type_;
  return c;
}

std::string ColumnRefExpr::ToString() const {
  return table_.empty() ? name_ : table_ + "." + name_;
}

void ColumnRefExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  out->push_back(this);
}
void ColumnRefExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) {
  out->push_back(this);
}

// ------------------------------------------------------------- Comparison --

Result<Value> ComparisonExpr::Eval(const Tuple& tuple) const {
  RELOPT_ASSIGN_OR_RETURN(Value l, left_->Eval(tuple));
  RELOPT_ASSIGN_OR_RETURN(Value r, right_->Eval(tuple));
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
  RELOPT_ASSIGN_OR_RETURN(int c, l.Compare(r));
  switch (op_) {
    case CompareOp::kEq:
      return Value::Bool(c == 0);
    case CompareOp::kNe:
      return Value::Bool(c != 0);
    case CompareOp::kLt:
      return Value::Bool(c < 0);
    case CompareOp::kLe:
      return Value::Bool(c <= 0);
    case CompareOp::kGt:
      return Value::Bool(c > 0);
    case CompareOp::kGe:
      return Value::Bool(c >= 0);
  }
  return Status::Internal("bad compare op");
}

Status ComparisonExpr::Bind(const Schema& schema) {
  RELOPT_RETURN_NOT_OK(left_->Bind(schema));
  RELOPT_RETURN_NOT_OK(right_->Bind(schema));
  if (!AreComparable(left_->result_type(), right_->result_type())) {
    return Status::TypeError("cannot compare " + left_->ToString() + " (" +
                             TypeIdToString(left_->result_type()) + ") with " +
                             right_->ToString() + " (" + TypeIdToString(right_->result_type()) +
                             ")");
  }
  result_type_ = TypeId::kBool;
  return Status::OK();
}

ExprPtr ComparisonExpr::Clone() const {
  auto c = std::make_unique<ComparisonExpr>(op_, left_->Clone(), right_->Clone());
  c->result_type_ = result_type_;
  return c;
}

std::string ComparisonExpr::ToString() const {
  return "(" + left_->ToString() + " " + CompareOpToString(op_) + " " + right_->ToString() + ")";
}

void ComparisonExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  left_->CollectColumnRefs(out);
  right_->CollectColumnRefs(out);
}
void ComparisonExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) {
  left_->CollectColumnRefsMutable(out);
  right_->CollectColumnRefsMutable(out);
}

// ---------------------------------------------------------------- Logical --

Result<Value> LogicalExpr::Eval(const Tuple& tuple) const {
  if (op_ == LogicalOp::kNot) {
    RELOPT_ASSIGN_OR_RETURN(Value v, children_[0]->Eval(tuple));
    if (v.is_null()) return Value::Null(TypeId::kBool);
    return Value::Bool(!v.AsBool());
  }
  // Three-valued AND/OR with short-circuit where sound.
  bool saw_null = false;
  for (const ExprPtr& child : children_) {
    RELOPT_ASSIGN_OR_RETURN(Value v, child->Eval(tuple));
    if (v.is_null()) {
      saw_null = true;
      continue;
    }
    bool b = v.AsBool();
    if (op_ == LogicalOp::kAnd && !b) return Value::Bool(false);
    if (op_ == LogicalOp::kOr && b) return Value::Bool(true);
  }
  if (saw_null) return Value::Null(TypeId::kBool);
  return Value::Bool(op_ == LogicalOp::kAnd);
}

Status LogicalExpr::Bind(const Schema& schema) {
  for (ExprPtr& child : children_) {
    RELOPT_RETURN_NOT_OK(child->Bind(schema));
    if (child->result_type() != TypeId::kBool) {
      return Status::TypeError("logical operand " + child->ToString() + " is not boolean");
    }
  }
  result_type_ = TypeId::kBool;
  return Status::OK();
}

ExprPtr LogicalExpr::Clone() const {
  std::vector<ExprPtr> kids;
  kids.reserve(children_.size());
  for (const ExprPtr& c : children_) kids.push_back(c->Clone());
  auto e = std::make_unique<LogicalExpr>(op_, std::move(kids));
  e->result_type_ = result_type_;
  return e;
}

std::string LogicalExpr::ToString() const {
  if (op_ == LogicalOp::kNot) return "(NOT " + children_[0]->ToString() + ")";
  const char* sep = op_ == LogicalOp::kAnd ? " AND " : " OR ";
  std::string out = "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) out += sep;
    out += children_[i]->ToString();
  }
  return out + ")";
}

void LogicalExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  for (const ExprPtr& c : children_) c->CollectColumnRefs(out);
}
void LogicalExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) {
  for (ExprPtr& c : children_) c->CollectColumnRefsMutable(out);
}

// ------------------------------------------------------------- Arithmetic --

Result<Value> ArithmeticExpr::Eval(const Tuple& tuple) const {
  RELOPT_ASSIGN_OR_RETURN(Value l, left_->Eval(tuple));
  RELOPT_ASSIGN_OR_RETURN(Value r, right_->Eval(tuple));
  if (l.is_null() || r.is_null()) return Value::Null(result_type_);
  if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
    return Status::TypeError("arithmetic on non-numeric operand in " + ToString());
  }
  bool as_int = l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64;
  if (as_int) {
    int64_t v = 0;
    switch (CheckedIntArith(op_, l.AsInt(), r.AsInt(), &v)) {
      case IntArithStatus::kOk:
        return Value::Int(v);
      case IntArithStatus::kNull:
        return Value::Null(TypeId::kInt64);
      case IntArithStatus::kOverflow:
        return Status::OutOfRange("integer overflow in " + ToString());
    }
  }
  double a = l.NumericAsDouble(), b = r.NumericAsDouble();
  switch (op_) {
    case ArithOp::kAdd:
      return Value::Double(a + b);
    case ArithOp::kSub:
      return Value::Double(a - b);
    case ArithOp::kMul:
      return Value::Double(a * b);
    case ArithOp::kDiv:
      if (b == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(a / b);
    case ArithOp::kMod:
      if (b == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(std::fmod(a, b));
  }
  return Status::Internal("bad arithmetic op");
}

Status ArithmeticExpr::Bind(const Schema& schema) {
  RELOPT_RETURN_NOT_OK(left_->Bind(schema));
  RELOPT_RETURN_NOT_OK(right_->Bind(schema));
  if (!IsNumeric(left_->result_type()) || !IsNumeric(right_->result_type())) {
    return Status::TypeError("arithmetic needs numeric operands in " + ToString());
  }
  result_type_ = (left_->result_type() == TypeId::kInt64 &&
                  right_->result_type() == TypeId::kInt64)
                     ? TypeId::kInt64
                     : TypeId::kDouble;
  return Status::OK();
}

ExprPtr ArithmeticExpr::Clone() const {
  auto e = std::make_unique<ArithmeticExpr>(op_, left_->Clone(), right_->Clone());
  e->result_type_ = result_type_;
  return e;
}

std::string ArithmeticExpr::ToString() const {
  return "(" + left_->ToString() + " " + ArithOpToString(op_) + " " + right_->ToString() + ")";
}

void ArithmeticExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  left_->CollectColumnRefs(out);
  right_->CollectColumnRefs(out);
}
void ArithmeticExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) {
  left_->CollectColumnRefsMutable(out);
  right_->CollectColumnRefsMutable(out);
}

// ----------------------------------------------------------------- IsNull --

Result<Value> IsNullExpr::Eval(const Tuple& tuple) const {
  RELOPT_ASSIGN_OR_RETURN(Value v, child_->Eval(tuple));
  bool is_null = v.is_null();
  return Value::Bool(negated_ ? !is_null : is_null);
}

Status IsNullExpr::Bind(const Schema& schema) {
  RELOPT_RETURN_NOT_OK(child_->Bind(schema));
  result_type_ = TypeId::kBool;
  return Status::OK();
}

ExprPtr IsNullExpr::Clone() const {
  auto e = std::make_unique<IsNullExpr>(child_->Clone(), negated_);
  e->result_type_ = result_type_;
  return e;
}

std::string IsNullExpr::ToString() const {
  return "(" + child_->ToString() + (negated_ ? " IS NOT NULL)" : " IS NULL)");
}

void IsNullExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  child_->CollectColumnRefs(out);
}
void IsNullExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) {
  child_->CollectColumnRefsMutable(out);
}

// ---------------------------------------------------------- AggregateCall --

Result<Value> AggregateCallExpr::Eval(const Tuple&) const {
  return Status::Internal("aggregate call " + ToString() +
                          " evaluated directly (binder should have lifted it)");
}

Status AggregateCallExpr::Bind(const Schema& schema) {
  if (arg_) {
    RELOPT_RETURN_NOT_OK(arg_->Bind(schema));
  }
  switch (func_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      result_type_ = TypeId::kInt64;
      break;
    case AggFunc::kAvg:
      result_type_ = TypeId::kDouble;
      break;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      result_type_ = arg_ ? arg_->result_type() : TypeId::kInt64;
      break;
  }
  return Status::OK();
}

ExprPtr AggregateCallExpr::Clone() const {
  auto e = std::make_unique<AggregateCallExpr>(func_, arg_ ? arg_->Clone() : nullptr);
  e->result_type_ = result_type_;
  return e;
}

std::string AggregateCallExpr::ToString() const {
  if (func_ == AggFunc::kCountStar) return "count(*)";
  return std::string(AggFuncToString(func_)) + "(" + (arg_ ? arg_->ToString() : "*") + ")";
}

void AggregateCallExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  if (arg_) arg_->CollectColumnRefs(out);
}
void AggregateCallExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) {
  if (arg_) arg_->CollectColumnRefsMutable(out);
}

// ------------------------------------------------------------------- Case --

namespace {

/// Widens `v` to `target` so every CASE/COALESCE branch yields the unified
/// result type (int64 branches widen to double when any branch is double).
Value CoerceTo(Value v, TypeId target) {
  if (v.is_null()) return Value::Null(target);
  if (target == TypeId::kDouble && v.type() == TypeId::kInt64) {
    return Value::Double(static_cast<double>(v.AsInt()));
  }
  return v;
}

/// Unifies the result types of CASE branches / COALESCE arguments:
/// identical types stay, int64+double widens to double, anything else is a
/// type error. `what` names the construct for the error message.
Result<TypeId> UnifyBranchTypes(const std::vector<TypeId>& types, const std::string& what) {
  TypeId out = types[0];
  for (TypeId t : types) {
    if (t == out) continue;
    if (IsNumeric(t) && IsNumeric(out)) {
      out = TypeId::kDouble;
    } else {
      return Status::TypeError(what + " branches mix incompatible types " + TypeIdToString(out) +
                               " and " + TypeIdToString(t));
    }
  }
  return out;
}

}  // namespace

Result<Value> CaseExpr::Eval(const Tuple& tuple) const {
  for (size_t i = 0; i < whens_.size(); ++i) {
    RELOPT_ASSIGN_OR_RETURN(Value cond, whens_[i]->Eval(tuple));
    if (!cond.is_null() && cond.AsBool()) {
      RELOPT_ASSIGN_OR_RETURN(Value v, thens_[i]->Eval(tuple));
      return CoerceTo(std::move(v), result_type_);
    }
  }
  if (else_ == nullptr) return Value::Null(result_type_);
  RELOPT_ASSIGN_OR_RETURN(Value v, else_->Eval(tuple));
  return CoerceTo(std::move(v), result_type_);
}

Status CaseExpr::Bind(const Schema& schema) {
  std::vector<TypeId> branch_types;
  for (size_t i = 0; i < whens_.size(); ++i) {
    RELOPT_RETURN_NOT_OK(whens_[i]->Bind(schema));
    if (whens_[i]->result_type() != TypeId::kBool) {
      return Status::TypeError("CASE WHEN condition " + whens_[i]->ToString() +
                               " is not boolean");
    }
    RELOPT_RETURN_NOT_OK(thens_[i]->Bind(schema));
    branch_types.push_back(thens_[i]->result_type());
  }
  if (else_ != nullptr) {
    RELOPT_RETURN_NOT_OK(else_->Bind(schema));
    branch_types.push_back(else_->result_type());
  }
  RELOPT_ASSIGN_OR_RETURN(result_type_, UnifyBranchTypes(branch_types, "CASE"));
  return Status::OK();
}

ExprPtr CaseExpr::Clone() const {
  std::vector<ExprPtr> whens, thens;
  whens.reserve(whens_.size());
  thens.reserve(thens_.size());
  for (const ExprPtr& w : whens_) whens.push_back(w->Clone());
  for (const ExprPtr& t : thens_) thens.push_back(t->Clone());
  auto e = std::make_unique<CaseExpr>(std::move(whens), std::move(thens),
                                      else_ ? else_->Clone() : nullptr);
  e->result_type_ = result_type_;
  return e;
}

std::string CaseExpr::ToString() const {
  std::string out = "CASE";
  for (size_t i = 0; i < whens_.size(); ++i) {
    out += " WHEN " + whens_[i]->ToString() + " THEN " + thens_[i]->ToString();
  }
  if (else_ != nullptr) out += " ELSE " + else_->ToString();
  return out + " END";
}

void CaseExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  for (size_t i = 0; i < whens_.size(); ++i) {
    whens_[i]->CollectColumnRefs(out);
    thens_[i]->CollectColumnRefs(out);
  }
  if (else_ != nullptr) else_->CollectColumnRefs(out);
}
void CaseExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) {
  for (size_t i = 0; i < whens_.size(); ++i) {
    whens_[i]->CollectColumnRefsMutable(out);
    thens_[i]->CollectColumnRefsMutable(out);
  }
  if (else_ != nullptr) else_->CollectColumnRefsMutable(out);
}

// ----------------------------------------------------------- FunctionCall --

namespace {

/// |x| computed in uint64 space so INT64_MIN wraps deterministically instead
/// of tripping signed-overflow UB; both the row and batch engines use this.
inline int64_t AbsInt64(int64_t a) {
  uint64_t m = a < 0 ? 0ull - static_cast<uint64_t>(a) : static_cast<uint64_t>(a);
  return static_cast<int64_t>(m);
}

inline std::string AsciiUpper(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

inline std::string AsciiLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

}  // namespace

Result<Value> FunctionCallExpr::Eval(const Tuple& tuple) const {
  switch (func_) {
    case ScalarFunc::kAbs: {
      RELOPT_ASSIGN_OR_RETURN(Value v, args_[0]->Eval(tuple));
      if (v.is_null()) return Value::Null(result_type_);
      if (!IsNumeric(v.type())) {
        return Status::TypeError("abs on non-numeric operand in " + ToString());
      }
      if (v.type() == TypeId::kInt64) return Value::Int(AbsInt64(v.AsInt()));
      double d = v.NumericAsDouble();
      return Value::Double(d < 0 ? -d : d);
    }
    case ScalarFunc::kLength: {
      RELOPT_ASSIGN_OR_RETURN(Value v, args_[0]->Eval(tuple));
      if (v.is_null()) return Value::Null(TypeId::kInt64);
      if (v.type() != TypeId::kString) {
        return Status::TypeError("length on non-string operand in " + ToString());
      }
      return Value::Int(static_cast<int64_t>(v.AsString().size()));
    }
    case ScalarFunc::kUpper:
    case ScalarFunc::kLower: {
      RELOPT_ASSIGN_OR_RETURN(Value v, args_[0]->Eval(tuple));
      if (v.is_null()) return Value::Null(TypeId::kString);
      if (v.type() != TypeId::kString) {
        return Status::TypeError(std::string(ScalarFuncToString(func_)) +
                                 " on non-string operand in " + ToString());
      }
      return Value::String(func_ == ScalarFunc::kUpper ? AsciiUpper(v.AsString())
                                                       : AsciiLower(v.AsString()));
    }
    case ScalarFunc::kCoalesce: {
      for (const ExprPtr& arg : args_) {
        RELOPT_ASSIGN_OR_RETURN(Value v, arg->Eval(tuple));
        if (!v.is_null()) return CoerceTo(std::move(v), result_type_);
      }
      return Value::Null(result_type_);
    }
    case ScalarFunc::kNullIf: {
      RELOPT_ASSIGN_OR_RETURN(Value a, args_[0]->Eval(tuple));
      RELOPT_ASSIGN_OR_RETURN(Value b, args_[1]->Eval(tuple));
      if (a.is_null() || b.is_null()) return CoerceTo(std::move(a), result_type_);
      RELOPT_ASSIGN_OR_RETURN(int c, a.Compare(b));
      if (c == 0) return Value::Null(result_type_);
      return CoerceTo(std::move(a), result_type_);
    }
  }
  return Status::Internal("bad scalar function");
}

Status FunctionCallExpr::Bind(const Schema& schema) {
  for (ExprPtr& arg : args_) RELOPT_RETURN_NOT_OK(arg->Bind(schema));
  auto arity_error = [this](size_t want) {
    return Status::TypeError(std::string(ScalarFuncToString(func_)) + " takes " +
                             std::to_string(want) + " argument(s), got " +
                             std::to_string(args_.size()));
  };
  switch (func_) {
    case ScalarFunc::kAbs:
      if (args_.size() != 1) return arity_error(1);
      if (!IsNumeric(args_[0]->result_type())) {
        return Status::TypeError("abs needs a numeric argument in " + ToString());
      }
      result_type_ = args_[0]->result_type();
      break;
    case ScalarFunc::kLength:
      if (args_.size() != 1) return arity_error(1);
      if (args_[0]->result_type() != TypeId::kString) {
        return Status::TypeError("length needs a string argument in " + ToString());
      }
      result_type_ = TypeId::kInt64;
      break;
    case ScalarFunc::kUpper:
    case ScalarFunc::kLower:
      if (args_.size() != 1) return arity_error(1);
      if (args_[0]->result_type() != TypeId::kString) {
        return Status::TypeError(std::string(ScalarFuncToString(func_)) +
                                 " needs a string argument in " + ToString());
      }
      result_type_ = TypeId::kString;
      break;
    case ScalarFunc::kCoalesce: {
      if (args_.empty()) return arity_error(1);
      std::vector<TypeId> types;
      for (const ExprPtr& arg : args_) types.push_back(arg->result_type());
      RELOPT_ASSIGN_OR_RETURN(result_type_, UnifyBranchTypes(types, "coalesce"));
      break;
    }
    case ScalarFunc::kNullIf: {
      if (args_.size() != 2) return arity_error(2);
      if (!AreComparable(args_[0]->result_type(), args_[1]->result_type())) {
        return Status::TypeError(std::string("nullif cannot compare ") +
                                 TypeIdToString(args_[0]->result_type()) + " with " +
                                 TypeIdToString(args_[1]->result_type()));
      }
      result_type_ = args_[0]->result_type();
      break;
    }
  }
  return Status::OK();
}

ExprPtr FunctionCallExpr::Clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const ExprPtr& a : args_) args.push_back(a->Clone());
  auto e = std::make_unique<FunctionCallExpr>(func_, std::move(args));
  e->result_type_ = result_type_;
  return e;
}

std::string FunctionCallExpr::ToString() const {
  std::string out = std::string(ScalarFuncToString(func_)) + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  return out + ")";
}

void FunctionCallExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  for (const ExprPtr& a : args_) a->CollectColumnRefs(out);
}
void FunctionCallExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) {
  for (ExprPtr& a : args_) a->CollectColumnRefsMutable(out);
}

// ---------------------------------------------------------- ParameterExpr --

Result<Value> ParameterExpr::Eval(const Tuple& tuple) const {
  (void)tuple;
  return Status::InvalidArgument("unbound parameter $" + std::to_string(ordinal_ + 1) +
                                 "; prepare the statement and supply values");
}

Status ParameterExpr::Bind(const Schema& schema) {
  (void)schema;
  return Status::InvalidArgument("statement has unbound parameters; prepare it and supply " +
                                 std::to_string(ordinal_ + 1) + " value(s)");
}

ExprPtr ParameterExpr::Clone() const { return std::make_unique<ParameterExpr>(ordinal_); }

std::string ParameterExpr::ToString() const { return "?"; }

void ParameterExpr::CollectColumnRefs(std::vector<const ColumnRefExpr*>* out) const {
  (void)out;
}
void ParameterExpr::CollectColumnRefsMutable(std::vector<ColumnRefExpr*>* out) { (void)out; }

void CollectParameterSlots(ExprPtr* root, std::vector<ExprPtr*>* out) {
  if (*root == nullptr) return;
  if ((*root)->kind() == ExprKind::kParameter) {
    out->push_back(root);
    return;
  }
  std::vector<ExprPtr*> children;
  (*root)->ChildSlots(&children);
  for (ExprPtr* child : children) CollectParameterSlots(child, out);
}

// ---------------------------------------------------------------- Helpers --

ExprPtr MakeLiteral(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }
ExprPtr MakeColumnRef(std::string table, std::string name) {
  return std::make_unique<ColumnRefExpr>(std::move(table), std::move(name));
}
ExprPtr MakeComparison(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_unique<ComparisonExpr>(op, std::move(left), std::move(right));
}
ExprPtr MakeAnd(ExprPtr left, ExprPtr right) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(left));
  kids.push_back(std::move(right));
  return std::make_unique<LogicalExpr>(LogicalOp::kAnd, std::move(kids));
}
ExprPtr MakeOr(ExprPtr left, ExprPtr right) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(left));
  kids.push_back(std::move(right));
  return std::make_unique<LogicalExpr>(LogicalOp::kOr, std::move(kids));
}
ExprPtr MakeNot(ExprPtr child) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(child));
  return std::make_unique<LogicalExpr>(LogicalOp::kNot, std::move(kids));
}

}  // namespace relopt
