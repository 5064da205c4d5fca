// SQL value kernel: typed values (NULL / INT64 / DOUBLE / STRING) with
// three-valued-logic comparison semantics. Numerics compare by exact value
// across INT64 and DOUBLE (CompareIntDouble): no int64 is ever rounded
// through a double, so predicates, IdentityEquals / IdentityLess, the sort
// order and the executor's key bytes (exec/keys.h) share one equality
// partition.
//
// A Value is a 16-byte tagged union: the type tag, then an int64, a double
// or a pointer to an immutable, reference-counted string block. Copying a
// numeric copies 16 bytes; copying a string bumps the block's count, so a
// join row that repeats a string column shares one block with its input.
#ifndef GSOPT_RELATIONAL_VALUE_H_
#define GSOPT_RELATIONAL_VALUE_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "base/check.h"

namespace gsopt {

// Total comparison of doubles under the engine's NaN convention: NaN
// compares equal to NaN and greater than every non-NaN (the Postgres float8
// rule). The naive `x < y ? -1 : (x > y ? 1 : 0)` formula silently reports
// "equal" for NaN against ANY number (all NaN comparisons are false), which
// made the nested-loop join accept NaN = 5.0 while the hash path keyed them
// apart. Every comparison path -- Value::Compare, which the reference and
// the bound predicates of exec/bind.h share, and key canonicalization --
// must route doubles through this one definition.
inline int CompareDoubles(double x, double y) {
  if (x < y) return -1;
  if (x > y) return 1;
  if (x == y) return 0;
  // At least one side is NaN.
  bool nx = std::isnan(x), ny = std::isnan(y);
  if (nx && ny) return 0;
  return nx ? 1 : -1;
}

// Exact comparison of an int64 against a double: <0, 0, >0. Never routes
// the int through a double cast, which rounds past 2^53 (int(2^53+1) would
// equal double(2^53) while int-int comparison orders it after int(2^53),
// an intransitivity that breaks sorting and splits the key classes). NaN
// is greater than every int (the CompareDoubles rule).
inline int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d)) return -1;
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  double fd = std::floor(d);
  int64_t di = static_cast<int64_t>(fd);  // |fd| <= 2^63 after the guards
  if (i != di) return i < di ? -1 : 1;
  return d > fd ? -1 : 0;  // equal integer part: a fraction makes d larger
}

// True (setting *out) iff `d` is integral and exactly equal to an int64
// (anywhere in [-2^63, 2^63)), i.e. iff CompareIntDouble(*out, d) == 0.
// -0.0 normalizes to 0, which is what makes the key encodings collapse
// -0.0 and +0.0 into one equality class. Shared by Value::Hash and the
// canonical key encodings (exec/keys.h); the range guard also keeps the
// int64 cast defined (casting NaN or an out-of-range double is UB).
inline bool ExactInt64(double d, int64_t* out) {
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63
  if (!(d >= -kTwo63 && d < kTwo63)) return false;  // also NaN
  int64_t i = static_cast<int64_t>(d);
  if (static_cast<double>(i) != d) return false;
  *out = i;
  return true;
}

enum class ValueType { kNull = 0, kInt = 1, kDouble = 2, kString = 3 };

// Result of a 3VL predicate: FALSE < UNKNOWN < TRUE.
enum class Tri { kFalse = 0, kUnknown = 1, kTrue = 2 };

inline Tri TriAnd(Tri a, Tri b) { return a < b ? a : b; }
inline Tri TriOr(Tri a, Tri b) { return a > b ? a : b; }
inline Tri TriNot(Tri a) {
  if (a == Tri::kUnknown) return Tri::kUnknown;
  return a == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
}

class Value {
 public:
  Value() noexcept : type_(ValueType::kNull) { rep_.i = 0; }
  Value(const Value& o) noexcept : type_(o.type_), rep_(o.rep_) {
    if (type_ == ValueType::kString) Retain(rep_.s);
  }
  // Steals the string block; the source reads as NULL afterwards.
  Value(Value&& o) noexcept : type_(o.type_), rep_(o.rep_) {
    o.type_ = ValueType::kNull;
  }
  ~Value() {
    if (type_ == ValueType::kString) Release(rep_.s);
  }
  Value& operator=(const Value& o) noexcept {
    // Retain before release: self-assignment never drops the last count.
    if (o.type_ == ValueType::kString) Retain(o.rep_.s);
    if (type_ == ValueType::kString) Release(rep_.s);
    type_ = o.type_;
    rep_ = o.rep_;
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this == &o) return *this;
    if (type_ == ValueType::kString) Release(rep_.s);
    type_ = o.type_;
    rep_ = o.rep_;
    o.type_ = ValueType::kNull;
    return *this;
  }

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value r;
    r.type_ = ValueType::kInt;
    r.rep_.i = v;
    return r;
  }
  static Value Double(double v) {
    Value r;
    r.type_ = ValueType::kDouble;
    r.rep_.d = v;
    return r;
  }
  static Value String(std::string v) {
    Value r;
    r.rep_.s = new StringBlock(std::move(v));
    r.type_ = ValueType::kString;
    return r;
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  int64_t AsInt() const {
    GSOPT_DCHECK(type_ == ValueType::kInt);
    return rep_.i;
  }
  double AsDouble() const {
    if (type_ == ValueType::kInt) return static_cast<double>(rep_.i);
    GSOPT_DCHECK(type_ == ValueType::kDouble);
    return rep_.d;
  }
  const std::string& AsString() const {
    GSOPT_DCHECK(type_ == ValueType::kString);
    return rep_.s->str;
  }

  bool IsNumeric() const {
    return type_ == ValueType::kInt || type_ == ValueType::kDouble;
  }

  // SQL comparison: nullopt if either side is NULL or the types are
  // incomparable (string vs numeric); otherwise <0, 0, >0.
  static std::optional<int> Compare(const Value& a, const Value& b);

  // Deep equality treating NULL == NULL (used by grouping, duplicate
  // elimination and result comparison; NOT by predicates). Numerics are
  // equal iff Compare says so, which is exactly when their key bytes
  // (exec/keys.h) are equal.
  static bool IdentityEquals(const Value& a, const Value& b);

  // Total order treating NULL as lowest (used to canonicalize relations in
  // tests and printing; NOT SQL semantics).
  static bool IdentityLess(const Value& a, const Value& b);

  // Stable hash consistent with IdentityEquals.
  size_t Hash() const;

  std::string ToString() const;

 private:
  // Never mutated after construction, so the Values sharing a block may
  // live on different threads; only the count is written concurrently.
  struct StringBlock {
    explicit StringBlock(std::string s) : str(std::move(s)) {}
    std::atomic<int64_t> refs{1};
    const std::string str;
  };
  union Rep {
    int64_t i;
    double d;
    StringBlock* s;
  };

  static void Retain(StringBlock* s) {
    s->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void Release(StringBlock* s) {
    if (s->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete s;
  }

  ValueType type_;
  Rep rep_;
};

static_assert(sizeof(Value) == 16, "Value is a tag plus one 8-byte word");

// 3VL comparison outcome of `a op b` for a comparison operator.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// Whether `op` holds for a three-way comparison result c (<0, 0, >0).
inline bool CmpHolds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

// Every type pair but int/int, through Value::Compare (value.cc).
Tri EvalCmpGeneral(CmpOp op, const Value& a, const Value& b);

// Inline because bound predicates (exec/bind.h) call it once per row; the
// int/int pair, the common case, never leaves the caller.
inline Tri EvalCmp(CmpOp op, const Value& a, const Value& b) {
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    const int64_t x = a.AsInt(), y = b.AsInt();
    return CmpHolds(op, (x > y) - (x < y)) ? Tri::kTrue : Tri::kFalse;
  }
  return EvalCmpGeneral(op, a, b);
}

std::string CmpOpName(CmpOp op);

// SQL arithmetic with NULL propagation. Division by zero yields NULL (we
// do not model SQL errors; this keeps evaluation total, which randomized
// property tests rely on).
enum class ArithOp { kAdd, kSub, kMul, kDiv };

Value EvalArith(ArithOp op, const Value& a, const Value& b);

std::string ArithOpName(ArithOp op);

}  // namespace gsopt

#endif  // GSOPT_RELATIONAL_VALUE_H_
