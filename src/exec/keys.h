// Internal: the executor's one canonical key encoding. Every hash join
// (in memory or spilled), grouping feed, DISTINCT dedup set,
// duplicate elimination and generalized-selection difference keys on these
// bytes, so they all share one equality partition -- the one
// Value::IdentityEquals defines. Join-key equality is stated here and
// nowhere else.
//
// Per value, fixed-width binary:
//   'i' + 8B native-endian int64 -- ints, and doubles exactly equal to an
//         int64 (ExactInt64: 1 == 1.0 and 2^54 == 2^54.0 across types;
//         -0.0 folds to 0, so -0.0 == +0.0);
//   'N'                          -- every NaN payload (NaN = NaN is TRUE);
//   'd' + 8B raw double bits     -- every other double;
//   's' + u32 length + bytes     -- strings;
//   'n'                          -- NULL, in grouping keys only (a join key
//                                   with a NULL component never matches
//                                   under 3VL and is not encoded at all).
// Every form is self-delimiting, so concatenated keys need no separators.
// Row-id columns of grouping keys follow a '#' as raw 8-byte ids. Keys
// never leave one process, so native endianness is fine.
//
// Each value has exactly one emitter (EmitValue), written once over a byte
// sink: appending to a string and streaming FNV-1a (KeyHash) emit exactly
// the same bytes, which is what lets the bloom filter's probe pass hash a
// key without building it. Kernels encode straight from the bound rows
// (KeyColumns in exec/join_internal.h, EncodeTupleKeyInto here).
#ifndef GSOPT_EXEC_KEYS_H_
#define GSOPT_EXEC_KEYS_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "relational/tuple.h"
#include "relational/value.h"

namespace gsopt::exec {

namespace key_internal {

struct StringSink {
  std::string* out;
  void Byte(char c) { out->push_back(c); }
  void Bytes(const void* p, size_t n) {
    out->append(static_cast<const char*>(p), n);
  }
};

template <typename Sink>
void EmitInt(Sink& s, int64_t v) {
  s.Byte('i');
  s.Bytes(&v, sizeof v);
}

template <typename Sink>
void EmitDouble(Sink& s, double d) {
  int64_t i = 0;
  if (ExactInt64(d, &i)) {
    EmitInt(s, i);
  } else if (std::isnan(d)) {
    s.Byte('N');
  } else {
    s.Byte('d');
    s.Bytes(&d, sizeof d);
  }
}

template <typename Sink>
void EmitString(Sink& s, const std::string& str) {
  s.Byte('s');
  uint32_t len = static_cast<uint32_t>(str.size());
  s.Bytes(&len, sizeof len);
  s.Bytes(str.data(), str.size());
}

// False (nothing emitted) on NULL.
template <typename Sink>
bool EmitValue(Sink& s, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      EmitInt(s, v.AsInt());
      return true;
    case ValueType::kDouble:
      EmitDouble(s, v.AsDouble());
      return true;
    case ValueType::kString:
      EmitString(s, v.AsString());
      return true;
  }
  return false;
}

}  // namespace key_internal

// Grouping key of one value: NULL is a real key ('n').
inline void AppendValueKey(const Value& v, std::string* out) {
  key_internal::StringSink s{out};
  if (!key_internal::EmitValue(s, v)) s.Byte('n');
}

// Encodes selected value columns and selected row-id columns of a tuple
// into `key` (cleared first). The Into form lets hot loops reuse one
// scratch string instead of allocating per row.
inline void EncodeTupleKeyInto(Tuple t,
                               const std::vector<int>& value_idx,
                               const std::vector<int>& vid_idx,
                               std::string* key) {
  key->clear();
  for (int i : value_idx) AppendValueKey(t.values[i], key);
  key->push_back('#');
  for (int i : vid_idx) {
    RowId id = t.vids[i];
    key->append(reinterpret_cast<const char*>(&id), sizeof id);
  }
}

inline std::string EncodeTupleKey(Tuple t,
                                  const std::vector<int>& value_idx,
                                  const std::vector<int>& vid_idx) {
  std::string key;
  EncodeTupleKeyInto(t, value_idx, vid_idx, &key);
  return key;
}

}  // namespace gsopt::exec

#endif  // GSOPT_EXEC_KEYS_H_
