// Internal: the executor's one canonical key encoding. Every hash join
// (serial, parallel, spilled), grouping feed, DISTINCT dedup set,
// duplicate elimination and generalized-selection difference keys on these
// bytes, so they all share one equality partition -- the one
// Value::IdentityEquals and the sort-merge path's CompareValuesTotal
// define.
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
// The encoders are written once over a byte sink: appending to a string
// and streaming FNV-1a (KeyHash) emit exactly the same bytes, which is what
// lets the bloom filter's probe pass hash a key without building it.
#ifndef GSOPT_EXEC_KEYS_H_
#define GSOPT_EXEC_KEYS_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "relational/column_batch.h"
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

// Batch row i of a gathered column; false (nothing emitted) on NULL.
template <typename Sink>
bool EmitColumnValue(Sink& s, const Column& c, int64_t i) {
  if (c.IsNull(i)) return false;
  size_t k = static_cast<size_t>(i);
  switch (c.kind) {
    case ColumnKind::kInt64:
      EmitInt(s, c.i64[k]);
      return true;
    case ColumnKind::kDouble:
      EmitDouble(s, c.f64[k]);
      return true;
    case ColumnKind::kString:
      EmitString(s, *c.str[k]);
      return true;
    case ColumnKind::kMixed:
      return EmitValue(s, *c.vals[k]);
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
// scratch string per lane instead of allocating per row.
inline void EncodeTupleKeyInto(const Tuple& t,
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

inline std::string EncodeTupleKey(const Tuple& t,
                                  const std::vector<int>& value_idx,
                                  const std::vector<int>& vid_idx) {
  std::string key;
  EncodeTupleKeyInto(t, value_idx, vid_idx, &key);
  return key;
}

// Join key of batch row i over gathered key columns, appended to `out`.
// Returns false -- with `out` in an unspecified partial state the caller
// must clear -- when any component is NULL.
inline bool AppendBatchKey(const std::vector<Column>& key_cols, int64_t i,
                           std::string* out) {
  key_internal::StringSink s{out};
  for (const Column& c : key_cols) {
    if (!key_internal::EmitColumnValue(s, c, i)) return false;
  }
  return true;
}

// HashKeyBytes of exactly the bytes AppendBatchKey would emit for row i,
// computed without building the key. False on a NULL component.
inline bool HashBatchKey(const std::vector<Column>& key_cols, int64_t i,
                         uint64_t* out) {
  KeyHash h;
  for (const Column& c : key_cols) {
    if (!key_internal::EmitColumnValue(h, c, i)) return false;
  }
  *out = h.h;
  return true;
}

// Grouping key of batch row i: NULL components encode as 'n', and the
// selected row-id columns follow a '#' -- byte-identical to
// EncodeTupleKeyInto over the same row.
inline void AppendBatchGroupKey(const std::vector<Column>& key_cols,
                                const std::vector<std::vector<RowId>>& vids,
                                int64_t i, std::string* out) {
  key_internal::StringSink s{out};
  for (const Column& c : key_cols) {
    if (!key_internal::EmitColumnValue(s, c, i)) s.Byte('n');
  }
  s.Byte('#');
  for (const std::vector<RowId>& v : vids) {
    s.Bytes(&v[static_cast<size_t>(i)], sizeof(RowId));
  }
}

}  // namespace gsopt::exec

#endif  // GSOPT_EXEC_KEYS_H_
