#include "relational/relation.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "base/check.h"

namespace gsopt {

void Relation::Add(const Tuple& t) {
  GSOPT_DCHECK(static_cast<int>(t.values.size()) == schema_.size());
  GSOPT_DCHECK(static_cast<int>(t.vids.size()) == vschema_.size());
  rows_.push_back(t);
}

void Relation::Add(Tuple&& t) {
  GSOPT_DCHECK(static_cast<int>(t.values.size()) == schema_.size());
  GSOPT_DCHECK(static_cast<int>(t.vids.size()) == vschema_.size());
  rows_.push_back(std::move(t));
}

void Relation::AddConcat(const Tuple& a, const Tuple& b) {
  GSOPT_DCHECK(static_cast<int>(a.values.size() + b.values.size()) ==
               schema_.size());
  GSOPT_DCHECK(static_cast<int>(a.vids.size() + b.vids.size()) ==
               vschema_.size());
  Tuple& t = rows_.emplace_back();
  t.values.reserve(a.values.size() + b.values.size());
  t.values.insert(t.values.end(), a.values.begin(), a.values.end());
  t.values.insert(t.values.end(), b.values.begin(), b.values.end());
  t.vids.reserve(a.vids.size() + b.vids.size());
  t.vids.insert(t.vids.end(), a.vids.begin(), a.vids.end());
  t.vids.insert(t.vids.end(), b.vids.begin(), b.vids.end());
}

void Relation::AddBaseRow(std::vector<Value> values, RowId id) {
  Tuple t;
  t.values = std::move(values);
  t.vids.assign(vschema_.size(), id);
  Add(std::move(t));
}

void Relation::TrimReserve() {
  if (rows_.capacity() - rows_.size() > rows_.size() / 8) {
    rows_.shrink_to_fit();
  }
}

Tuple Relation::NullTuple() const {
  Tuple t;
  t.values.assign(schema_.size(), Value::Null());
  t.vids.assign(vschema_.size(), kNullRowId);
  return t;
}

namespace {

// Column permutation sorting attributes by qualified name; makes comparison
// independent of the column order a particular plan produced.
std::vector<int> NameSortedOrder(const Schema& s) {
  std::vector<int> order(s.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return s.attr(a).Qualified() < s.attr(b).Qualified();
  });
  return order;
}

bool RowLess(const Tuple& a, const Tuple& b, const std::vector<int>& oa,
             const std::vector<int>& ob) {
  for (size_t i = 0; i < oa.size(); ++i) {
    const Value& x = a.values[oa[i]];
    const Value& y = b.values[ob[i]];
    if (Value::IdentityLess(x, y)) return true;
    if (Value::IdentityLess(y, x)) return false;
  }
  return false;
}

bool RowEq(const Tuple& a, const Tuple& b, const std::vector<int>& oa,
           const std::vector<int>& ob) {
  for (size_t i = 0; i < oa.size(); ++i) {
    if (!Value::IdentityEquals(a.values[oa[i]], b.values[ob[i]])) return false;
  }
  return true;
}

}  // namespace

bool Relation::BagEquals(const Relation& a, const Relation& b) {
  if (a.NumRows() != b.NumRows()) return false;
  std::vector<int> oa = NameSortedOrder(a.schema());
  std::vector<int> ob = NameSortedOrder(b.schema());
  if (oa.size() != ob.size()) return false;
  for (size_t i = 0; i < oa.size(); ++i) {
    if (a.schema().attr(oa[i]).Qualified() !=
        b.schema().attr(ob[i]).Qualified()) {
      return false;
    }
  }
  std::vector<int64_t> ra(a.NumRows()), rb(b.NumRows());
  std::iota(ra.begin(), ra.end(), 0);
  std::iota(rb.begin(), rb.end(), 0);
  std::sort(ra.begin(), ra.end(), [&](int64_t x, int64_t y) {
    return RowLess(a.rows()[x], a.rows()[y], oa, oa);
  });
  std::sort(rb.begin(), rb.end(), [&](int64_t x, int64_t y) {
    return RowLess(b.rows()[x], b.rows()[y], ob, ob);
  });
  for (int64_t i = 0; i < a.NumRows(); ++i) {
    if (!RowEq(a.rows()[ra[i]], b.rows()[rb[i]], oa, ob)) return false;
  }
  return true;
}

std::string Relation::ToString(int max_rows) const {
  std::string s = schema_.ToString() + "  [" + std::to_string(NumRows()) +
                  " rows]\n";
  int shown = 0;
  for (const Tuple& t : rows_) {
    if (shown++ >= max_rows) {
      s += "  ...\n";
      break;
    }
    s += "  (";
    for (size_t i = 0; i < t.values.size(); ++i) {
      if (i) s += ", ";
      s += t.values[i].ToString();
    }
    s += ")\n";
  }
  return s;
}

std::string Relation::CanonicalString() const {
  std::vector<int> order = NameSortedOrder(schema_);
  std::string header;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i) header += ",";
    header += schema_.attr(order[i]).Qualified();
  }
  std::vector<std::string> lines;
  lines.reserve(rows_.size());
  for (const Tuple& t : rows_) {
    std::string line;
    for (size_t i = 0; i < order.size(); ++i) {
      if (i) line += ",";
      line += t.values[order[i]].ToString();
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out = header + "\n";
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

}  // namespace gsopt
