#include "relational/relation.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>

#include "base/check.h"

namespace gsopt {

bool Relation::Holds(Tuple t) const {
  auto within = [](const auto* p, const auto& buf) {
    return p != nullptr && !std::less<>()(p, buf.data()) &&
           std::less<>()(p, buf.data() + buf.size());
  };
  return within(t.values.data(), values_) || within(t.vids.data(), vids_);
}

void Relation::Add(Tuple t) { AddConcat(t, Tuple()); }

void Relation::Add(OwnedTuple&& t) {
  GSOPT_DCHECK(t.values.size() == width_);
  GSOPT_DCHECK(t.vids.size() == vwidth_);
  values_.insert(values_.end(), std::make_move_iterator(t.values.begin()),
                 std::make_move_iterator(t.values.end()));
  vids_.insert(vids_.end(), t.vids.begin(), t.vids.end());
  ++num_rows_;
}

void Relation::AddConcat(Tuple a, Tuple b) {
  GSOPT_DCHECK(a.values.size() + b.values.size() == width_);
  GSOPT_DCHECK(a.vids.size() + b.vids.size() == vwidth_);
  if (Holds(a) || Holds(b)) {
    // Growing may move the row a view reads: copy it out first.
    OwnedTuple t;
    t.AssignConcat(a, b);
    Add(std::move(t));
    return;
  }
  values_.insert(values_.end(), a.values.begin(), a.values.end());
  values_.insert(values_.end(), b.values.begin(), b.values.end());
  vids_.insert(vids_.end(), a.vids.begin(), a.vids.end());
  vids_.insert(vids_.end(), b.vids.begin(), b.vids.end());
  ++num_rows_;
}

void Relation::AddPadded(Tuple t, bool t_first) {
  GSOPT_DCHECK(t.values.size() <= width_);
  GSOPT_DCHECK(t.vids.size() <= vwidth_);
  if (Holds(t)) {
    OwnedTuple copy;
    copy.AssignConcat(t, Tuple());
    AddPadded(copy, t_first);
    return;
  }
  const size_t pad = width_ - t.values.size();
  const size_t vpad = vwidth_ - t.vids.size();
  if (t_first) {
    values_.insert(values_.end(), t.values.begin(), t.values.end());
    values_.resize(values_.size() + pad);
    vids_.insert(vids_.end(), t.vids.begin(), t.vids.end());
    vids_.resize(vids_.size() + vpad, kNullRowId);
  } else {
    values_.resize(values_.size() + pad);
    values_.insert(values_.end(), t.values.begin(), t.values.end());
    vids_.resize(vids_.size() + vpad, kNullRowId);
    vids_.insert(vids_.end(), t.vids.begin(), t.vids.end());
  }
  ++num_rows_;
}

MutableTuple Relation::AddNullRow() {
  const size_t v0 = values_.size(), i0 = vids_.size();
  values_.resize(v0 + width_);
  vids_.resize(i0 + vwidth_, kNullRowId);
  ++num_rows_;
  return MutableTuple{{values_.data() + v0, width_},
                      {vids_.data() + i0, vwidth_}};
}

void Relation::AddBaseRow(std::vector<Value> values, RowId id) {
  GSOPT_DCHECK(values.size() == width_);
  values_.insert(values_.end(), std::make_move_iterator(values.begin()),
                 std::make_move_iterator(values.end()));
  vids_.resize(vids_.size() + vwidth_, id);
  ++num_rows_;
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

bool RowLess(Tuple a, Tuple b, const std::vector<int>& oa,
             const std::vector<int>& ob) {
  for (size_t i = 0; i < oa.size(); ++i) {
    const Value& x = a.values[oa[i]];
    const Value& y = b.values[ob[i]];
    if (Value::IdentityLess(x, y)) return true;
    if (Value::IdentityLess(y, x)) return false;
  }
  return false;
}

bool RowEq(Tuple a, Tuple b, const std::vector<int>& oa,
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
    return RowLess(a.row(x), a.row(y), oa, oa);
  });
  std::sort(rb.begin(), rb.end(), [&](int64_t x, int64_t y) {
    return RowLess(b.row(x), b.row(y), ob, ob);
  });
  for (int64_t i = 0; i < a.NumRows(); ++i) {
    if (!RowEq(a.row(ra[i]), b.row(rb[i]), oa, ob)) return false;
  }
  return true;
}

std::string Relation::ToString(int max_rows) const {
  std::string s = schema_.ToString() + "  [" + std::to_string(NumRows()) +
                  " rows]\n";
  int shown = 0;
  for (const Tuple& t : rows()) {
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
  lines.reserve(static_cast<size_t>(num_rows_));
  for (const Tuple& t : rows()) {
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
