#include "answers.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Column positions in qualified-name order, and a hash of the names.
std::vector<size_t> NameOrder(const std::vector<std::string>& names,
                              uint64_t* names_hash) {
  std::vector<size_t> order(names.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return names[a] < names[b]; });
  uint64_t h = 0x51ED270B27Bull;
  for (size_t i : order) {
    h = Mix(h ^ std::hash<std::string>()(names[i]));
  }
  *names_hash = h;
  return order;
}

template <typename Row>
uint64_t RowHash(const Row& values, const std::vector<size_t>& order) {
  uint64_t h = 0x2545F4914F6CDD1Dull;
  for (size_t i : order) h = Mix(h ^ values[i].Hash());
  return h;
}

}  // namespace

AnswerDigest DigestOf(const gsopt::Relation& relation) {
  std::vector<std::string> names;
  for (const gsopt::Attribute& a : relation.schema().attrs()) {
    names.push_back(a.Qualified());
  }
  AnswerDigest d;
  std::vector<size_t> order = NameOrder(names, &d.hash);
  d.rows = relation.NumRows();
  uint64_t bag = 0;
  for (const gsopt::Tuple& t : relation.rows()) {
    bag += Mix(RowHash(t.values, order));
  }
  d.hash = Mix(d.hash ^ bag);
  return d;
}

AnswerDigest DigestOf(const gsopt::server::WireResult& wire) {
  AnswerDigest d;
  std::vector<size_t> order = NameOrder(wire.columns, &d.hash);
  d.rows = static_cast<int64_t>(wire.rows.size());
  uint64_t bag = 0;
  for (const std::vector<gsopt::Value>& row : wire.rows) {
    bag += Mix(RowHash(row, order));
  }
  d.hash = Mix(d.hash ^ bag);
  return d;
}

gsopt::Relation RelationOf(const gsopt::server::WireResult& wire) {
  std::vector<gsopt::Attribute> attrs;
  for (const std::string& column : wire.columns) {
    const size_t dot = column.find('.');
    attrs.push_back(dot == std::string::npos
                        ? gsopt::Attribute{"", column}
                        : gsopt::Attribute{column.substr(0, dot),
                                           column.substr(dot + 1)});
  }
  gsopt::Relation out{gsopt::Schema(std::move(attrs)),
                      gsopt::VirtualSchema()};
  out.Reserve(static_cast<int64_t>(wire.rows.size()));
  for (const std::vector<gsopt::Value>& row : wire.rows) {
    out.Add(gsopt::Tuple(row, {}));
  }
  return out;
}

gsopt::Relation DropLastRow(const gsopt::Relation& relation) {
  gsopt::Relation out{relation.schema(), relation.vschema()};
  for (int64_t i = 0; i + 1 < relation.NumRows(); ++i) {
    out.Add(relation.row(i));
  }
  return out;
}

}  // namespace perfbench
