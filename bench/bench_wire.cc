// The row-building and wire costs of warm serving, at the answer sizes of
// the paper's query shapes (2700 rows; Example 2.1 is 9 columns wide, the
// Q4 hyperedge query 15):
//
//  * BM_EncodeRows / BM_DecodeRows: one ROWS frame (server/protocol.h)
//    for a mixed-type answer -- ints, doubles, short strings and ~10%
//    NULLs -- encoded from a Relation and decoded back into a WireResult.
//  * BM_JoinConcatWide: the join probe's output append, Relation::
//    AddConcat, building 2700 join rows from a left input carrying all but
//    three columns (over width/3 - 1 base relations) and a three-column
//    right input, into an unreserved output as a spilled join's partitions
//    do.
//
// Arg is the answer width in columns.
#include <benchmark/benchmark.h>

#include "report.h"

#include <string>
#include <vector>

#include "base/check.h"
#include "relational/relation.h"
#include "server/protocol.h"

namespace gsopt {
namespace {

constexpr int kRows = 2700;

// Column c of row i: the type cycles int, double, string, int by column,
// and every tenth value is NULL.
Value Cell(int i, int c) {
  if ((i + 3 * c) % 10 == 0) return Value::Null();
  switch (c % 4) {
    case 1:
      return Value::Double(i * 0.5 + c);
    case 2:
      return Value::String("v" + std::to_string((i * 7 + c) % 97));
    default:
      return Value::Int(int64_t{i} * 31 + c);
  }
}

// `width` columns over `rels` base relations (rel k names columns
// r<k>.c<j>), kRows rows; column offset `first` feeds Cell.
Relation MakeWide(int width, int rels, int first) {
  std::vector<Attribute> attrs;
  std::vector<std::string> vrels;
  for (int k = 0; k < rels; ++k) {
    vrels.push_back("r" + std::to_string(first + k));
  }
  for (int c = 0; c < width; ++c) {
    attrs.push_back(Attribute{vrels[static_cast<size_t>(c * rels / width)],
                              "c" + std::to_string(first + c)});
  }
  Relation r{Schema(std::move(attrs)), VirtualSchema(std::move(vrels))};
  for (int i = 0; i < kRows; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < width; ++c) row.push_back(Cell(i, first + c));
    r.AddBaseRow(std::move(row), i);
  }
  return r;
}

void BM_EncodeRows(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const Relation r = MakeWide(width, width / 3, 0);
  server::WireResult disposition;
  size_t bytes = 0;
  for (auto _ : state) {
    std::string payload = server::EncodeRows(disposition, r);
    bytes = payload.size();
    benchmark::DoNotOptimize(payload.data());
  }
  state.counters["rows"] = kRows;
  state.counters["frame_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}

void BM_DecodeRows(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const Relation r = MakeWide(width, width / 3, 0);
  const std::string payload = server::EncodeRows(server::WireResult{}, r);
  for (auto _ : state) {
    server::WireResult out;
    GSOPT_CHECK(server::DecodeRows(payload, &out).ok());
    benchmark::DoNotOptimize(out.rows.data());
  }
  state.counters["rows"] = kRows;
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * payload.size()));
}

void BM_JoinConcatWide(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int rels = width / 3;
  const Relation left = MakeWide(width - 3, rels - 1, 0);
  const Relation right = MakeWide(3, 1, width - 3);
  const Schema schema = Schema::Concat(left.schema(), right.schema());
  const VirtualSchema vschema =
      VirtualSchema::Concat(left.vschema(), right.vschema());
  for (auto _ : state) {
    Relation out(schema, vschema);
    for (int64_t i = 0; i < kRows; ++i) {
      out.AddConcat(left.row(i), right.row(kRows - 1 - i));
    }
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.counters["rows"] = kRows;
}

BENCHMARK(BM_EncodeRows)->Arg(9)->Arg(15)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DecodeRows)->Arg(9)->Arg(15)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_JoinConcatWide)->Arg(9)->Arg(15)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_wire);
