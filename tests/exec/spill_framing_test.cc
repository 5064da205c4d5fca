// Spill record-framing bounds: the on-disk tuple record stores value and
// vid counts as u16 and lengths as u32, so AppendTupleRecord must reject
// tuples past those limits with a typed Status and leave the output buffer
// untouched (the old unchecked casts silently truncated the counts, which
// corrupted every subsequent record in the run). Also round-trips records
// through a real SpillFile at the exact framing boundary.
#include "exec/spill.h"

#include <gtest/gtest.h>

#include <string>

#include "base/spill_file.h"
#include "relational/relation.h"
#include "relational/value.h"

namespace gsopt {
namespace {

using exec::internal::AppendTupleRecord;
using exec::internal::ReadTupleRecord;
using exec::internal::WriteTupleRecord;

OwnedTuple WideTuple(size_t values, size_t vids) {
  OwnedTuple t;
  t.values.reserve(values);
  for (size_t i = 0; i < values; ++i) {
    t.values.push_back(Value::Int(static_cast<int64_t>(i)));
  }
  t.vids.assign(vids, static_cast<RowId>(7));
  return t;
}

TEST(SpillFramingTest, RejectsTooManyValuesAndLeavesBufferUntouched) {
  OwnedTuple t = WideTuple(70000, 1);
  std::string buf = "prefix";
  Status s = AppendTupleRecord(t, 0, &buf);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(buf, "prefix");  // rolled back, no partial record
}

TEST(SpillFramingTest, RejectsTooManyVids) {
  OwnedTuple t = WideTuple(1, 70000);
  std::string buf;
  Status s = AppendTupleRecord(t, 0, &buf);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(buf.empty());
}

TEST(SpillFramingTest, AcceptsExactU16Boundary) {
  OwnedTuple t = WideTuple(65535, 65535);
  std::string buf;
  EXPECT_TRUE(AppendTupleRecord(t, 42, &buf).ok());
  EXPECT_FALSE(buf.empty());
  OwnedTuple over = WideTuple(65536, 1);
  std::string buf2;
  EXPECT_EQ(AppendTupleRecord(over, 42, &buf2).code(),
            StatusCode::kResourceExhausted);
}

TEST(SpillFramingTest, BoundaryRecordRoundTripsThroughSpillFile) {
  auto f = SpillFile::Create("", nullptr);
  ASSERT_TRUE(f.ok());
  OwnedTuple t = WideTuple(65535, 3);
  t.values[0] = Value::Null();
  t.values[1] = Value::String("payload \x01 with bytes");
  t.values[2] = Value::Double(-0.0);
  t.vids[1] = kNullRowId;
  std::string scratch;
  ASSERT_TRUE(WriteTupleRecord(&*f, t, /*orig=*/123456789, &scratch).ok());
  ASSERT_TRUE(f->Rewind().ok());
  OwnedTuple back;
  int64_t orig = -1;
  ASSERT_TRUE(ReadTupleRecord(&*f, &back, &orig).ok());
  EXPECT_EQ(orig, 123456789);
  ASSERT_EQ(back.values.size(), t.values.size());
  for (size_t i = 0; i < t.values.size(); ++i) {
    EXPECT_TRUE(Value::IdentityEquals(back.values[i], t.values[i])) << i;
  }
  EXPECT_EQ(back.vids, t.vids);
}

TEST(SpillFramingTest, TruncatedRecordReadsAsInternal) {
  auto f = SpillFile::Create("", nullptr);
  ASSERT_TRUE(f.ok());
  std::string scratch;
  const OwnedTuple t = WideTuple(4, 2);
  ASSERT_TRUE(WriteTupleRecord(&*f, t, 7, &scratch).ok());
  // A second, cut-off record: write only half of its bytes.
  std::string rec;
  ASSERT_TRUE(AppendTupleRecord(t, 8, &rec).ok());
  ASSERT_TRUE(f->Append(rec.data(), rec.size() / 2).ok());
  ASSERT_TRUE(f->Rewind().ok());
  OwnedTuple back;
  int64_t orig = 0;
  ASSERT_TRUE(ReadTupleRecord(&*f, &back, &orig).ok());
  EXPECT_EQ(ReadTupleRecord(&*f, &back, &orig).code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace gsopt
