// SpillFile: the RAII temp-file primitive under the out-of-core path.
// Round-trips bytes through the write and read buffers, enforces the
// unlink-on-destruction contract (LiveCount is the process-wide leak
// oracle), reports truncated reads as kInternal, reads small records back
// with one syscall per buffer, and surfaces injected spill-I/O faults with
// the right status taxonomy.
#include "base/spill_file.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "base/fault_injector.h"

namespace gsopt {
namespace {

bool PathExists(const std::string& p) {
  struct stat st;
  return ::stat(p.c_str(), &st) == 0;
}

TEST(SpillFileTest, RoundTripsBytesAcrossBufferBoundary) {
  auto f = SpillFile::Create("", nullptr);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  // Three appends totalling > kBufferBytes so at least one internal flush
  // happens mid-write.
  std::string a(SpillFile::kBufferBytes - 7, 'a');
  std::string b(SpillFile::kBufferBytes, 'b');
  std::string c = "tail";
  ASSERT_TRUE(f->Append(a.data(), a.size()).ok());
  ASSERT_TRUE(f->Append(b.data(), b.size()).ok());
  ASSERT_TRUE(f->Append(c.data(), c.size()).ok());
  EXPECT_EQ(f->bytes_written(), a.size() + b.size() + c.size());

  ASSERT_TRUE(f->Rewind().ok());
  std::string back(a.size() + b.size() + c.size(), '\0');
  ASSERT_TRUE(f->ReadExact(back.data(), back.size()).ok());
  EXPECT_EQ(back, a + b + c);
  EXPECT_EQ(f->bytes_read(), back.size());
}

TEST(SpillFileTest, TruncatedReadIsInternalNotCrash) {
  auto f = SpillFile::Create("", nullptr);
  ASSERT_TRUE(f.ok());
  const char payload[] = "short";
  ASSERT_TRUE(f->Append(payload, sizeof payload).ok());
  ASSERT_TRUE(f->Rewind().ok());
  char buf[64];
  Status s = f->ReadExact(buf, sizeof buf);  // asks for more than written
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(SpillFileTest, RecordSpanningARefillReadsBack) {
  auto f = SpillFile::Create("", nullptr);
  ASSERT_TRUE(f.ok());
  std::string head(SpillFile::kBufferBytes - 3, 'h');
  std::string record = "0123456789";
  ASSERT_TRUE(f->Append(head.data(), head.size()).ok());
  ASSERT_TRUE(f->Append(record.data(), record.size()).ok());
  ASSERT_TRUE(f->Rewind().ok());
  std::string got_head(head.size(), '\0');
  ASSERT_TRUE(f->ReadExact(got_head.data(), got_head.size()).ok());
  EXPECT_EQ(got_head, head);
  // Three bytes come from the first buffer, seven from the refill.
  std::string got(record.size(), '\0');
  ASSERT_TRUE(f->ReadExact(got.data(), got.size()).ok());
  EXPECT_EQ(got, record);
  EXPECT_EQ(f->bytes_read(), head.size() + record.size());
}

TEST(SpillFileTest, TruncationAfterAPartialBufferIsInternal) {
  auto f = SpillFile::Create("", nullptr);
  ASSERT_TRUE(f.ok());
  std::string data(SpillFile::kBufferBytes + 5, 'd');
  ASSERT_TRUE(f->Append(data.data(), data.size()).ok());
  ASSERT_TRUE(f->Rewind().ok());
  std::string got(SpillFile::kBufferBytes - 1, '\0');
  ASSERT_TRUE(f->ReadExact(got.data(), got.size()).ok());
  // One byte left in the buffer, five in the file: a 100-byte record is
  // truncated, and the error says how much was there.
  char buf[100];
  Status s = f->ReadExact(buf, sizeof buf);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("record promised 100 bytes, 6 available"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(f->bytes_read(), data.size());
}

TEST(SpillFileTest, RewindMidReadRestartsFromTheFirstByte) {
  auto f = SpillFile::Create("", nullptr);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f->Append("abcdefgh", 8).ok());
  ASSERT_TRUE(f->Rewind().ok());
  char buf[8];
  ASSERT_TRUE(f->ReadExact(buf, 3).ok());
  EXPECT_EQ(std::string(buf, 3), "abc");
  // The buffered read-ahead ("defgh") must not survive the rewind.
  ASSERT_TRUE(f->Rewind().ok());
  ASSERT_TRUE(f->ReadExact(buf, 8).ok());
  EXPECT_EQ(std::string(buf, 8), "abcdefgh");
  EXPECT_EQ(f->bytes_read(), 11u);
}

// The process's read-syscall count (the `syscr` line of /proc/self/io), or
// -1 when that file is unreadable.
int64_t ReadSyscalls() {
  std::ifstream io("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "syscr:") return value;
  }
  return -1;
}

TEST(SpillFileTest, SmallRecordsReadBackWithFewSyscalls) {
  auto f = SpillFile::Create("", nullptr);
  ASSERT_TRUE(f.ok());
  constexpr int kRecords = 4096;
  for (int64_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(f->Append(&i, sizeof i).ok());
  }
  ASSERT_TRUE(f->Rewind().ok());
  const int64_t before = ReadSyscalls();
  if (before < 0) GTEST_SKIP() << "/proc/self/io is unreadable";
  for (int64_t i = 0; i < kRecords; ++i) {
    int64_t v = -1;
    ASSERT_TRUE(f->ReadExact(&v, sizeof v).ok());
    ASSERT_EQ(v, i);
  }
  // 32 KB of records fit one buffer: one read() plus the probe's own.
  EXPECT_LT(ReadSyscalls() - before, 16);
}

TEST(SpillFileTest, DestructorUnlinksAndLiveCountReturnsToZero) {
  int64_t before = SpillFile::LiveCount();
  std::string path;
  {
    auto f = SpillFile::Create("", nullptr);
    ASSERT_TRUE(f.ok());
    path = f->path();
    ASSERT_TRUE(f->Append("x", 1).ok());
    ASSERT_TRUE(f->Flush().ok());
    EXPECT_EQ(SpillFile::LiveCount(), before + 1);
    EXPECT_TRUE(PathExists(path));
  }
  EXPECT_EQ(SpillFile::LiveCount(), before);
  EXPECT_FALSE(PathExists(path));
}

TEST(SpillFileTest, DiscardIsIdempotentAndMoveTransfersOwnership) {
  int64_t before = SpillFile::LiveCount();
  auto f = SpillFile::Create("", nullptr);
  ASSERT_TRUE(f.ok());
  std::string path = f->path();
  SpillFile moved = std::move(*f);
  EXPECT_EQ(SpillFile::LiveCount(), before + 1);  // one file, not two
  moved.Discard();
  EXPECT_FALSE(PathExists(path));
  EXPECT_EQ(SpillFile::LiveCount(), before);
  moved.Discard();  // idempotent
  EXPECT_EQ(SpillFile::LiveCount(), before);
}

TEST(SpillFileTest, CreateInMissingDirectoryFailsCleanly) {
  auto f = SpillFile::Create("/nonexistent-gsopt-spill-dir", nullptr);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInternal);
  EXPECT_EQ(SpillFile::LiveCount(), 0);
}

TEST(SpillFileTest, InjectedOpenFaultIsResourceExhausted) {
  FaultInjector::Options o;
  o.seed = 42;
  o.period = 1;
  o.site_mask = FaultInjector::MaskOf({FaultSite::kSpillOpen});
  FaultInjector fi(o);
  auto f = SpillFile::Create("", &fi);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(f.status().message().find("injected"), std::string::npos);
  EXPECT_EQ(SpillFile::LiveCount(), 0);  // the failed create leaked nothing
}

TEST(SpillFileTest, InjectedWriteFaultSurfacesOnAppendOrFlush) {
  FaultInjector::Options o;
  o.seed = 7;
  o.period = 1;
  o.max_faults = 1;  // create succeeds, first write probe fires
  o.site_mask = FaultInjector::MaskOf({FaultSite::kSpillWrite});
  FaultInjector fi(o);
  auto f = SpillFile::Create("", &fi);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  std::string big(SpillFile::kBufferBytes * 2, 'z');
  Status s = f->Append(big.data(), big.size());
  if (s.ok()) s = f->Flush();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.code() == StatusCode::kResourceExhausted ||
              s.code() == StatusCode::kUnavailable)
      << s.ToString();
}

TEST(SpillFileTest, InjectedReadFaultIsTransient) {
  FaultInjector::Options o;
  o.seed = 9;
  o.period = 1;
  o.site_mask = FaultInjector::MaskOf({FaultSite::kSpillRead});
  FaultInjector fi(o);
  auto f = SpillFile::Create("", &fi);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f->Append("abc", 3).ok());
  ASSERT_TRUE(f->Rewind().ok());
  char buf[3];
  Status s = f->ReadExact(buf, sizeof buf);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(s.IsTransient());
}

}  // namespace
}  // namespace gsopt
