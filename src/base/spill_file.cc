#include "base/spill_file.h"

#include <errno.h>
#include <fcntl.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <vector>

namespace gsopt {

namespace {

std::atomic<int64_t> g_live_spill_files{0};

std::string TempDirOr(const std::string& dir) {
  if (!dir.empty()) return dir;
  const char* env = getenv("TMPDIR");
  if (env != nullptr && env[0] != '\0') return env;
  return "/tmp";
}

Status ErrnoStatus(const char* op, int err) {
  std::string msg = std::string("spill: ") + op + ": " + strerror(err);
  // ENOSPC is the canonical persistent spill failure; everything else is
  // an environment problem the engine cannot reason about.
  if (err == ENOSPC) return Status::ResourceExhausted(msg);
  return Status::Internal(msg);
}

}  // namespace

StatusOr<SpillFile> SpillFile::Create(const std::string& dir,
                                      FaultInjector* fault) {
  if (fault != nullptr) {
    Status s = fault->MaybeFail(FaultSite::kSpillOpen, "spill: create");
    if (!s.ok()) return s;
  }
  std::string tmpl = TempDirOr(dir) + "/gsopt-spill-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  int fd = mkstemp(buf.data());
  if (fd < 0) return ErrnoStatus("mkstemp", errno);
  g_live_spill_files.fetch_add(1, std::memory_order_relaxed);
  return SpillFile(fd, std::string(buf.data()), fault);
}

SpillFile::SpillFile(int fd, std::string path, FaultInjector* fault)
    : fd_(fd), path_(std::move(path)), fault_(fault) {
  write_buf_.reserve(kBufferBytes);
}

SpillFile::SpillFile(SpillFile&& o) noexcept
    : fd_(o.fd_),
      path_(std::move(o.path_)),
      fault_(o.fault_),
      write_buf_(std::move(o.write_buf_)),
      read_buf_(std::move(o.read_buf_)),
      read_pos_(o.read_pos_),
      read_len_(o.read_len_),
      bytes_written_(o.bytes_written_),
      bytes_read_(o.bytes_read_) {
  o.fd_ = -1;
}

SpillFile& SpillFile::operator=(SpillFile&& o) noexcept {
  if (this != &o) {
    Discard();
    fd_ = o.fd_;
    path_ = std::move(o.path_);
    fault_ = o.fault_;
    write_buf_ = std::move(o.write_buf_);
    read_buf_ = std::move(o.read_buf_);
    read_pos_ = o.read_pos_;
    read_len_ = o.read_len_;
    bytes_written_ = o.bytes_written_;
    bytes_read_ = o.bytes_read_;
    o.fd_ = -1;
  }
  return *this;
}

SpillFile::~SpillFile() { Discard(); }

void SpillFile::Discard() {
  read_buf_ = std::string();  // a drained run keeps no read-ahead memory
  read_pos_ = read_len_ = 0;
  if (fd_ < 0) return;
  close(fd_);
  unlink(path_.c_str());
  fd_ = -1;
  g_live_spill_files.fetch_sub(1, std::memory_order_relaxed);
}

Status SpillFile::Append(const void* data, size_t len) {
  if (fd_ < 0) return Status::Internal("spill: append after discard");
  if (fault_ != nullptr) {
    GSOPT_RETURN_IF_ERROR(
        fault_->MaybeFail(FaultSite::kSpillWrite, "spill: append"));
  }
  write_buf_.append(static_cast<const char*>(data), len);
  // Account logical bytes at append time: the counter feeds the spill
  // statistics, which report what was spilled, not what has been synced.
  bytes_written_ += static_cast<uint64_t>(len);
  if (write_buf_.size() >= kBufferBytes) return Flush();
  return Status::OK();
}

Status SpillFile::Flush() {
  if (fd_ < 0) return Status::Internal("spill: flush after discard");
  const char* p = write_buf_.data();
  size_t left = write_buf_.size();
  while (left > 0) {
    ssize_t n = write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", errno);
    }
    // A zero/short write is retried: on a real filesystem it precedes
    // ENOSPC, which the next attempt reports.
    p += n;
    left -= static_cast<size_t>(n);
  }
  write_buf_.clear();
  return Status::OK();
}

Status SpillFile::Rewind() {
  GSOPT_RETURN_IF_ERROR(Flush());
  if (lseek(fd_, 0, SEEK_SET) != 0) return ErrnoStatus("lseek", errno);
  read_pos_ = read_len_ = 0;
  return Status::OK();
}

Status SpillFile::ReadExact(void* buf, size_t len) {
  if (fd_ < 0) return Status::Internal("spill: read after discard");
  if (fault_ != nullptr) {
    GSOPT_RETURN_IF_ERROR(
        fault_->MaybeFail(FaultSite::kSpillRead, "spill: read"));
  }
  char* p = static_cast<char*>(buf);
  size_t left = len;
  while (left > 0) {
    if (read_pos_ == read_len_) {
      read_buf_.resize(kBufferBytes);
      ssize_t n = read(fd_, read_buf_.data(), read_buf_.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("read", errno);
      }
      if (n == 0) {
        return Status::Internal("spill: truncated file (record promised " +
                                std::to_string(len) + " bytes, " +
                                std::to_string(len - left) + " available)");
      }
      read_pos_ = 0;
      read_len_ = static_cast<size_t>(n);
    }
    size_t n = std::min(left, read_len_ - read_pos_);
    memcpy(p, read_buf_.data() + read_pos_, n);
    read_pos_ += n;
    p += n;
    left -= n;
    bytes_read_ += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

int64_t SpillFile::LiveCount() {
  return g_live_spill_files.load(std::memory_order_relaxed);
}

}  // namespace gsopt
