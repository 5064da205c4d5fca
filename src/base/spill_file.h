// SpillFile: an RAII temporary file for out-of-core operator state.
//
// The spill path (exec/spill.cc) radix-partitions hash-join build/probe
// state and aggregation input into per-partition runs; each run is one
// SpillFile. The contract this class owns:
//
//   * the backing file is created with mkstemp under the configured
//     directory (default: the system temp dir) and unlinked in the
//     destructor, so no code path -- success, error, injected fault --
//     can leak a temp file. LiveCount() exposes the number of files
//     currently alive process-wide; the chaos oracle asserts it returns
//     to zero after every case, which is the leak test the error-path
//     hygiene satellite asks for;
//   * writes are buffered (kBufferBytes) and flushed with a full-write
//     loop, so a real short write is retried and only a true error (e.g.
//     ENOSPC -> kResourceExhausted) surfaces;
//   * every open/append/read probes the FaultInjector (if provided) at
//     the matching site, which is how the chaos harness exercises ENOSPC
//     and short-I/O recovery without filling a disk.
//
// Reading: Rewind() flushes and seeks to the start; ReadExact() then
// consumes sequentially, served from a kBufferBytes read buffer refilled
// with one read() at a time, so reading back many small records costs one
// syscall per buffer, not one per record. A SpillFile is single-threaded,
// like the serial spill kernels that use it.
#ifndef GSOPT_BASE_SPILL_FILE_H_
#define GSOPT_BASE_SPILL_FILE_H_

#include <cstdint>
#include <string>

#include "base/fault_injector.h"
#include "base/status.h"

namespace gsopt {

class SpillFile {
 public:
  static constexpr size_t kBufferBytes = 1u << 16;

  // Creates (open + mkstemp) a spill file under `dir`; empty uses the
  // system temp directory. `fault` may be null.
  static StatusOr<SpillFile> Create(const std::string& dir,
                                    FaultInjector* fault);

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  SpillFile(SpillFile&& o) noexcept;
  SpillFile& operator=(SpillFile&& o) noexcept;
  ~SpillFile();

  Status Append(const void* data, size_t len);
  Status Flush();
  // Flush + seek to offset 0 for read-back (drops any buffered read-ahead).
  Status Rewind();
  // Reads exactly `len` bytes; kInternal on a truncated file (a record
  // header promised more bytes than the file holds). Probes the read fault
  // site once per call, however many refills the call takes.
  Status ReadExact(void* buf, size_t len);
  // Close + unlink early (destructor-equivalent); idempotent.
  void Discard();

  uint64_t bytes_written() const { return bytes_written_; }
  // Bytes handed to ReadExact callers (not bytes read ahead).
  uint64_t bytes_read() const { return bytes_read_; }
  const std::string& path() const { return path_; }

  // Process-wide count of spill files currently open: the leak oracle.
  static int64_t LiveCount();

 private:
  SpillFile(int fd, std::string path, FaultInjector* fault);

  int fd_ = -1;
  std::string path_;
  FaultInjector* fault_ = nullptr;
  std::string write_buf_;
  std::string read_buf_;  // read-ahead; [read_pos_, read_len_) unconsumed
  size_t read_pos_ = 0;
  size_t read_len_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
};

}  // namespace gsopt

#endif  // GSOPT_BASE_SPILL_FILE_H_
