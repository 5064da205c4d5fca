#include "server/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include "base/check.h"

namespace gsopt::server {

namespace {

// Value tag bytes mirror ValueType but are independently frozen: the enum
// is internal, the wire is not.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

// `v` in wire (little-endian) byte order, whatever the host's.
template <typename T>
T ToWire(T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::big) {
    T r = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      r = static_cast<T>((r << 8) | ((v >> (8 * i)) & 0xff));
    }
    return r;
  }
  return v;
}

// Writes little-endian fixed-width fields and raw bytes into a buffer
// already sized for them: the one writer behind every Append* helper and
// the one-pass ROWS encoder.
class WireWriter {
 public:
  explicit WireWriter(char* p) : p_(p) {}

  void U8(uint8_t v) { *p_++ = static_cast<char>(v); }
  template <typename T>
  void Fixed(T v) {
    v = ToWire(v);
    std::memcpy(p_, &v, sizeof v);
    p_ += sizeof v;
  }
  void Bytes(const char* s, size_t n) {
    std::memcpy(p_, s, n);
    p_ += n;
  }
  void WriteString(const std::string& s) {
    Fixed(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  // The [u8 tag][body] encoding of one value, and its size.
  static size_t ValueBytes(const Value& v) {
    switch (v.type()) {
      case ValueType::kNull:
        return 1;
      case ValueType::kInt:
      case ValueType::kDouble:
        return 9;
      case ValueType::kString:
        return 5 + v.AsString().size();
    }
    return 1;
  }
  void WriteValue(const Value& v) {
    switch (v.type()) {
      case ValueType::kNull:
        U8(kTagNull);
        return;
      case ValueType::kInt:
        U8(kTagInt);
        Fixed(static_cast<uint64_t>(v.AsInt()));
        return;
      case ValueType::kDouble:
        U8(kTagDouble);
        Fixed(std::bit_cast<uint64_t>(v.AsDouble()));
        return;
      case ValueType::kString:
        U8(kTagString);
        WriteString(v.AsString());
        return;
    }
  }

  char* end() const { return p_; }

 private:
  char* p_;
};

// Grows `buf` by `n` bytes and returns a writer over the new tail.
WireWriter Extend(std::string* buf, size_t n) {
  const size_t at = buf->size();
  buf->resize(at + n);
  return WireWriter(buf->data() + at);
}

}  // namespace

void AppendU8(std::string* buf, uint8_t v) {
  buf->push_back(static_cast<char>(v));
}

void AppendU32(std::string* buf, uint32_t v) { Extend(buf, 4).Fixed(v); }

void AppendU64(std::string* buf, uint64_t v) { Extend(buf, 8).Fixed(v); }

void AppendString(std::string* buf, const std::string& s) {
  Extend(buf, 4 + s.size()).WriteString(s);
}

void AppendValue(std::string* buf, const Value& v) {
  Extend(buf, WireWriter::ValueBytes(v)).WriteValue(v);
}

bool PayloadReader::Take(size_t n, const char** out) {
  if (!ok_ || buf_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = buf_.data() + pos_;
  pos_ += n;
  return true;
}

bool PayloadReader::ReadU8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool PayloadReader::ReadU32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = r;
  return true;
}

bool PayloadReader::ReadU64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = r;
  return true;
}

bool PayloadReader::ReadString(std::string* v) {
  uint32_t len;
  if (!ReadU32(&len)) return false;
  const char* p;
  if (!Take(len, &p)) return false;
  v->assign(p, len);
  return true;
}

bool PayloadReader::ReadValue(Value* v) {
  uint8_t tag;
  if (!ReadU8(&tag)) return false;
  switch (tag) {
    case kTagNull:
      *v = Value::Null();
      return true;
    case kTagInt: {
      uint64_t bits;
      if (!ReadU64(&bits)) return false;
      *v = Value::Int(static_cast<int64_t>(bits));
      return true;
    }
    case kTagDouble: {
      uint64_t bits;
      if (!ReadU64(&bits)) return false;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *v = Value::Double(d);
      return true;
    }
    case kTagString: {
      std::string s;
      if (!ReadString(&s)) return false;
      *v = Value::String(std::move(s));
      return true;
    }
    default:
      ok_ = false;
      return false;
  }
}

// ---------------------------------------------------------------------------

std::string EncodeHello(uint32_t version, const std::string& tenant) {
  std::string p;
  AppendU32(&p, version);
  AppendString(&p, tenant);
  return p;
}

Status DecodeHello(const std::string& payload, uint32_t* version,
                   std::string* tenant) {
  PayloadReader r(payload);
  if (!r.ReadU32(version) || !r.ReadString(tenant) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed HELLO frame");
  }
  return Status::OK();
}

std::string EncodeHelloOk(uint32_t version, const std::string& info) {
  std::string p;
  AppendU32(&p, version);
  AppendString(&p, info);
  return p;
}

Status DecodeHelloOk(const std::string& payload, uint32_t* version,
                     std::string* info) {
  PayloadReader r(payload);
  if (!r.ReadU32(version) || !r.ReadString(info) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed HELLO_OK frame");
  }
  return Status::OK();
}

std::string EncodeSql(const std::string& sql) {
  std::string p;
  AppendString(&p, sql);
  return p;
}

Status DecodeSql(const std::string& payload, std::string* sql) {
  PayloadReader r(payload);
  if (!r.ReadString(sql) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed QUERY/PREPARE frame");
  }
  return Status::OK();
}

std::string EncodePrepared(uint64_t stmt_id, uint32_t num_params) {
  std::string p;
  AppendU64(&p, stmt_id);
  AppendU32(&p, num_params);
  return p;
}

Status DecodePrepared(const std::string& payload, uint64_t* stmt_id,
                      uint32_t* num_params) {
  PayloadReader r(payload);
  if (!r.ReadU64(stmt_id) || !r.ReadU32(num_params) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed PREPARED frame");
  }
  return Status::OK();
}

std::string EncodeExecute(uint64_t stmt_id, const std::vector<Value>& params) {
  std::string p;
  AppendU64(&p, stmt_id);
  AppendU32(&p, static_cast<uint32_t>(params.size()));
  for (const Value& v : params) AppendValue(&p, v);
  return p;
}

Status DecodeExecute(const std::string& payload, uint64_t* stmt_id,
                     std::vector<Value>* params) {
  PayloadReader r(payload);
  uint32_t n = 0;
  if (!r.ReadU64(stmt_id) || !r.ReadU32(&n)) {
    return Status::InvalidArgument("malformed EXECUTE frame");
  }
  // Every value takes at least its tag byte: a larger count is a lie that
  // must not size an allocation.
  if (n > r.remaining()) {
    return Status::InvalidArgument("EXECUTE parameter count " +
                                   std::to_string(n) + " exceeds its payload");
  }
  params->clear();
  params->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    if (!r.ReadValue(&v)) {
      return Status::InvalidArgument("malformed EXECUTE parameter");
    }
    params->push_back(std::move(v));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("malformed EXECUTE frame");
  return Status::OK();
}

std::string EncodeRows(const WireResult& result, const Relation& relation) {
  // One pass sizes the frame, a second writes it: rows travel in the
  // relation's own row-major order, so both walk its value buffer straight
  // through.
  const Schema& schema = relation.schema();
  const std::span<const Value> values = relation.values();
  size_t size = 7 + 4 + 8;
  for (const Attribute& a : schema.attrs()) {
    size += 4 + a.rel.size() + 1 + a.name.size();
  }
  for (const Value& v : values) size += WireWriter::ValueBytes(v);

  std::string p(size, '\0');
  WireWriter w(p.data());
  w.U8(result.cache_hit ? 1 : 0);
  w.U8(result.degraded ? 1 : 0);
  w.U8(result.rung);
  w.Fixed(result.transient_retries);
  w.Fixed(static_cast<uint32_t>(schema.size()));
  for (const Attribute& a : schema.attrs()) {  // Attribute::Qualified()
    w.Fixed(static_cast<uint32_t>(a.rel.size() + 1 + a.name.size()));
    w.Bytes(a.rel.data(), a.rel.size());
    w.U8('.');
    w.Bytes(a.name.data(), a.name.size());
  }
  w.Fixed(static_cast<uint64_t>(relation.NumRows()));
  for (const Value& v : values) w.WriteValue(v);
  GSOPT_DCHECK(w.end() == p.data() + p.size());
  return p;
}

Status DecodeRows(const std::string& payload, WireResult* out) {
  PayloadReader r(payload);
  uint8_t cache_hit = 0, degraded = 0;
  uint32_t ncols = 0;
  uint64_t nrows = 0;
  if (!r.ReadU8(&cache_hit) || !r.ReadU8(&degraded) || !r.ReadU8(&out->rung) ||
      !r.ReadU32(&out->transient_retries) || !r.ReadU32(&ncols)) {
    return Status::InvalidArgument("malformed ROWS frame");
  }
  out->cache_hit = cache_hit != 0;
  out->degraded = degraded != 0;
  // Counts are bounded by what the rest of the payload can hold before
  // they size anything: a column name takes at least its 4-byte length,
  // a value at least its tag byte.
  if (ncols > r.remaining() / 4) {
    return Status::InvalidArgument("ROWS column count " +
                                   std::to_string(ncols) +
                                   " exceeds its payload");
  }
  out->columns.clear();
  out->columns.reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    std::string name;
    if (!r.ReadString(&name)) {
      return Status::InvalidArgument("malformed ROWS schema");
    }
    out->columns.push_back(std::move(name));
  }
  if (!r.ReadU64(&nrows)) return Status::InvalidArgument("malformed ROWS frame");
  // Rows of a zero-column result (SELECT * over a zero-column table) take
  // no bytes, so their count is bounded like the frame itself: at most one
  // row per byte a frame may hold. Only a count the payload vouches for
  // sizes the row vector up front.
  if (ncols == 0 ? nrows > kMaxFrameBytes : nrows > r.remaining() / ncols) {
    return Status::InvalidArgument("ROWS row count " + std::to_string(nrows) +
                                   " exceeds its payload");
  }
  out->rows.clear();
  if (ncols > 0) out->rows.reserve(nrows);
  for (uint64_t i = 0; i < nrows; ++i) {
    std::vector<Value> row;
    row.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      Value v;
      if (!r.ReadValue(&v)) return Status::InvalidArgument("malformed ROWS row");
      row.push_back(std::move(v));
    }
    out->rows.push_back(std::move(row));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("malformed ROWS frame");
  return Status::OK();
}

std::string EncodeError(const Status& status) {
  std::string p;
  AppendU8(&p, static_cast<uint8_t>(status.error_class()));
  AppendU8(&p, static_cast<uint8_t>(status.code()));
  AppendString(&p, status.message());
  return p;
}

Status DecodeError(const std::string& payload, ErrorClass* cls,
                   std::string* message) {
  PayloadReader r(payload);
  uint8_t cls_byte = 0, code_byte = 0;
  if (!r.ReadU8(&cls_byte) || !r.ReadU8(&code_byte) ||
      !r.ReadString(message) || !r.AtEnd()) {
    return Status::InvalidArgument("malformed ERROR frame");
  }
  *cls = ErrorClassFromWire(cls_byte);
  return Status::OK();
}

// ---------------------------------------------------------------------------

Status WriteFrame(int fd, FrameType type, const std::string& payload) {
  std::string wire;
  wire.reserve(5 + payload.size());
  AppendU32(&wire, static_cast<uint32_t>(1 + payload.size()));
  AppendU8(&wire, static_cast<uint8_t>(type));
  wire.append(payload);
  size_t sent = 0;
  while (sent < wire.size()) {
    // MSG_NOSIGNAL: a peer that hung up mid-response must surface as
    // EPIPE, not kill the server with SIGPIPE.
    ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR)) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full (a slow reader): wait for writability rather
      // than spinning; a peer that stays unwritable is treated as gone.
      struct pollfd pfd{fd, POLLOUT, 0};
      int pr = ::poll(&pfd, 1, /*timeout_ms=*/5000);
      if (pr > 0) continue;
      return Status::Unavailable("write stalled: peer not draining");
    }
    return Status::Unavailable(std::string("write failed: ") +
                               std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<Frame> ReadFrame(int fd) {
  auto read_exact = [fd](char* dst, size_t n) -> Status {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::read(fd, dst + got, n - got);
      if (r > 0) {
        got += static_cast<size_t>(r);
        continue;
      }
      if (r == 0) return Status::Unavailable("connection closed by peer");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        struct pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, /*timeout_ms=*/30000) > 0) continue;
        return Status::Unavailable("read timed out");
      }
      return Status::Unavailable(std::string("read failed: ") +
                                 std::strerror(errno));
    }
    return Status::OK();
  };

  char len_bytes[4];
  GSOPT_RETURN_IF_ERROR(read_exact(len_bytes, 4));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(len_bytes[i])) << (8 * i);
  }
  if (len < 1 || len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length " + std::to_string(len) +
                                   " outside [1, " +
                                   std::to_string(kMaxFrameBytes) + "]");
  }
  Frame f;
  char type_byte;
  GSOPT_RETURN_IF_ERROR(read_exact(&type_byte, 1));
  f.type = static_cast<FrameType>(static_cast<uint8_t>(type_byte));
  f.payload.resize(len - 1);
  if (len > 1) GSOPT_RETURN_IF_ERROR(read_exact(f.payload.data(), len - 1));
  return f;
}

int ExtractFrame(std::string* buf, Frame* out) {
  if (buf->size() < 4) return 0;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>((*buf)[i])) << (8 * i);
  }
  if (len < 1 || len > kMaxFrameBytes) return -1;
  if (buf->size() < 4u + len) return 0;
  out->type = static_cast<FrameType>(static_cast<uint8_t>((*buf)[4]));
  out->payload.assign(buf->data() + 5, len - 1);
  buf->erase(0, 4u + len);
  return 1;
}

}  // namespace gsopt::server
