// gsopt wire protocol: length-prefixed binary frames over TCP.
//
// Every frame is
//
//   [u32 length][u8 type][payload of `length - 1` bytes]
//
// with all integers little-endian and `length` covering the type byte plus
// the payload (so a frame occupies 4 + length bytes on the wire). The
// protocol is strictly request/response per connection: the client may
// pipeline frames, but the server answers them in order, one response
// frame per request frame. Concurrency comes from opening more
// connections, which is also how the load generator drives the admission
// machinery.
//
//   client                               server
//   ------                               ------
//   HELLO{version, tenant}        ->
//                                 <-     HELLO_OK{version, info}
//   QUERY{sql}                    ->
//                                 <-     ROWS{...} | ERROR{...}
//   PREPARE{sql}                  ->
//                                 <-     PREPARED{stmt_id, num_params}
//                                        | ERROR{...}
//   EXECUTE{stmt_id, values}      ->
//                                 <-     ROWS{...} | ERROR{...}
//
// The ROWS frame carries the serving disposition ahead of the data --
// cache-hit flag, degradation (did the optimizer's syntactic fallback
// answer / was the plan space truncated), transient retries --
// so a client can observe *how* its query was served without a side
// channel. The ERROR frame leads with the wire-stable ErrorClass byte
// (base/status.h): `shed` means the admission controller refused the work
// before spending any budget (retry later / elsewhere), `resource-
// exhausted` means an admitted query tripped its tenant caps mid-flight
// (an identical retry meets the identical cap).
//
// Values travel as [u8 tag][body]: NULL (no body), INT64 (8 bytes),
// DOUBLE (8-byte IEEE bit pattern), STRING (u32 length + bytes) --
// exactly the engine's Value taxonomy (relational/value.h).
#ifndef GSOPT_SERVER_PROTOCOL_H_
#define GSOPT_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "relational/relation.h"
#include "relational/value.h"

namespace gsopt::server {

// Protocol revision; bumped on any incompatible frame change. HELLO
// carries the client's revision and the server rejects mismatches, so a
// stale client fails its handshake with a typed error instead of
// misparsing frames.
inline constexpr uint32_t kProtocolVersion = 1;

// A frame longer than this is a protocol error (garbage length prefix or
// a hostile client), not a legitimate result: the server disconnects
// rather than allocating unbounded buffer space.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

// Frame type bytes. Wire-stable: append only, never renumber.
enum class FrameType : uint8_t {
  kHello = 1,     // client->server: u32 version, str tenant
  kHelloOk = 2,   // server->client: u32 version, str server_info
  kQuery = 3,     // client->server: str sql
  kPrepare = 4,   // client->server: str sql
  kPrepared = 5,  // server->client: u64 stmt_id, u32 num_params
  kExecute = 6,   // client->server: u64 stmt_id, u32 n, n values
  kRows = 7,      // server->client: disposition + schema + rows
  kError = 8,     // server->client: u8 class, u8 code, str message
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

// ---------------------------------------------------------------------------
// Payload building blocks (append to / read from a std::string buffer).

void AppendU8(std::string* buf, uint8_t v);
void AppendU32(std::string* buf, uint32_t v);
void AppendU64(std::string* buf, uint64_t v);
void AppendString(std::string* buf, const std::string& s);
void AppendValue(std::string* buf, const Value& v);

// Sequential payload reader. Every Read* returns false past the end (or on
// a malformed value tag) and poisons the reader; callers check ok() once
// at the end of a fixed-shape decode or per-read when lengths are
// data-dependent.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& buf) : buf_(buf) {}

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadString(std::string* v);
  bool ReadValue(Value* v);

  bool ok() const { return ok_; }
  // Bytes not yet consumed.
  size_t remaining() const { return buf_.size() - pos_; }
  // Every byte consumed: a well-formed frame has no trailing garbage.
  bool AtEnd() const { return ok_ && pos_ == buf_.size(); }

 private:
  bool Take(size_t n, const char** out);

  const std::string& buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Whole-payload encode/decode for the composite frames.

// The serving disposition + result data carried by a ROWS frame; also the
// client-side decoded form.
struct WireResult {
  bool cache_hit = false;
  bool degraded = false;    // fallback rung below requested, or truncated
  uint8_t rung = 0;         // FallbackRung that produced the plan
  uint32_t transient_retries = 0;
  std::vector<std::string> columns;  // qualified names, e.g. "r1.a"
  std::vector<std::vector<Value>> rows;
};

std::string EncodeHello(uint32_t version, const std::string& tenant);
Status DecodeHello(const std::string& payload, uint32_t* version,
                   std::string* tenant);

std::string EncodeHelloOk(uint32_t version, const std::string& info);
Status DecodeHelloOk(const std::string& payload, uint32_t* version,
                     std::string* info);

std::string EncodeSql(const std::string& sql);
Status DecodeSql(const std::string& payload, std::string* sql);

std::string EncodePrepared(uint64_t stmt_id, uint32_t num_params);
Status DecodePrepared(const std::string& payload, uint64_t* stmt_id,
                      uint32_t* num_params);

std::string EncodeExecute(uint64_t stmt_id, const std::vector<Value>& params);
Status DecodeExecute(const std::string& payload, uint64_t* stmt_id,
                     std::vector<Value>* params);

// Encodes disposition + the relation's real (visible) columns and rows.
// Virtual row-id attributes never travel: they are an engine-internal
// bookkeeping detail (relational/schema.h).
std::string EncodeRows(const WireResult& result, const Relation& relation);
Status DecodeRows(const std::string& payload, WireResult* out);

// ERROR frame: the wire-stable class byte first (what a client switches
// on), then the internal StatusCode byte and message (diagnostics only --
// clients must not dispatch on them).
std::string EncodeError(const Status& status);
// Reconstructs a Status whose error_class() round-trips; the returned
// class out-param is the authoritative wire value.
Status DecodeError(const std::string& payload, ErrorClass* cls,
                   std::string* message);

// ---------------------------------------------------------------------------
// Blocking framed I/O over a connected socket (client side and tests; the
// server's event loop does its own non-blocking buffering). Both loop over
// short reads/writes; ReadFrame fails with kUnavailable on EOF/IO errors
// and kInvalidArgument on an oversized length prefix.

Status WriteFrame(int fd, FrameType type, const std::string& payload);
StatusOr<Frame> ReadFrame(int fd);

// Extracts one complete frame from the front of `buf` (the server's
// per-connection read buffer), erasing the consumed bytes. Returns:
// 1 = frame extracted, 0 = need more bytes, -1 = protocol error (frame
// length exceeds kMaxFrameBytes).
int ExtractFrame(std::string* buf, Frame* out);

}  // namespace gsopt::server

#endif  // GSOPT_SERVER_PROTOCOL_H_
