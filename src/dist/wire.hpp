// coopcr/dist/wire.hpp
//
// Length-prefixed pipe wire protocol between the sweep coordinator and its
// worker processes.
//
// Every message is one frame: a 4-byte little-endian payload length, a
// 2-byte message type, then the payload. Payload scalars are fixed-width
// little-endian; doubles travel as their IEEE-754 bit pattern, so a
// ReplicaSlot crosses the process boundary bit-exactly — the foundation of
// the dist layer's process- and resume-invariance guarantee.
//
// The conversation is a pure pull protocol (dynamic self-scheduling, which
// is work stealing for free):
//
//   worker → coordinator   kHello   {protocol version, spec digest}
//   coordinator → worker   kUnit    {grid point, replica}
//   worker → coordinator   kResult  {grid point, replica, ReplicaSlot}
//   coordinator → worker   kShutdown
//
// The digest in kHello lets the coordinator refuse a worker that rebuilt a
// *different* grid (exec-mode workers reconstruct the spec from their own
// command line). The same encoding helpers serialise journal records
// (dist/journal.hpp), so wire and disk formats cannot drift apart.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/monte_carlo.hpp"

namespace coopcr::dist {

/// Bumped on any incompatible change to the frame or payload layout.
/// v2: slot layout gained the variance-reduction fields (pair-partner
/// tuples + control-variate predictors). v3: slot layout gained six
/// realised workload-feature doubles. v4: the pair-partner fields are gone —
/// a partner is an ordinary replica with its own unit and slot. v5: the
/// workload-feature doubles are gone with the estimator that binned on them
/// (see encode_slot).
inline constexpr std::uint32_t kProtocolVersion = 5;

/// Upper bound on a frame payload; anything larger is a corrupt stream, not
/// a real message (the largest real payload is a kResult slot: tens of
/// doubles).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Fixed descriptor numbers an exec-mode worker serves on (the coordinator
/// dup2s its pipe ends there before exec).
inline constexpr int kWorkerInFd = 3;
inline constexpr int kWorkerOutFd = 4;

enum class MsgType : std::uint16_t {
  kHello = 1,
  kUnit = 2,
  kResult = 3,
  kShutdown = 4,
};

/// Append-only little-endian payload builder.
class Encoder {
 public:
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 bit pattern — bit-exact round trip.
  void f64(double v);
  /// u32 length + raw bytes.
  void str(const std::string& s);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader; throws coopcr::Error on
/// overrun or (via done()) trailing garbage.
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Decoder(const std::vector<std::uint8_t>& payload)
      : Decoder(payload.data(), payload.size()) {}

  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();

  /// Throws unless the payload was consumed exactly.
  void expect_done() const;

 private:
  const std::uint8_t* take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kShutdown;
  std::vector<std::uint8_t> payload;
};

/// Write all of `data` to `fd`, retrying on EINTR and short writes. Throws
/// coopcr::Error ("<what> write failed: ...") on any write failure.
void write_all(int fd, const std::vector<std::uint8_t>& data,
               const std::string& what);

/// Write all of `frame` to `fd` (retrying on EINTR / short writes). Throws
/// coopcr::Error on any write failure, including EPIPE from a dead peer.
void write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& payload);

/// Blocking read of one frame from `fd`. Returns nullopt on clean EOF at a
/// frame boundary; throws coopcr::Error on mid-frame EOF, oversized frames
/// or read errors. (The coordinator uses FrameBuffer instead — this is the
/// worker-side loop, one frame at a time.)
std::optional<Frame> read_frame(int fd);

/// Incremental frame parser for the coordinator's poll loop: feed whatever
/// bytes arrived, pop complete frames as they materialise.
class FrameBuffer {
 public:
  /// Append raw bytes from a read().
  void feed(const std::uint8_t* data, std::size_t n);

  /// Pop the next complete frame, if one is buffered. Throws coopcr::Error
  /// on an oversized length prefix.
  std::optional<Frame> next();

  /// True when a partial frame is pending (mid-frame EOF detector).
  bool has_partial() const { return !buf_.empty(); }

 private:
  std::vector<std::uint8_t> buf_;
};

// --- typed messages ---------------------------------------------------------

struct HelloMsg {
  std::uint32_t protocol = kProtocolVersion;
  std::uint64_t spec_digest = 0;
};

struct UnitMsg {
  std::uint32_t point = 0;
  std::uint32_t replica = 0;
};

struct ResultMsg {
  std::uint32_t point = 0;
  std::uint32_t replica = 0;
  ReplicaSlot slot;
};

std::vector<std::uint8_t> encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(const std::vector<std::uint8_t>& payload);

/// Coordinator-side admission check: throws coopcr::Error when the hello
/// announces a different protocol version or a different spec digest —
/// a version-skewed or wrong-grid worker must never receive units.
void validate_hello(const HelloMsg& hello, std::uint64_t expected_digest);

std::vector<std::uint8_t> encode_unit(const UnitMsg& msg);
UnitMsg decode_unit(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_result(const ResultMsg& msg);
ResultMsg decode_result(const std::vector<std::uint8_t>& payload);

/// Slot (de)serialisation shared by kResult frames and journal records.
void encode_slot(Encoder& enc, const ReplicaSlot& slot);
ReplicaSlot decode_slot(Decoder& dec);

}  // namespace coopcr::dist
