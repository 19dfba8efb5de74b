// Wire protocol invariants: bit-exact slot round trips, incremental frame
// parsing under arbitrary chunking, and corrupt-stream rejection.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "dist/wire.hpp"
#include "util/error.hpp"

namespace coopcr::dist {
namespace {

ReplicaSlot sample_slot() {
  ReplicaSlot slot;
  slot.baseline_useful = 1.0 / 3.0;
  slot.baseline_useful_energy = 6.02214076e23;
  slot.per_strategy.resize(2);
  slot.per_strategy[0].waste_ratio = 0.1234567890123456789;
  slot.per_strategy[0].efficiency = -0.0;  // signed zero must survive
  slot.per_strategy[0].utilization = std::numeric_limits<double>::denorm_min();
  slot.per_strategy[0].failures_hit = 3.0;
  slot.per_strategy[0].checkpoints = 17.0;
  slot.per_strategy[0].energy_joules = 1e9 + 1e-9;
  slot.per_strategy[0].energy_waste_ratio = 0.25;
  slot.per_strategy[0].ckpt_waste_ratio = 0.0625;
  slot.per_strategy[1].waste_ratio = std::nextafter(1.0, 2.0);
  // Slot layout v3: realised workload features (post-stratification bins on
  // these).
  slot.work_total = 8.64e11 + 0.5;
  slot.work_jobs = 4096.0;
  slot.work_max_share = std::nextafter(0.66, 1.0);
  return slot;
}

bool bit_equal(double a, double b) {
  std::uint64_t ba;
  std::uint64_t bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

TEST(Wire, SlotRoundTripIsBitExact) {
  const ReplicaSlot slot = sample_slot();
  Encoder enc;
  encode_slot(enc, slot);
  Decoder dec(enc.bytes());
  const ReplicaSlot out = decode_slot(dec);
  dec.expect_done();

  EXPECT_TRUE(bit_equal(out.baseline_useful, slot.baseline_useful));
  EXPECT_TRUE(
      bit_equal(out.baseline_useful_energy, slot.baseline_useful_energy));
  EXPECT_TRUE(bit_equal(out.work_total, slot.work_total));
  EXPECT_TRUE(bit_equal(out.work_jobs, slot.work_jobs));
  EXPECT_TRUE(bit_equal(out.work_max_share, slot.work_max_share));
  ASSERT_EQ(out.per_strategy.size(), slot.per_strategy.size());
  for (std::size_t s = 0; s < slot.per_strategy.size(); ++s) {
    const ReplicaStrategyMetrics& a = slot.per_strategy[s];
    const ReplicaStrategyMetrics& b = out.per_strategy[s];
    EXPECT_TRUE(bit_equal(a.waste_ratio, b.waste_ratio));
    EXPECT_TRUE(bit_equal(a.efficiency, b.efficiency));
    EXPECT_TRUE(bit_equal(a.utilization, b.utilization));
    EXPECT_TRUE(bit_equal(a.failures_hit, b.failures_hit));
    EXPECT_TRUE(bit_equal(a.checkpoints, b.checkpoints));
    EXPECT_TRUE(bit_equal(a.energy_joules, b.energy_joules));
    EXPECT_TRUE(bit_equal(a.energy_waste_ratio, b.energy_waste_ratio));
    EXPECT_TRUE(bit_equal(a.ckpt_waste_ratio, b.ckpt_waste_ratio));
  }
}

TEST(Wire, TypedMessagesRoundTrip) {
  HelloMsg hello;
  hello.spec_digest = 0xDEADBEEFCAFEF00Dull;
  const HelloMsg hello2 = decode_hello(encode_hello(hello));
  EXPECT_EQ(hello2.protocol, kProtocolVersion);
  EXPECT_EQ(hello2.spec_digest, hello.spec_digest);

  const UnitMsg unit2 = decode_unit(encode_unit(UnitMsg{7, 42}));
  EXPECT_EQ(unit2.point, 7u);
  EXPECT_EQ(unit2.replica, 42u);

  ResultMsg result;
  result.point = 3;
  result.replica = 9;
  result.slot = sample_slot();
  const ResultMsg result2 = decode_result(encode_result(result));
  EXPECT_EQ(result2.point, 3u);
  EXPECT_EQ(result2.replica, 9u);
  ASSERT_EQ(result2.slot.per_strategy.size(), 2u);
  EXPECT_TRUE(bit_equal(result2.slot.per_strategy[1].waste_ratio,
                        result.slot.per_strategy[1].waste_ratio));
}

TEST(Wire, FrameBufferReassemblesByteAtATime) {
  // Serialise two frames, then feed the bytes one at a time: each frame
  // must pop exactly once, exactly when its last byte arrives.
  Encoder enc;
  enc.u32(8);  // first frame: 8-byte payload
  enc.u16(static_cast<std::uint16_t>(MsgType::kHello));
  enc.u64(123);
  enc.u32(0);  // second frame: empty shutdown
  enc.u16(static_cast<std::uint16_t>(MsgType::kShutdown));
  const std::vector<std::uint8_t>& stream = enc.bytes();

  FrameBuffer buffer;
  int frames = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    buffer.feed(&stream[i], 1);
    while (auto frame = buffer.next()) {
      if (frames == 0) {
        EXPECT_EQ(frame->type, MsgType::kHello);
        EXPECT_EQ(frame->payload.size(), 8u);
      } else {
        EXPECT_EQ(frame->type, MsgType::kShutdown);
        EXPECT_TRUE(frame->payload.empty());
      }
      ++frames;
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_FALSE(buffer.has_partial());
}

TEST(Wire, FrameBufferRejectsOversizedFrames) {
  Encoder enc;
  enc.u32(kMaxFramePayload + 1);
  enc.u16(static_cast<std::uint16_t>(MsgType::kResult));
  FrameBuffer buffer;
  buffer.feed(enc.bytes().data(), enc.bytes().size());
  EXPECT_THROW(buffer.next(), Error);
}

TEST(Wire, DecoderRejectsOverrunAndTrailingBytes) {
  Encoder enc;
  enc.u32(5);
  {
    Decoder dec(enc.bytes());
    (void)dec.u32();
    EXPECT_THROW(dec.u64(), Error);  // only 4 bytes there
  }
  {
    Decoder dec(enc.bytes());
    EXPECT_THROW(dec.expect_done(), Error);  // 4 unread bytes
  }
}

// --- malformed-frame coverage ----------------------------------------------

namespace {

/// A complete kResult frame as raw stream bytes: length prefix, type,
/// payload. The richest real message — its stream crosses every field kind
/// (u16, u32, u64, f64, str).
std::vector<std::uint8_t> sample_result_stream() {
  ResultMsg result;
  result.point = 3;
  result.replica = 9;
  result.slot = sample_slot();
  const std::vector<std::uint8_t> payload = encode_result(result);
  Encoder framing;
  framing.u32(static_cast<std::uint32_t>(payload.size()));
  framing.u16(static_cast<std::uint16_t>(MsgType::kResult));
  std::vector<std::uint8_t> stream = framing.bytes();
  stream.insert(stream.end(), payload.begin(), payload.end());
  return stream;
}

/// Write the first `len` bytes of `stream` into a pipe, close the write
/// end, and hand the read end to read_frame.
std::optional<Frame>
read_partial_stream(const std::vector<std::uint8_t>& stream, std::size_t len) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::size_t written = 0;
  while (written < len) {
    const ssize_t rc = ::write(fds[1], stream.data() + written, len - written);
    EXPECT_GT(rc, 0) << "pipe write failed";
    if (rc <= 0) break;
    written += static_cast<std::size_t>(rc);
  }
  ::close(fds[1]);
  std::optional<Frame> frame;
  try {
    frame = read_frame(fds[0]);
    ::close(fds[0]);
  } catch (...) {
    ::close(fds[0]);
    throw;
  }
  return frame;
}

}  // namespace

TEST(WireMalformed, ShortReadAtEveryByteBoundaryIsMidFrameEof) {
  // Table-driven over every possible cut point of a full kResult frame:
  // 0 bytes is a clean EOF (nullopt), any strict prefix is a mid-frame EOF
  // (Error), the full stream pops the frame.
  const std::vector<std::uint8_t> stream = sample_result_stream();
  EXPECT_FALSE(read_partial_stream(stream, 0).has_value());
  for (std::size_t len = 1; len < stream.size(); ++len) {
    SCOPED_TRACE("cut after byte " + std::to_string(len) + " of " +
                 std::to_string(stream.size()));
    EXPECT_THROW((void)read_partial_stream(stream, len), Error);
  }
  const std::optional<Frame> full =
      read_partial_stream(stream, stream.size());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->type, MsgType::kResult);
}

TEST(WireMalformed, DecoderRejectsTruncationAtEveryPayloadBoundary) {
  // Any strict prefix of a kResult payload must throw: the decode sequence
  // is deterministic, so some field read always lands past the cut.
  ResultMsg result;
  result.point = 1;
  result.replica = 2;
  result.slot = sample_slot();
  const std::vector<std::uint8_t> payload = encode_result(result);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    SCOPED_TRACE("payload truncated to " + std::to_string(cut) + " of " +
                 std::to_string(payload.size()) + " bytes");
    const std::vector<std::uint8_t> truncated(payload.begin(),
                                              payload.begin() + cut);
    EXPECT_THROW((void)decode_result(truncated), Error);
  }
  EXPECT_EQ(decode_result(payload).replica, 2u);
}

TEST(WireMalformed, ReadFrameRejectsOversizedLengthPrefix) {
  Encoder enc;
  enc.u32(kMaxFramePayload + 1);
  enc.u16(static_cast<std::uint16_t>(MsgType::kResult));
  EXPECT_THROW((void)read_partial_stream(enc.bytes(), enc.bytes().size()),
               Error);
}

TEST(WireMalformed, ValidateHelloRefusesVersionSkewAndWrongGrid) {
  HelloMsg good;
  good.spec_digest = 42;
  validate_hello(good, 42);  // must not throw

  HelloMsg skewed;
  skewed.protocol = kProtocolVersion + 1;
  skewed.spec_digest = 42;
  try {
    validate_hello(skewed, 42);
    FAIL() << "expected a protocol-version mismatch to be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("protocol"), std::string::npos)
        << e.what();
  }

  HelloMsg wrong_grid;
  wrong_grid.spec_digest = 41;
  try {
    validate_hello(wrong_grid, 42);
    FAIL() << "expected a spec-digest mismatch to be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace coopcr::dist
