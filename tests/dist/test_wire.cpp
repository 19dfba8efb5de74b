// Wire protocol invariants: bit-exact slot round trips, incremental frame
// parsing under arbitrary chunking, corrupt-stream rejection, and a mutation
// fuzzer over real encoded frames.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <random>

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
// --- fuzzing ---------------------------------------------------------------

namespace {

void append_frame(std::vector<std::uint8_t>& stream, MsgType type,
                  const std::vector<std::uint8_t>& payload) {
  Encoder framing;
  framing.u32(static_cast<std::uint32_t>(payload.size()));
  framing.u16(static_cast<std::uint16_t>(type));
  stream.insert(stream.end(), framing.bytes().begin(), framing.bytes().end());
  stream.insert(stream.end(), payload.begin(), payload.end());
}

/// One real frame of every message kind, back to back, as the encoders and
/// the frame header write them.
std::vector<std::uint8_t> sample_stream() {
  std::vector<std::uint8_t> stream;
  HelloMsg hello;
  hello.spec_digest = 0x0123456789ABCDEFull;
  append_frame(stream, MsgType::kHello, encode_hello(hello));
  append_frame(stream, MsgType::kUnit, encode_unit(UnitMsg{2, 7}));
  ResultMsg result;
  result.point = 2;
  result.replica = 7;
  result.slot = sample_slot();
  append_frame(stream, MsgType::kResult, encode_result(result));
  append_frame(stream, MsgType::kShutdown, {});
  return stream;
}

/// Decode one popped frame by its type. A payload that decodes must
/// re-encode to the same bytes (the encoding is canonical). Returns true
/// when a typed message decoded.
bool decode_frame(const Frame& frame) {
  switch (frame.type) {
    case MsgType::kHello:
      EXPECT_EQ(encode_hello(decode_hello(frame.payload)), frame.payload);
      return true;
    case MsgType::kUnit:
      EXPECT_EQ(encode_unit(decode_unit(frame.payload)), frame.payload);
      return true;
    case MsgType::kResult:
      EXPECT_EQ(encode_result(decode_result(frame.payload)), frame.payload);
      return true;
    default:
      return false;  // shutdown carries nothing; unknown types are dropped
  }
}

struct WireTally {
  int decoded = 0;  ///< typed messages that decoded
  int refused = 0;  ///< frames or streams refused with coopcr::Error
};

/// Mutate the sample stream `inputs` times and feed each result through
/// FrameBuffer in random chunks, decoding every frame that pops. Every
/// input must parse or throw coopcr::Error — never another exception.
WireTally fuzz_wire(std::uint64_t seed, int inputs) {
  std::mt19937_64 rng(seed);
  // Every draw is its own statement: argument evaluation order is
  // unspecified, and a pinned seed must mean the same inputs everywhere.
  const auto below = [&rng](std::size_t n) { return n == 0 ? 0 : rng() % n; };
  const std::vector<std::uint8_t> corpus = sample_stream();
  const std::uint32_t extremes[] = {0u,    1u,    4096u,
                                    4097u, kMaxFramePayload,
                                    kMaxFramePayload + 1, 0xFFFFFFFFu};
  WireTally tally;
  for (int i = 0; i < inputs; ++i) {
    std::vector<std::uint8_t> bytes = corpus;
    for (std::size_t m = 1 + below(3); m > 0; --m) {
      const std::size_t at = below(bytes.size() + 1);
      switch (below(6)) {
        case 0:  // flip one bit of one byte
          if (at < bytes.size()) {
            bytes[at] ^= static_cast<std::uint8_t>(1u << below(8));
          }
          break;
        case 1: {  // insert a byte
          const auto byte = static_cast<std::uint8_t>(below(256));
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        }
        case 2: {  // delete a run of bytes
          const std::size_t run = std::min(bytes.size() - at, 1 + below(8));
          bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                      bytes.begin() + static_cast<std::ptrdiff_t>(at + run));
          break;
        }
        case 3:  // truncate
          bytes.resize(at);
          break;
        case 4: {  // splice: a prefix of this input onto a corpus suffix
          const std::size_t from = below(corpus.size());
          bytes.resize(at);
          bytes.insert(bytes.end(),
                       corpus.begin() + static_cast<std::ptrdiff_t>(from),
                       corpus.end());
          break;
        }
        default: {  // overwrite a u32 (length, count, index) with an extreme
          if (at + 4 > bytes.size()) break;
          const std::uint32_t v = extremes[below(std::size(extremes))];
          for (int b = 0; b < 4; ++b) {
            bytes[at + static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(v >> (8 * b));
          }
        }
      }
    }
    FrameBuffer buffer;
    try {
      for (std::size_t pos = 0; pos < bytes.size();) {
        const std::size_t chunk = std::min(bytes.size() - pos, 1 + below(64));
        buffer.feed(bytes.data() + pos, chunk);
        pos += chunk;
        while (const std::optional<Frame> frame = buffer.next()) {
          try {
            tally.decoded += decode_frame(*frame) ? 1 : 0;
          } catch (const Error&) {
            ++tally.refused;
          }
        }
      }
    } catch (const Error&) {
      ++tally.refused;  // an oversized length prefix poisons the stream
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input " << i << " escaped as a non-coopcr exception: "
                    << e.what();
    } catch (...) {
      ADD_FAILURE() << "input " << i << " escaped as a non-exception";
    }
  }
  return tally;
}

}  // namespace

TEST(WireFuzz, PinnedSeedsParseOrRefuse) {
  for (const std::uint64_t seed : {0x1ull, 0x31AEull, 0xF4A3Eull}) {
    SCOPED_TRACE(seed);
    const WireTally tally = fuzz_wire(seed, 4000);
    // Both outcomes are exercised, not just refusals (about 8.5k messages
    // decode and 1k frames or streams are refused per seed).
    EXPECT_GT(tally.decoded, 6000);
    EXPECT_GT(tally.refused, 600);
  }
}

TEST(WireFuzz, FreshSeedParsesOrRefuses) {
  // A new seed per run widens coverage over time; it is echoed so a failure
  // can be pinned in the test above.
  const std::uint64_t seed =
      (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
      std::random_device{}();
  std::cout << "wire fuzz fresh seed: 0x" << std::hex << seed << std::dec
            << std::endl;
  SCOPED_TRACE(seed);
  fuzz_wire(seed, 4000);
}

}  // namespace coopcr::dist
