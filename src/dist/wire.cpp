#include "dist/wire.hpp"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace coopcr::dist {

namespace {

void put_u16(std::vector<std::uint8_t>& buf, std::uint16_t v) {
  buf.push_back(static_cast<std::uint8_t>(v));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Write `n` bytes, retrying on EINTR and short writes. Throws on error.
void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t written = 0;
  while (written < n) {
    const ssize_t rc = ::write(fd, data + written, n - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      COOPCR_CHECK(false, std::string("wire write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<std::size_t>(rc);
  }
}

/// Read exactly `n` bytes. Returns false on clean EOF before the first
/// byte; throws on mid-buffer EOF or read errors.
bool read_exact(int fd, std::uint8_t* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::read(fd, data + got, n - got);
    if (rc < 0) {
      if (errno == EINTR) continue;
      COOPCR_CHECK(false, std::string("wire read failed: ") +
                              std::strerror(errno));
    }
    if (rc == 0) {
      if (got == 0) return false;
      COOPCR_CHECK(false, "wire stream truncated mid-frame (peer died?)");
    }
    got += static_cast<std::size_t>(rc);
  }
  return true;
}

}  // namespace

void Encoder::u16(std::uint16_t v) { put_u16(buf_, v); }
void Encoder::u32(std::uint32_t v) { put_u32(buf_, v); }
void Encoder::u64(std::uint64_t v) { put_u64(buf_, v); }
void Encoder::f64(double v) { put_u64(buf_, std::bit_cast<std::uint64_t>(v)); }

void Encoder::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

const std::uint8_t* Decoder::take(std::size_t n) {
  COOPCR_CHECK(pos_ + n <= size_,
               "wire payload truncated: need " + std::to_string(n) +
                   " bytes at offset " + std::to_string(pos_) + " of " +
                   std::to_string(size_));
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint16_t Decoder::u16() {
  const std::uint8_t* p = take(2);
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t Decoder::u32() { return get_u32(take(4)); }

std::uint64_t Decoder::u64() {
  const std::uint8_t* p = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

double Decoder::f64() { return std::bit_cast<double>(u64()); }

std::string Decoder::str() {
  const std::uint32_t n = u32();
  const std::uint8_t* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

void Decoder::expect_done() const {
  COOPCR_CHECK(pos_ == size_, "wire payload has " +
                                  std::to_string(size_ - pos_) +
                                  " trailing bytes");
}

void write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& payload) {
  COOPCR_CHECK(payload.size() <= kMaxFramePayload, "frame payload too large");
  std::vector<std::uint8_t> frame;
  frame.reserve(6 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u16(frame, static_cast<std::uint16_t>(type));
  frame.insert(frame.end(), payload.begin(), payload.end());
  write_all(fd, frame.data(), frame.size());
}

std::optional<Frame> read_frame(int fd) {
  std::uint8_t head[6];
  if (!read_exact(fd, head, sizeof(head))) return std::nullopt;
  const std::uint32_t len = get_u32(head);
  COOPCR_CHECK(len <= kMaxFramePayload,
               "wire frame claims " + std::to_string(len) +
                   " payload bytes — corrupt stream");
  Frame frame;
  frame.type = static_cast<MsgType>(head[4] | (head[5] << 8));
  frame.payload.resize(len);
  if (len > 0) {
    COOPCR_CHECK(read_exact(fd, frame.payload.data(), len),
                 "wire stream truncated mid-frame (peer died?)");
  }
  return frame;
}

void FrameBuffer::feed(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameBuffer::next() {
  if (buf_.size() < 6) return std::nullopt;
  const std::uint32_t len = get_u32(buf_.data());
  COOPCR_CHECK(len <= kMaxFramePayload,
               "wire frame claims " + std::to_string(len) +
                   " payload bytes — corrupt stream");
  if (buf_.size() < 6 + static_cast<std::size_t>(len)) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MsgType>(buf_[4] | (buf_[5] << 8));
  frame.payload.assign(buf_.begin() + 6, buf_.begin() + 6 + len);
  buf_.erase(buf_.begin(), buf_.begin() + 6 + len);
  return frame;
}

std::vector<std::uint8_t> encode_hello(const HelloMsg& msg) {
  Encoder enc;
  enc.u32(msg.protocol);
  enc.u64(msg.spec_digest);
  return enc.bytes();
}

HelloMsg decode_hello(const std::vector<std::uint8_t>& payload) {
  Decoder dec(payload);
  HelloMsg msg;
  msg.protocol = dec.u32();
  msg.spec_digest = dec.u64();
  dec.expect_done();
  return msg;
}

void validate_hello(const HelloMsg& hello, std::uint64_t expected_digest) {
  COOPCR_CHECK(hello.protocol == kProtocolVersion,
               "worker speaks protocol " + std::to_string(hello.protocol) +
                   ", coordinator speaks " + std::to_string(kProtocolVersion));
  COOPCR_CHECK(hello.spec_digest == expected_digest,
               "worker rebuilt a different experiment grid (spec digest "
               "mismatch) — refusing to dispatch units to it");
}

std::vector<std::uint8_t> encode_unit(const UnitMsg& msg) {
  Encoder enc;
  enc.u32(msg.point);
  enc.u32(msg.replica);
  return enc.bytes();
}

UnitMsg decode_unit(const std::vector<std::uint8_t>& payload) {
  Decoder dec(payload);
  UnitMsg msg;
  msg.point = dec.u32();
  msg.replica = dec.u32();
  dec.expect_done();
  return msg;
}

namespace {

void encode_tuples(Encoder& enc,
                   const std::vector<ReplicaStrategyMetrics>& tuples) {
  enc.u32(static_cast<std::uint32_t>(tuples.size()));
  for (const ReplicaStrategyMetrics& m : tuples) {
    enc.f64(m.waste_ratio);
    enc.f64(m.efficiency);
    enc.f64(m.utilization);
    enc.f64(m.failures_hit);
    enc.f64(m.checkpoints);
    enc.f64(m.energy_joules);
    enc.f64(m.energy_waste_ratio);
    enc.f64(m.ckpt_waste_ratio);
  }
}

std::vector<ReplicaStrategyMetrics> decode_tuples(Decoder& dec) {
  const std::uint32_t n = dec.u32();
  COOPCR_CHECK(n <= 4096, "slot claims " + std::to_string(n) +
                              " strategy tuples — corrupt payload");
  std::vector<ReplicaStrategyMetrics> tuples;
  tuples.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    ReplicaStrategyMetrics m;
    m.waste_ratio = dec.f64();
    m.efficiency = dec.f64();
    m.utilization = dec.f64();
    m.failures_hit = dec.f64();
    m.checkpoints = dec.f64();
    m.energy_joules = dec.f64();
    m.energy_waste_ratio = dec.f64();
    m.ckpt_waste_ratio = dec.f64();
    tuples.push_back(m);
  }
  return tuples;
}

}  // namespace

void encode_slot(Encoder& enc, const ReplicaSlot& slot) {
  // Layout v4 (kProtocolVersion / journal format 4): the two baseline
  // denominators, the per-strategy tuples (u32 count + 8 doubles each), the
  // control-variate predictor (0.0 when control variates are off), then the
  // three realised workload-feature doubles post-stratification bins on
  // (total node-seconds, job count, max class share).
  enc.f64(slot.baseline_useful);
  enc.f64(slot.baseline_useful_energy);
  encode_tuples(enc, slot.per_strategy);
  enc.f64(slot.cv_predictor);
  enc.f64(slot.work_total);
  enc.f64(slot.work_jobs);
  enc.f64(slot.work_max_share);
}

ReplicaSlot decode_slot(Decoder& dec) {
  ReplicaSlot slot;
  slot.baseline_useful = dec.f64();
  slot.baseline_useful_energy = dec.f64();
  slot.per_strategy = decode_tuples(dec);
  slot.cv_predictor = dec.f64();
  slot.work_total = dec.f64();
  slot.work_jobs = dec.f64();
  slot.work_max_share = dec.f64();
  return slot;
}

std::vector<std::uint8_t> encode_result(const ResultMsg& msg) {
  Encoder enc;
  enc.u32(msg.point);
  enc.u32(msg.replica);
  encode_slot(enc, msg.slot);
  return enc.bytes();
}

ResultMsg decode_result(const std::vector<std::uint8_t>& payload) {
  Decoder dec(payload);
  ResultMsg msg;
  msg.point = dec.u32();
  msg.replica = dec.u32();
  msg.slot = decode_slot(dec);
  dec.expect_done();
  return msg;
}

}  // namespace coopcr::dist
