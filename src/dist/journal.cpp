#include "dist/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "dist/wire.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace coopcr::dist {

namespace {

constexpr char kMagic[8] = {'C', 'O', 'O', 'P', 'C', 'R', 'J', '1'};

/// Wraps fnv1a64 with typed feeds for the spec digest.
class Hasher {
 public:
  void bytes(const void* data, std::size_t n) {
    state_ = fnv1a64(data, n, state_);
  }
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kFnv1a64Offset;
};

std::vector<std::uint8_t> encode_header_payload(const JournalHeader& header) {
  Encoder enc;
  enc.u32(header.format_version);
  enc.u64(header.spec_digest);
  enc.str(header.code_version);
  enc.u32(header.points);
  enc.u32(header.replicas);
  enc.u32(header.strategies);
  return enc.bytes();
}

JournalHeader decode_header_payload(const std::vector<std::uint8_t>& payload) {
  Decoder dec(payload);
  JournalHeader header;
  header.format_version = dec.u32();
  header.spec_digest = dec.u64();
  header.code_version = dec.str();
  header.points = dec.u32();
  header.replicas = dec.u32();
  header.strategies = dec.u32();
  dec.expect_done();
  return header;
}

/// Length-prefixed checksummed block: u32 len | u64 fnv | payload.
std::vector<std::uint8_t> frame_block(
    const std::vector<std::uint8_t>& payload) {
  Encoder enc;
  enc.u32(static_cast<std::uint32_t>(payload.size()));
  enc.u64(fnv1a64(payload.data(), payload.size()));
  std::vector<std::uint8_t> block = enc.bytes();
  block.insert(block.end(), payload.begin(), payload.end());
  return block;
}

/// Parse one block out of `data` at `pos`. Returns false (without moving
/// `pos`) when the remaining bytes do not hold a complete, checksum-valid
/// block — the torn-tail case.
bool parse_block(const std::vector<std::uint8_t>& data, std::size_t& pos,
                 std::vector<std::uint8_t>& payload) {
  if (data.size() - pos < 12) return false;
  Decoder head(data.data() + pos, 12);
  const std::uint32_t len = head.u32();
  const std::uint64_t checksum = head.u64();
  if (len > kMaxFramePayload) return false;
  if (data.size() - pos - 12 < len) return false;
  const std::uint8_t* body = data.data() + pos + 12;
  if (fnv1a64(body, len) != checksum) return false;
  payload.assign(body, body + len);
  pos += 12 + len;
  return true;
}

}  // namespace

std::uint64_t spec_digest(const exp::ExperimentSpec& spec,
                          const std::vector<exp::GridPoint>& points) {
  Hasher h;
  h.str("coopcr-spec-digest-v3");
  h.str(spec.name());
  h.u32(static_cast<std::uint32_t>(spec.campaign_options().replicas));
  // The variance-reduction options change what a work unit computes (a
  // reflected stream for odd replicas, predictors or not), so they are part
  // of the identity.
  h.u32(spec.campaign_options().antithetic ? 1 : 0);
  h.u32(spec.campaign_options().control_variate ? 1 : 0);
  // The sequential-stopping and contrast options decide the extend-round
  // schedule and the convergence rule — a journal written under one stopping
  // rule must never resume under another (digest v2, v3).
  h.f64(spec.campaign_options().target_ci_width);
  h.u32(static_cast<std::uint32_t>(spec.campaign_options().max_replicas));
  h.str(spec.campaign_options().contrast_reference);
  const std::vector<Strategy>& strategies = spec.strategy_set();
  h.u64(strategies.size());
  for (const Strategy& s : strategies) h.str(s.name());
  h.u64(spec.axes().size());
  for (const exp::SweepAxis& axis : spec.axes()) {
    h.str(axis.name);
    h.u64(axis.points.size());
    for (const exp::AxisPoint& p : axis.points) {
      h.f64(p.value);
      h.str(p.label);
    }
  }
  h.u64(points.size());
  for (const exp::GridPoint& p : points) h.u64(p.scenario.seed);
  return h.digest();
}

JournalReplay replay_journal(const std::string& path,
                             const JournalHeader& expected) {
  std::ifstream in(path, std::ios::binary);
  COOPCR_CHECK(in.good(), "cannot open journal: " + path);
  std::vector<std::uint8_t> data(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();

  COOPCR_CHECK(data.size() >= sizeof(kMagic) &&
                   std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0,
               "not a coopcr campaign journal: " + path);
  std::size_t pos = sizeof(kMagic);

  JournalReplay replay;
  std::vector<std::uint8_t> payload;
  COOPCR_CHECK(parse_block(data, pos, payload),
               "journal header is truncated or corrupt: " + path);
  replay.header = decode_header_payload(payload);

  // Identity checks: a mismatched journal must refuse to resume loudly.
  const JournalHeader& h = replay.header;
  COOPCR_CHECK(h.format_version == expected.format_version,
               "journal format version " + std::to_string(h.format_version) +
                   " != supported " + std::to_string(expected.format_version));
  COOPCR_CHECK(h.code_version == expected.code_version,
               "journal was written by " + h.code_version +
                   ", this build is " + expected.code_version +
                   " — results could differ, refusing to resume");
  COOPCR_CHECK(h.spec_digest == expected.spec_digest,
               "journal spec digest mismatch — it records a different "
               "experiment grid than the one being resumed");
  COOPCR_CHECK(h.points == expected.points && h.replicas == expected.replicas &&
                   h.strategies == expected.strategies,
               "journal dimensions mismatch the experiment grid");

  replay.valid_bytes = pos;
  // Running per-point replica counts: the header's initial count, grown by
  // each round record — the bound in-sequence unit records are checked
  // against.
  std::vector<std::uint32_t> point_replicas(h.points, h.replicas);
  while (true) {
    const std::size_t block_start = pos;
    if (!parse_block(data, pos, payload)) {
      // A crash can only tear the *end* of an append-only, fdatasynced
      // file, so a bad block with nothing after it is a torn tail (drop
      // and re-run those units). A checksum-failed block that is complete
      // *and followed by more data* cannot be a torn write — it is silent
      // mid-file corruption (bit rot, a bad copy, tampering), and resuming
      // would drop good records after it. Refuse, naming the offset.
      const std::size_t remaining = data.size() - block_start;
      if (remaining >= 12) {
        Decoder head(data.data() + block_start, 12);
        const std::uint32_t len = head.u32();
        if (len <= kMaxFramePayload && remaining - 12 >= len &&
            block_start + 12 + len < data.size()) {
          COOPCR_CHECK(false,
                       "journal record at byte offset " +
                           std::to_string(block_start) +
                           " fails its checksum with further records after "
                           "it — " + path +
                           " is corrupt mid-file (not merely torn), refusing "
                           "to resume");
        }
      }
      break;
    }
    Decoder dec(payload);
    JournalRecord record;
    const std::uint16_t kind = dec.u16();
    if (kind == static_cast<std::uint16_t>(JournalRecord::Kind::kRound)) {
      record.kind = JournalRecord::Kind::kRound;
      record.round = dec.u32();
      const std::uint32_t n = dec.u32();
      COOPCR_CHECK(n == h.points,
                   "journal round record carries " + std::to_string(n) +
                       " per-point replica counts for a grid of " +
                       std::to_string(h.points) + " points");
      record.round_replicas.reserve(n);
      for (std::uint32_t p = 0; p < n; ++p) {
        const std::uint32_t grown = dec.u32();
        COOPCR_CHECK(grown >= point_replicas[p],
                     "journal round record shrinks point " +
                         std::to_string(p) + " from " +
                         std::to_string(point_replicas[p]) + " to " +
                         std::to_string(grown) + " replicas");
        record.round_replicas.push_back(grown);
      }
      dec.expect_done();
      point_replicas = record.round_replicas;
      replay.records.push_back(std::move(record));
      replay.valid_bytes = pos;
      continue;
    }
    COOPCR_CHECK(kind == static_cast<std::uint16_t>(JournalRecord::Kind::kUnit),
                 "journal record has unknown kind " + std::to_string(kind));
    record.kind = JournalRecord::Kind::kUnit;
    record.point = dec.u32();
    record.replica = dec.u32();
    record.slot = decode_slot(dec);
    dec.expect_done();
    COOPCR_CHECK(record.point < h.points &&
                     record.replica < point_replicas[record.point],
                 "journal record addresses unit (" +
                     std::to_string(record.point) + ", " +
                     std::to_string(record.replica) + ") outside the grid");
    replay.records.push_back(std::move(record));
    replay.valid_bytes = pos;
  }
  replay.dropped_tail = replay.valid_bytes < data.size();
  return replay;
}

JournalWriter JournalWriter::create(const std::string& path,
                                    const JournalHeader& header) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0644);
  COOPCR_CHECK(fd >= 0, "cannot create journal " + path + ": " +
                            std::strerror(errno));
  JournalWriter writer(fd);
  std::vector<std::uint8_t> block(kMagic, kMagic + sizeof(kMagic));
  const std::vector<std::uint8_t> body =
      frame_block(encode_header_payload(header));
  block.insert(block.end(), body.begin(), body.end());
  write_all(fd, block, "journal");
  COOPCR_CHECK(::fdatasync(fd) == 0, "journal fdatasync failed");
  return writer;
}

JournalWriter JournalWriter::append_after(const std::string& path,
                                          std::uint64_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  COOPCR_CHECK(fd >= 0, "cannot open journal " + path + ": " +
                            std::strerror(errno));
  JournalWriter writer(fd);
  // Drop any torn tail so new records append at a clean block boundary.
  COOPCR_CHECK(::ftruncate(fd, static_cast<off_t>(valid_bytes)) == 0,
               "cannot truncate journal tail: " + path);
  COOPCR_CHECK(::lseek(fd, 0, SEEK_END) >= 0, "journal seek failed");
  return writer;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::append_record(const JournalRecord& record) {
  COOPCR_CHECK(fd_ >= 0, "journal writer is closed");
  Encoder enc;
  enc.u16(static_cast<std::uint16_t>(record.kind));
  if (record.kind == JournalRecord::Kind::kRound) {
    enc.u32(record.round);
    enc.u32(static_cast<std::uint32_t>(record.round_replicas.size()));
    for (const std::uint32_t r : record.round_replicas) enc.u32(r);
  } else {
    enc.u32(record.point);
    enc.u32(record.replica);
    encode_slot(enc, record.slot);
  }
  write_all(fd_, frame_block(enc.bytes()), "journal");
  COOPCR_CHECK(::fdatasync(fd_) == 0, "journal fdatasync failed");
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

JournalHeader journal_header(const exp::ExperimentSpec& spec,
                             const std::vector<exp::GridPoint>& points,
                             int replicas) {
  JournalHeader header;
  header.spec_digest = spec_digest(spec, points);
  header.points = static_cast<std::uint32_t>(points.size());
  header.replicas = static_cast<std::uint32_t>(replicas);
  header.strategies = static_cast<std::uint32_t>(spec.strategy_set().size());
  return header;
}

JournalSink::JournalSink(
    const std::string& path, bool resume, const JournalHeader& header,
    std::vector<std::unique_ptr<MonteCarloCampaign>>& campaigns)
    : path_(path) {
  if (path.empty()) return;
  if (!resume) {
    COOPCR_CHECK(!std::filesystem::exists(path),
                 "journal already exists: " + path +
                     " — pass resume to continue it, or remove it");
    writer_.emplace(JournalWriter::create(path, header));
    return;
  }
  JournalReplay replay = replay_journal(path, header);
  for (JournalRecord& record : replay.records) {
    if (record.kind == JournalRecord::Kind::kRound) {
      for (std::uint32_t p = 0; p < header.points; ++p) {
        campaigns[p]->extend(static_cast<int>(record.round_replicas[p]));
      }
      rounds_ = record.round;
      continue;
    }
    MonteCarloCampaign& campaign = *campaigns[record.point];
    const int replica = static_cast<int>(record.replica);
    if (!campaign.slot_done(replica)) {
      campaign.install_slot(replica, std::move(record.slot));
    }
  }
  writer_.emplace(JournalWriter::append_after(path, replay.valid_bytes));
}

void JournalSink::append_unit(std::uint32_t point, std::uint32_t replica,
                              const ReplicaSlot& slot) {
  if (!writer_) return;
  JournalRecord record;
  record.point = point;
  record.replica = replica;
  record.slot = slot;
  writer_->append_record(record);
}

void JournalSink::append_round(
    const std::vector<std::uint32_t>& round_replicas) {
  if (!writer_) return;
  JournalRecord record;
  record.kind = JournalRecord::Kind::kRound;
  record.round = ++rounds_;
  record.round_replicas = round_replicas;
  writer_->append_record(record);
}

void JournalSink::tear(int garbage_bytes) {
  if (!writer_) return;
  // 0xA5 everywhere: the first four bytes decode as a length prefix far
  // beyond kMaxFramePayload, so replay classifies the tail as torn no
  // matter how many bytes land.
  const std::vector<std::uint8_t> garbage(
      static_cast<std::size_t>(garbage_bytes), 0xA5);
  write_all(writer_->fd(), garbage, "journal");
}

void JournalSink::flip(std::uint64_t offset) {
  if (!writer_) return;
  writer_->close();
  const int fd = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  COOPCR_CHECK(fd >= 0, "cannot open journal for byte flip: " + path_ +
                            ": " + std::strerror(errno));
  std::uint8_t byte = 0;
  const bool in_file = ::pread(fd, &byte, 1, static_cast<off_t>(offset)) == 1;
  byte ^= 0xFF;  // guaranteed corruption, whatever the byte was
  const bool written =
      in_file && ::pwrite(fd, &byte, 1, static_cast<off_t>(offset)) == 1;
  ::close(fd);
  COOPCR_CHECK(in_file, "journal byte flip offset " + std::to_string(offset) +
                            " is past the end of " + path_);
  COOPCR_CHECK(written, "journal byte flip write failed: " + path_);
}

void JournalSink::close() {
  if (writer_) writer_->close();
}

}  // namespace coopcr::dist
