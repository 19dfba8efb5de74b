// Campaign journal durability invariants: bit-exact record round trips,
// torn-tail recovery (drop at replay, truncate on reopen), loud rejection
// of journals that belong to a different experiment or build, and a
// mutation fuzzer over a real journal.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "coopcr.hpp"
#include "dist/journal.hpp"
#include "dist/wire.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace coopcr::dist {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("coopcr_journal_test_" +
              std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

JournalHeader sample_header() {
  JournalHeader header;
  header.spec_digest = 0x1122334455667788ull;
  header.points = 3;
  header.replicas = 4;
  header.strategies = 2;
  return header;
}

JournalRecord sample_record(std::uint32_t point, std::uint32_t replica) {
  JournalRecord record;
  record.point = point;
  record.replica = replica;
  record.slot.baseline_useful = 0.5 + point;
  record.slot.baseline_useful_energy = 2.0 * replica;
  record.slot.per_strategy.resize(2);
  record.slot.per_strategy[0].waste_ratio = 1.0 / (3.0 + point + replica);
  record.slot.per_strategy[1].energy_joules = 7.25e8;
  return record;
}

std::uintmax_t file_size(const std::string& path) {
  return std::filesystem::file_size(path);
}

TEST_F(JournalTest, RoundTripsRecordsBitExactly) {
  const JournalHeader header = sample_header();
  {
    JournalWriter writer = JournalWriter::create(path_, header);
    writer.append_record(sample_record(0, 0));
    writer.append_record(sample_record(2, 3));
  }
  const JournalReplay replay = replay_journal(path_, header);
  EXPECT_FALSE(replay.dropped_tail);
  EXPECT_EQ(replay.valid_bytes, file_size(path_));
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].point, 0u);
  EXPECT_EQ(replay.records[1].point, 2u);
  EXPECT_EQ(replay.records[1].replica, 3u);
  EXPECT_EQ(replay.records[1].slot.baseline_useful, 2.5);
  ASSERT_EQ(replay.records[1].slot.per_strategy.size(), 2u);
  EXPECT_EQ(replay.records[1].slot.per_strategy[1].energy_joules, 7.25e8);
}

TEST_F(JournalTest, RefusesToOverwriteAnExistingJournal) {
  const JournalHeader header = sample_header();
  { JournalWriter writer = JournalWriter::create(path_, header); }
  EXPECT_THROW(JournalWriter::create(path_, header), Error);
}

TEST_F(JournalTest, DropsTornFinalRecordAndTruncatesOnReopen) {
  const JournalHeader header = sample_header();
  std::uintmax_t good_size = 0;
  {
    JournalWriter writer = JournalWriter::create(path_, header);
    writer.append_record(sample_record(0, 0));
    writer.close();
    good_size = file_size(path_);
    // Simulate a crash mid-append: a second record cut off partway through.
    JournalWriter torn = JournalWriter::append_after(path_, good_size);
    torn.append_record(sample_record(1, 1));
  }
  std::filesystem::resize_file(path_, file_size(path_) - 5);

  const JournalReplay replay = replay_journal(path_, header);
  EXPECT_TRUE(replay.dropped_tail);
  EXPECT_EQ(replay.valid_bytes, good_size);
  ASSERT_EQ(replay.records.size(), 1u);  // the torn record is gone
  EXPECT_EQ(replay.records[0].point, 0u);

  // Reopening for append truncates the torn tail, and the journal stays
  // fully usable: the re-run unit appends cleanly.
  {
    JournalWriter writer =
        JournalWriter::append_after(path_, replay.valid_bytes);
    EXPECT_EQ(file_size(path_), good_size);
    writer.append_record(sample_record(1, 1));
  }
  const JournalReplay healed = replay_journal(path_, header);
  EXPECT_FALSE(healed.dropped_tail);
  ASSERT_EQ(healed.records.size(), 2u);
  EXPECT_EQ(healed.records[1].point, 1u);
}

TEST_F(JournalTest, CorruptChecksumDropsTheRecord) {
  const JournalHeader header = sample_header();
  std::uintmax_t good_size = 0;
  {
    JournalWriter writer = JournalWriter::create(path_, header);
    writer.append_record(sample_record(0, 0));
    writer.close();
    good_size = file_size(path_);
    JournalWriter writer2 = JournalWriter::append_after(path_, good_size);
    writer2.append_record(sample_record(1, 2));
  }
  // Flip one byte inside the second record's payload.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(good_size) + 14);
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(good_size) + 14);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(good_size) + 14);
    f.write(&byte, 1);
  }
  const JournalReplay replay = replay_journal(path_, header);
  EXPECT_TRUE(replay.dropped_tail);
  ASSERT_EQ(replay.records.size(), 1u);
}

TEST_F(JournalTest, RefusesMidFileCorruptionNamingTheOffset) {
  // A checksum failure at the END of the file is a torn tail — survivable
  // (previous test). The same failure with intact records AFTER it is
  // silent corruption: replay must refuse loudly, naming the bad record's
  // byte offset, instead of quietly dropping committed results.
  const JournalHeader header = sample_header();
  std::uintmax_t size_after_first = 0;
  {
    JournalWriter writer = JournalWriter::create(path_, header);
    writer.append_record(sample_record(0, 0));
    writer.close();
    size_after_first = file_size(path_);
    JournalWriter writer2 =
        JournalWriter::append_after(path_, size_after_first);
    writer2.append_record(sample_record(1, 1));
    writer2.append_record(sample_record(2, 2));
  }
  // Flip one payload byte inside the SECOND of three records.
  {
    const std::streamoff at =
        static_cast<std::streamoff>(size_after_first) + 14;
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(at);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(at);
    f.write(&byte, 1);
  }
  try {
    replay_journal(path_, header);
    FAIL() << "expected mid-file corruption to be refused";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupt mid-file"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset " + std::to_string(size_after_first)),
              std::string::npos)
        << what;
  }
}

TEST_F(JournalTest, RejectsSpecDigestMismatch) {
  const JournalHeader header = sample_header();
  { JournalWriter writer = JournalWriter::create(path_, header); }
  JournalHeader other = sample_header();
  other.spec_digest ^= 1;
  try {
    replay_journal(path_, other);
    FAIL() << "expected a digest mismatch error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("spec digest mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(JournalTest, RejectsCodeVersionAndDimensionMismatch) {
  const JournalHeader header = sample_header();
  { JournalWriter writer = JournalWriter::create(path_, header); }

  JournalHeader other_version = sample_header();
  other_version.code_version = "coopcr-0-other";
  EXPECT_THROW(replay_journal(path_, other_version), Error);

  JournalHeader other_dims = sample_header();
  other_dims.replicas += 1;
  EXPECT_THROW(replay_journal(path_, other_dims), Error);
}

TEST_F(JournalTest, NamesTheFormatVersionBehindAFailedHeaderChecksum) {
  // An older format may checksum its header differently, so the version
  // must be read before the checksum is trusted: a v6 journal with its
  // version bytes patched to 5 fails its header checksum, and the refusal
  // names version 5, not a corrupt header.
  { JournalWriter writer = JournalWriter::create(path_, sample_header()); }
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8 + 12);  // magic, then the header block's length and checksum
    const std::uint8_t v5[4] = {5, 0, 0, 0};  // little-endian u32
    f.write(reinterpret_cast<const char*>(v5), sizeof(v5));
  }
  try {
    replay_journal(path_, sample_header());
    FAIL() << "expected a format version error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("journal format version 5 != supported " +
                        std::to_string(kJournalFormatVersion)),
              std::string::npos)
        << what;
  }
}

TEST_F(JournalTest, RefusesAJournalOfAnEarlierCodeVersionNamingBoth) {
  // coopcr-7 grew adaptive campaigns by doubling; resuming its journal
  // under this build would finish on a mixed round schedule.
  JournalHeader earlier = sample_header();
  earlier.code_version = "coopcr-7";
  { JournalWriter writer = JournalWriter::create(path_, earlier); }
  try {
    replay_journal(path_, sample_header());
    FAIL() << "expected a code version error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("coopcr-7"), std::string::npos) << what;
    EXPECT_NE(what.find(kCodeVersion), std::string::npos) << what;
  }
}

TEST_F(JournalTest, RejectsMissingAndForeignFiles) {
  EXPECT_THROW(replay_journal(path_, sample_header()), Error);
  {
    std::ofstream f(path_, std::ios::binary);
    f << "definitely not a journal";
  }
  EXPECT_THROW(replay_journal(path_, sample_header()), Error);
}

TEST_F(JournalTest, RejectsRecordOutsideTheGrid) {
  const JournalHeader header = sample_header();
  {
    JournalWriter writer = JournalWriter::create(path_, header);
    writer.append_record(sample_record(header.points, 0));  // out of range
  }
  EXPECT_THROW(replay_journal(path_, header), Error);
}

// --- fuzzing ---------------------------------------------------------------

/// A real journal: a 2-point adaptive sweep through one dist worker writes
/// it to `path` (round one at 2 replicas, one round record growing both
/// points to 4). Returns the header replay_journal must be given.
JournalHeader write_real_journal(const std::string& path) {
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex(/*seed=*/99)
                               .min_makespan(units::days(6))
                               .segment(units::days(1), units::days(5)),
                           "journal_fuzz");
  MonteCarloOptions options;
  options.replicas = 2;
  options.target_ci_width = 1e-9;  // unattainable: grows to the cap
  options.max_replicas = 4;
  spec.pfs_bandwidth_axis({60, 100}).strategies({least_waste()}).options(
      options);
  DistOptions dist;
  dist.shards = 1;
  dist.journal = path;
  DistSweepRunner(dist).run(spec);

  JournalHeader header;
  header.spec_digest = spec_digest(spec, spec.expand());
  header.points = 2;
  header.replicas = 2;
  header.strategies = 1;
  return header;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct JournalTally {
  int parsed = 0;
  int refused = 0;
};

/// Mutate the journal at `source` `inputs` times, write each mutant to
/// `scratch` and replay it. Every mutant must replay or throw coopcr::Error.
/// Half the mutants re-seal the block they damaged (a fresh length and
/// checksum), so the record decoder sees them instead of the checksum.
JournalTally fuzz_journal(std::uint64_t seed, int inputs,
                          const std::vector<std::uint8_t>& corpus,
                          const JournalHeader& header,
                          const std::string& scratch) {
  // Block boundaries of the pristine file: 8 magic bytes, then blocks of
  // u32 length | u64 checksum | payload (the header block first).
  std::vector<std::pair<std::size_t, std::size_t>> blocks;  // offset, length
  for (std::size_t pos = 8; pos + 12 <= corpus.size();) {
    Decoder head(corpus.data() + pos, 4);
    const std::size_t len = head.u32();
    blocks.emplace_back(pos, len);
    pos += 12 + len;
  }
  std::mt19937_64 rng(seed);
  // Every draw is its own statement: argument evaluation order is
  // unspecified, and a pinned seed must mean the same inputs everywhere.
  const auto below = [&rng](std::size_t n) { return n == 0 ? 0 : rng() % n; };
  JournalTally tally;
  for (int i = 0; i < inputs; ++i) {
    std::vector<std::uint8_t> bytes = corpus;
    if (below(2) == 0) {
      // Re-sealed: damage one block's payload, then give it a valid frame.
      const auto [offset, len] = blocks[below(blocks.size())];
      std::vector<std::uint8_t> payload(
          corpus.begin() + static_cast<std::ptrdiff_t>(offset + 12),
          corpus.begin() + static_cast<std::ptrdiff_t>(offset + 12 + len));
      for (std::size_t m = 1 + below(3); m > 0; --m) {
        const std::size_t at = below(payload.size() + 1);
        switch (below(4)) {
          case 0:  // flip one bit
            if (at < payload.size()) {
              payload[at] ^= static_cast<std::uint8_t>(1u << below(8));
            }
            break;
          case 1: {  // insert a byte
            const auto byte = static_cast<std::uint8_t>(below(256));
            payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(at),
                           byte);
            break;
          }
          case 2:  // truncate
            payload.resize(at);
            break;
          default: {  // overwrite a u32 (kind, count, index) with 0 or ~0
            if (at + 4 > payload.size()) break;
            const std::uint8_t fill = below(2) == 0 ? 0x00 : 0xFF;
            for (std::size_t b = 0; b < 4; ++b) payload[at + b] = fill;
          }
        }
      }
      Encoder block;
      block.u32(static_cast<std::uint32_t>(payload.size()));
      block.u64(fnv1a64(payload.data(), payload.size()));
      std::vector<std::uint8_t> sealed = block.bytes();
      sealed.insert(sealed.end(), payload.begin(), payload.end());
      const auto at = bytes.begin() + static_cast<std::ptrdiff_t>(offset);
      bytes.erase(at, at + static_cast<std::ptrdiff_t>(12 + len));
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                   sealed.begin(), sealed.end());
    } else {
      // Raw: damage the file as a disk or a bad copy would.
      for (std::size_t m = 1 + below(3); m > 0; --m) {
        const std::size_t at = below(bytes.size() + 1);
        switch (below(4)) {
          case 0:  // flip one bit
            if (at < bytes.size()) {
              bytes[at] ^= static_cast<std::uint8_t>(1u << below(8));
            }
            break;
          case 1: {  // delete a run of bytes
            const std::size_t run = std::min(bytes.size() - at, 1 + below(16));
            bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                        bytes.begin() + static_cast<std::ptrdiff_t>(at + run));
            break;
          }
          case 2:  // truncate
            bytes.resize(at);
            break;
          default: {  // duplicate a whole block at a block boundary
            const auto [offset, len] = blocks[below(blocks.size())];
            const std::size_t dest = blocks[below(blocks.size())].first;
            if (offset + 12 + len > bytes.size() || dest > bytes.size()) break;
            const std::vector<std::uint8_t> copy(
                bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                bytes.begin() + static_cast<std::ptrdiff_t>(offset + 12 + len));
            bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(dest),
                         copy.begin(), copy.end());
          }
        }
      }
    }
    {
      std::ofstream out(scratch, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    try {
      const JournalReplay replay = replay_journal(scratch, header);
      EXPECT_LE(replay.valid_bytes, bytes.size());
      ++tally.parsed;
    } catch (const Error&) {
      ++tally.refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input " << i << " escaped as a non-coopcr exception: "
                    << e.what();
    } catch (...) {
      ADD_FAILURE() << "input " << i << " escaped as a non-exception";
    }
  }
  return tally;
}

class JournalFuzz : public JournalTest {
 protected:
  void SetUp() override {
    JournalTest::SetUp();
    scratch_ = path_ + ".mutant";
    header_ = write_real_journal(path_);
    corpus_ = read_bytes(path_);
    // The pristine journal replays whole: 8 units and one round record.
    const JournalReplay replay = replay_journal(path_, header_);
    ASSERT_EQ(replay.records.size(), 9u);
    ASSERT_FALSE(replay.dropped_tail);
  }
  void TearDown() override {
    std::filesystem::remove(scratch_);
    JournalTest::TearDown();
  }

  std::string scratch_;
  JournalHeader header_;
  std::vector<std::uint8_t> corpus_;
};

TEST_F(JournalFuzz, PinnedSeedsReplayOrRefuse) {
  for (const std::uint64_t seed : {0x1ull, 0x70A2ull, 0xC0FFEEull}) {
    SCOPED_TRACE(seed);
    const JournalTally tally =
        fuzz_journal(seed, 1500, corpus_, header_, scratch_);
    // Both outcomes are exercised, not just refusals (about 400 mutants
    // replay and 1.1k are refused per seed).
    EXPECT_GT(tally.parsed, 250);
    EXPECT_GT(tally.refused, 800);
  }
}

TEST_F(JournalFuzz, FreshSeedReplaysOrRefuses) {
  // A new seed per run widens coverage over time; it is echoed so a failure
  // can be pinned in the test above.
  const std::uint64_t seed =
      (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
      std::random_device{}();
  std::cout << "journal fuzz fresh seed: 0x" << std::hex << seed << std::dec
            << std::endl;
  SCOPED_TRACE(seed);
  fuzz_journal(seed, 1500, corpus_, header_, scratch_);
}

}  // namespace
}  // namespace coopcr::dist
