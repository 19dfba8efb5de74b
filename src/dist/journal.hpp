// coopcr/dist/journal.hpp
//
// Crash-safe campaign journal: the durable half of kill-resume recovery.
//
// A journal is an append-only file of completed (grid point × replica) work
// units. The coordinator appends a record — the unit's full-precision
// ReplicaSlot, serialised with the wire encoding — as each result arrives
// and fdatasyncs it, so a SIGKILLed sweep can resume by replaying the
// journal and dispatching only the missing units. Replayed slots are the
// same IEEE-754 bit patterns the workers produced, which is why a resumed
// report is byte-identical to an uninterrupted run.
//
// Layout (all integers little-endian):
//
//   header   magic "COOPCRJ1" | u32 len | u64 fnv1a(payload) | payload
//            payload = format version, spec digest, code version string,
//                      grid points, replicas per point, strategy count
//   record*  u32 len | u64 fnv1a(payload) | payload
//            payload = u16 kind, then
//              kind 1 (unit):  u32 point, u32 replica, ReplicaSlot (wire
//                              encoding)
//              kind 2 (round): u32 round, u32 n, n × u32 per-point replicas
//
// A round record marks a sequential-stopping round boundary. The
// coordinator appends it *before* dispatching the extend round, so a resume
// that lands mid-round rebuilds exactly the campaign sizes the snapshots
// had decided; unit records past it are checked against the running
// per-point counts, not the header's. The spec digest folds the pairing,
// control-variate, stopping and estimator options in, so a journal never
// replays under a different campaign shape. Journals of any other format
// version refuse to resume (kJournalFormatVersion has the history).
//
// Torn-write discipline: every record is length-prefixed and checksummed.
// A record cut short by a crash — or whose checksum fails at the *end* of
// the file — is a torn tail: it is dropped at replay, the file is
// truncated back to the last good record on reopen, and the affected units
// simply re-run. A checksum-failed record that is complete and has further
// data after it cannot be a torn append: that is silent mid-file
// corruption, and replay refuses it loudly, naming the byte offset —
// resuming past it would drop good records. The header binds the spec
// digest (dist/journal.cpp spec_digest) and the code version, so a journal
// from a different grid — or a different build of the simulator — refuses
// to resume instead of silently mixing results.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/monte_carlo.hpp"
#include "exp/experiment.hpp"

namespace coopcr::dist {

/// Identifies the simulator build a journal was written by. Bump on any
/// change that can alter simulation results; resuming across versions is
/// refused.
inline constexpr const char* kCodeVersion = "coopcr-8";

/// Journal file format version (layout and checksum changes). v2: slot layout
/// gained the variance-reduction fields; v3: typed records (unit + round
/// boundary) and the slot workload features; v4: one replica per unit
/// record, pair-partner fields gone; v5: slot workload features gone (see
/// the header comment); v6: checksums and the spec digest use the published
/// FNV-1a offset basis (util/hash.hpp), so an older journal fails its header
/// checksum and refuses to resume.
inline constexpr std::uint32_t kJournalFormatVersion = 6;

/// Order- and content-sensitive digest of a materialised experiment:
/// spec name, replica count, strategy names, every axis point (name, value
/// bit pattern, label) and every grid point's scenario seed. Two sweeps
/// with the same digest dispatch the same work units with the same RNG
/// streams; anything else must not share a journal.
std::uint64_t spec_digest(const exp::ExperimentSpec& spec,
                          const std::vector<exp::GridPoint>& points);

/// Identity block bound into the journal header.
struct JournalHeader {
  std::uint32_t format_version = kJournalFormatVersion;
  std::uint64_t spec_digest = 0;
  std::string code_version = kCodeVersion;
  std::uint32_t points = 0;    ///< grid points
  std::uint32_t replicas = 0;  ///< replicas per point
  std::uint32_t strategies = 0;
};

/// The header of `spec`'s journal: its expanded `points` at `replicas`
/// initial replicas per point.
JournalHeader journal_header(const exp::ExperimentSpec& spec,
                             const std::vector<exp::GridPoint>& points,
                             int replicas);

/// One durable journal record: a completed work unit (kUnit) or a
/// sequential-stopping round boundary (kRound).
struct JournalRecord {
  enum class Kind : std::uint16_t {
    kUnit = 1,   ///< point/replica/slot hold a completed unit
    kRound = 2,  ///< round/round_replicas hold an extend-round boundary
  };
  Kind kind = Kind::kUnit;

  // kUnit fields.
  std::uint32_t point = 0;
  std::uint32_t replica = 0;
  ReplicaSlot slot;

  // kRound fields: the 1-based extend-round index and the new per-point
  // replica counts the round grows each campaign to (appended *before* the
  // round's units dispatch, so a mid-round crash resumes into the right
  // campaign sizes).
  std::uint32_t round = 0;
  std::vector<std::uint32_t> round_replicas;
};

/// Result of replaying a journal file.
struct JournalReplay {
  JournalHeader header;
  std::vector<JournalRecord> records;  ///< good records, in append order
  std::uint64_t valid_bytes = 0;  ///< offset just past the last good record
  bool dropped_tail = false;      ///< a torn/corrupt tail was discarded
};

/// Replay `path`, validating the header against `expected` (digest, code
/// version, dimensions). Throws coopcr::Error when the file is missing,
/// the header is unreadable, or any identity field mismatches — a journal
/// from a different grid must refuse to resume. A torn or corrupt *record*
/// tail is not an error: parsing stops at the last good record and
/// dropped_tail is set (those units re-run).
JournalReplay replay_journal(const std::string& path,
                             const JournalHeader& expected);

/// Appending journal writer over a raw POSIX fd; every record is flushed
/// and fdatasynced before append_record returns, so a completed unit is
/// durable the moment the coordinator counts it.
class JournalWriter {
 public:
  /// Create a fresh journal at `path` (must not exist) and write the
  /// header.
  static JournalWriter create(const std::string& path,
                              const JournalHeader& header);

  /// Open an existing journal for appending after a replay, truncating any
  /// torn tail back to `valid_bytes` first.
  static JournalWriter append_after(const std::string& path,
                                    std::uint64_t valid_bytes);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&&) = delete;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Append + fdatasync one completed unit.
  void append_record(const JournalRecord& record);

  void close();

  /// Underlying fd — forked workers close their inherited copy.
  int fd() const { return fd_; }

 private:
  explicit JournalWriter(int fd) : fd_(fd) {}

  int fd_ = -1;
};

/// The coordinator's journal. With an empty path it records nothing and
/// every call is a no-op. Otherwise it creates the journal fresh, refusing
/// an existing file, or — with `resume` — replays it into `campaigns` and
/// appends after its last valid byte. Replay applies records in append
/// order:
///   - a round record re-grows every campaign to the sizes it records, so
///     later unit records land inside bounds and a mid-round resume
///     finishes exactly the round that was interrupted;
///   - a duplicate unit (journaled, then re-run after a crash landed
///     between the append and the coordinator's bookkeeping) keeps its
///     first copy — both are bit-identical by construction;
///   - rounds appended later are numbered after the last replayed one.
class JournalSink {
 public:
  JournalSink(const std::string& path, bool resume, const JournalHeader& header,
              std::vector<std::unique_ptr<MonteCarloCampaign>>& campaigns);

  bool enabled() const { return writer_.has_value(); }

  /// The writer's fd, -1 without a journal — forked workers close it.
  int fd() const { return writer_ ? writer_->fd() : -1; }

  /// Extend rounds recorded so far, replayed ones included.
  std::uint32_t rounds() const { return rounds_; }

  /// Append + fdatasync a completed unit.
  void append_unit(std::uint32_t point, std::uint32_t replica,
                   const ReplicaSlot& slot);

  /// Append + fdatasync the next extend round: the per-point replica counts
  /// it grows each campaign to. The coordinator appends it before the
  /// round's units dispatch.
  void append_round(const std::vector<std::uint32_t>& round_replicas);

  /// Fault injection (kTearJournal): append `garbage_bytes` of a torn
  /// partial block, which replay always drops as a torn tail.
  void tear(int garbage_bytes);

  /// Fault injection (kFlipJournalByte): close the journal, then XOR the
  /// byte at file offset `offset` with 0xFF. Throws coopcr::Error when
  /// `offset` is past the end of the file.
  void flip(std::uint64_t offset);

  void close();

 private:
  std::string path_;
  std::optional<JournalWriter> writer_;
  std::uint32_t rounds_ = 0;
};

}  // namespace coopcr::dist
