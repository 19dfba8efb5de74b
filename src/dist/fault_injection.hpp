// coopcr/dist/fault_injection.hpp
//
// Deterministic fault-injection harness for the distributed sweep engine.
//
// A FaultPlan is a scripted list of faults the coordinator fires at exact,
// reproducible trigger points while a sweep runs: SIGKILL worker k once n
// fresh results have landed, drop/truncate/delay a specific inbound wire
// frame, stall a worker past the heartbeat deadline, tear or bit-flip the
// campaign journal, abort the coordinator mid-run, or resize the fleet.
// It is the one way to script a kill or a resize: DistOptions::fault_plan
// carries the plan into DistSweepRunner (--fault-plan / COOPCR_FAULT_PLAN
// at the CLI), and SIGUSR1/SIGUSR2 are the only unscripted resizes. The hook
// seam is compiled in always and inert when the plan is empty. A null plan
// binds to a local empty FaultPlan in DistSweepRunner::run, so a fault-free
// sweep runs the very same hook code as an empty plan: there is no
// seam-less path whose cost could differ.
//
// Triggers are deterministic by construction: "after n units" counts fresh
// journaled results in the coordinator (a total order), and "frame f"
// counts frames popped from one worker's stream (a per-worker total order).
// The per-action fired flags live in the plan object itself, so a plan held
// in a shared_ptr survives an injected interrupt and does not re-fire on
// the resume attempt — which is exactly how tests/dist/test_fault_soak.cpp
// replays hundreds of kill/tear/interrupt schedules to completion and
// asserts the artifacts stay byte-identical to the fault-free run.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace coopcr::dist {

enum class FaultKind {
  kKillWorker,     ///< SIGKILL worker w once n fresh results landed
  kStallWorker,    ///< worker w sleeps before sending its n-th result
  kDropFrame,      ///< discard worker w's f-th inbound frame
  kTruncateFrame,  ///< cut worker w's f-th inbound frame mid-frame
  kDelayFrame,     ///< hold worker w's f-th inbound frame for r poll rounds
  kTearJournal,    ///< append a torn partial block, then abort the run
  kFlipJournalByte,  ///< XOR one journal byte at a chosen offset, then abort
  kInterrupt,      ///< abort the coordinator once n fresh results landed
  kResize,         ///< resize the worker fleet to s shards
};

/// One scripted fault. Which fields matter depends on `kind`; `fired`
/// guarantees single-shot semantics across resume attempts.
struct FaultAction {
  FaultKind kind = FaultKind::kInterrupt;
  int worker = 0;       ///< target worker index, in spawn order
  int after_units = 0;  ///< fresh-result trigger (0 fires before any result)
  int frame = 0;        ///< 1-based inbound frame number (frame faults)
  int stall_ms = 0;     ///< kStallWorker sleep
  int delay_rounds = 0;  ///< kDelayFrame poll rounds to hold the frame
  int tear_bytes = 0;    ///< kTearJournal garbage byte count
  std::uint64_t offset = 0;  ///< kFlipJournalByte file offset
  int shards = 0;            ///< kResize new fleet size
  bool fired = false;
};

/// A scripted, replayable fault schedule. Build fluently or parse from the
/// --fault-plan / COOPCR_FAULT_PLAN knob grammar (comma-separated):
///
///   kill=W@N        SIGKILL worker W after N fresh results
///   stall=W@N:MS    worker W sleeps MS ms before sending its N-th result
///   drop=W@F        discard worker W's F-th inbound frame (worker is then
///                   killed — its stream is no longer trustworthy)
///   trunc=W@F       truncate worker W's F-th inbound frame mid-frame
///   delay=W@F:R     hold worker W's F-th inbound frame for R poll rounds
///   tear=N:B        after N fresh results, append B garbage bytes to the
///                   journal and abort (a torn-tail crash)
///   flip=N:OFF      after N fresh results, XOR the journal byte at file
///                   offset OFF and abort (silent corruption)
///   interrupt=N     abort the coordinator after N fresh results
///   resize=S@N      resize the fleet to S workers after N fresh results
class FaultPlan {
 public:
  FaultPlan& kill_worker(int worker, int after_units);
  FaultPlan& stall_worker(int worker, int before_result, int stall_ms);
  FaultPlan& drop_frame(int worker, int frame);
  FaultPlan& truncate_frame(int worker, int frame);
  FaultPlan& delay_frame(int worker, int frame, int rounds);
  FaultPlan& tear_journal(int after_units, int garbage_bytes);
  FaultPlan& flip_journal_byte(int after_units, std::uint64_t offset);
  FaultPlan& interrupt(int after_units);
  FaultPlan& resize(int shards, int after_units);

  /// Parse the knob grammar above; throws coopcr::Error naming `knob` on
  /// any malformed action. Empty text parses to an empty (inert) plan.
  static FaultPlan parse(const std::string& text, const std::string& knob);

  bool empty() const { return actions_.size() == 0; }

  /// True when the plan tears or flips the journal — those actions need
  /// DistOptions::journal set, and the runner refuses them without one.
  bool touches_journal() const;

  // --- runtime hooks (called by DistSweepRunner) ---

  /// Pop every unfired unit-triggered action due at `fresh_results`
  /// (kill/tear/flip/interrupt/resize); each is marked fired.
  std::vector<FaultAction> take_due(int fresh_results);

  /// Pop the unfired frame fault (drop/trunc/delay) scripted for worker
  /// `worker`'s `frame`-th inbound frame, marking it fired. Returns a
  /// kInterrupt-kinded sentinel with fired=false when none matches.
  FaultAction take_frame_fault(int worker, int frame);

  /// Pop the stall directives scripted for `worker`, marking them fired —
  /// consumed once at spawn, so a respawned worker index does not stall
  /// again.
  std::vector<FaultAction> take_stalls(int worker);

  const std::vector<FaultAction>& actions() const { return actions_; }

 private:
  std::vector<FaultAction> actions_;
};

/// Append `garbage_bytes` of a deliberately torn partial block to the open
/// journal fd — the byte pattern decodes as an absurd length prefix, so
/// replay always treats it as a torn tail.
void append_torn_journal_tail(int fd, int garbage_bytes);

/// XOR the byte at `offset` in the journal file at `path` with 0xFF —
/// guaranteed corruption regardless of the original value. Throws
/// coopcr::Error when the file cannot be opened or `offset` is past EOF.
void flip_journal_byte_at(const std::string& path, std::uint64_t offset);

}  // namespace coopcr::dist
