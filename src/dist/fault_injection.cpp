#include "dist/fault_injection.hpp"

#include <utility>

#include "util/error.hpp"

namespace coopcr::dist {

namespace {

/// Strict non-negative integer parse for the plan grammar; throws naming
/// the knob on anything but pure decimal digits.
std::uint64_t parse_number(const std::string& text, const std::string& knob,
                           const std::string& what) {
  COOPCR_CHECK(!text.empty(), knob + ": missing " + what + " in fault plan");
  std::uint64_t value = 0;
  for (char c : text) {
    COOPCR_CHECK(c >= '0' && c <= '9', knob + ": " + what + " '" + text +
                                           "' is not a non-negative integer");
    COOPCR_CHECK(value <= (~0ull - 9) / 10, knob + ": " + what + " '" + text +
                                                "' is out of range");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

int parse_int(const std::string& text, const std::string& knob,
              const std::string& what) {
  const std::uint64_t value = parse_number(text, knob, what);
  COOPCR_CHECK(value <= 1u << 30,
               knob + ": " + what + " '" + text + "' is out of range");
  return static_cast<int>(value);
}

/// Split "A<sep>B" exactly once; throws naming the knob when `sep` is
/// absent.
std::pair<std::string, std::string> split_once(const std::string& text,
                                               char sep,
                                               const std::string& knob,
                                               const std::string& action) {
  const std::size_t at = text.find(sep);
  COOPCR_CHECK(at != std::string::npos,
               knob + ": fault action '" + action + "' needs '" +
                   std::string(1, sep) + "' in its arguments, got '" + text +
                   "'");
  return {text.substr(0, at), text.substr(at + 1)};
}

}  // namespace

FaultPlan& FaultPlan::kill_worker(int worker, int after_units) {
  COOPCR_CHECK(worker >= 0 && after_units >= 0, "kill_worker: bad arguments");
  FaultAction& a = add(FaultKind::kKillWorker);
  a.worker = worker;
  a.after_units = after_units;
  return *this;
}

FaultPlan& FaultPlan::stall_worker(int worker, int before_result,
                                   int stall_ms) {
  COOPCR_CHECK(worker >= 0 && before_result >= 1 && stall_ms >= 1,
               "stall_worker: bad arguments");
  FaultAction& a = add(FaultKind::kStallWorker);
  a.worker = worker;
  a.after_units = before_result;
  a.stall_ms = stall_ms;
  return *this;
}

FaultPlan& FaultPlan::drop_frame(int worker, int frame) {
  COOPCR_CHECK(worker >= 0 && frame >= 1, "drop_frame: bad arguments");
  FaultAction& a = add(FaultKind::kDropFrame);
  a.worker = worker;
  a.frame = frame;
  return *this;
}

FaultPlan& FaultPlan::truncate_frame(int worker, int frame) {
  COOPCR_CHECK(worker >= 0 && frame >= 1, "truncate_frame: bad arguments");
  FaultAction& a = add(FaultKind::kTruncateFrame);
  a.worker = worker;
  a.frame = frame;
  return *this;
}

FaultPlan& FaultPlan::delay_frame(int worker, int frame, int rounds) {
  COOPCR_CHECK(worker >= 0 && frame >= 1 && rounds >= 1,
               "delay_frame: bad arguments");
  FaultAction& a = add(FaultKind::kDelayFrame);
  a.worker = worker;
  a.frame = frame;
  a.delay_rounds = rounds;
  return *this;
}

FaultPlan& FaultPlan::tear_journal(int after_units, int garbage_bytes) {
  COOPCR_CHECK(after_units >= 0 && garbage_bytes >= 1 && garbage_bytes <= 4096,
               "tear_journal: bad arguments");
  FaultAction& a = add(FaultKind::kTearJournal);
  a.after_units = after_units;
  a.tear_bytes = garbage_bytes;
  return *this;
}

FaultPlan& FaultPlan::flip_journal_byte(int after_units,
                                        std::uint64_t offset) {
  COOPCR_CHECK(after_units >= 0, "flip_journal_byte: bad arguments");
  FaultAction& a = add(FaultKind::kFlipJournalByte);
  a.after_units = after_units;
  a.offset = offset;
  return *this;
}

FaultPlan& FaultPlan::interrupt(int after_units) {
  COOPCR_CHECK(after_units >= 0, "interrupt: bad arguments");
  FaultAction& a = add(FaultKind::kInterrupt);
  a.after_units = after_units;
  return *this;
}

FaultPlan& FaultPlan::resize(int shards, int after_units) {
  COOPCR_CHECK(shards >= 1 && after_units >= 0, "resize: bad arguments");
  FaultAction& a = add(FaultKind::kResize);
  a.shards = shards;
  a.after_units = after_units;
  return *this;
}

FaultPlan FaultPlan::parse(const std::string& text, const std::string& knob) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string action = text.substr(begin, end - begin);
    begin = end + 1;
    COOPCR_CHECK(!action.empty(),
                 knob + ": empty fault action in plan '" + text + "'");
    const auto [name, args] = split_once(action, '=', knob, action);
    if (name == "kill") {
      const auto [w, n] = split_once(args, '@', knob, action);
      plan.kill_worker(parse_int(w, knob, "worker"),
                       parse_int(n, knob, "unit trigger"));
    } else if (name == "stall") {
      const auto [w, rest] = split_once(args, '@', knob, action);
      const auto [n, ms] = split_once(rest, ':', knob, action);
      const int stall_ms = parse_int(ms, knob, "stall milliseconds");
      COOPCR_CHECK(stall_ms >= 1,
                   knob + ": stall milliseconds must be >= 1 in '" + action +
                       "'");
      const int result = parse_int(n, knob, "result number");
      COOPCR_CHECK(result >= 1,
                   knob + ": result number must be >= 1 in '" + action + "'");
      plan.stall_worker(parse_int(w, knob, "worker"), result, stall_ms);
    } else if (name == "drop" || name == "trunc") {
      const auto [w, f] = split_once(args, '@', knob, action);
      const int frame = parse_int(f, knob, "frame number");
      COOPCR_CHECK(frame >= 1,
                   knob + ": frame number must be >= 1 in '" + action + "'");
      if (name == "drop") {
        plan.drop_frame(parse_int(w, knob, "worker"), frame);
      } else {
        plan.truncate_frame(parse_int(w, knob, "worker"), frame);
      }
    } else if (name == "delay") {
      const auto [w, rest] = split_once(args, '@', knob, action);
      const auto [f, r] = split_once(rest, ':', knob, action);
      const int frame = parse_int(f, knob, "frame number");
      const int rounds = parse_int(r, knob, "delay rounds");
      COOPCR_CHECK(frame >= 1 && rounds >= 1,
                   knob + ": frame number and delay rounds must be >= 1 in '" +
                       action + "'");
      plan.delay_frame(parse_int(w, knob, "worker"), frame, rounds);
    } else if (name == "tear") {
      const auto [n, b] = split_once(args, ':', knob, action);
      const int bytes = parse_int(b, knob, "garbage bytes");
      COOPCR_CHECK(bytes >= 1 && bytes <= 4096,
                   knob + ": garbage bytes must be in [1, 4096] in '" +
                       action + "'");
      plan.tear_journal(parse_int(n, knob, "unit trigger"), bytes);
    } else if (name == "flip") {
      const auto [n, off] = split_once(args, ':', knob, action);
      plan.flip_journal_byte(parse_int(n, knob, "unit trigger"),
                             parse_number(off, knob, "byte offset"));
    } else if (name == "interrupt") {
      plan.interrupt(parse_int(args, knob, "unit trigger"));
    } else if (name == "resize") {
      const auto [s, n] = split_once(args, '@', knob, action);
      const int shards = parse_int(s, knob, "shard count");
      COOPCR_CHECK(shards >= 1,
                   knob + ": shard count must be >= 1 in '" + action + "'");
      plan.resize(shards, parse_int(n, knob, "unit trigger"));
    } else {
      COOPCR_CHECK(false, knob + ": unknown fault action '" + name +
                              "' — expected kill, stall, drop, trunc, delay, "
                              "tear, flip, interrupt or resize");
    }
  }
  return plan;
}

bool FaultPlan::touches_journal() const {
  for (const FaultAction& a : actions_) {
    if (a.kind == FaultKind::kTearJournal ||
        a.kind == FaultKind::kFlipJournalByte) {
      return true;
    }
  }
  return false;
}

std::vector<FaultAction> FaultPlan::take_due(int fresh_results) {
  std::vector<FaultAction> due;
  for (FaultAction& a : actions_) {
    if (a.fired || a.kind == FaultKind::kStallWorker ||
        a.kind == FaultKind::kDropFrame ||
        a.kind == FaultKind::kTruncateFrame ||
        a.kind == FaultKind::kDelayFrame) {
      continue;
    }
    if (a.after_units <= fresh_results) {
      a.fired = true;
      due.push_back(a);
    }
  }
  return due;
}

FaultAction FaultPlan::take_frame_fault(int worker, int frame) {
  for (FaultAction& a : actions_) {
    if (a.fired || a.worker != worker || a.frame != frame) continue;
    if (a.kind != FaultKind::kDropFrame &&
        a.kind != FaultKind::kTruncateFrame &&
        a.kind != FaultKind::kDelayFrame) {
      continue;
    }
    a.fired = true;
    return a;
  }
  return FaultAction{};
}

std::vector<FaultAction> FaultPlan::take_stalls(int worker) {
  std::vector<FaultAction> stalls;
  for (FaultAction& a : actions_) {
    if (a.fired || a.kind != FaultKind::kStallWorker || a.worker != worker) {
      continue;
    }
    a.fired = true;
    stalls.push_back(a);
  }
  return stalls;
}

}  // namespace coopcr::dist
