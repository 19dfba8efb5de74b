// coopcr/util/env.hpp
//
// The one strict parser for every COOPCR_* environment knob and for the
// numeric command-line flags of the cli/ drivers.
//
// Every binary in the repo reads its runtime knobs (COOPCR_REPLICAS,
// COOPCR_THREADS, COOPCR_CSV_DIR, COOPCR_SHARDS, COOPCR_JOURNAL,
// COOPCR_PLOT) through these helpers instead of hand-rolling
// std::getenv + strtol. The contract is uniform: an unset or empty variable
// falls back to the caller's default, and a malformed value *always* throws
// coopcr::Error naming the knob — a typo'd COOPCR_REPLICAS=1o must abort the
// sweep, not silently run with a default.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace coopcr::env {

/// Raw value of `name`; nullopt when unset or empty. The one getenv wrapper
/// everything else builds on.
std::optional<std::string> raw(const char* name);

/// Strict base-10 integer in [min_value, INT_MAX] from `text`, the value of
/// the knob or flag `what`. Throws coopcr::Error naming `what` on
/// non-numeric input, leading or trailing garbage, or out-of-range values.
int parse_int(const std::string& what, const std::string& text, int min_value);

/// Strict finite number in [min_value, +inf) from `text`; errors as above.
double parse_double(const std::string& what, const std::string& text,
                    double min_value);

/// Strict base-10 integer knob in [min_value, INT_MAX]. Unset/empty falls
/// back to `fallback` (which is not range-checked — callers own their
/// defaults). Throws coopcr::Error naming the knob on non-numeric input,
/// trailing garbage or out-of-range values.
int int_knob(const char* name, int fallback, int min_value);

/// Strict unsigned 64-bit knob (base 10, or base 16 with an 0x prefix —
/// seeds read naturally in hex). Unset/empty falls back.
std::uint64_t u64_knob(const char* name, std::uint64_t fallback);

/// Strict finite floating-point knob in [min_value, +inf). Unset/empty falls
/// back (fallback is not range-checked). Throws coopcr::Error on non-numeric
/// input, trailing garbage, non-finite or out-of-range values
/// (COOPCR_TARGET_CI and friends).
double double_knob(const char* name, double fallback, double min_value);

/// String-valued knob (paths, spec names); unset/empty yields nullopt so
/// callers can distinguish "not configured" from any real value.
std::optional<std::string> string_knob(const char* name);

/// Boolean knob: unset/empty/"0" → false, "1" → true, anything else throws
/// (a silent typo like COOPCR_PLOT=yes must not disable the plot it asked
/// for).
bool flag_knob(const char* name);

}  // namespace coopcr::env
