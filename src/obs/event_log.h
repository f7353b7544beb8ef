// Structured JSONL event stream: a bounded in-memory ring of serialized
// events, drained explicitly by the edge that wants them (the CLI behind
// --events-out/--report-out/--trace-out, a bench, a test). It is the one
// telemetry stream: spans are events that carry a duration, and the Chrome
// trace is an export of the stream (ChromeTraceJson).
//
// An EventLog is installed process-wide (EventLog::Install); while none is
// installed, the EventLog::Get() check at each call site (and an EventSpan's
// construction) is a single atomic load and nothing is recorded. With
// IREDUCT_ENABLE_TRACING=OFF the whole facility compiles to empty inline
// stubs (Get() is a constant nullptr, so guarded emission blocks fold
// away).
//
// Each event is one JSON object on one line:
//   {"seq":12,"type":"ireduct.round","round":3,...}
// Sequence numbers are monotonic across the whole run — they keep counting
// through ring-buffer drops and drains, so a gap in `seq` is a drop, never
// a serialization bug. Content is deterministic for a fixed workload and
// seed: events are only emitted from sequential (post-parallel) code, field
// order is fixed at the call site, and doubles render shortest-round-trip.
// The one opt-in exception is set_wall_clock(true), which appends a
// "ts_us" timestamp to every event and a "dur_us" duration to every span
// for operators who want real timing and accept non-reproducible bytes.
#ifndef IREDUCT_OBS_EVENT_LOG_H_
#define IREDUCT_OBS_EVENT_LOG_H_

// Normally injected by the build (PUBLIC on the ireduct target); default to
// enabled for out-of-tree includes.
#ifndef IREDUCT_ENABLE_TRACING
#define IREDUCT_ENABLE_TRACING 1
#endif

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ireduct {
namespace obs {

/// Chrome trace_event JSON (the object format chrome://tracing and Perfetto
/// load) from EventLog lines. Events with "dur_us" become complete spans
/// ("ph":"X"), every other event an instant ("ph":"i"); "ts_us" becomes
/// "ts" (0 when the stream was recorded without the wall clock), the other
/// fields, `seq` included, become "args". `other_data` entries are
/// pre-serialized JSON values placed under "otherData". Lines that do not
/// parse as a JSON object are skipped.
std::string ChromeTraceJson(std::span<const std::string> jsonl_lines,
                            const std::map<std::string, std::string>&
                                other_data);

}  // namespace obs
}  // namespace ireduct

#if IREDUCT_ENABLE_TRACING

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>

namespace ireduct {
namespace obs {

/// One "key": value field on an event. Numeric and string values only —
/// everything the instrumented call sites need. Integer call sites should
/// pass uint64_t/int64_t explicitly; exact integers survive JSON
/// round-trips where doubles above 2^53 would not.
struct EventField {
  EventField(std::string_view k, uint64_t v);
  EventField(std::string_view k, int64_t v);
  EventField(std::string_view k, int v);
  EventField(std::string_view k, double v);
  EventField(std::string_view k, std::string_view v);

  std::string key;
  /// The field's value, already serialized as a JSON token.
  std::string json;
};

/// Bounded event collector; thread-safe. Install one globally to turn
/// event emission on.
class EventLog {
 public:
  /// `capacity` bounds the buffered (undrained) events; beyond it the
  /// oldest line is dropped and total_dropped() grows.
  explicit EventLog(size_t capacity = kDefaultCapacity);

  /// The installed log, or nullptr when event emission is off.
  static EventLog* Get();
  /// Installs `log` (borrowed; caller keeps ownership and must uninstall
  /// with nullptr before destroying it).
  static void Install(EventLog* log);
  static bool active() { return Get() != nullptr; }

  /// Records one event. `type` is a lowercase dotted identifier
  /// ("ireduct.round"); fields serialize in the given order.
  void Emit(std::string_view type, std::initializer_list<EventField> fields);

  /// Opt-in wall-clock stamping: every subsequent event gains "ts_us"
  /// (Unix microseconds; a span's start) and every span started while it
  /// is on gains "dur_us". Off by default to keep event bytes
  /// reproducible.
  void set_wall_clock(bool on);

  /// Currently buffered (emitted, not yet drained or dropped) events.
  size_t size() const;
  /// All-time counts; unaffected by drains.
  uint64_t total_emitted() const;
  uint64_t total_dropped() const;
  /// All-time count of events with the given type.
  uint64_t CountType(std::string_view type) const;

  /// Copies the buffered lines without draining them (oldest first).
  std::vector<std::string> SnapshotLines() const;
  /// SnapshotLines() joined with '\n' (no trailing newline; empty string
  /// when nothing is buffered).
  std::string SnapshotJsonl() const;
  /// Deterministic summary object:
  /// {"emitted":N,"dropped":N,"buffered":N,"by_type":{...}} with type
  /// names sorted.
  std::string SummaryJson() const;

  /// Moves every buffered line (each newline-terminated) onto the end of
  /// `*out` and empties the buffer. Counters and sequence numbers keep
  /// running.
  void Drain(std::string* out);
  /// Appends all buffered lines to `path`, then removes exactly the lines
  /// it wrote — only on success, so a failed write never loses events, and
  /// events emitted during the write stay buffered for the next drain.
  /// Honors the "event_log.write" fault point (fail/truncate/crash).
  Status WriteFile(const std::string& path);

  static constexpr size_t kDefaultCapacity = 65536;

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

 private:
  friend class EventSpan;

  // A span's timing fields, in microseconds.
  struct SpanTiming {
    uint64_t start_us;
    uint64_t duration_us;
  };

  // Serializes and buffers one event; `timing` (spans only) replaces the
  // emission-time "ts_us" with the span's start and adds "dur_us".
  void Record(std::string_view type, std::span<const EventField> fields,
              const SpanTiming* timing);
  bool wall_clock() const;

  static std::atomic<EventLog*> installed_;

  const size_t capacity_;
  mutable std::mutex mu_;
  // Buffered lines hold consecutive seqs ending at next_seq_ - 1: lines
  // only ever leave from the front.
  std::deque<std::string> lines_;
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
  bool wall_clock_ = false;
  std::map<std::string, uint64_t, std::less<>> by_type_;
};

/// RAII span event: records one event of `type` when its scope exits, on
/// the log installed at construction (uninstalling mid-span is safe; the
/// span keeps its log). Fields keep the order of the Field() calls. With no
/// log installed, construction is one atomic load and Field() is a no-op
/// that allocates nothing. While the log's wall clock is on at
/// construction the event also carries "ts_us" (the span's start) and
/// "dur_us"; otherwise its bytes equal an Emit() of the same fields at
/// scope exit.
class EventSpan {
 public:
  /// `type` must outlive the span (call sites pass literals).
  explicit EventSpan(std::string_view type);
  ~EventSpan();

  template <typename T>
  void Field(std::string_view key, const T& value) {
    if (log_ != nullptr) fields_.emplace_back(key, value);
  }

  bool recording() const { return log_ != nullptr; }

  EventSpan(const EventSpan&) = delete;
  EventSpan& operator=(const EventSpan&) = delete;

 private:
  EventLog* const log_;
  const std::string_view type_;
  std::vector<EventField> fields_;
  bool timed_ = false;
  uint64_t start_us_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace ireduct

#else  // !IREDUCT_ENABLE_TRACING

namespace ireduct {
namespace obs {

// Compile-time-disabled stubs: Get() is a constant nullptr, so
// `if (EventLog* log = EventLog::Get())` emission blocks fold away, and
// EventSpan is an empty object.
struct EventField {
  EventField(std::string_view, uint64_t) {}
  EventField(std::string_view, int64_t) {}
  EventField(std::string_view, int) {}
  EventField(std::string_view, double) {}
  EventField(std::string_view, std::string_view) {}
};

class EventLog {
 public:
  explicit EventLog(size_t = 0) {}
  static constexpr EventLog* Get() { return nullptr; }
  static void Install(EventLog*) {}
  static constexpr bool active() { return false; }

  void Emit(std::string_view, std::initializer_list<EventField>) {}
  void set_wall_clock(bool) {}
  size_t size() const { return 0; }
  uint64_t total_emitted() const { return 0; }
  uint64_t total_dropped() const { return 0; }
  uint64_t CountType(std::string_view) const { return 0; }
  std::vector<std::string> SnapshotLines() const { return {}; }
  std::string SnapshotJsonl() const { return std::string(); }
  std::string SummaryJson() const {
    return "{\"emitted\":0,\"dropped\":0,\"buffered\":0,\"by_type\":{}}";
  }
  void Drain(std::string*) {}
  Status WriteFile(const std::string&) { return Status::OK(); }

  static constexpr size_t kDefaultCapacity = 0;
};

class EventSpan {
 public:
  explicit EventSpan(std::string_view) {}
  template <typename T>
  void Field(std::string_view, const T&) {}
  bool recording() const { return false; }
};

}  // namespace obs
}  // namespace ireduct

#endif  // IREDUCT_ENABLE_TRACING

#endif  // IREDUCT_OBS_EVENT_LOG_H_
