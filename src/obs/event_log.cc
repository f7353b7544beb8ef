#include "obs/event_log.h"

#include "obs/json.h"

namespace ireduct {
namespace obs {

std::string ChromeTraceJson(std::span<const std::string> jsonl_lines,
                            const std::map<std::string, std::string>&
                                other_data) {
  std::string out;
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (const std::string& line : jsonl_lines) {
    const Result<JsonValue> event = JsonParse(line);
    if (!event.ok() || !event->is(JsonValue::Kind::kObject)) continue;
    const JsonValue* type = event->Find("type");
    const JsonValue* ts = event->Find("ts_us");
    const JsonValue* dur = event->Find("dur_us");
    json.BeginObject();
    json.KV("name", type != nullptr ? std::string_view(type->text) : "");
    json.KV("ph", dur != nullptr ? "X" : "i");
    // Single-process, single-track model: everything the library records
    // belongs to one timeline.
    json.Key("pid");
    json.Int(1);
    json.Key("tid");
    json.Int(1);
    json.Key("ts");
    json.RawValue(ts != nullptr ? std::string_view(ts->text) : "0");
    if (dur != nullptr) {
      json.Key("dur");
      json.RawValue(dur->text);
    } else {
      json.KV("s", "t");  // instant scope: thread
    }
    json.Key("args");
    json.BeginObject();
    for (const auto& [key, value] : event->object) {
      if (&value == type || &value == ts || &value == dur) continue;
      json.Key(key);
      if (value.is(JsonValue::Kind::kNumber)) {
        json.RawValue(value.text);
      } else {
        json.String(value.text);
      }
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.KV("displayTimeUnit", "ms");
  if (!other_data.empty()) {
    json.Key("otherData");
    json.BeginObject();
    for (const auto& [key, value] : other_data) {
      json.Key(key);
      json.RawValue(value);
    }
    json.EndObject();
  }
  json.EndObject();
  return out;
}

}  // namespace obs
}  // namespace ireduct

#if IREDUCT_ENABLE_TRACING

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"

namespace ireduct {
namespace obs {

namespace {

uint64_t UnixMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string JsonToken(double v) {
  // JSON has no non-finite numbers; quote them like JsonWriter::Double.
  if (!std::isfinite(v)) return '"' + FormatDouble(v) + '"';
  return FormatDouble(v);
}
}  // namespace

EventField::EventField(std::string_view k, uint64_t v)
    : key(k), json(std::to_string(v)) {}
EventField::EventField(std::string_view k, int64_t v)
    : key(k), json(std::to_string(v)) {}
EventField::EventField(std::string_view k, int v)
    : key(k), json(std::to_string(v)) {}
EventField::EventField(std::string_view k, double v)
    : key(k), json(JsonToken(v)) {}
EventField::EventField(std::string_view k, std::string_view v)
    : key(k), json('"' + EscapeJson(v) + '"') {}

std::atomic<EventLog*> EventLog::installed_{nullptr};

EventLog::EventLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

EventLog* EventLog::Get() {
  return installed_.load(std::memory_order_acquire);
}

void EventLog::Install(EventLog* log) {
  installed_.store(log, std::memory_order_release);
}

void EventLog::Emit(std::string_view type,
                    std::initializer_list<EventField> fields) {
  Record(type, std::span<const EventField>(fields.begin(), fields.size()),
         nullptr);
}

void EventLog::Record(std::string_view type,
                      std::span<const EventField> fields,
                      const SpanTiming* timing) {
  std::string line;
  bool dropped = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    JsonWriter json(&line);
    json.BeginObject();
    json.KV("seq", next_seq_);
    json.KV("type", type);
    for (const EventField& field : fields) {
      json.Key(field.key);
      json.RawValue(field.json);
    }
    if (timing != nullptr) {
      json.KV("ts_us", timing->start_us);
      json.KV("dur_us", timing->duration_us);
    } else if (wall_clock_) {
      json.KV("ts_us", UnixMicros());
    }
    json.EndObject();
    ++next_seq_;
    ++by_type_[std::string(type)];
    if (lines_.size() == capacity_) {
      lines_.pop_front();
      ++dropped_;
      dropped = true;
    }
    lines_.push_back(std::move(line));
  }
  IREDUCT_METRIC_COUNT("events.emitted", 1);
  if (dropped) IREDUCT_METRIC_COUNT("events.dropped", 1);
}

void EventLog::set_wall_clock(bool on) {
  const std::lock_guard<std::mutex> lock(mu_);
  wall_clock_ = on;
}

bool EventLog::wall_clock() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return wall_clock_;
}

size_t EventLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lines_.size();
}

uint64_t EventLog::total_emitted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t EventLog::total_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

uint64_t EventLog::CountType(std::string_view type) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_type_.find(type);
  return it == by_type_.end() ? 0 : it->second;
}

std::vector<std::string> EventLog::SnapshotLines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {lines_.begin(), lines_.end()};
}

std::string EventLog::SnapshotJsonl() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::string& line : lines_) {
    if (!out.empty()) out.push_back('\n');
    out += line;
  }
  return out;
}

std::string EventLog::SummaryJson() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter json(&out);
  json.BeginObject();
  json.KV("emitted", next_seq_);
  json.KV("dropped", dropped_);
  json.KV("buffered", static_cast<uint64_t>(lines_.size()));
  json.Key("by_type");
  json.BeginObject();
  for (const auto& [type, count] : by_type_) json.KV(type, count);
  json.EndObject();
  json.EndObject();
  return out;
}

void EventLog::Drain(std::string* out) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::string& line : lines_) {
    out->append(line);
    out->push_back('\n');
  }
  lines_.clear();
}

Status EventLog::WriteFile(const std::string& path) {
  // Serialize outside any write so a failure leaves the buffer intact:
  // drained-on-success only. `written_end` is one past the last seq in the
  // payload; lines emitted while the file is written stay buffered.
  std::string payload;
  uint64_t written_end;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& line : lines_) {
      payload += line;
      payload.push_back('\n');
    }
    written_end = next_seq_;
  }
  const FaultDecision fault = FaultInjector::Global().Hit("event_log.write");
  if (fault.action == FaultAction::kFail) {
    return Status::IoError("injected fault: event log write failed");
  }
  if (fault.action == FaultAction::kTruncate) {
    // A crash mid-drain: a prefix of the stream reaches the disk. The
    // buffer is NOT cleared — nothing was acknowledged — so the next
    // drain (or the run report's own snapshot) still sees every event.
    const size_t keep =
        std::min<size_t>(fault.truncate_bytes, payload.size());
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file.write(payload.data(), static_cast<std::streamsize>(keep));
    file.flush();
    return Status::IoError("injected fault: event log write torn after " +
                           std::to_string(keep) + " bytes");
  }
  std::ofstream file(path, std::ios::binary | std::ios::app);
  if (!file) {
    return Status::IoError("opening event log '" + path + "' for append");
  }
  file.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!file.flush()) {
    return Status::IoError("writing event log '" + path + "'");
  }
  // Buffered seqs are consecutive and end at next_seq_ - 1, so the written
  // lines still buffered are a prefix (written_end <= next_seq_); ring
  // drops and drains during the write only shorten it.
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t front_seq = next_seq_ - lines_.size();
  if (written_end > front_seq) {
    lines_.erase(lines_.begin(),
                 lines_.begin() +
                     static_cast<std::ptrdiff_t>(written_end - front_seq));
  }
  return Status::OK();
}

EventSpan::EventSpan(std::string_view type)
    : log_(EventLog::Get()), type_(type) {
  if (log_ != nullptr && log_->wall_clock()) {
    timed_ = true;
    start_us_ = UnixMicros();
    start_ = std::chrono::steady_clock::now();
  }
}

EventSpan::~EventSpan() {
  if (log_ == nullptr) return;
  if (!timed_) {
    log_->Record(type_, fields_, nullptr);
    return;
  }
  const EventLog::SpanTiming timing{
      start_us_,
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start_)
              .count())};
  log_->Record(type_, fields_, &timing);
}

}  // namespace obs
}  // namespace ireduct

#endif  // IREDUCT_ENABLE_TRACING
