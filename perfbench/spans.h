// In-memory span recorder for the traced replay.
//
// A span is one call into a layer: its name, start and end on the
// steady clock, the span that was open when it began (its parent), and
// the id of the request it served. Spans are kept in a vector and only
// summarized or written out when the run ends. Recording is
// single-threaded: the replay runs requests one after another.
//
// A null recorder turns every ScopedSpan into a no-op, which is how the
// untraced twin of a replay runs for the tracing-overhead figure.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span, -1 for a root.
  int parent = -1;
  std::uint64_t request_id = 0;
};

struct SpanSummary {
  std::size_t count = 0;
  double median_us = 0.0;
  /// Median of duration minus the time the span's children cover.
  double median_self_us = 0.0;
  double total_us = 0.0;
};

class SpanRecorder {
 public:
  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int Begin(const char* name, std::uint64_t request_id) {
    spans_.push_back(SpanRecord{name, NowNs(), 0,
                                open_.empty() ? -1 : open_.back(),
                                request_id});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  void Rename(int index, const char* name) {
    spans_[static_cast<std::size_t>(index)].name = name;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per-name count, median duration and median self time.
  std::map<std::string, SpanSummary> Summarize() const;

  /// {"spans": [[name, start_ns, end_ns, parent, request_id], ...],
  ///  "summary": {name: {count, median_us, median_self_us, total_us}}}
  std::string ToJson() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::uint64_t request_id)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, request_id) : -1) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Names the span after the fact, when the call's outcome decides it.
  void Rename(const char* name) {
    if (recorder_ != nullptr) recorder_->Rename(index_, name);
  }

  /// Ends the span before the scope does.
  void Close() {
    if (recorder_ != nullptr) recorder_->End(index_);
    recorder_ = nullptr;
  }

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench
