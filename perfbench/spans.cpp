#include "spans.h"

#include <algorithm>

#include "support/json_writer.h"

namespace perfbench {
namespace {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

std::map<std::string, SpanSummary> SpanRecorder::Summarize() const {
  // Spans are recorded on one thread and nest properly, so the children
  // of a span never overlap and their durations simply add up.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur_us = 1e-3 * static_cast<double>(spans_[i].end_ns -
                                                     spans_[i].start_ns);
    auto& [durations, selfs] = by_name[spans_[i].name];
    durations.push_back(dur_us);
    selfs.push_back(dur_us - 1e-3 * static_cast<double>(child_ns[i]));
  }
  std::map<std::string, SpanSummary> out;
  for (const auto& [name, samples] : by_name) {
    SpanSummary& s = out[name];
    s.count = samples.first.size();
    s.median_us = Median(samples.first);
    s.median_self_us = Median(samples.second);
    for (const double d : samples.first) s.total_us += d;
  }
  return out;
}

std::string SpanRecorder::ToJson() const {
  pipemap::JsonWriter w;
  w.BeginObject();
  w.Key("spans").BeginArray();
  for (const SpanRecord& s : spans_) {
    w.BeginArray();
    w.String(s.name);
    w.Int(s.start_ns);
    w.Int(s.end_ns);
    w.Int(s.parent);
    w.UInt(s.request_id);
    w.EndArray();
  }
  w.EndArray();
  w.Key("summary").BeginObject();
  for (const auto& [name, s] : Summarize()) {
    w.Key(name).BeginObject();
    w.Key("count").UInt(s.count);
    w.Key("median_us").Double(s.median_us);
    w.Key("median_self_us").Double(s.median_self_us);
    w.Key("total_us").Double(s.total_us);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace perfbench
