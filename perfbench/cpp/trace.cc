#include <algorithm>
#include <fstream>

#include "cpp/bench.h"

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope Tracer::Open(const char* name, uint64_t request) {
  if (!enabled_) return Scope(nullptr, -1);
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  // Read the clock last so the bookkeeping above is outside the span.
  spans_[index].start_ns = NowNs();
  return Scope(this, index);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->NowNs();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByLayer(
    const std::set<uint64_t>& skip) const {
  // Children of one parent never overlap (single thread, strict nesting),
  // so the covered part of a span is the sum of its children's durations.
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) covered[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (skip.count(span.request) != 0) continue;
    std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] +=
        static_cast<double>(span.end_ns - span.start_ns - covered[i]) / 1e6;
  }
  return self;
}

Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\":" << JsonString(span.name)
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << "}\n";
  }
  out.close();
  if (!out) return Status::IOError("perfbench: cannot write " + path);
  return Status::OK();
}

}  // namespace perfbench
