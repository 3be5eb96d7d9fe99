#include "bench/suite/spans.h"

#include <sstream>

#include "bench/suite/host.h"
#include "obs/export.h"

namespace bftlab {
namespace suite {

SpanLog::SpanLog() : origin_s_(Now()) {}

size_t SpanLog::Begin(std::string name) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.name = std::move(name);
  span.cell = cell_;
  span.start_s = Now() - origin_s_;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double SpanLog::End(size_t handle) {
  Span& span = spans_[handle];
  span.end_s = Now() - origin_s_;
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
  return span.end_s - span.start_s;
}

double SpanLog::Total(const std::string& name, size_t since) const {
  double total = 0;
  for (size_t i = since; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].end_s - spans_[i].start_s;
  }
  return total;
}

namespace {

/// Duration covered by each span's direct children, indexed by span.
std::vector<double> ChildTime(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != 0) child[s.parent - 1] += s.end_s - s.start_s;
  }
  return child;
}

}  // namespace

std::string SpanLog::Json() const {
  const std::vector<double> child = ChildTime(spans_);
  std::ostringstream os;
  os.precision(9);
  os << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
       << JsonEscape(s.name) << "\",\"cell\":\"" << JsonEscape(s.cell)
       << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
       << ",\"self_s\":" << (s.end_s - s.start_s - child[i]) << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace suite
}  // namespace bftlab
