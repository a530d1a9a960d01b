#include "spans.hpp"

#include <algorithm>
#include <iomanip>
#include <utility>

namespace perfbench {

int SpanLog::open(std::string name, std::uint64_t request, int parent) {
  const double now = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), request, parent, now, -1.0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  const double now = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = now;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end >= s.start) out.push_back(s.end - s.start);
  return out;
}

double SpanLog::total(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

double SpanLog::duration(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end - s.start;
}

double SpanLog::self_time(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& root = spans_.at(static_cast<std::size_t>(id));
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans_)
    if (s.parent == id && s.end >= s.start)
      kids.emplace_back(std::max(s.start, root.start), std::min(s.end, root.end));
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, reach = root.start;
  for (const auto& [a, b] : kids) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return (root.end - root.start) - covered;
}

void SpanLog::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << std::setprecision(9) << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start_s\": " << s.start << ", \"end_s\": " << s.end << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
