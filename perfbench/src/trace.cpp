#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <utility>

#include "stats.hpp"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::open(const char* name, std::int64_t request) {
  SpanRecord span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request >= 0 || span.parent < 0
                     ? request
                     : spans_[static_cast<std::size_t>(span.parent)].request;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  stack_.push_back(index);
  // Read the clock last, so the span's own bookkeeping is not inside it.
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::attribute(const char* name, int parent, std::int64_t start_ns,
                       std::int64_t duration_ns) {
  if (parent < 0) return;
  SpanRecord span;
  span.name = name;
  span.parent = parent;
  span.request = spans_[static_cast<std::size_t>(parent)].request;
  span.start_ns = start_ns;
  span.end_ns = start_ns + std::max<std::int64_t>(0, duration_ns);
  span.attributed = true;
  spans_.push_back(std::move(span));
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  using rsp::util::Json;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    Json args = Json::object();
    args.set("request", Json(s.request));
    args.set("span", Json(static_cast<std::int64_t>(i)));
    args.set("parent", Json(s.parent));
    if (s.attributed) args.set("attributed", Json(true));
    Json event = Json::object();
    event.set("name", Json(s.name));
    event.set("cat", Json(s.parent < 0 ? "op" : "layer"));
    event.set("ph", Json("X"));
    event.set("ts", Json(static_cast<double>(s.start_ns) / 1e3));
    event.set("dur", Json(static_cast<double>(s.end_ns - s.start_ns) / 1e3));
    event.set("pid", Json(1));
    event.set("tid", Json(1));
    event.set("args", std::move(args));
    out << (i == 0 ? "\n" : ",\n") << event.dump();
  }
  out << "\n]}\n";
}

std::vector<SpanRecord> spans_of(const std::vector<SpanRecord>& spans,
                                 const std::function<bool(std::int64_t)>& keep) {
  std::vector<SpanRecord> out;
  std::vector<int> renumbered(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!keep(spans[i].request)) continue;
    renumbered[i] = static_cast<int>(out.size());
    out.push_back(spans[i]);
    if (spans[i].parent >= 0)
      out.back().parent = renumbered[static_cast<std::size_t>(spans[i].parent)];
  }
  return out;
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                               s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to [lo, hi).
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, reach);
      const std::int64_t b = std::min(end, hi);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(end, hi));
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

double LayerTable::self_ms_median(const std::vector<std::string>& names) const {
  std::vector<double> sums(ops, 0.0);
  for (const std::string& name : names) {
    const auto it = self_ms.find(name);
    if (it == self_ms.end()) continue;
    for (std::size_t op = 0; op < ops; ++op) sums[op] += it->second[op];
  }
  return median(std::move(sums));
}

double LayerTable::self_ms_median_called(const std::string& name) const {
  const auto it = self_ms.find(name);
  if (it == self_ms.end()) return 0.0;
  std::vector<double> called;
  for (std::size_t op = 0; op < ops; ++op)
    if (calls.at(name)[op] > 0) called.push_back(it->second[op]);
  return median(std::move(called));
}

double LayerTable::calls_median(const std::string& name) const {
  const auto it = calls.find(name);
  return it == calls.end() ? 0.0 : median(it->second);
}

LayerTable aggregate(const std::vector<SpanRecord>& spans) {
  LayerTable table;
  const std::vector<std::int64_t> self = self_times_ns(spans);
  // Operation index of every span: roots are operations in record order.
  std::vector<std::size_t> op_of(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      op_of[i] = table.ops++;
      table.op_ms.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6);
      table.residual_ms.push_back(static_cast<double>(self[i]) / 1e6);
    } else {
      // Parents are always recorded before their children.
      op_of[i] = op_of[static_cast<std::size_t>(spans[i].parent)];
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) continue;
    auto& ms = table.self_ms[spans[i].name];
    auto& count = table.calls[spans[i].name];
    if (ms.empty()) {
      ms.assign(table.ops, 0.0);
      count.assign(table.ops, 0.0);
    }
    ms[op_of[i]] += static_cast<double>(self[i]) / 1e6;
    count[op_of[i]] += 1.0;
  }
  return table;
}

std::string render_table(const LayerTable& table) {
  const double op_mean = mean(table.op_ms);
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, ms] : table.self_ms)
    order.emplace_back(-mean(ms), name);
  std::sort(order.begin(), order.end());

  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-26s %10s %12s %12s %8s\n", "layer",
                "calls/op", "self ms/op", "median ms", "share");
  out += line;
  const auto row = [&](const std::string& name, double calls, double ms_mean,
                       double ms_median) {
    std::snprintf(line, sizeof(line), "%-26s %10.2f %12.4f %12.4f %7.2f%%\n",
                  name.c_str(), calls, ms_mean, ms_median,
                  op_mean > 0 ? 100.0 * ms_mean / op_mean : 0.0);
    out += line;
  };
  double accounted = 0.0;
  for (const auto& [neg_mean, name] : order) {
    row(name, mean(table.calls.at(name)), -neg_mean,
        median(table.self_ms.at(name)));
    accounted -= neg_mean;
  }
  const double residual = mean(table.residual_ms);
  row("residual", 1.0, residual, median(table.residual_ms));
  std::snprintf(line, sizeof(line),
                "%-26s %10zu %12.4f %12.4f   (layers + residual = %.4f ms)\n",
                "operation", table.ops, op_mean, median(table.op_ms),
                accounted + residual);
  out += line;
  return out;
}

}  // namespace perfbench
