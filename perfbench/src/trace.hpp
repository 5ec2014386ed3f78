// In-memory span recording for the benchmark's traced runs.
//
// Spans are recorded only here, in the benchmark, around calls into each
// layer's public functions; the toolchain itself is not instrumented. A
// Tracer keeps every span (name, start, end, parent, request id) in memory
// and writes them when the run ends as Chrome Trace Event JSON, which opens
// in Perfetto (https://ui.perfetto.dev).
//
// A layer's self time is its span's duration minus the part of that
// interval its children cover (the union of the children's intervals,
// clipped to the parent, so overlapping children are not counted twice).
// Every root span is one operation; its own self time is the operation's
// residual — time no layer span accounts for.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into the span list, -1 for a root
  std::int64_t request = -1;  ///< operation the span belongs to
  /// Not timed around its own call: a share of the parent's interval
  /// attributed to a layer the parent runs internally (see fuzz_gen.cpp).
  bool attributed = false;
};

/// Single-threaded span recorder. Replay code takes a Tracer*; a null one
/// records nothing, so the same code runs traced and untraced.
class Tracer {
 public:
  Tracer();

  /// Records an already-measured interval [start, start + duration) as a
  /// child of `parent` (see SpanRecord::attributed).
  void attribute(const char* name, int parent, std::int64_t start_ns,
                 std::int64_t duration_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::int64_t now_ns() const;

  /// Writes Chrome Trace Event JSON ({"traceEvents": [...]}, complete "X"
  /// events in microseconds), one util::Json event at a time so a long run
  /// never holds the whole document in memory.
  void write_chrome_trace(std::ostream& out) const;

 private:
  friend class Span;  // spans open and close only through RAII, so nested

  /// Opens a span under the innermost open span; returns its index.
  int open(const char* name, std::int64_t request);
  void close(int index);

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::int64_t request = -1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, request) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

/// The spans of the operations whose request id `keep` accepts, with
/// parent links renumbered.
std::vector<SpanRecord> spans_of(const std::vector<SpanRecord>& spans,
                                 const std::function<bool(std::int64_t)>& keep);

/// Self time of every span, in nanoseconds (same indexing as `spans`).
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Per-operation layer accounting over every root span in `spans`.
struct LayerTable {
  std::size_t ops = 0;
  std::vector<double> op_ms;        ///< per operation (root duration)
  std::vector<double> residual_ms;  ///< per operation (root self time)
  /// Per span name, one entry per operation (0 when it did not run).
  std::map<std::string, std::vector<double>> self_ms;
  std::map<std::string, std::vector<double>> calls;

  /// Median over operations of the summed self time of `names`.
  double self_ms_median(const std::vector<std::string>& names) const;
  /// Median self time of `name` over the operations that called it.
  double self_ms_median_called(const std::string& name) const;
  double calls_median(const std::string& name) const;
};

LayerTable aggregate(const std::vector<SpanRecord>& spans);

/// Human table: calls, self time, share of operation time per layer, the
/// residual, and the total — means over operations, so the column sums
/// exactly to the mean operation time — plus per-layer medians.
std::string render_table(const LayerTable& table);

}  // namespace perfbench
