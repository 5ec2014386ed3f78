#include "api/serve.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/protocol.hpp"
#include "util/error.hpp"

namespace rsp::api {

namespace {

/// In-flight futures above this size trigger a sweep of completed ones, so
/// an endless stream does not accumulate one future per request forever.
constexpr std::size_t kPruneThreshold = 64;

/// Duplicate-id tracker over a sliding window of accepted ids: constant
/// space for any stream lifetime. Only *accepted* ids enter the window —
/// a rejected duplicate must not evict (and thereby re-admit) the id it
/// collided with.
class SeenIdWindow {
 public:
  explicit SeenIdWindow(std::size_t window) : window_(window) {}

  /// True when `id` was accepted (not seen within the window).
  bool insert(const std::string& id) {
    if (!seen_.insert(id).second) return false;
    if (window_ == 0) return true;  // unbounded
    order_.push_back(id);
    if (order_.size() > window_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

 private:
  std::size_t window_;
  std::unordered_set<std::string> seen_;
  std::deque<std::string> order_;
};

enum class LineRead { kLine, kTooLong, kEnd };

/// Reads the next line of `in` into `line`, without its '\n'; a final line
/// without one counts. istream::getline into a fixed chunk scans the
/// stream's buffer as std::getline does, but a line longer than
/// kMaxRequestLineBytes is cut off one chunk past the limit and skipped
/// through its newline instead of being buffered whole.
LineRead read_request_line(std::istream& in, std::string& line) {
  constexpr std::streamsize kChunk = 4096;
  char chunk[kChunk];
  line.clear();
  for (;;) {
    in.getline(chunk, kChunk);
    const auto extracted = static_cast<std::size_t>(in.gcount());
    if (in.fail() && !in.eof() && !in.bad() &&
        extracted + 1 == static_cast<std::size_t>(kChunk)) {
      // The chunk filled up before the newline.
      line.append(chunk, extracted);
      in.clear();
      if (line.size() > kMaxRequestLineBytes) {
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        return LineRead::kTooLong;
      }
      continue;
    }
    if (extracted == 0) {
      // End of stream (or a failed stream): nothing more of this line.
      if (line.empty()) return LineRead::kEnd;
    } else {
      // Ended by the newline, which is counted but not stored, or by the
      // end of the stream.
      line.append(chunk, in.eof() ? extracted : extracted - 1);
    }
    return line.size() > kMaxRequestLineBytes ? LineRead::kTooLong
                                              : LineRead::kLine;
  }
}

}  // namespace

ServeResult serve(Service& service, std::istream& in, std::ostream& out,
                  const ServeOptions& options) {
  std::mutex out_mutex;
  std::atomic<std::size_t> errors{0};
  // Set when the output stream fails: responses are being lost, so the
  // read loop stops accepting new requests and the caller is told.
  std::atomic<bool> output_failed{false};
  std::size_t requests = 0;
  SeenIdWindow seen_ids(options.seen_id_window);
  std::vector<std::future<void>> inflight;

  // One response per line, written whole under the lock: concurrent
  // completions may interleave *lines* in any order but never bytes.
  const auto write_line = [&out, &out_mutex,
                           &output_failed](const util::Json& doc) {
    const std::string line = doc.dump();
    const std::lock_guard<std::mutex> lock(out_mutex);
    out << line << "\n" << std::flush;
    if (!out) output_failed.store(true, std::memory_order_relaxed);
  };
  const auto write_error = [&](const util::Json& id,
                               const std::string& message) {
    errors.fetch_add(1, std::memory_order_relaxed);
    write_line(encode_v2_response(id, error_body(message)));
  };
  // Joins a completed (or, in the final drain, still-running) task. `done`
  // callbacks only fail on pathological conditions (bad_alloc while
  // rendering); the response is lost either way, so account for it and
  // keep serving.
  const auto join = [&errors](std::future<void>& f) {
    if (!f.valid()) return;
    try {
      f.get();
    } catch (...) {
      errors.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // One non-blank input line: parse, validate, dispatch or answer.
  const auto serve_line = [&](const std::string& text) {
    util::Json doc;
    try {
      doc = util::Json::parse(text);
    } catch (const std::exception& e) {
      write_error(util::Json(), e.what());
      return;
    }

    // Echo the id on error responses whenever it could be extracted.
    util::Json id;
    if (doc.is_object() && doc.contains("id")) {
      const util::Json& extracted = doc.at("id");
      if (extracted.is_string() || extracted.is_number()) id = extracted;
    }

    Request request;
    try {
      request = decode_v2_request(doc);
    } catch (const std::exception& e) {
      write_error(id, e.what());
      return;
    }

    // Ids must be unique within the recent-request window — a reused id
    // would make out-of-order responses ambiguous.
    const std::string id_key = id.dump();
    if (!seen_ids.insert(id_key)) {
      write_error(id, "duplicate request id " + id_key);
      return;
    }

    // Grow the vector *before* submitting: if push_back could throw after
    // submit, the task's future would be lost and the final drain would
    // miss it — leaving the task to outlive this frame.
    inflight.emplace_back();
    inflight.back() = service.submit(
        std::move(request), [&errors, &write_line, id](util::Json body) {
          if (body.contains("ok") && !body.at("ok").as_bool())
            errors.fetch_add(1, std::memory_order_relaxed);
          write_line(encode_v2_response(id, std::move(body)));
        });

    if (inflight.size() >= kPruneThreshold) {
      std::vector<std::future<void>> still_running;
      // Reserve up front: a push_back throwing mid-sweep would destroy the
      // futures already moved over, abandoning tasks that reference this
      // frame.
      still_running.reserve(inflight.size());
      for (std::future<void>& f : inflight) {
        if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
          join(f);
        else
          still_running.push_back(std::move(f));
      }
      inflight = std::move(still_running);
    }
  };

  // In-flight done-callbacks reference this frame's locals, so no
  // exception (bad_alloc in parse/push_back, a write failure) may unwind
  // it while tasks are still running: drain them first, then rethrow.
  std::string line;
  try {
    while (!output_failed.load(std::memory_order_relaxed)) {
      const LineRead read = read_request_line(in, line);
      if (read == LineRead::kEnd) break;
      if (read == LineRead::kTooLong) {
        ++requests;
        write_error(util::Json(), "request line exceeds " +
                                      std::to_string(kMaxRequestLineBytes) +
                                      " bytes");
        continue;
      }
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      ++requests;
      serve_line(line);
    }
  } catch (...) {
    for (std::future<void>& f : inflight)
      if (f.valid()) f.wait();
    throw;
  }

  for (std::future<void>& f : inflight) join(f);
  ServeResult result;
  result.requests = requests;
  result.errors = errors.load();
  result.output_ok = !output_failed.load();
  return result;
}

}  // namespace rsp::api
