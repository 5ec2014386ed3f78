#include "api/serve.hpp"

#include <atomic>
#include <condition_variable>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>

#include "api/protocol.hpp"
#include "util/error.hpp"

namespace rsp::api {

namespace {

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

ServeResult serve(Service& service, std::istream& in, std::ostream& out) {
  std::mutex out_mutex;
  std::atomic<std::size_t> errors{0};
  // Set when the output stream fails: responses are being lost, so the
  // read loop stops accepting new requests and the caller is told.
  std::atomic<bool> output_failed{false};
  std::size_t requests = 0;
  SeenIdWindow seen_ids;

  // Requests submitted and not yet answered. Each done-callback lowers the
  // count and signals under the lock, so once the loop has seen it reach
  // zero no callback touches this frame again.
  std::mutex answered_mutex;
  std::condition_variable answered;
  std::size_t unanswered = 0;
  const auto wait_for_fewer_unanswered_than = [&](std::size_t limit) {
    std::unique_lock<std::mutex> lock(answered_mutex);
    answered.wait(lock, [&] { return unanswered < limit; });
  };

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
  // Runs on a dispatch thread once per submitted request (Service::handle
  // answers every request in-band). Rendering or writing only fails on
  // pathological conditions (bad_alloc); the response is lost either way,
  // so account for it and keep serving.
  const auto answer = [&](const util::Json& id, util::Json body) {
    try {
      if (body.contains("ok") && !body.at("ok").as_bool())
        errors.fetch_add(1, std::memory_order_relaxed);
      write_line(encode_v2_response(id, std::move(body)));
    } catch (...) {
      errors.fetch_add(1, std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> lock(answered_mutex);
    --unanswered;
    answered.notify_one();
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

    // Counted before submitting, so the callback never lowers the count
    // below zero; a submit that throws queued nothing.
    {
      const std::lock_guard<std::mutex> lock(answered_mutex);
      ++unanswered;
    }
    try {
      service.submit(std::move(request), [&answer, id](util::Json body) {
        answer(id, std::move(body));
      });
    } catch (...) {
      const std::lock_guard<std::mutex> lock(answered_mutex);
      --unanswered;
      throw;
    }
  };

  // Done-callbacks reference this frame's locals, so no exception
  // (bad_alloc in parse, a write failure) may unwind it while requests are
  // unanswered: wait for them first, then rethrow.
  std::string line;
  try {
    while (!output_failed.load(std::memory_order_relaxed)) {
      wait_for_fewer_unanswered_than(kMaxUnansweredRequests);
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
    wait_for_fewer_unanswered_than(1);
    throw;
  }

  wait_for_fewer_unanswered_than(1);
  ServeResult result;
  result.requests = requests;
  result.errors = errors.load();
  result.output_ok = !output_failed.load();
  return result;
}

}  // namespace rsp::api
