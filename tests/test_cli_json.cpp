// End-to-end coverage for the CLI JSON report path: runs the real rsp_cli
// binary (path injected by the build as RSP_CLI_BINARY), parses its stdout
// back through util/json, and asserts the report schema round-trips and
// that serve answers exactly as the in-process Service does.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "api/protocol.hpp"
#include "api/service.hpp"
#include "util/json.hpp"

namespace rsp {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string stdout_text;
};

CliResult run_shell(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("popen failed: " + command);
  CliResult result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0)
    result.stdout_text.append(buffer, n);
  const int status = pclose(pipe);
  result.exit_code = (status >= 0 && WIFEXITED(status))
                         ? WEXITSTATUS(status)
                         : -1;
  return result;
}

CliResult run_cli(const std::string& args) {
  return run_shell(std::string(RSP_CLI_BINARY) + " " + args);
}

TEST(CliJson, EvalJsonParsesBack) {
  const CliResult r = run_cli("eval SAD --json");
  ASSERT_EQ(r.exit_code, 0);
  ASSERT_FALSE(r.stdout_text.empty());

  const util::Json report = util::Json::parse(r.stdout_text);
  ASSERT_TRUE(report.is_object());
  EXPECT_EQ(report.at("kernel").as_string(), "SAD");

  const util::Json& results = report.at("results");
  ASSERT_TRUE(results.is_array());
  ASSERT_EQ(results.size(), 9u);  // Base, RS#1..RS#4, RSP#1..RSP#4
  for (std::size_t i = 0; i < results.size(); ++i) {
    const util::Json& row = results.at(i);
    for (const char* key :
         {"arch", "cycles", "stalls", "clock_ns", "execution_time_ns",
          "delay_reduction_percent", "max_mults_per_cycle"})
      EXPECT_TRUE(row.contains(key)) << "row " << i << " missing " << key;
    EXPECT_TRUE(row.at("arch").is_string());
    EXPECT_GT(row.at("cycles").as_number(), 0);
    EXPECT_GT(row.at("execution_time_ns").as_number(), 0);
  }
  EXPECT_EQ(results.at(0).at("arch").as_string(), "Base");
}

TEST(CliJson, EvalJsonRoundTripIsStable) {
  const CliResult r = run_cli("eval MVM --json");
  ASSERT_EQ(r.exit_code, 0);
  const util::Json once = util::Json::parse(r.stdout_text);
  const util::Json twice = util::Json::parse(once.dump());
  EXPECT_EQ(once.dump(), twice.dump());
  EXPECT_EQ(once.dump(true), twice.dump(true));
}

TEST(CliJson, UnknownKernelFailsNonzero) {
  const CliResult r = run_cli("eval no-such-kernel --json 2>/dev/null");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(CliJson, UnknownEvalFlagFailsNonzero) {
  const CliResult r = run_cli("eval SAD --verbose 2>/dev/null");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(CliJson, ServeV2NdjsonMatchesInProcessService) {
  // Every response line `serve` writes for the shared requests file must
  // be byte-identical to the same request answered serially in process
  // through Service::handle — the concurrent stdin loop adds nothing but
  // the envelope and the ordering.
  const CliResult served =
      run_shell(std::string(RSP_CLI_BINARY) +
                " serve --threads 2 < " RSP_TEST_DATA_DIR
                "/serve_requests.ndjson");
  ASSERT_EQ(served.exit_code, 0);
  std::map<std::string, std::string> by_id;
  std::istringstream lines(served.stdout_text);
  std::string line;
  while (std::getline(lines, line)) {
    const util::Json response = util::Json::parse(line);
    ASSERT_TRUE(response.at("ok").as_bool()) << line;
    by_id.emplace(response.at("id").as_string(), line);
  }
  ASSERT_EQ(by_id.size(), 2u);

  api::ServiceOptions options;
  options.threads = 1;
  options.max_inflight = 1;
  const api::Service service(options);
  std::ifstream requests(RSP_TEST_DATA_DIR "/serve_requests.ndjson");
  std::size_t compared = 0;
  while (std::getline(requests, line)) {
    const util::Json request = util::Json::parse(line);
    const util::Json& id = request.at("id");
    const std::string expected =
        api::encode_v2_response(
            id, service.handle(api::decode_v2_request(request)))
            .dump();
    EXPECT_EQ(by_id.at(id.as_string()), expected) << id.as_string();
    ++compared;
  }
  EXPECT_EQ(compared, by_id.size());
  // The two-kernel grid's optimum, pinned (the serial reference agrees by
  // the comparison above).
  EXPECT_EQ(util::Json::parse(by_id.at("dse-1"))
                .at("selected")
                .at("label")
                .as_string(),
            "1r/p2");
}

TEST(CliJson, ServeRejectsACorruptCacheSnapshotInBand) {
  // A cache_load of a snapshot truncated mid-write must come back as a
  // normal {"ok": false} response naming the parse failure — not kill the
  // serve loop (the next request on the same stream still answers). Serve
  // answers out of order, so responses are matched by id; the snapshot
  // path is per process so concurrent runs cannot clobber it.
  const std::string path = ::testing::TempDir() + "rsp_cli_json_corrupt_" +
                           std::to_string(::getpid()) + ".json";
  run_shell("printf '{\"format\": \"rsp-eval-cache\", \"ver' > " + path);
  const CliResult r = run_shell(
      "printf '%s\\n%s\\n' "
      "'{\"protocol_version\": 2, \"id\": \"cl\", \"op\": \"cache_load\", "
      "\"path\": \"" + path + "\"}' "
      "'{\"protocol_version\": 2, \"id\": \"p\", \"op\": \"ping\"}' | " +
      std::string(RSP_CLI_BINARY) + " serve");
  std::remove(path.c_str());
  ASSERT_EQ(r.exit_code, 0);
  std::map<std::string, util::Json> by_id;
  std::istringstream lines(r.stdout_text);
  std::string line;
  while (std::getline(lines, line)) {
    const util::Json response = util::Json::parse(line);
    by_id.emplace(response.at("id").as_string(), response);
  }
  ASSERT_EQ(by_id.size(), 2u) << r.stdout_text;
  const util::Json& failed = by_id.at("cl");
  EXPECT_FALSE(failed.at("ok").as_bool());
  EXPECT_NE(failed.at("error").as_string().find("JSON parse error"),
            std::string::npos);
  EXPECT_TRUE(by_id.at("p").at("ok").as_bool());
}

}  // namespace
}  // namespace rsp
