// rsp_cli — command-line front-end to the RSP-CGRA toolchain.
//
// Every subcommand is a thin dispatcher over rsp::api::Service (the one
// façade all transports share — see src/api/service.hpp): the CLI parses
// arguments, builds a typed request, and renders the typed response as
// text. `serve` speaks the JSON wire protocol instead (docs/PROTOCOL.md):
// the long-running mode streaming v2 NDJSON requests from stdin to stdout
// (or over sockets) with out-of-order completion by id.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/context_json.hpp"
#include "analysis/verifier.hpp"
#include "api/protocol.hpp"
#include "api/serve.hpp"
#include "api/service.hpp"
#include "api/socket_server.hpp"
#include "core/report_json.hpp"
#include "gen/fuzz.hpp"
#include "gen/generator.hpp"
#include "ir/dot.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace rsp;

// Parses a strictly positive integer flag value ("--max-inflight 4").
int positive_int_flag(const std::string& flag, const std::string& value) {
  int parsed_value = 0;
  try {
    std::size_t parsed = 0;
    parsed_value = std::stoi(value, &parsed);
    if (parsed != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    throw InvalidArgumentError(flag + ": '" + value + "' is not a count");
  }
  if (parsed_value < 1)
    throw InvalidArgumentError(flag + " requires a positive count");
  return parsed_value;
}

// Parses a non-negative integer flag value ("--trials 0" is allowed: a
// corpus-only fuzz replay runs zero random trials).
long nonnegative_int_flag(const std::string& flag, const std::string& value) {
  try {
    std::size_t parsed = 0;
    const long parsed_value = std::stol(value, &parsed);
    if (parsed != value.size() || parsed_value < 0)
      throw std::invalid_argument(value);
    return parsed_value;
  } catch (const std::exception&) {
    throw InvalidArgumentError(flag + ": '" + value +
                               "' is not a non-negative count");
  }
}

// Parses a 64-bit generator seed ("--seed 42"); decimal digits only.
std::uint64_t seed_flag(const std::string& flag, const std::string& value) {
  const std::optional<std::uint64_t> seed = gen::parse_gen_name("gen:" + value);
  if (!seed)
    throw InvalidArgumentError(flag + ": '" + value + "' is not a seed");
  return *seed;
}

int cmd_list(const api::Service& service) {
  const api::ListResponse resp = service.list({});
  util::Table kernels_table({"Kernel", "Iterations", "Op set", "Array"});
  for (const api::KernelInfo& info : resp.kernels)
    kernels_table.add_row({info.name, std::to_string(info.iterations),
                           info.op_set, info.array});
  std::cout << kernels_table.render() << "\nArchitectures: ";
  for (const std::string& name : resp.architectures) std::cout << name << " ";
  std::cout << "\n";
  return 0;
}

int cmd_map(const api::Service& service, const std::string& kernel,
            const std::string& arch) {
  const api::MapResponse resp = service.map({kernel, arch});
  std::cout << resp.schedule << "cycles: " << resp.cycles
            << ", peak mults/cycle: " << resp.peak_critical_issues << "\n";
  return 0;
}

int cmd_eval(const api::Service& service, const std::string& kernel,
             bool as_json) {
  const api::EvalResponse resp = service.eval({kernel});
  if (as_json) {
    std::cout << core::to_json(resp.kernel, resp.rows).dump(true) << "\n";
    return 0;
  }
  util::Table table({"Arch", "cycles", "ET(ns)", "DR(%)", "stall"});
  table.set_title(resp.kernel);
  for (const auto& r : resp.rows)
    table.add_row({r.arch_name, std::to_string(r.cycles),
                   util::format_trimmed(r.execution_time_ns, 2),
                   util::format_trimmed(r.delay_reduction_percent, 2),
                   std::to_string(r.stalls)});
  std::cout << table.render();
  return 0;
}

int cmd_simulate(const api::Service& service, const std::string& kernel,
                 const std::string& arch) {
  const api::SimulateResponse resp = service.simulate({kernel, arch});
  std::cout << resp.kernel << " on " << resp.arch << ": " << resp.cycles
            << " cycles, PE util "
            << util::format_trimmed(100 * resp.pe_utilization, 1)
            << "%, result "
            << (resp.matches_golden ? "matches golden" : "MISMATCH") << "\n";
  return resp.matches_golden ? 0 : 1;
}

// `explore` and its alias `dse` run the full Fig. 7 flow over the paper
// domain.
int cmd_explore(const api::Service& service) {
  const api::DseResponse resp = service.dse({});
  const dse::Candidate& best = resp.result.best();
  std::cout << "explored " << resp.result.candidates.size()
            << " designs; selected " << best.point.label() << " (area "
            << util::format_trimmed(best.area_synthesized, 0) << ", time "
            << util::format_trimmed(best.exact_time_ns, 0) << " ns)\n";
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  api::ServiceOptions options;
  api::SocketServerOptions server_options;
  std::vector<api::ListenAddress> listen;
  bool saw_max_connections = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--max-inflight") {
      if (i + 1 >= args.size())
        throw InvalidArgumentError("--max-inflight requires a request count");
      options.max_inflight = positive_int_flag("--max-inflight", args[++i]);
    } else if (args[i] == "--cache-entries") {
      if (i + 1 >= args.size())
        throw InvalidArgumentError("--cache-entries requires an entry count");
      options.cache_max_entries = static_cast<std::size_t>(
          positive_int_flag("--cache-entries", args[++i]));
    } else if (args[i] == "--listen") {
      if (i + 1 >= args.size())
        throw InvalidArgumentError(
            "--listen requires an address (<path> or <host:port>)");
      listen.push_back(api::parse_listen_address(args[++i]));
    } else if (args[i] == "--max-connections") {
      if (i + 1 >= args.size())
        throw InvalidArgumentError(
            "--max-connections requires a connection count");
      server_options.max_connections =
          positive_int_flag("--max-connections", args[++i]);
      saw_max_connections = true;
    } else {
      throw InvalidArgumentError(
          "unknown flag '" + args[i] +
          "' for serve (--max-inflight N, --cache-entries N, --listen ADDR, "
          "--max-connections N)");
    }
  }

  if (listen.empty() && saw_max_connections)
    throw InvalidArgumentError(
        "--max-connections only applies with --listen (the stdin/stdout "
        "pipe serves exactly one client)");

  api::Service service(options);
  if (listen.empty()) {
    // Pipe transport: one client over stdin/stdout.
    const api::ServeResult result =
        api::serve(service, std::cin, std::cout, server_options.serve);
    if (!result.output_ok) {
      // Responses were lost to a dead output stream; the only channel left
      // for reporting it is stderr + the exit code.
      std::cerr << "error: output stream failed; responses were lost\n";
      return 1;
    }
    return 0;
  }

  // Socket transport: all connections share this one service (pool +
  // caches); logs go to stderr. Stdout carries exactly one machine-
  // parseable "READY <resolved-addr>" line per listener (ephemeral ports
  // resolved) so scripts can wait for the bind without connect-polling.
  api::SocketServer server(service, listen, server_options);
  service.set_stats_extension([&server] { return server.stats_json(); });
  server.install_signal_handlers();
  for (const api::ListenAddress& address : server.addresses()) {
    std::cerr << "listening on " << address.spec() << "\n";
    std::cout << "READY " << address.spec() << "\n" << std::flush;
  }
  server.run();
  const api::SocketServerStats stats = server.stats();
  std::cerr << "shutdown complete: " << stats.accepted << " connection(s), "
            << stats.requests << " request(s), " << stats.errors
            << " error response(s)\n";
  return 0;
}

// Client side of `serve --listen`: pipes stdin lines to the socket and
// response lines to stdout, exiting when the server finishes the stream.
int cmd_connect(const std::vector<std::string>& args) {
  if (args.size() != 2 || (!args[1].empty() && args[1][0] == '-'))
    throw InvalidArgumentError(
        "connect takes exactly one address (<path> or <host:port>)");
  return api::run_socket_client(api::parse_listen_address(args[1]), std::cin,
                                std::cout);
}

// `gen` materialises one seeded random kernel, prints its shape, and
// self-checks it through the differential harness (the same checks `fuzz`
// runs per trial), so a printed seed is known-good before it is shared.
int cmd_gen(const std::vector<std::string>& args) {
  std::optional<std::uint64_t> seed;
  bool dump = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--seed") {
      if (i + 1 >= args.size())
        throw InvalidArgumentError("--seed requires a value");
      seed = seed_flag("--seed", args[++i]);
    } else if (args[i] == "--dump") {
      dump = true;
    } else {
      throw InvalidArgumentError("unknown flag '" + args[i] +
                                 "' for gen (--seed N, --dump)");
    }
  }
  if (!seed) throw InvalidArgumentError("gen requires --seed N");

  gen::GeneratorConfig config;
  config.seed = *seed;
  const kernels::Workload w = gen::generate_workload(config);
  std::cout << w.name << ": " << w.kernel.body().size() << " body ops ("
            << w.kernel.op_set_string() << "), " << w.kernel.trip_count()
            << " iterations, " << w.array.rows << "x" << w.array.cols
            << " array\n"
            << "hints: lanes " << w.hints.lanes << ", stagger "
            << w.hints.stagger << ", columns " << w.hints.columns
            << ", row-bands " << (w.hints.cycle_row_bands ? "on" : "off")
            << "\n";
  if (w.reduction.enabled())
    std::cout << "reduction: all -> " << w.reduction.array << "["
              << w.reduction.index0 << "]\n";
  ir::Memory memory;
  w.setup(memory);
  std::cout << "arrays:";
  for (const std::string& array : memory.names())
    std::cout << " " << array << "[" << memory.size(array) << "]";
  std::cout << "\n";

  const gen::FuzzReport report = gen::fuzz_one(*seed);
  if (!report.ok) {
    std::cerr << "self-check FAILED: " << report.detail << "\n";
    return 1;
  }
  std::cout << "self-check: OK (simulator == interpreter)\n";
  if (dump) std::cout << ir::to_dot(w.kernel);
  return 0;
}

// `fuzz` is the differential harness: corpus replay (when --corpus is
// given) plus N random trials with seeds S, S+1, ... — any divergence
// prints the reproducing seed and exits nonzero. --save-failures writes one
// seed file per failure (CI uploads that directory as an artifact).
int cmd_fuzz(const std::vector<std::string>& args) {
  std::optional<long> trials;
  std::uint64_t base_seed = 1;
  std::string corpus;
  std::string save_dir;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--trials") {
      if (i + 1 >= args.size())
        throw InvalidArgumentError("--trials requires a count");
      trials = nonnegative_int_flag("--trials", args[++i]);
    } else if (args[i] == "--seed") {
      if (i + 1 >= args.size())
        throw InvalidArgumentError("--seed requires a value");
      base_seed = seed_flag("--seed", args[++i]);
    } else if (args[i] == "--corpus") {
      if (i + 1 >= args.size())
        throw InvalidArgumentError("--corpus requires a file or directory");
      corpus = args[++i];
    } else if (args[i] == "--save-failures") {
      if (i + 1 >= args.size())
        throw InvalidArgumentError("--save-failures requires a directory");
      save_dir = args[++i];
    } else {
      throw InvalidArgumentError(
          "unknown flag '" + args[i] +
          "' for fuzz (--trials N, --seed S, --corpus PATH, --save-failures "
          "DIR)");
    }
  }
  if (!trials)
    throw InvalidArgumentError(
        "fuzz requires --trials N (0 runs the corpus replay only)");

  std::vector<gen::FuzzReport> failures;
  std::size_t corpus_count = 0;
  if (!corpus.empty()) {
    const std::vector<std::uint64_t> seeds = gen::load_corpus(corpus);
    corpus_count = seeds.size();
    gen::FuzzOptions replay;
    replay.full_suite = true;  // regression seeds are cheap; check everything
    for (const std::uint64_t seed : seeds) {
      const gen::FuzzReport report = gen::fuzz_one(seed, replay);
      if (!report.ok) failures.push_back(report);
    }
  }

  long done = 0;
  const gen::FuzzSummary summary = gen::fuzz_many(
      base_seed, *trials, {}, [&](const gen::FuzzReport&) {
        if (++done % 100 == 0)
          std::cerr << "fuzz: " << done << "/" << *trials << " trials\n";
      });
  failures.insert(failures.end(), summary.failures.begin(),
                  summary.failures.end());
  if (*trials > 0) {
    const gen::FuzzReport smoke = gen::service_smoke(base_seed);
    if (!smoke.ok) failures.push_back(smoke);
  }

  if (failures.empty()) {
    std::cout << "fuzz: " << corpus_count << " corpus seed(s) + " << *trials
              << " random trial(s) passed (base seed " << base_seed << ")\n";
    return 0;
  }
  if (!save_dir.empty()) {
    std::filesystem::create_directories(save_dir);
    for (const gen::FuzzReport& f : failures) {
      std::ofstream file(save_dir + "/seed_" + std::to_string(f.seed) +
                         ".txt");
      file << f.seed << "  # " << f.detail << "\n";
    }
  }
  for (const gen::FuzzReport& f : failures)
    std::cerr << "FAIL " << f.detail << "\n  reproduce: rsp_cli fuzz "
              << "--trials 1 --seed " << f.seed << "\n";
  std::cerr << "fuzz: " << failures.size() << " failure(s)\n";
  return 1;
}

int cmd_rtl(const api::Service& service, const std::string& arch) {
  std::cout << service.rtl({arch}).verilog;
  return 0;
}

int cmd_dot(const api::Service& service, const std::string& kernel) {
  std::cout << service.dot({kernel}).dot;
  return 0;
}

int cmd_vcd(const api::Service& service, const std::string& kernel,
            const std::string& arch) {
  std::cout << service.vcd({kernel, arch}).vcd;
  return 0;
}

int cmd_bitstream(const api::Service& service, const std::string& kernel,
                  const std::string& arch) {
  const api::BitstreamResponse resp = service.bitstream({kernel, arch});
  std::cout << resp.kernel << " on " << resp.arch << ": " << resp.summary
            << ", " << resp.bytes << "-byte bitstream\n";
  return 0;
}

// Static lint: either a catalogue kernel scheduled through the service
// (`--kernel`/`--arch`, both optional — empty means "everything"), or a
// serialized schedule document (`--context FILE`,
// src/analysis/context_json.hpp) that never has to be constructible, so
// fuzz repros and hand-written illegal schedules lint too. Error findings
// print to stderr (rule id first) and the exit code is 1 whenever any
// error-severity diagnostic fired; warnings alone keep exit 0.
int cmd_lint(const std::vector<std::string>& args) {
  std::string kernel, arch, context_file;
  bool as_json = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size())
        throw rsp::InvalidArgumentError(flag + " requires a value");
      return args[++i];
    };
    if (flag == "--kernel") {
      kernel = value();
    } else if (flag == "--arch") {
      arch = value();
    } else if (flag == "--context") {
      context_file = value();
    } else if (flag == "--json") {
      as_json = true;
    } else {
      throw rsp::InvalidArgumentError(
          "unknown flag '" + flag +
          "' for lint (--kernel K, --arch A, --context FILE, --json)");
    }
  }

  api::LintResponse resp;
  if (!context_file.empty()) {
    if (!kernel.empty() || !arch.empty())
      throw rsp::InvalidArgumentError(
          "--context lints a schedule document; it excludes --kernel/--arch");
    std::ifstream in(context_file);
    if (!in)
      throw rsp::InvalidArgumentError("cannot open '" + context_file + "'");
    std::ostringstream text;
    text << in.rdbuf();
    const analysis::ScheduleDocument doc =
        analysis::parse_schedule(text.str());
    api::LintResponse::Row row;
    row.kernel = context_file;
    row.arch = doc.architecture.name;
    row.report = analysis::lint_schedule(doc.architecture, doc.ops);
    resp.rows.push_back(std::move(row));
  } else {
    api::ServiceOptions options;
    options.max_inflight = 1;
    resp = api::Service(options).lint({kernel, arch});
  }

  if (as_json) {
    std::cout << api::to_body(resp).dump() << "\n";
  } else {
    for (const api::LintResponse::Row& row : resp.rows) {
      for (const analysis::Diagnostic& d : row.report.diagnostics) {
        std::ostream& out =
            d.severity == analysis::Severity::kError ? std::cerr : std::cout;
        out << d.rule << " " << analysis::severity_name(d.severity) << " ["
            << row.kernel << " on " << row.arch << "]: " << d.message;
        if (d.locus.op >= 0) out << " (op " << d.locus.op << ")";
        out << "\n    hint: " << d.hint << "\n";
      }
    }
    std::cout << "linted " << resp.rows.size() << " configuration"
              << (resp.rows.size() == 1 ? "" : "s") << ": "
              << resp.error_count() << " errors, " << resp.warning_count()
              << " warnings\n";
  }
  return resp.clean() ? 0 : 1;
}

// Usage errors (no command, unknown command, missing arguments) print the
// synopsis to stderr and exit 1 so scripts and CI can detect misuse. Every
// subcommand and flag is enumerated here; tools/rsp_cli.cpp and
// docs/PROTOCOL.md must stay in sync with this list.
int usage() {
  std::cerr
      << "usage: rsp_cli <command> [args]\n"
         "  list                              kernels and architectures\n"
         "  map <kernel> <arch>               schedule + print the context "
         "grid\n"
         "  eval <kernel> [--json]            Tables-4/5-style row for one "
         "kernel\n"
         "  simulate <kernel> <arch>          run on the cycle simulator, "
         "verify\n"
         "  explore|dse                       DSE over the full kernel "
         "domain\n"
         "  serve [--max-inflight N] [--cache-entries N]\n"
         "        [--listen <path|host:port>]... [--max-connections N]\n"
         "                                    stream v2 NDJSON requests "
         "stdin->stdout,\n"
         "                                    or serve concurrent socket "
         "clients\n"
         "  connect <path|host:port>          pipe stdin/stdout to a serve "
         "--listen socket\n"
         "  gen --seed N [--dump]             print (and self-check) the "
         "seeded\n"
         "                                    random kernel gen:N; --dump "
         "adds DOT\n"
         "  fuzz --trials N [--seed S] [--corpus PATH] [--save-failures "
         "DIR]\n"
         "                                    differential fuzz: simulator "
         "==\n"
         "                                    interpreter on generated "
         "kernels;\n"
         "                                    nonzero exit prints the "
         "reproducing seed\n"
         "  lint [--kernel K] [--arch A] [--context FILE] [--json]\n"
         "                                    static schedule verification "
         "(rule ids,\n"
         "                                    docs/ANALYSIS.md); no flags "
         "lint the full\n"
         "                                    catalogue, --context lints a "
         "schedule\n"
         "                                    document; exit 1 on any error "
         "finding\n"
         "  rtl <arch>                        emit structural Verilog to "
         "stdout\n"
         "  dot <kernel>                      emit the body DFG in Graphviz "
         "format\n"
         "  vcd <kernel> <arch>               emit a VCD waveform to stdout\n"
         "  bitstream <kernel> <arch>         report configuration bitstream "
         "size\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    // These parse their own flags; everything else has exact arity —
    // trailing junk ("map SAD RSP#4 --bogus") is a usage error, not
    // silently ignored, so scripts can trust the exit code.
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "connect") return cmd_connect(args);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "fuzz") return cmd_fuzz(args);
    if (cmd == "lint") return cmd_lint(args);

    // One service per invocation, with one dispatch thread: the CLI runs
    // exactly one request.
    const auto light_service = [] {
      api::ServiceOptions options;
      options.max_inflight = 1;
      return api::Service(options);
    };
    if (cmd == "explore" || cmd == "dse") {
      if (args.size() > 1)
        throw rsp::InvalidArgumentError("unknown flag '" + args[1] +
                                        "' for " + cmd + " (it takes none)");
      return cmd_explore(light_service());
    }
    if (cmd == "list" && args.size() == 1) return cmd_list(light_service());
    if (cmd == "eval" && args.size() >= 2) {
      bool as_json = false;
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] != "--json")
          throw rsp::InvalidArgumentError("unknown flag '" + args[i] +
                                          "' for eval (only --json)");
        as_json = true;
      }
      return cmd_eval(light_service(), args[1], as_json);
    }
    if (args.size() == 2) {
      if (cmd == "rtl") return cmd_rtl(light_service(), args[1]);
      if (cmd == "dot") return cmd_dot(light_service(), args[1]);
    }
    if (cmd == "simulate" && args.size() >= 3) {
      if (args.size() > 3)
        throw rsp::InvalidArgumentError("unknown flag '" + args[3] +
                                        "' for simulate (it takes none)");
      return cmd_simulate(light_service(), args[1], args[2]);
    }
    if (args.size() == 3) {
      if (cmd == "map") return cmd_map(light_service(), args[1], args[2]);
      if (cmd == "vcd") return cmd_vcd(light_service(), args[1], args[2]);
      if (cmd == "bitstream")
        return cmd_bitstream(light_service(), args[1], args[2]);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
