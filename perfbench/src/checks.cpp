#include "checks.hpp"

#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace perfbench {

namespace {

template <typename T>
std::string field_diff(const char* field, std::size_t index, const T& got,
                       const T& want) {
  if (got == want) return {};
  std::ostringstream out;
  out.precision(17);
  out << "candidate " << index << " " << field << ": " << got
      << " != reference " << want;
  return out.str();
}

}  // namespace

std::string exploration_diff(const rsp::dse::ExplorationResult& got,
                             const rsp::dse::ExplorationResult& want) {
  std::ostringstream out;
  out.precision(17);
  if (got.base_area != want.base_area) out << "base_area differs";
  else if (got.base_cycles != want.base_cycles) out << "base_cycles differs";
  else if (got.base_time_ns != want.base_time_ns) out << "base_time_ns differs";
  else if (got.selected != want.selected)
    out << "selected " << got.selected << " != reference " << want.selected;
  else if (got.candidates.size() != want.candidates.size())
    out << got.candidates.size() << " candidates != reference "
        << want.candidates.size();
  if (!out.str().empty()) return out.str();

  for (std::size_t i = 0; i < got.candidates.size(); ++i) {
    const rsp::dse::Candidate& g = got.candidates[i];
    const rsp::dse::Candidate& w = want.candidates[i];
    for (const std::string& d : std::initializer_list<std::string>{
             field_diff("point", i, g.point.label(), w.point.label()),
          // PeSpec has no operator==; the name, geometry and sharing plan
          // pin a design point's architecture.
          g.architecture.name == w.architecture.name &&
                  g.architecture.array == w.architecture.array &&
                  g.architecture.sharing == w.architecture.sharing
              ? std::string()
              : "candidate " + std::to_string(i) + " architecture differs",
          field_diff("area_estimate", i, g.area_estimate, w.area_estimate),
          field_diff("area_synthesized", i, g.area_synthesized,
                     w.area_synthesized),
          field_diff("clock_ns", i, g.clock_ns, w.clock_ns),
          field_diff("estimated_cycles", i, g.estimated_cycles,
                     w.estimated_cycles),
          field_diff("estimated_time_ns", i, g.estimated_time_ns,
                     w.estimated_time_ns),
          field_diff("rejected", i, g.rejected, w.rejected),
          field_diff("reject_reason", i, g.reject_reason, w.reject_reason),
          field_diff("pareto", i, g.pareto, w.pareto),
          field_diff("evaluated", i, g.evaluated, w.evaluated),
          field_diff("exact_cycles", i, g.exact_cycles, w.exact_cycles),
          field_diff("exact_time_ns", i, g.exact_time_ns, w.exact_time_ns),
          field_diff("total_stalls", i, g.total_stalls, w.total_stalls)})
      if (!d.empty()) return d;
  }
  return {};
}

std::string paper_golden_diff(const rsp::dse::ExplorationResult& result,
                              const std::string& golden_path) {
  std::ifstream file(golden_path);
  if (!file) return "cannot read pinned paper-domain result " + golden_path;
  std::stringstream text;
  text << file.rdbuf();
  const rsp::util::Json golden = rsp::util::Json::parse(text.str());

  if (result.selected < 0) return "paper domain selected no design";
  const std::string selected = result.best().point.label();
  if (selected != golden.at("selected").as_string())
    return "paper domain selected " + selected + ", pinned " +
           golden.at("selected").as_string();
  if (result.base_cycles !=
      static_cast<long>(golden.at("base_cycles").as_number()))
    return "paper domain base cycles differ from the pinned value";
  const std::vector<const rsp::dse::Candidate*> pareto = result.pareto_points();
  const rsp::util::Json& pinned = golden.at("pareto");
  if (pareto.size() != pinned.size())
    return "paper domain Pareto set has " + std::to_string(pareto.size()) +
           " points, pinned " + std::to_string(pinned.size());
  for (std::size_t i = 0; i < pareto.size(); ++i) {
    const rsp::util::Json& p = pinned.at(i);
    if (pareto[i]->point.label() != p.at("label").as_string() ||
        pareto[i]->exact_cycles !=
            static_cast<long>(p.at("exact_cycles").as_number()) ||
        pareto[i]->total_stalls !=
            static_cast<long>(p.at("total_stalls").as_number()))
      return "paper domain Pareto point " + std::to_string(i) + " (" +
             pareto[i]->point.label() + ") differs from the pinned one";
  }
  return {};
}

std::string serve_response_diff(const std::string& line, std::int64_t id,
                                const std::string* expected_body) {
  if (expected_body != nullptr) {
    // encode_v2_response puts protocol_version and id first, then the body
    // fields in order: compare piecewise, without building the string.
    const std::string head =
        "{\"protocol_version\":2,\"id\":" + std::to_string(id) + ",";
    const std::string& body = *expected_body;
    const bool same = line.size() == head.size() + body.size() - 1 &&
                      line.compare(0, head.size(), head) == 0 &&
                      line.compare(head.size(), std::string::npos, body, 1,
                                   std::string::npos) == 0;
    if (same) return {};
    return "response " + std::to_string(id) +
           " differs from the serial reference: " + line.substr(0, 160);
  }
  try {
    const rsp::util::Json doc = rsp::util::Json::parse(line);
    if (!doc.at("ok").as_bool())
      return "response " + std::to_string(id) + " is ok:false: " +
             line.substr(0, 160);
    if (doc.at("report").at("results").size() != 9)
      return "response " + std::to_string(id) + " does not have nine rows";
  } catch (const std::exception& e) {
    return "response " + std::to_string(id) + " is malformed: " + e.what();
  }
  return {};
}

}  // namespace perfbench
