#include "kernels/registry.hpp"

#include "gen/generator.hpp"
#include "kernels/dsp.hpp"
#include "kernels/h264.hpp"
#include "kernels/livermore.hpp"
#include "kernels/matmul.hpp"
#include "util/error.hpp"

namespace rsp::kernels {

namespace {

std::string name_list(const std::vector<Workload>& workloads) {
  std::string names;
  for (const Workload& w : workloads) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

}  // namespace

std::vector<Workload> livermore_suite() {
  std::vector<Workload> out;
  out.push_back(make_hydro());
  out.push_back(make_iccg());
  out.push_back(make_tridiagonal());
  out.push_back(make_inner_product());
  out.push_back(make_state());
  return out;
}

std::vector<Workload> dsp_suite() {
  std::vector<Workload> out;
  out.push_back(make_fdct());
  out.push_back(make_sad());
  out.push_back(make_mvm());
  out.push_back(make_fft());
  return out;
}

std::vector<Workload> paper_suite() {
  std::vector<Workload> out = livermore_suite();
  std::vector<Workload> dsp = dsp_suite();
  for (Workload& w : dsp) out.push_back(std::move(w));
  return out;
}

std::vector<Workload> full_catalogue() {
  std::vector<Workload> out = paper_suite();
  for (Workload& w : h264_suite()) out.push_back(std::move(w));
  out.push_back(make_matmul(4));
  return out;
}

Workload find_workload(const std::string& name) {
  std::vector<Workload> suite = paper_suite();
  for (Workload& w : suite)
    if (w.name == name) return w;
  throw NotFoundError("unknown workload '" + name + "'; the paper suite is " +
                      name_list(suite) +
                      " (generated kernels are addressed as gen:<seed>)");
}

Workload find_in_catalogue(const std::string& name) {
  return find_in_catalogue(full_catalogue(), name);
}

Workload find_in_catalogue(const std::vector<Workload>& catalogue,
                           const std::string& name) {
  for (const Workload& w : catalogue)
    if (w.name == name) return w;
  if (const std::optional<std::uint64_t> seed = gen::parse_gen_name(name)) {
    gen::GeneratorConfig config;
    config.seed = *seed;
    return gen::generate_workload(config);
  }
  throw NotFoundError("unknown kernel '" + name + "'; available: " +
                      name_list(catalogue) +
                      ", or gen:<seed> for a generated kernel");
}

}  // namespace rsp::kernels
