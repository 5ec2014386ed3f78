// The paper's kernel suite in table order, plus name lookup.
#pragma once

#include <vector>

#include "kernels/workload.hpp"

namespace rsp::kernels {

/// Table 4 kernels: Hydro, ICCG, Tri-diagonal, Inner product, State.
std::vector<Workload> livermore_suite();

/// Table 5 kernels: 2D-FDCT, SAD, MVM, FFT.
std::vector<Workload> dsp_suite();

/// All nine kernels in paper order (Table 3 order).
std::vector<Workload> paper_suite();

/// Everything the toolchain ships: the paper suite, the H.264 kernels and
/// the 4×4 matmul demo — the catalogue rsp_cli and the batch API serve.
std::vector<Workload> full_catalogue();

/// Lookup by canonical name ("Hydro", "2D-FDCT", ...). Throws NotFoundError
/// listing the paper-suite names.
Workload find_workload(const std::string& name);

/// Lookup across `full_catalogue()` plus the generated family: any
/// `gen:<seed>` name builds src/gen's seeded random kernel on every call
/// (always with the default GeneratorConfig, so a name pins one workload).
/// Throws NotFoundError listing the available names.
Workload find_in_catalogue(const std::string& name);

/// Lookup in an already-built catalogue — callers resolving many names
/// build `full_catalogue()` once instead of per lookup. Returns a copy of
/// the catalogue entry, or a `gen:<seed>` workload built for this call and
/// kept nowhere. Throws NotFoundError listing the available names.
Workload find_in_catalogue(const std::vector<Workload>& catalogue,
                           const std::string& name);

}  // namespace rsp::kernels
