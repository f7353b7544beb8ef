// Spec-driven mechanism selection: run the same workload through several
// publication algorithms chosen by configuration strings — no algorithm
// headers, no per-mechanism code. Pass specs on the command line to try
// your own, e.g.
//
//   ./build/examples/mechanism_select "ireduct:lambda_steps=16" geometric
//
// A spec is "name" or "name:key=val,key=val" (for example
// "two_phase:epsilon1=0.01,epsilon2=0.09"); the same strings drive
// ireduct_tool --mechanism and the BENCH_MECHANISMS bench knob. JSON works
// too (MechanismSpec::FromJson) for config files.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/mechanism_select
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/mechanism_registry.h"
#include "common/random.h"
#include "dp/workload.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace ireduct;

  // Ten count queries with counts spanning four orders of magnitude — the
  // skew that separates relative-error mechanisms from absolute-error ones.
  const std::vector<double> counts{12,   25,   40,    90,    300,
                                   1200, 4500, 15000, 42000, 90000};
  auto workload = Workload::PerQuery(counts);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> spec_texts;
  if (argc > 1) {
    spec_texts.assign(argv + 1, argv + argc);
  } else {
    spec_texts = {"dwork", "two_phase", "ireduct",
                  "ireduct:reducer=exact_coupling"};
  }

  const double epsilon = 0.1;
  const double delta = 10.0;  // sanity bound for relative error

  std::printf("%-40s %14s %14s %8s\n", "spec", "overall_error", "eps_spent",
              "private");
  for (const std::string& text : spec_texts) {
    auto spec = MechanismSpec::Parse(text);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s: %s\n", text.c_str(),
                   spec.status().ToString().c_str());
      return 1;
    }
    // The spec keeps whatever the caller pinned; declared parameters it
    // left open are filled with this example's shared settings.
    auto mechanism = MechanismRegistry::Global().Get(spec->name());
    if (!mechanism.ok()) {
      std::fprintf(stderr, "%s: %s\n", text.c_str(),
                   mechanism.status().ToString().c_str());
      return 1;
    }
    (*mechanism)->SetSpecDefault(&*spec, "epsilon", epsilon);
    (*mechanism)->SetSpecDefault(&*spec, "delta", delta);
    (*mechanism)->SetSpecDefault(&*spec, "lambda_max", 20000.0);
    // A default lambda_delta would shadow a spec-pinned lambda_steps
    // (iReduct resolves lambda_delta first).
    if (!spec->Has("lambda_steps")) {
      (*mechanism)->SetSpecDefault(&*spec, "lambda_delta", 20.0);
    }

    BitGen gen(2011);  // same seed for every mechanism: paired comparison
    auto out = (*mechanism)->Run(*workload, *spec, gen);
    if (!out.ok()) {
      std::fprintf(stderr, "%s: %s\n", text.c_str(),
                   out.status().ToString().c_str());
      return 1;
    }
    std::printf("%-40s %14.4f %14.4f %8s\n", spec->ToString().c_str(),
                OverallError(*workload, out->answers, delta),
                out->epsilon_spent, out->is_private() ? "yes" : "NO");
  }
  std::printf(
      "\nMechanisms available (see --list-mechanisms on ireduct_tool):\n ");
  for (const std::string& name : MechanismRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  return 0;
}
