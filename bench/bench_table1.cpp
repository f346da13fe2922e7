// Table I: benchmark statistics, and Table II: parameter values.
//
// Regenerates the instance set (synthetic substitutes for the PARR [18]
// benchmarks, see DESIGN.md) and prints their statistics next to the
// paper's numbers, plus the generated-pin statistics that the paper does
// not report.
#include <cstdio>

#include "bench_common.hpp"
#include "core/params.hpp"
#include "netlist/bench_gen.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sadp;
  const auto args = bench::parse_args(argc, argv);

  std::printf("== Table I: statistics of benchmarks (%s set) ==\n",
              args.full ? "paper-scale" : "scaled");
  util::TextTable table({"Benchmark", "#Nets", "Grid size", "#Pins", "HPWL"});
  for (const auto& row : bench::selected_benchmarks(args)) {
    const auto spec = netlist::spec_for(row.name, !args.full);
    const netlist::PlacedNetlist instance = netlist::generate(*spec);
    table.begin_row();
    table.cell(instance.name);
    table.cell(instance.num_nets());
    table.cell(std::to_string(instance.width) + "x" + std::to_string(instance.height));
    table.cell(instance.total_pins());
    table.cell(static_cast<long long>(instance.hpwl()));
  }
  table.print();

  std::printf("\n== Table II: parameter values in the experiments ==\n");
  const core::CostParams cost;
  util::TextTable params({"parameter", "alpha", "AMC", "beta", "gamma", "delta",
                          "lambda", "mu"});
  params.begin_row();
  params.cell("value");
  params.cell(cost.alpha, 0);
  params.cell(cost.amc, 0);
  params.cell(cost.beta, 0);
  params.cell(cost.gamma, 0);
  params.cell(core::kDviDelta, 0);
  params.cell(core::kDviLambda, 0);
  params.cell(core::kDviMu, 0);
  params.print();
  return 0;
}
