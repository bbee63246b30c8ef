// The Section 8 scenario: what does a fine-line shrink do to the testing
// problem?
//
// Shrinking a circuit's feature size shrinks its area: yield rises (Eq. 3),
// which by itself *lowers* the required fault coverage. But finer geometry
// means one physical defect hits more logic, so n0 — faults per defective
// chip — rises too, which lowers the requirement further. This example
// walks a product through three process nodes and quantifies both effects,
// using the yield-model library for the area/yield link and the core model
// for the coverage requirement. (Pure closed-form — the simulation-backed
// counterpart of a what-if like this is a flow::FlowSpec sweep; see
// tools/lsiq_flow for running such scenarios from spec files.)
#include <iostream>

#include "core/coverage_requirement.hpp"
#include "util/table.hpp"
#include "yield/models.hpp"

int main() {
  using namespace lsiq;

  std::cout << "Fine-line scaling and the fault-coverage requirement "
               "(Section 8)\n\n";

  // The product starts at a 4 cm^2-class die on a process with
  // D0 = 0.8 defects/cm^2 and clustering X = 0.5. A linear shrink s scales
  // the die area by s^2 (Section 8); lambda = D0 * area feeds Eq. 3.
  const double defect_density = 0.8;
  const double variance_ratio = 0.5;
  const double area0 = 4.0;

  struct Node {
    const char* name;
    double linear_shrink;  ///< relative to node 0
    double n0;             ///< faults per defective chip (rises as features
                           ///< shrink: one defect spans more logic)
  };
  const Node nodes[] = {
      {"node A (1.00x)", 1.00, 6.0},
      {"node B (0.70x)", 0.70, 9.0},
      {"node C (0.50x)", 0.50, 14.0},
  };

  const double target_reject = 0.001;  // 1000 DPPM class product

  util::TextTable table({"process node", "area", "defects/chip", "yield",
                         "n0", "required f (n0 fixed at 6)",
                         "required f (n0 scaled)"});
  for (const Node& node : nodes) {
    const double area = area0 * node.linear_shrink * node.linear_shrink;
    const double lambda = defect_density * area;
    const double y = yield_model::negative_binomial_yield(lambda,
                                                          variance_ratio);
    // Effect 1: yield alone (n0 held at the node-A value).
    const double f_yield_only =
        quality::required_fault_coverage(target_reject, y, nodes[0].n0);
    // Effect 2: yield + the n0 growth of finer geometry.
    const double f_both =
        quality::required_fault_coverage(target_reject, y, node.n0);
    table.add_row({node.name, util::format_double(area, 2),
                   util::format_double(lambda, 2),
                   util::format_percent(y, 1),
                   util::format_double(node.n0, 0),
                   util::format_percent(f_yield_only, 1),
                   util::format_percent(f_both, 1)});
  }
  std::cout << table.to_string();

  std::cout
      << "\nReading (paper, Section 8): \"a higher yield indicates a lower\n"
         "fault-coverage requirement if n0 remains fixed ... one expects\n"
         "many logical faults to be produced by a physical defect. This\n"
         "phenomenon could result in a higher value of n0, thereby further\n"
         "reducing the fault-coverage requirement.\" Both columns confirm\n"
         "the direction; the combined effect is substantial.\n";

  // Side note: the same defect data under the catalogue of classical yield
  // models (references [7]-[12]) — how model choice moves the yield input.
  const double lambda = defect_density * area0;
  std::cout << "\nYield-model sensitivity at node A (lambda = "
            << util::format_double(lambda, 2) << "):\n";
  util::TextTable models({"model", "yield", "required f @ n0=6"});
  struct Entry {
    const char* name;
    double yield;
  };
  for (const Entry& e :
       {Entry{"Poisson", yield_model::poisson_yield(lambda)},
        Entry{"Murphy [7]", yield_model::murphy_yield(lambda)},
        Entry{"Seeds [8]", yield_model::seeds_yield(lambda)},
        Entry{"Price [9]", yield_model::price_yield(lambda)},
        Entry{"neg. binomial (Eq. 3)",
              yield_model::negative_binomial_yield(lambda, variance_ratio)}}) {
    models.add_row(
        {e.name, util::format_percent(e.yield, 2),
         util::format_percent(
             quality::required_fault_coverage(target_reject, e.yield, 6.0),
             1)});
  }
  std::cout << models.to_string();
  return 0;
}
