// Table 2: the simulation parameter ranges (L, g, T) used by Figs. 1-4,
// plus empirical verification that sampled instances respect them.

#include <iostream>

#include "common.hpp"
#include "exp/param_ranges.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1000);
  benchx::print_banner("Table 2", "simulation parameter ranges", opt);

  const exp::ParamRanges r = exp::ParamRanges::paper();
  Table spec({"parameter", "minimum", "maximum"});
  spec.add_row({"L", Table::fmt(to_ms(r.L_lo), 0) + " ms",
                Table::fmt(to_ms(r.L_hi), 0) + " ms"});
  spec.add_row({"g", Table::fmt(to_ms(r.g_lo), 0) + " ms",
                Table::fmt(to_ms(r.g_hi), 0) + " ms"});
  spec.add_row({"T", Table::fmt(to_ms(r.T_lo), 0) + " ms",
                Table::fmt(to_ms(r.T_hi), 0) + " ms"});
  benchx::emit(spec, opt);

  // Empirical check over sampled instances.
  RunningStats sl, sg, st;
  for (std::uint64_t it = 0; it < opt.iterations; ++it) {
    Rng rng = Rng::stream(opt.seed, it);
    const auto inst = exp::sample_instance(r, 10, rng);
    for (ClusterId i = 0; i < 10; ++i) {
      st.add(inst.T(i));
      for (ClusterId j = 0; j < 10; ++j) {
        if (i == j) continue;
        sl.add(inst.L(i, j));
        sg.add(inst.g(i, j));
      }
    }
  }
  Table obs({"parameter", "observed min (ms)", "observed mean (ms)",
             "observed max (ms)"});
  obs.add_row("L", {to_ms(sl.min()), to_ms(sl.mean()), to_ms(sl.max())}, 2);
  obs.add_row("g", {to_ms(sg.min()), to_ms(sg.mean()), to_ms(sg.max())}, 2);
  obs.add_row("T", {to_ms(st.min()), to_ms(st.mean()), to_ms(st.max())}, 2);
  std::cout << "# empirical over " << opt.iterations << " sampled instances\n";
  benchx::emit(obs, opt);
  return 0;
}
