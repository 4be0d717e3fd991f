// gridcast_race: race any set of registered scheduling heuristics — over a
// message-size ladder (sweep mode, Figs. 5/6) or over random Table 2
// instances per cluster count (--race, the Figs. 1-4 Monte-Carlo races) —
// the one registry-driven CLI behind the per-figure bench binaries.
//
//   gridcast_race --sched=FlatTree,ECEF-LAT --backend=plogp --out=race.json
//   gridcast_race --sched=all --backend=sim --shards=2 --shard=0 --out=s0.json
//   gridcast_race --sched=all --verb=scatter --backend=sim --out=scatter.json
//   gridcast_race --race --clusters=2-10 --iters=10000 --out=fig1.json
//   gridcast_race --race --backend=sim --realise --out=fig1_measured.json
//   gridcast_race --merge race.json s0.json s1.json
//   gridcast_race --check=race.json --baseline=BENCH_baseline.json
//   gridcast_race --list-backends
//
// --backend selects the collective backend by registry name ("plogp" =
// analytic model, "sim" = discrete-event simulator; "predicted" and
// "measured" are registry aliases of the two).  Sharded runs partition the
// (size x series) cell grid — or, in race mode, the (parameter-point x
// iteration-block) grid — deterministically, and --merge recombines shard
// outputs byte-identically to an unsharded run.  --check is the CI
// regression gate against the checked-in baselines (race reports also
// gate their Fig. 4 hit counts, exactly).  All logic lives in the library
// (src/exp/race_cli.hpp) where it is unit-tested; this is only the entry
// point.

#include <iostream>
#include <string>
#include <vector>

#include "exp/race_cli.hpp"
#include "support/error.hpp"

int main(int argc, char** argv) {
  using namespace gridcast;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (const auto& a : args) {
    if (a == "--help" || a == "-h") {
      std::cout << exp::race_cli_usage();
      return 0;
    }
  }

  try {
    const exp::RaceCli cli = exp::parse_race_cli(args);
    return exp::run_race_cli(cli, std::cout, std::cerr);
  } catch (const InvalidInput& e) {
    std::cerr << "gridcast_race: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "gridcast_race: internal error: " << e.what() << "\n";
    return 3;
  }
}
