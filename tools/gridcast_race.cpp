// gridcast_race: race registered heuristics over a size ladder (Figs. 5/6)
// or random Table 2 draws (--race, Figs. 1-4), merge shards and gate
// reports; `--help` lists the flags.  The logic lives, unit-tested, in
// src/exp/race_cli.hpp.

#include <iostream>

#include "exp/race_cli.hpp"

int main(int argc, char** argv) {
  return gridcast::exp::race_cli_main(argc, argv, std::cout, std::cerr);
}
