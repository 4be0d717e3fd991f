#pragma once

#include <iosfwd>
#include <string>

#include "topology/grid.hpp"

/// Plain-text persistence for grids, including full pLogP gap functions.
///
/// A grid description is the expensive artefact of a deployment: pLogP
/// acquisition needs minutes of network probing per link (Kielmann's
/// procedure).  Persisting it lets operators measure once and schedule
/// forever — and lets this repo check in the Table 3 testbed as data.
///
/// Format (whitespace-separated, `#` comments allowed between records):
///
///     gridcast-grid v1
///     clusters <n>
///     cluster <name> <size> binomial params <L> fn <k> <size value>...
///         ... fn <k> ... fn <k> ...      # g, os, or sample lists
///     link <from> <to> params ...        # one per ordered pair
///     end
///
/// `binomial` names the intra-cluster broadcast: T_c is the binomial
/// tree's, the one the simulator runs, and any other token is refused
/// with the cluster it names.  Parsing is strict; malformed input throws
/// InvalidInput with the offending token.
namespace gridcast::io {

void write_grid(std::ostream& os, const topology::Grid& grid);
[[nodiscard]] topology::Grid read_grid(std::istream& is);

[[nodiscard]] std::string grid_to_string(const topology::Grid& grid);
[[nodiscard]] topology::Grid grid_from_string(const std::string& text);

}  // namespace gridcast::io
