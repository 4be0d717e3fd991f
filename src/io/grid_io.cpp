#include "io/grid_io.hpp"

#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "support/error.hpp"

namespace gridcast::io {

namespace {

/// Shared with instance_io: token reader skipping '#' comments.
class Lexer {
 public:
  explicit Lexer(std::istream& is) : is_(is) {}

  std::string word(const char* what) {
    std::string t;
    while (is_ >> t) {
      if (t[0] == '#') {
        std::string rest;
        std::getline(is_, rest);
        continue;
      }
      return t;
    }
    throw InvalidInput(std::string("unexpected end of input, expected ") +
                       what);
  }

  void expect(const std::string& literal) {
    const std::string t = word(literal.c_str());
    if (t != literal)
      throw InvalidInput("expected '" + literal + "', got '" + t + "'");
  }

  double number(const char* what) {
    const std::string t = word(what);
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(t, &used);
    } catch (const std::exception&) {
      throw InvalidInput(std::string("expected number for ") + what +
                         ", got '" + t + "'");
    }
    if (used != t.size())
      throw InvalidInput(std::string("trailing junk in number for ") + what +
                         ": '" + t + "'");
    // std::stod accepts inf, infinity and nan; no field of the format can
    // hold one.
    if (!std::isfinite(v))
      throw InvalidInput(std::string(what) + " must be finite, got '" + t +
                         "'");
    return v;
  }

  std::uint64_t count(const char* what) {
    const double v = number(what);
    // Range first: casting 2^64 or more to an integer is undefined.
    if (!(v >= 0.0 && v < 0x1p64) ||
        v != static_cast<double>(static_cast<std::uint64_t>(v)))
      throw InvalidInput(std::string(what) +
                         " must be a non-negative integer");
    return static_cast<std::uint64_t>(v);
  }

  /// count() for a field held in 32 bits (cluster counts and sizes): a
  /// larger value is rejected, not truncated.
  std::uint32_t count32(const char* what) {
    const std::uint64_t v = count(what);
    constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
    if (v > kMax)
      throw InvalidInput(std::string(what) + " " + std::to_string(v) +
                         " is out of range (max " + std::to_string(kMax) +
                         ")");
    return static_cast<std::uint32_t>(v);
  }

 private:
  std::istream& is_;
};

void write_fn(std::ostream& os, const plogp::GapFunction& f) {
  os << " fn " << f.samples().size();
  for (const auto& [size, value] : f.samples())
    os << ' ' << size << ' ' << value;
}

plogp::GapFunction read_fn(Lexer& lex) {
  lex.expect("fn");
  const auto k = lex.count("sample count");
  if (k == 0) throw InvalidInput("gap function needs at least one sample");
  std::vector<plogp::GapFunction::Sample> samples;
  samples.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) {
    const auto size = lex.count("sample size");
    const double value = lex.number("sample value");
    if (value < 0.0) throw InvalidInput("negative gap sample");
    samples.emplace_back(size, value);
  }
  try {
    return plogp::GapFunction(std::move(samples));
  } catch (const LogicError& e) {
    throw InvalidInput(std::string("bad gap function: ") + e.what());
  }
}

void write_params(std::ostream& os, const plogp::Params& p) {
  os << " params " << p.L;
  write_fn(os, p.g);
  write_fn(os, p.os);
  write_fn(os, p.orecv);
}

plogp::Params read_params(Lexer& lex) {
  lex.expect("params");
  plogp::Params p;
  p.L = lex.number("latency");
  p.g = read_fn(lex);
  p.os = read_fn(lex);
  p.orecv = read_fn(lex);
  try {
    p.validate();
  } catch (const LogicError& e) {
    throw InvalidInput(std::string("inconsistent pLogP parameters: ") +
                       e.what());
  }
  return p;
}

plogp::BcastAlgorithm algorithm_from_name(const std::string& name) {
  for (const auto a :
       {plogp::BcastAlgorithm::kFlat, plogp::BcastAlgorithm::kChain,
        plogp::BcastAlgorithm::kBinomial,
        plogp::BcastAlgorithm::kSegmentedChain})
    if (name == plogp::to_string(a)) return a;
  throw InvalidInput("unknown intra algorithm '" + name + "'");
}

}  // namespace

void write_grid(std::ostream& os, const topology::Grid& grid) {
  grid.validate();
  os << std::setprecision(17);
  os << "gridcast-grid v1\n";
  os << "clusters " << grid.cluster_count() << '\n';
  for (ClusterId c = 0; c < grid.cluster_count(); ++c) {
    const auto& cl = grid.cluster(c);
    os << "cluster " << cl.name() << ' ' << cl.size() << ' '
       << plogp::to_string(cl.algorithm());
    write_params(os, cl.intra());
    os << '\n';
  }
  for (ClusterId i = 0; i < grid.cluster_count(); ++i) {
    for (ClusterId j = 0; j < grid.cluster_count(); ++j) {
      if (i == j) continue;
      os << "link " << i << ' ' << j;
      write_params(os, grid.link(i, j));
      os << '\n';
    }
  }
  os << "end\n";
}

topology::Grid read_grid(std::istream& is) {
  Lexer lex(is);
  lex.expect("gridcast-grid");
  lex.expect("v1");
  lex.expect("clusters");
  const auto n = lex.count32("cluster count");
  if (n == 0) throw InvalidInput("grid needs at least one cluster");

  // Not reserved up front: n is untrusted, and every cluster it promises
  // must still be read.
  std::vector<topology::Cluster> clusters;
  for (std::uint64_t c = 0; c < n; ++c) {
    lex.expect("cluster");
    const std::string name = lex.word("cluster name");
    const auto size = lex.count32("cluster size");
    if (size == 0) throw InvalidInput("cluster size must be positive");
    const auto algorithm = algorithm_from_name(lex.word("intra algorithm"));
    plogp::Params intra = read_params(lex);
    clusters.emplace_back(name, size, std::move(intra), algorithm);
  }

  topology::Grid grid(std::move(clusters));
  for (std::string tok = lex.word("link or end"); tok != "end";
       tok = lex.word("link or end")) {
    if (tok != "link") throw InvalidInput("expected 'link', got '" + tok + "'");
    const auto from = lex.count("link source");
    const auto to = lex.count("link target");
    if (from >= n || to >= n || from == to)
      throw InvalidInput("bad link endpoints");
    grid.set_link(static_cast<ClusterId>(from), static_cast<ClusterId>(to),
                  read_params(lex));
  }
  try {
    grid.validate();
  } catch (const LogicError& e) {
    throw InvalidInput(std::string("incomplete grid: ") + e.what());
  }
  return grid;
}

std::string grid_to_string(const topology::Grid& grid) {
  std::ostringstream os;
  write_grid(os, grid);
  return os.str();
}

topology::Grid grid_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_grid(is);
}

}  // namespace gridcast::io
