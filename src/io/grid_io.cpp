#include "io/grid_io.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "support/error.hpp"
#include "support/parse.hpp"

namespace gridcast::io {

namespace {

/// Token reader skipping '#' comments.  Numbers are read from its words
/// by support/parse.
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
  const auto k = parse_count(lex.word("sample count"), "sample count");
  if (k == 0) throw InvalidInput("gap function needs at least one sample");
  // Not reserved up front: k is untrusted.
  std::vector<plogp::GapFunction::Sample> samples;
  for (std::uint64_t i = 0; i < k; ++i) {
    const auto size =
        parse_count<Bytes>(lex.word("sample size"), "sample size");
    const double value =
        parse_decimal(lex.word("sample value"), "sample value");
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
  p.L = parse_decimal(lex.word("latency"), "latency");
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

/// read_params, naming the record in any error it raises: a grid has
/// n(n-1) links, and a bare "latency must be a finite decimal number, got
/// 'inf'" fits them all.
plogp::Params read_record_params(Lexer& lex, const std::string& record) {
  try {
    return read_params(lex);
  } catch (const InvalidInput& e) {
    throw InvalidInput(record + ": " + e.what());
  }
}

}  // namespace

void write_grid(std::ostream& os, const topology::Grid& grid) {
  grid.validate();
  os << std::setprecision(17);
  os << "gridcast-grid v1\n";
  os << "clusters " << grid.cluster_count() << '\n';
  for (ClusterId c = 0; c < grid.cluster_count(); ++c) {
    const auto& cl = grid.cluster(c);
    os << "cluster " << cl.name() << ' ' << cl.size() << " binomial";
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
  const auto n =
      parse_count<std::uint32_t>(lex.word("cluster count"), "cluster count");
  if (n == 0) throw InvalidInput("grid needs at least one cluster");

  // Not reserved up front: n is untrusted, and every cluster it promises
  // must still be read.
  std::vector<topology::Cluster> clusters;
  for (std::uint64_t c = 0; c < n; ++c) {
    lex.expect("cluster");
    const std::string name = lex.word("cluster name");
    const auto size =
        parse_count<std::uint32_t>(lex.word("cluster size"), "cluster size");
    if (size == 0) throw InvalidInput("cluster size must be positive");
    const std::string record =
        "cluster " + std::to_string(c) + " ('" + name + "')";
    // The simulator runs the binomial tree whatever a file declares, so
    // the model times only that tree and a file may declare only it.
    const std::string algorithm = lex.word("intra algorithm");
    if (algorithm != "binomial")
      throw InvalidInput(record + ": intra algorithm must be 'binomial', " +
                         "got '" + algorithm + "'");
    clusters.emplace_back(name, size, read_record_params(lex, record));
  }

  topology::Grid grid(std::move(clusters));
  for (std::string tok = lex.word("link or end"); tok != "end";
       tok = lex.word("link or end")) {
    if (tok != "link") throw InvalidInput("expected 'link', got '" + tok + "'");
    const auto from =
        parse_count<ClusterId>(lex.word("link source"), "link source");
    const auto to =
        parse_count<ClusterId>(lex.word("link target"), "link target");
    if (from >= n || to >= n || from == to)
      throw InvalidInput("bad link endpoints");
    const std::string record =
        "link " + std::to_string(from) + " -> " + std::to_string(to);
    if (grid.has_link(from, to))
      throw InvalidInput(record + " is given more than once");
    grid.set_link(from, to, read_record_params(lex, record));
  }
  // Each record was validated as read; what is left is that none is missing.
  for (ClusterId i = 0; i < n; ++i)
    for (ClusterId j = 0; j < n; ++j)
      if (i != j && !grid.has_link(i, j))
        throw InvalidInput("link " + std::to_string(i) + " -> " +
                           std::to_string(j) + " ('" +
                           grid.cluster(i).name() + "' -> '" +
                           grid.cluster(j).name() + "') is missing");
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
