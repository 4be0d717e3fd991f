#include "io/instance_io.hpp"

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

/// Token reader that skips '#' comments and throws with context.
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

  std::size_t count(const char* what) {
    const double v = number(what);
    // Range first: casting 2^64 or more to an integer is undefined.
    if (!(v >= 0.0 && v < 0x1p64) ||
        v != static_cast<double>(static_cast<std::size_t>(v)))
      throw InvalidInput(std::string(what) + " must be a non-negative integer");
    return static_cast<std::size_t>(v);
  }

 private:
  std::istream& is_;
};

}  // namespace

void write_instance(std::ostream& os, const sched::Instance& inst) {
  const std::size_t n = inst.clusters();
  os << "gridcast-instance v1\n";
  os << "clusters " << n << " root " << inst.root() << '\n';
  os << std::setprecision(17);
  os << "T";
  for (ClusterId c = 0; c < n; ++c) os << ' ' << inst.T(c);
  os << "\ng";
  for (ClusterId i = 0; i < n; ++i)
    for (ClusterId j = 0; j < n; ++j)
      os << ' ' << (i == j ? 0.0 : inst.g(i, j));
  os << "\nL";
  for (ClusterId i = 0; i < n; ++i)
    for (ClusterId j = 0; j < n; ++j)
      os << ' ' << (i == j ? 0.0 : inst.L(i, j));
  os << '\n';
}

sched::Instance read_instance(std::istream& is) {
  Lexer lex(is);
  lex.expect("gridcast-instance");
  lex.expect("v1");
  lex.expect("clusters");
  const std::size_t n = lex.count("cluster count");
  if (n == 0) throw InvalidInput("instance needs at least one cluster");
  constexpr std::size_t kMaxClusters = std::numeric_limits<ClusterId>::max();
  if (n > kMaxClusters)
    throw InvalidInput("cluster count " + std::to_string(n) +
                       " is out of range (max " +
                       std::to_string(kMaxClusters) + ")");
  lex.expect("root");
  const std::size_t root = lex.count("root");
  if (root >= n) throw InvalidInput("root out of range");

  // Values are appended as they are read, never sized from the untrusted
  // count: a short file promising a huge n fails at its end, not in an
  // allocation of n or n² values.
  lex.expect("T");
  std::vector<Time> T;
  for (std::size_t c = 0; c < n; ++c) T.push_back(lex.number("T value"));

  const auto read_matrix = [&](const char* name) {
    lex.expect(name);
    std::vector<Time> cells;
    for (std::size_t k = 0; k < n * n; ++k) cells.push_back(lex.number(name));
    SquareMatrix<Time> m(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) m(i, j) = cells[i * n + j];
    return m;
  };
  SquareMatrix<Time> g = read_matrix("g");
  SquareMatrix<Time> L = read_matrix("L");

  try {
    return sched::Instance(static_cast<ClusterId>(root), std::move(g),
                           std::move(L), std::move(T));
  } catch (const LogicError& e) {
    throw InvalidInput(std::string("inconsistent instance data: ") +
                       e.what());
  }
}

std::string instance_to_string(const sched::Instance& inst) {
  std::ostringstream os;
  write_instance(os, inst);
  return os.str();
}

sched::Instance instance_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_instance(is);
}

}  // namespace gridcast::io
