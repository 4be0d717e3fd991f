#include "support/matrix.hpp"

#include <gtest/gtest.h>

namespace gridcast {
namespace {

TEST(SquareMatrix, DefaultIsEmpty) {
  SquareMatrix<double> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
}

TEST(SquareMatrix, InitialValue) {
  SquareMatrix<int> m(3, 7);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 7);
}

TEST(SquareMatrix, ReadWrite) {
  SquareMatrix<double> m(2, 0.0);
  m(0, 1) = 3.5;
  m(1, 0) = -1.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 3.5);
  EXPECT_DOUBLE_EQ(m(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(SquareMatrix, OutOfRangeThrows) {
  SquareMatrix<int> m(2, 0);
  EXPECT_THROW((void)m.at(2, 0), LogicError);
  EXPECT_THROW((void)m.at(0, 2), LogicError);
}

TEST(SquareMatrix, RowsAreContiguousRowMajor) {
  SquareMatrix<int> m(3, 0);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = static_cast<int>(10 * r + c);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(m.row(r)[c], m(r, c));
      EXPECT_EQ(m.row(0)[r * 3 + c], m(r, c));
    }
  EXPECT_THROW((void)m.row(3), LogicError);
}

TEST(SquareMatrix, Fill) {
  SquareMatrix<int> m(3, 1);
  m.fill(9);
  EXPECT_EQ(m(2, 2), 9);
  EXPECT_EQ(m(0, 1), 9);
}

TEST(SquareMatrix, MirrorUpper) {
  SquareMatrix<int> m(3, 0);
  m(0, 1) = 12;
  m(0, 2) = 13;
  m(1, 2) = 23;
  m.mirror_upper();
  EXPECT_EQ(m(1, 0), 12);
  EXPECT_EQ(m(2, 0), 13);
  EXPECT_EQ(m(2, 1), 23);
}

TEST(SquareMatrix, Equality) {
  SquareMatrix<int> a(2, 1), b(2, 1);
  EXPECT_EQ(a, b);
  b(1, 1) = 5;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace gridcast
