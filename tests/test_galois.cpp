/**
 * @file
 * Field-axiom property tests for GF(p^k).
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "clos/galois.hpp"

namespace rfc {
namespace {

TEST(Primality, IsPrime)
{
    EXPECT_FALSE(isPrime(0));
    EXPECT_FALSE(isPrime(1));
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(3));
    EXPECT_FALSE(isPrime(4));
    EXPECT_TRUE(isPrime(17));
    EXPECT_FALSE(isPrime(91));  // 7*13
    EXPECT_TRUE(isPrime(97));
}

TEST(Primality, IsPrimePower)
{
    EXPECT_TRUE(isPrimePower(2));
    EXPECT_TRUE(isPrimePower(4));
    EXPECT_TRUE(isPrimePower(8));
    EXPECT_TRUE(isPrimePower(9));
    EXPECT_TRUE(isPrimePower(27));
    EXPECT_TRUE(isPrimePower(125));
    EXPECT_FALSE(isPrimePower(1));
    EXPECT_FALSE(isPrimePower(6));
    EXPECT_FALSE(isPrimePower(12));
    EXPECT_FALSE(isPrimePower(100));  // 2^2 * 5^2
}

TEST(GaloisField, RejectsNonPrimePower)
{
    EXPECT_THROW(GaloisField(6), std::invalid_argument);
    EXPECT_THROW(GaloisField(1), std::invalid_argument);
    EXPECT_THROW(GaloisField(12), std::invalid_argument);
}

TEST(GaloisField, CharacteristicAndDegree)
{
    GaloisField f8(8);
    EXPECT_EQ(f8.characteristic(), 2);
    EXPECT_EQ(f8.degree(), 3);
    GaloisField f9(9);
    EXPECT_EQ(f9.characteristic(), 3);
    EXPECT_EQ(f9.degree(), 2);
    GaloisField f7(7);
    EXPECT_EQ(f7.characteristic(), 7);
    EXPECT_EQ(f7.degree(), 1);
}

class GaloisFieldP : public ::testing::TestWithParam<int>
{};

TEST_P(GaloisFieldP, AdditiveGroupAxioms)
{
    GaloisField f(GetParam());
    const int q = f.order();
    for (int a = 0; a < q; ++a) {
        EXPECT_EQ(f.add(a, 0), a);                  // identity
        EXPECT_EQ(f.add(a, f.neg(a)), 0);           // inverse
        for (int b = 0; b < q; ++b) {
            EXPECT_EQ(f.add(a, b), f.add(b, a));    // commutative
            EXPECT_LT(f.add(a, b), q);              // closure
        }
    }
}

TEST_P(GaloisFieldP, MultiplicativeGroupAxioms)
{
    GaloisField f(GetParam());
    const int q = f.order();
    for (int a = 0; a < q; ++a) {
        EXPECT_EQ(f.mul(a, 1), a);                  // identity
        EXPECT_EQ(f.mul(a, 0), 0);                  // absorbing zero
        if (a != 0) {
            EXPECT_EQ(f.mul(a, f.inv(a)), 1);       // inverse
        }
        for (int b = 0; b < q; ++b)
            EXPECT_EQ(f.mul(a, b), f.mul(b, a));    // commutative
    }
}

TEST_P(GaloisFieldP, AssociativityAndDistributivity)
{
    GaloisField f(GetParam());
    const int q = f.order();
    // Exhaustive for small q, sampled stride for larger fields.
    const int stride = q <= 9 ? 1 : 3;
    for (int a = 0; a < q; a += stride)
        for (int b = 0; b < q; b += stride)
            for (int c = 0; c < q; c += stride) {
                EXPECT_EQ(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
                EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                EXPECT_EQ(f.mul(a, f.add(b, c)),
                          f.add(f.mul(a, b), f.mul(a, c)));
            }
}

TEST_P(GaloisFieldP, NoZeroDivisors)
{
    GaloisField f(GetParam());
    const int q = f.order();
    for (int a = 1; a < q; ++a)
        for (int b = 1; b < q; ++b)
            EXPECT_NE(f.mul(a, b), 0);
}

TEST_P(GaloisFieldP, SubIsAddOfNegation)
{
    GaloisField f(GetParam());
    const int q = f.order();
    for (int a = 0; a < q; ++a)
        for (int b = 0; b < q; ++b)
            EXPECT_EQ(f.add(f.sub(a, b), b), a);
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, GaloisFieldP,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9, 11, 13,
                                           16, 17, 25, 27, 32, 49,
                                           81));

TEST(GaloisField, InverseOfZeroThrows)
{
    GaloisField f(5);
    EXPECT_THROW(f.inv(0), std::domain_error);
}

} // namespace
} // namespace rfc
