// Tests for the yield-model catalogue (paper references [7]-[12], Eq. 3).
#include "yield/models.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::yield_model {
namespace {

TEST(YieldModels, AllModelsAgreeAtZeroDefects) {
  EXPECT_DOUBLE_EQ(poisson_yield(0.0), 1.0);
  EXPECT_DOUBLE_EQ(murphy_yield(0.0), 1.0);
  EXPECT_DOUBLE_EQ(seeds_yield(0.0), 1.0);
  EXPECT_DOUBLE_EQ(price_yield(0.0), 1.0);
  EXPECT_DOUBLE_EQ(negative_binomial_yield(0.0, 0.5), 1.0);
}

TEST(YieldModels, KnownValuesAtOneDefectPerChip) {
  EXPECT_NEAR(poisson_yield(1.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(murphy_yield(1.0), std::pow(1.0 - std::exp(-1.0), 2.0), 1e-12);
  EXPECT_NEAR(seeds_yield(1.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(price_yield(1.0), 0.5, 1e-12);
}

TEST(YieldModels, OrderingForLargeChips) {
  // For lambda >> 1, clustering helps: Poisson is the most pessimistic and
  // Price (Bose-Einstein, maximal clustering) the most optimistic; Seeds'
  // exp(-sqrt) sits between Murphy and Price at lambda = 6.
  const double lambda = 6.0;
  EXPECT_LT(poisson_yield(lambda), murphy_yield(lambda));
  EXPECT_LT(murphy_yield(lambda), seeds_yield(lambda));
  EXPECT_LT(seeds_yield(lambda), price_yield(lambda));
}

TEST(YieldModels, AllMonotoneDecreasingInDefects) {
  double prev_p = 1.1;
  double prev_m = 1.1;
  double prev_s = 1.1;
  double prev_pr = 1.1;
  double prev_nb = 1.1;
  for (double lambda = 0.0; lambda <= 10.0; lambda += 0.25) {
    EXPECT_LT(poisson_yield(lambda), prev_p);
    EXPECT_LT(murphy_yield(lambda), prev_m);
    EXPECT_LT(seeds_yield(lambda), prev_s + 1e-15);
    EXPECT_LT(price_yield(lambda), prev_pr);
    EXPECT_LT(negative_binomial_yield(lambda, 0.5), prev_nb);
    prev_p = poisson_yield(lambda);
    prev_m = murphy_yield(lambda);
    prev_s = seeds_yield(lambda);
    prev_pr = price_yield(lambda);
    prev_nb = negative_binomial_yield(lambda, 0.5);
  }
}

TEST(NegativeBinomial, RecoversPoissonAsVarianceVanishes) {
  for (double lambda = 0.5; lambda <= 5.0; lambda += 0.5) {
    EXPECT_NEAR(negative_binomial_yield(lambda, 1e-9),
                poisson_yield(lambda), 1e-6);
    EXPECT_DOUBLE_EQ(negative_binomial_yield(lambda, 0.0),
                     poisson_yield(lambda));
  }
}

TEST(NegativeBinomial, RecoversPriceAtUnitVarianceRatio) {
  // X = 1 gives y = 1/(1 + lambda): Bose-Einstein / Price.
  for (double lambda = 0.5; lambda <= 5.0; lambda += 0.5) {
    EXPECT_NEAR(negative_binomial_yield(lambda, 1.0), price_yield(lambda),
                1e-12);
  }
}

TEST(NegativeBinomial, Equation3SpotValue) {
  // y = (1 + X lambda)^(-1/X): X=0.5, lambda=4 -> 3^-2 = 1/9.
  EXPECT_NEAR(negative_binomial_yield(4.0, 0.5), 1.0 / 9.0, 1e-12);
}

TEST(NegativeBinomial, InversionRoundTrip) {
  for (double x : {0.0, 0.25, 0.5, 1.0, 2.0}) {
    for (double lambda : {0.1, 1.0, 2.5, 7.0}) {
      const double y = negative_binomial_yield(lambda, x);
      EXPECT_NEAR(defects_per_chip_for_yield(y, x), lambda,
                  1e-9 * std::max(1.0, lambda));
    }
  }
}

TEST(NegativeBinomial, SevenPercentYieldLikeThePaperExample) {
  // The paper's LSI chip had y ~= 0.07; check the implied defect count is
  // recovered consistently.
  const double lambda = defects_per_chip_for_yield(0.07, 0.5);
  EXPECT_NEAR(negative_binomial_yield(lambda, 0.5), 0.07, 1e-12);
  EXPECT_GT(lambda, 2.0);  // a low-yield chip carries several defects
}

TEST(DefectCountPmf, SumsToOneAndMatchesYieldAtZero) {
  for (double x : {0.0, 0.5, 1.0}) {
    const double lambda = 2.5;
    double total = 0.0;
    for (unsigned k = 0; k < 200; ++k) {
      total += defect_count_pmf(k, lambda, x);
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "X=" << x;
    EXPECT_NEAR(defect_count_pmf(0, lambda, x),
                negative_binomial_yield(lambda, x), 1e-12);
  }
}

TEST(DefectCountPmf, MeanMatchesLambda) {
  const double lambda = 3.0;
  const double x = 0.7;
  double mean = 0.0;
  for (unsigned k = 1; k < 400; ++k) {
    mean += k * defect_count_pmf(k, lambda, x);
  }
  EXPECT_NEAR(mean, lambda, 1e-6);
}

TEST(ClusterAlpha, IsReciprocal) {
  EXPECT_DOUBLE_EQ(cluster_alpha(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cluster_alpha(2.0), 0.5);
  EXPECT_THROW(cluster_alpha(0.0), ContractViolation);
}

TEST(YieldModels, DomainChecks) {
  EXPECT_THROW(poisson_yield(-1.0), ContractViolation);
  EXPECT_THROW(negative_binomial_yield(1.0, -0.1), ContractViolation);
  EXPECT_THROW(defects_per_chip_for_yield(0.0, 0.5), ContractViolation);
  EXPECT_THROW(defects_per_chip_for_yield(1.5, 0.5), ContractViolation);
}

TEST(ProcessEstimate, RecoversNegativeBinomialParameters) {
  // Sample per-die counts from NB(mean=2, X=0.5) and re-estimate.
  lsiq::util::Rng rng(5);
  std::vector<std::size_t> counts;
  const double die_area = 0.5;
  for (int i = 0; i < 50000; ++i) {
    counts.push_back(static_cast<std::size_t>(
        rng.negative_binomial(2.0, /*shape=*/2.0)));  // X = 1/shape = 0.5
  }
  const ProcessEstimate e =
      estimate_process_from_defect_counts(counts, die_area);
  EXPECT_NEAR(e.mean_defects_per_chip, 2.0, 0.05);
  EXPECT_NEAR(e.defect_density, 4.0, 0.1);
  EXPECT_NEAR(e.variance_ratio, 0.5, 0.05);
  EXPECT_EQ(e.sample_size, counts.size());
}

TEST(ProcessEstimate, PoissonSampleClampsVarianceRatioNearZero) {
  lsiq::util::Rng rng(7);
  std::vector<std::size_t> counts;
  for (int i = 0; i < 50000; ++i) {
    counts.push_back(static_cast<std::size_t>(rng.poisson(3.0)));
  }
  const ProcessEstimate e =
      estimate_process_from_defect_counts(counts, 1.0);
  EXPECT_NEAR(e.variance_ratio, 0.0, 0.02);
  EXPECT_NEAR(e.mean_defects_per_chip, 3.0, 0.05);
}

TEST(ProcessEstimate, RoundTripsThroughEquation3) {
  // Estimated (D0, X) + the yield formula should reproduce the sample's
  // empirical yield (fraction of zero-defect dies).
  lsiq::util::Rng rng(11);
  std::vector<std::size_t> counts;
  std::size_t zero = 0;
  for (int i = 0; i < 50000; ++i) {
    const auto k = static_cast<std::size_t>(
        rng.negative_binomial(1.5, 1.0));  // X = 1
    if (k == 0) ++zero;
    counts.push_back(k);
  }
  const ProcessEstimate e =
      estimate_process_from_defect_counts(counts, 1.0);
  const double predicted = negative_binomial_yield(
      e.mean_defects_per_chip, e.variance_ratio);
  EXPECT_NEAR(predicted, static_cast<double>(zero) / 50000.0, 0.01);
}

TEST(ProcessEstimate, DomainChecks) {
  EXPECT_THROW(estimate_process_from_defect_counts({1}, 1.0),
               ContractViolation);
  EXPECT_THROW(estimate_process_from_defect_counts({1, 2}, 0.0),
               ContractViolation);
  EXPECT_THROW(estimate_process_from_defect_counts({0, 0, 0}, 1.0),
               ContractViolation);
}

}  // namespace
}  // namespace lsiq::yield_model
