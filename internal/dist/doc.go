// Package dist provides the discrete-distribution machinery shared by
// the simulation engine and the validation experiments:
//
//   - sampling: Walker/Vose alias tables for O(1) categorical draws,
//     exact binomial (BINV inversion for small n·p, Hörmann's BTRS
//     transformed rejection for large n·p), exact Poisson (Knuth
//     product-of-uniforms for small μ, Hörmann's PTRS for large μ),
//     multinomial via sequential conditional binomials, and
//     multivariate-hypergeometric draws from count multisets;
//   - exact mass functions and tails: binomial and Poisson PMF/CDF,
//     multinomial log-PMF, binomial coefficients, the regularized
//     incomplete beta and gamma functions;
//   - inference helpers: Pearson chi-square goodness-of-fit and
//     two-sample tests (with small-expectation bin pooling).
//
// Every sampler is exact (draws from the stated distribution, not an
// approximation), which the engine's process-coupling guarantees and
// the backend-equivalence tests rely on. All samplers take an explicit
// *rng.Rand and are deterministic given its stream.
package dist
